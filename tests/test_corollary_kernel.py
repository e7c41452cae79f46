"""The stacked corollary kernel against the reference it replaced.

:func:`curvlike.gauss_bounds.corollary_evaluated` must give the four bool
arrays of :func:`corollary_oracle.reference_corollary` at the same gate,
tol * ||zeta||, on every family a report meets, at scales 2^k, and on forms
built to put one statement's residual at half or twice the gate.  The
report's block reads what it needs from the form's evaluation, and the
evaluation takes the trace once.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corollary_oracle import reference_corollary
from curvlike import gauss_bounds, reporting, tensor_core
from curvlike.gauss_bounds import (
    BoundMode,
    check_bound,
    corollary_evaluated,
    evaluate,
    ricci_forms,
)
from curvlike.sampling import draw_general, draw_symmetric
from curvlike.structures import Family, FamilyParams, construct_family
from curvlike.tensor_core import (
    DEFAULT_TOL,
    BundleValuedForm,
    rotate_frame,
    trace_norms_sq,
    traces,
    zeta_norm_sq,
)
from random_forms import random_orthogonal

KINDS = ("general", "symmetric", "umbilical", "h-umbilical", "zero")


def family_form(kind: str, rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    if kind == "general":
        return draw_general(rng, n, m, 1)[0]
    if kind == "symmetric":
        return draw_symmetric(rng, n, max(m, n), 1)[0]
    if kind == "umbilical":
        return rng.standard_normal(m)[:, None, None] * np.eye(n)
    if kind == "h-umbilical":
        lam, mu = rng.uniform(0.5, 2.0, 2)
        adapted = construct_family(FamilyParams(Family.H_UMBILICAL, n, lam=lam, mu=mu))
        q = random_orthogonal(rng, n)
        return rotate_frame(adapted, q, q).components
    return np.zeros((m, n, n))


def directions(zeta: BundleValuedForm, rng: np.random.Generator, count: int) -> np.ndarray:
    """The printed maximizer, the canonical basis and ``count`` random unit
    directions, stacked."""
    argmax = check_bound(zeta, BoundMode.GENERAL).argmax_direction
    random = rng.standard_normal((count, zeta.n))
    random /= np.linalg.norm(random, axis=1)[:, None]
    return np.vstack([argmax, np.eye(zeta.n), random])


def assert_matches_reference(zeta: BundleValuedForm, stack: np.ndarray, tol: float):
    """The kernel's four arrays equal the reference's at tol * ||zeta||;
    returns them."""
    got = corollary_evaluated(zeta.components, evaluate(zeta.components), stack, tol)
    fields = (got.equality_at_x, got.trace_zero, got.in_null_space, got.verified)
    expected = reference_corollary(zeta, stack, tol * math.sqrt(zeta_norm_sq(zeta)))
    for field, reference in zip(fields, expected):
        assert field.dtype == bool and field.shape == (len(stack),)
        assert np.array_equal(field, reference)
    return fields


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 16),
    m=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-30, 30),
    count=st.integers(0, 4),
    tol=st.sampled_from([DEFAULT_TOL, 1e-6]),
)
def test_kernel_matches_reference_on_every_family(kind, n, m, seed, k, count, tol):
    rng = np.random.default_rng(seed)
    zeta = BundleValuedForm(family_form(kind, rng, n, m) * 2.0**k)
    assert_matches_reference(zeta, directions(zeta, rng, count), tol)


def near_the_gate(statement: str, rng, n: int, m: int, factor: float) -> np.ndarray:
    """A form on which one statement at e_1 has a residual of ``factor``
    times the gate tol * ||zeta||, every other input of that statement
    being exactly 0 or far from the gate:

    - ``perp``: zeta(e_1, e_1) = trace / 2 and zeta(e_1, e_2) = eps;
    - ``half``: zeta(e_1, e_j) = 0 for j > 1 and zeta(e_1, e_1) - trace / 2 = eps;
    - ``null``: zeta(e_1, .) = 0 but for zeta(e_1, e_2) = eps;
    - ``trace``: a trace-free form plus eps in one trace entry.

    eps is set with the unperturbed ||zeta||; the perturbation moves the
    norm by a relative O(eps^2)."""
    block = draw_general(rng, n, m, 1)[0]
    comps = block.copy()
    if statement in ("perp", "half"):
        comps[:, 0, :] = comps[:, :, 0] = 0.0
        comps[:, 0, 0] = np.einsum("rjj->r", block[:, 1:, 1:])
    elif statement == "null":
        comps[:, 0, :] = comps[:, :, 0] = 0.0
    else:
        comps -= np.einsum("rjj->r", block)[:, None, None] * np.eye(n) / n
    eps = factor * DEFAULT_TOL * math.sqrt(float(np.square(comps).sum()))
    if statement in ("perp", "null"):
        comps[0, 0, 1] = comps[0, 1, 0] = eps
    elif statement == "half":
        comps[0, 0, 0] += 2.0 * eps
    else:
        comps[0, 0, 0] += eps
    return comps


@settings(max_examples=80, deadline=None)
@given(
    statement=st.sampled_from(["perp", "half", "null", "trace"]),
    factor=st.sampled_from([0.5, 2.0]),
    n=st.integers(2, 16),
    m=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-30, 30),
)
def test_gate_sits_at_tol_times_the_norm(statement, factor, n, m, seed, k):
    """At half the gate the statement holds at e_1, at twice the gate it
    fails, at every scale 2^k, and the kernel agrees with the reference."""
    rng = np.random.default_rng(seed)
    zeta = BundleValuedForm(near_the_gate(statement, rng, n, m, factor) * 2.0**k)
    equality, trace_zero, in_null, _ = assert_matches_reference(
        zeta, directions(zeta, rng, 2), DEFAULT_TOL
    )
    flag = {"perp": equality, "half": equality, "null": in_null, "trace": trace_zero}
    assert bool(flag[statement][1]) is (factor < 1.0)


def test_report_block_reads_the_evaluation(monkeypatch):
    """``report``'s corollary block takes trace zeta, its norm and ||zeta||^2
    from the report's evaluation: it runs with ``np.tensordot``,
    ``np.linalg.norm`` and every trace kernel made to fail, and gives the
    rows it gives without them."""
    zeta = BundleValuedForm(draw_general(np.random.default_rng(30), 4, 6, 1)[0])
    evaluation = evaluate(zeta.components)
    argmax = check_bound(zeta, BoundMode.GENERAL).argmax_direction
    expected = reporting._corollary_block(zeta, evaluation, argmax, DEFAULT_TOL)

    def forbidden(*args, **kwargs):
        raise AssertionError("the corollary block recomputed a quantity")

    for module, name in (
        (np, "tensordot"),
        (np.linalg, "norm"),
        (gauss_bounds, "traces"),
        (tensor_core, "traces"),
        (tensor_core, "trace_norms_sq"),
        (tensor_core, "norm_sqs"),
        (gauss_bounds, "norm_sqs"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    assert reporting._corollary_block(zeta, evaluation, argmax, DEFAULT_TOL) == expected


def test_evaluate_takes_the_trace_once(monkeypatch):
    """``evaluate`` takes the trace of a stack once, for S_T and for
    ||trace zeta||^2, which keeps the bits of ``trace_norms_sq``."""
    comps = draw_general(np.random.default_rng(31), 5, 7, 6)
    calls = []

    def counting(components):
        calls.append(components.shape)
        return traces(components)

    monkeypatch.setattr(gauss_bounds, "traces", counting)
    evaluation = evaluate(comps)
    assert calls == [comps.shape]
    assert np.array_equal(evaluation.trace_norm_sq, trace_norms_sq(comps))
    assert np.array_equal(evaluation.ricci_form, ricci_forms(comps))
