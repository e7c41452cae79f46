"""Verdicts on zeta scale with the data.

The curvature and Gauss residuals, both gaps and the S_T = bound * I test
are gated at tol * ||zeta||^2 with no floor; the total-symmetry residual
that certifies the improved bound, the corollary's tests on zeta and the
classifier's tests on a surface at tol * ||zeta||; the zero form is
||zeta||^2 = 0; the ambient margin at tol * (||zeta||^2 + |offset|); and
input pair symmetry at 1e-12 max |zeta|.  Scaling zeta by 2^k scales every
such quantity and its gate by exactly the same power of two, so the verdicts
and equality tags are bitwise invariant (the ambient one where the offset is
0), and large and tiny forms are judged as unit-scale ones are.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvlike.ambient_models import AmbientKind, AmbientModel
from curvlike.cli import main
from curvlike.errors import ValidationError
from curvlike.instance_io import Instance, save_instance
from curvlike.gauss_bounds import BoundMode
from curvlike.reporting import build_bound_report, build_check_report, build_instance_report
from curvlike.sampling import draw_general, draw_symmetric
from curvlike.structures import Family, FamilyParams, construct_family
from curvlike.tensor_core import DEFAULT_TOL, BundleValuedForm, rotate_frame
from random_forms import random_orthogonal


def gap_verdicts(doc: dict) -> list[bool]:
    return [
        any(failure.startswith(f"{mode.value} bound violated") for failure in doc["failures"])
        for mode in BoundMode
    ]


def verdicts(comps: np.ndarray, tol: float, ambient=None) -> dict:
    """``check``'s exit code and ``symmetry.passed``; the general and the
    improved gap verdicts of ``report`` and of ``bound``; the improved
    bound's certificate; the equality tags of both bounds; and the rows of
    ``report``'s corollary block and its ambient verdict.  ``report`` takes
    only a positive tol, which is also its null-space rank tolerance."""
    instance = Instance(zeta=BundleValuedForm(comps), ambient=ambient)
    check, check_code = build_check_report(instance, tol)
    bounds = {mode: build_bound_report(instance, mode, tol)[0] for mode in BoundMode}
    doc = build_instance_report(instance, tol)[0] if tol > 0 else None
    report = gap_verdicts(doc) if doc else [None] * 2
    bound = [gap_verdicts(bounds[mode])[index] for index, mode in enumerate(BoundMode)]
    tags = [bounds[mode]["bound"]["equality_class"]["tag"] for mode in BoundMode]
    printed = doc and [bound["equality_class"]["tag"] for bound in doc["bounds"].values()]
    return {
        "check": (check_code, check["symmetry"]["passed"]),
        "general": (report[0], bound[0]),
        "improved": (report[1], bound[1]),
        "certified": bounds[BoundMode.IMPROVED]["bound"]["symmetry_certified"],
        "tags": (tags, printed),
        "corollary": doc["corollary"]["rows"] if doc else None,
        "ambient": doc["ambient"]["holds"] if doc and ambient else None,
    }


def umbilical(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """zeta_r = h_r I: the general gap is 0 up to roundoff, so a gate of
    roundoff size decides it both ways."""
    return rng.standard_normal(m)[:, None, None] * np.eye(n)


def h_umbilical(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """The lambda = 3 mu pattern in random tangent and bundle frames, with
    zero slots past the first n: an improved equality case at n = 2."""
    mu = rng.uniform(0.5, 2.0)
    adapted = construct_family(FamilyParams(Family.H_UMBILICAL, n, lam=3.0 * mu, mu=mu))
    comps = np.zeros((max(m, n), n, n))
    comps[:n] = adapted.components
    slots = len(comps)
    return rotate_frame(
        BundleValuedForm(comps), random_orthogonal(rng, n), random_orthogonal(rng, slots)
    ).components


FORMS = {
    "general": lambda rng, n, m: draw_general(rng, n, m, 1)[0],
    "symmetric": lambda rng, n, m: draw_symmetric(rng, n, max(m, n), 1)[0],
    "umbilical": umbilical,
    "h-umbilical": h_umbilical,
    "zero": lambda rng, n, m: np.zeros((m, n, n)),
}

# Ambient models with c = 0, whose Ricci offset is 0: the margin is then
# homogeneous of degree 2 in zeta, as its gate is.
OFFSET_FREE = {
    "real": AmbientModel(AmbientKind.REAL_SPACE_FORM, 0.0),
    "lagrangian": AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 0.0),
}


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    m=st.integers(1, 8),
    kind=st.sampled_from(sorted(FORMS)),
    seed=st.integers(0, 2**32 - 1),
    # ||zeta||^2 of every form drawn here stays a normal float.
    k=st.integers(-30, 30),
    # Gates of roundoff size decide the residuals both ways, and a negative
    # tol makes the gap verdicts fire on gaps below |tol| * ||zeta||^2.
    tol=st.sampled_from([DEFAULT_TOL, 1e-15, 2e-16, 5e-17, -0.01, -0.1]),
    ambient=st.sampled_from([None, *sorted(OFFSET_FREE)]),
)
# Times 2^-30 every |zeta(X, e_j)| of this surface is below an absolute 1e-9.
@example(n=2, m=2, kind="umbilical", seed=199, k=-30, tol=DEFAULT_TOL, ambient=None)
def test_verdicts_are_invariant_under_power_of_two_scaling(n, m, kind, seed, k, tol, ambient):
    comps = FORMS[kind](np.random.default_rng(seed), n, m)
    model = OFFSET_FREE[ambient] if ambient and n >= 2 else None
    assert verdicts(comps * 2.0**k, tol, model) == verdicts(comps, tol, model)


@pytest.mark.parametrize("kind", ["zero", "umbilical", "h-umbilical"])
@pytest.mark.parametrize("k", [-60, -30, 30, 60])
def test_equality_tags_are_invariant_under_power_of_two_scaling(kind, k):
    """Each equality case keeps its tag at 2^k, for 20 seeded surfaces;
    ||zeta||^2 stays a normal float at every k here."""
    expected = {
        "zero": ["zero-form"] * 2,
        "umbilical": ["umbilical-surface", "no-equality"],
        "h-umbilical": ["no-equality", "h-umbilical-surface"],
    }[kind]
    for seed in range(20):
        rng = np.random.default_rng([seed, 127])
        comps = FORMS[kind](rng, 2, int(rng.integers(1, 5)))
        assert verdicts(comps * 2.0**k, DEFAULT_TOL)["tags"] == (expected, expected)


def test_tiny_umbilical_surface_is_not_certified():
    """An umbilical surface is not totally symmetric at any scale, and
    violates the improved bound.  Times 2^-30 its residual falls below an
    absolute tol = 1e-9, but not below tol * ||zeta||, so the improved bound
    is not claimed and neither ``bound`` nor ``report`` calls its gap of
    -3.5e-19 a violation."""
    comps = umbilical(np.random.default_rng(199), 2, 2) * 2.0**-30
    instance = Instance(zeta=BundleValuedForm(comps))
    doc, code = build_bound_report(instance, BoundMode.IMPROVED, DEFAULT_TOL)
    assert doc["bound"]["symmetry_certified"] is False
    assert doc["bound"]["gap"] < -doc["tolerance"]
    assert doc["failures"] == [
        "improved bound not certified: form fails the total-symmetry hypothesis"
    ]
    assert code == 1
    report, _ = build_instance_report(instance, DEFAULT_TOL)
    assert report["bounds"]["improved"]["symmetry_certified"] is False
    assert gap_verdicts(report) == [False, False]


def test_tiny_umbilical_surface_keeps_its_corollary():
    """The same umbilical surface times 2^-30 prints the corollary rows of
    the unscaled form and exits 0: equality holds at every direction and
    neither the trace nor any zeta(X, e_j) vanishes against tol * ||zeta||.
    An absolute tol = 1e-9 read every |zeta(X, e_j)| as 0, so each row
    showed exactly two statements true and the report exited 1.  Its tag is
    the unscaled one, umbilical: the zero form is ||zeta||^2 = 0, not
    max |zeta| <= tol, and the umbilical test is the corollary's own."""
    comps = umbilical(np.random.default_rng(199), 2, 2)
    unscaled, unscaled_code = build_instance_report(
        Instance(zeta=BundleValuedForm(comps)), DEFAULT_TOL
    )
    tiny = Instance(zeta=BundleValuedForm(comps * 2.0**-30))
    report, code = build_instance_report(tiny, DEFAULT_TOL)
    assert (code, report["failures"]) == (unscaled_code, unscaled["failures"]) == (0, [])
    assert report["corollary"] == unscaled["corollary"]
    fields = ("equality_at_x", "trace_zero", "in_null_space", "verified")
    rows = [[row[field] for field in fields] for row in report["corollary"]["rows"]]
    assert rows == [[True, False, False, True]] * 3
    tags = [bound["equality_class"]["tag"] for bound in report["bounds"].values()]
    assert tags == ["umbilical-surface", "no-equality"]
    assert tags == [bound["equality_class"]["tag"] for bound in unscaled["bounds"].values()]


def test_large_general_forms_pass_check(tmp_path, capsys):
    """Ten seeded general (8, 8) forms times 1e4: roundoff in T's first
    Bianchi sum and Gauss residual exceeds an absolute 1e-9, but not the
    gate 1e-9 * ||zeta||^2."""
    for seed in range(10):
        comps = draw_general(np.random.default_rng([seed, 88]), 8, 8, 1)[0] * 1e4
        path = str(tmp_path / f"big{seed}.json")
        save_instance(Instance(zeta=BundleValuedForm(comps)), path)
        assert main(["check", path]) == 0
        assert "failures: []" in capsys.readouterr().out


def test_tiny_generic_form_is_not_the_zero_form(tmp_path, capsys):
    """A generic (3, 3) form times 1e-11 has S_T far from bound * I relative
    to ||zeta||^2, so neither bound calls it an equality case."""
    comps = draw_general(np.random.default_rng(33), 3, 3, 1)[0] * 1e-11
    path = str(tmp_path / "tiny.json")
    save_instance(Instance(zeta=BundleValuedForm(comps)), path)
    assert main(["report", path]) == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    assert [bounds[mode]["equality_class"]["tag"] for mode in bounds] == ["no-equality"] * 2


def test_scaled_h_umbilical_reports_hold_their_ambient_bound(monkeypatch):
    """files-grid's ``h-umbilical-2x2`` file (lambda = 3 mu in a complex
    Lagrangian ambient, margin exactly 0 at unit scale) times 1e3 and 1e4,
    for seeds 0-199.  Its margins are roundoff of ||zeta||^2 of 1e6-1e8;
    gated at an absolute tol they failed ``report`` on 31 and 132 seeds."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for seed in range(200):
        [spec] = [s for s in workloads.file_specs(seed) if s.name == "h-umbilical-2x2"]
        ambient = AmbientModel(AmbientKind(spec.ambient["kind"]), spec.ambient["c"])
        for scale in (1e3, 1e4):
            instance = Instance(zeta=BundleValuedForm(spec.zeta * scale), ambient=ambient)
            doc, code = build_instance_report(instance, DEFAULT_TOL)
            assert (code, doc["failures"], doc["ambient"]["holds"]) == (0, [], True)
            tags = [bound["equality_class"]["tag"] for bound in doc["bounds"].values()]
            assert tags == ["no-equality", "h-umbilical-surface"]


def test_input_symmetry_is_judged_on_the_forms_scale():
    """A general (8, 8) form times 1e4, rotated by a plain einsum, is
    symmetric to 5e-16 of its size; its absolute asymmetry of about 1e-11
    was refused against an absolute 1e-12.  A (3, 3) form times 1e-14 with
    one entry moved by 1e-13, ten times the form's size, was accepted and
    mirrored.  At 1e-12 max |zeta| the first is accepted and the second
    refused, naming the moved entry."""
    rng = np.random.default_rng(131)
    big = draw_general(rng, 8, 8, 1)[0] * 1e4
    q_t, q_b = random_orthogonal(rng, 8), random_orthogonal(rng, 8)
    rotated = np.einsum("sr,ai,bj,rij->sab", q_b, q_t, q_t, big)
    assert np.abs(rotated - rotated.transpose(0, 2, 1)).max() > 1e-12
    BundleValuedForm(rotated)
    tiny = draw_general(rng, 3, 3, 1)[0] * 1e-14
    tiny[1, 0, 2] += 1e-13
    named = r"^zeta\[1\]\[0\]\[2\] = .* differs from zeta\[1\]\[2\]\[0\] = "
    with pytest.raises(ValidationError, match=named):
        BundleValuedForm(tiny)
