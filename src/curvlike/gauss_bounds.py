"""Curvature-like tensors built from a bundle-valued form via the algebraic
Gauss equation, the two sharp Ricci bounds, and their equality classifiers.

The algebraic Gauss equation couples a symmetric bundle-valued form zeta to a
4-index tensor:

    T(X, Y, Z, W) = <zeta(X, W), zeta(Y, Z)> - <zeta(X, Z), zeta(Y, W)>.

For such a pair the Chen-Ricci inequality bounds Ric_T(X) by
||trace zeta||^2 / 4 for every unit X; when zeta is totally symmetric in the
adapted sense (bundle slot i pairing with tangent index i) the bound sharpens
to (n - 1)/(4n) * ||trace zeta||^2.  Equality across all unit directions
happens only for the zero form or, on surfaces, for the umbilical pattern
(general bound) and the H-umbilical lambda = 3 mu pattern (improved bound).

The array kernels (:func:`gauss_components`, :func:`gauss_probe_residuals`,
:func:`ricci_forms`, :func:`ricci_probe_residuals`,
:func:`total_symmetry_residuals`, :func:`evaluate`) take leading axes that
stack independent forms; the functions on single forms are their one-form
case, so a sampling campaign and a single report agree bitwise.  Every kernel
allocates its own result, except that :func:`gauss_components` may write
into a caller's :func:`gauss_buffer`.

``check`` and ``report`` build T once and check it against zeta and S_T
with :func:`gauss_probe_residuals`.  A sampling campaign checks each form's
S_T against zeta with :func:`ricci_probe_residuals`, with no n^4 tensor; it
builds and checks T only for its audited instances.  Either way T comes
from one stacked product per form, written in T's own index order, and a
form's n^4 stage (``reporting._gauss_stage``) holds one n^4 allocation: that
product X, T and the scratch of the residual kernels share one
:func:`gauss_buffer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .optim_lemmas import positive_lead, top_eigenvalues, top_eigenvector
from .tensor_core import (
    DEFAULT_TOL,
    MAX_TANGENT_DIM,
    BundleValuedForm,
    CurvatureLikeTensor,
    as_unit_vector,
    norm_sqs,
    page_aligned_empty,
    rotation_to_first_axis,
    squared_norms,
    traces,
)


class BoundMode(Enum):
    GENERAL = "general"
    IMPROVED = "improved"


class EqualityTag(Enum):
    ZERO_FORM = "zero-form"
    UMBILICAL_SURFACE = "umbilical-surface"
    H_UMBILICAL_SURFACE = "h-umbilical-surface"
    NO_EQUALITY = "no-equality"


@dataclass(frozen=True)
class EqualityClass:
    """Equality-case verdict with witness frames when a pattern is certified.

    ``tangent_frame`` / ``bundle_frame`` rows express the adapted frame in the
    input coordinates; ``mu`` is the H-umbilical parameter (canonicalized to
    mu >= 0).  An umbilical surface reports the input frame, since every
    frame of it is adapted; :func:`_classify` states the three rules.
    """

    tag: EqualityTag
    mu: float | None = None
    tangent_frame: np.ndarray | None = None
    bundle_frame: np.ndarray | None = None


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound evaluation on one form."""

    mode: BoundMode
    bound_value: float
    ricci_max: float
    argmax_direction: np.ndarray
    gap: float
    symmetry_certified: bool
    equality_class: EqualityClass


# Up to this size of T (n <= 9) a form's n^4 stage runs as one block: on a
# small form the Python cost of each extra block outweighs the memory saved.
_WHOLE_TENSOR_BYTES = 64 * 1024


def gauss_buffer(n: int) -> np.ndarray:
    """An empty buffer [n + b, n, n, n] for one form's n^4 stage, with b = n
    where T fits in 64 KiB and n // 2 above (768 KiB at n = 16), page-aligned
    by :func:`~curvlike.tensor_core.page_aligned_empty`:
    :func:`gauss_components` writes X and T into it, and the b slabs it
    leaves spent are scratch for
    :func:`~curvlike.tensor_core.curvature_residuals` and
    :func:`~curvlike.tensor_core.pair_exchange_residuals`."""
    b = n if 8 * n**4 <= _WHOLE_TENSOR_BYTES else n // 2
    return page_aligned_empty((n + b, n, n, n))


def gauss_components(components: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gauss tensors T[..., i, j, k, l] of a stack of forms zeta[..., r, i, j].

    With the first pair fixed at (e_i, e_j), slab T[i, j] is M - M^T for
    M = A_j^T A_i, A_i = zeta[:, i, :].  So with Z the form reshaped to
    (m', n^2), one stacked product of Z^T with the n matrices A_i writes
    X[i, j, k, l] = <zeta_jk, zeta_il> in T's own index order, and
    T = X - X.swapaxes(-2, -1) costs one subtraction per entry.  The
    subtraction makes the second skew exact whatever the BLAS does; the first
    skew and pair exchange pair one dot product with the same dot product
    taken elsewhere in the product, so they hold to roundoff at worst.

    X and T share one buffer ``out`` [..., n + b, n, n, n] (see
    :func:`gauss_buffer`): X fills its last n slabs, and T its first n, b
    slabs at a time.  Slab i of T reads only slab i of X, so each block
    overwrites only slabs of X already read, and the last b slabs are left
    spent.  Without ``out`` the buffer is fresh, with b = n.  Each entry of T
    is the same one subtraction whatever b is.  Returns the view of T.
    """
    comps = np.asarray(components)
    lead, m, n = comps.shape[:-3], comps.shape[-3], comps.shape[-1]
    out = np.empty(lead + (2 * n, n, n, n)) if out is None else out
    b = out.shape[-4] - n
    z = comps.reshape(lead + (1, m, n * n))
    x = np.matmul(
        np.swapaxes(z, -1, -2),
        np.swapaxes(comps, -3, -2),
        out=out[..., b:, :, :, :].reshape(lead + (n, n * n, n)),
    ).reshape(lead + (n, n, n, n))
    for start in range(0, n, b):
        block = slice(start, min(start + b, n))
        slab = x[..., block, :, :, :]
        np.subtract(slab, slab.swapaxes(-2, -1), out=out[..., block, :, :, :])
    return out[..., :n, :, :, :]


def build_T_from_zeta(zeta: BundleValuedForm) -> CurvatureLikeTensor:
    """Assemble T[i,j,k,l] = sum_r (zeta[r,i,l] zeta[r,j,k] - zeta[r,i,k] zeta[r,j,l]).

    The output satisfies all curvature symmetries by construction.
    """
    return CurvatureLikeTensor(gauss_components(zeta.components))


def ricci_forms(components: np.ndarray, trace: np.ndarray | None = None) -> np.ndarray:
    """Ricci forms S_T of the Gauss tensors of a stack of forms, straight
    from zeta[..., r, i, j] and, when in hand, their :func:`traces`:

        S_T[i, k] = <trace zeta, zeta[:, i, k]> - sum_r (zeta_r zeta_r)[i, k],

    symmetrized to kill roundoff.  This is the contraction sum_j T[j, i, k, j]
    of :func:`build_T_from_zeta` at O(m' n^3) cost, without the n^4 tensor.

    Two products per form: trace zeta times Z, the form reshaped to
    (m', n^2), gives <trace zeta, zeta_ik>; A^T A, with A the form reshaped
    to (m' n, n), gives sum_r zeta_r zeta_r because each zeta_r is symmetric.
    """
    comps = np.asarray(components)
    lead, m, n = comps.shape[:-3], comps.shape[-3], comps.shape[-1]
    z = comps.reshape(lead + (m, n * n))
    a = comps.reshape(lead + (m * n, n))
    trace = traces(comps) if trace is None else trace
    s = (trace[..., None, :] @ z).reshape(lead + (n, n))
    s -= np.swapaxes(a, -1, -2) @ a
    return 0.5 * (s + np.swapaxes(s, -1, -2))


# Unit-vector quadruples (X, Y, Z, W) at which gauss_probe_residuals evaluates
# T.  The seed is a constant per tangent dimension, never a campaign's
# stream, so a residual depends on the form alone.  With these seeds every
# entry T[j, i, k, l] with j != l, which the contraction with S_T never
# reads, enters some probe with weight |X_j Y_i Z_k W_l| >= 2.5e-6 (the
# smallest is at n = 15; at n = 16 it is 2.8e-5).
GAUSS_PROBE_SEED = 0x9A055
GAUSS_PROBES = 4


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows a_p (x) b_p, flattened to n^2, of two (k, n) stacks of vectors."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


@lru_cache(maxsize=MAX_TANGENT_DIM)
def _probe_matrices(n: int) -> tuple[np.ndarray, ...]:
    """Read-only probe matrices for tangent dimension n, from k =
    :data:`GAUSS_PROBES` seeded unit vectors in each of X, Y, Z and W.
    :func:`gauss_probe_residuals` reads the first three: the rows
    X_p (x) Y_p (k, n^2), the columns Z_p (x) W_p (n^2, k), and the columns
    X_p (x) W_p, X_p (x) Z_p, Y_p (x) Z_p, Y_p (x) W_p (n^2, 4k).
    :func:`ricci_probe_residuals` reads the last two, from all 4k vectors u:
    the columns u (n, 4k), and the columns u (x) u followed by the identity
    (n^2, 4k + 1)."""
    v = np.random.default_rng([GAUSS_PROBE_SEED, n]).standard_normal((4, GAUSS_PROBES, n))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    (x, y, z, w), units = v, v.reshape(-1, n)
    pairs = np.concatenate([_outer(x, w), _outer(x, z), _outer(y, z), _outer(y, w)])
    squares = np.concatenate([_outer(units, units), np.eye(n).reshape(1, n * n)])
    columns = (_outer(z, w), pairs, units, squares)
    matrices = (_outer(x, y), *(rows.T.copy() for rows in columns))
    for matrix in matrices:
        matrix.flags.writeable = False
    return matrices


def ricci_probe_residuals(components: np.ndarray, ricci_form: np.ndarray) -> np.ndarray:
    """Residual of the Ricci form ``ricci_form`` [..., i, k] of each form in a
    stack zeta[..., r, i, j], checked straight from zeta at the 4k unit
    vectors x of :func:`_probe_matrices`:

        S_T(x, x) = <zeta(x, x), trace zeta> - sum_j |zeta(x, e_j)|^2,

    which is Ric_T(x) of the Gauss tensor.  The route shares no code with
    :func:`ricci_forms`: trace zeta and every zeta(x, x) come from one
    product of zeta, read as (m', n^2), with the columns x (x) x and the
    identity; zeta(x, e_j) from zeta, read as (m' n, n), times the columns x.
    Cost O(k m' n^2) per form, without the n^4 tensor.  Every product is a
    stacked matmul, one per form, so a form gives the same bits alone and in a
    stack.  Returns the max absolute difference over the probes per form;
    on a correct pair it is roundoff, a few 1e-16 ||zeta||^2.
    """
    comps = np.asarray(components)
    lead, m, n = comps.shape[:-3], comps.shape[-3], comps.shape[-1]
    *_, units, squares = _probe_matrices(n)
    k = units.shape[-1]
    at_squares = comps.reshape(lead + (m, n * n)) @ squares
    trace = np.swapaxes(at_squares[..., k:], -1, -2)
    along = trace @ at_squares[..., :k]
    across = comps.reshape(lead + (m * n, n)) @ units
    sum_sq = np.ones((1, m * n)) @ np.square(across, out=across)
    expected = (along - sum_sq)[..., 0, :]
    s_at = (np.reshape(ricci_form, lead + (1, n * n)) @ squares[:, :k])[..., 0, :]
    return np.abs(s_at - expected).max(axis=-1)


def gauss_probe_residuals(
    tensors: np.ndarray, components: np.ndarray, ricci_form: np.ndarray
) -> np.ndarray:
    """Residual of the algebraic Gauss equation for each pair of a tensor
    stack [..., i, j, k, l] and a form stack [..., r, i, j], checked by two
    routes that share no code with :func:`gauss_components`:

    - the contraction sum_j T[j, i, k, j] against ``ricci_form``, the
      stack's S_T from :func:`ricci_forms` (an error on that diagonal shows
      at full size);
    - T(X, Y, Z, W) at :data:`GAUSS_PROBES` fixed unit-vector quadruples
      against <zeta(X, W), zeta(Y, Z)> - <zeta(X, Z), zeta(Y, W)>.

    Returns the larger of the two max absolute differences per pair.  T is
    read as (n^2, n^2) and multiplied by the k columns Z (x) W, zeta is read
    as (m', n^2) and multiplied by the pair columns; each product is a
    stacked matmul, one per form, so a form gives the same bits alone and in
    a stack.  On a correct pair the result is roundoff, a few 1e-16 ||zeta||^2.
    """
    comps = np.asarray(components)
    lead, m, n = comps.shape[:-3], comps.shape[-3], comps.shape[-1]
    k = GAUSS_PROBES
    xy, zw, pairs, _, _ = _probe_matrices(n)
    contraction = np.trace(tensors, axis1=-4, axis2=-1)
    residual = np.abs(contraction - ricci_form).max(axis=(-2, -1))
    t_at = xy @ (np.reshape(tensors, lead + (n * n, n * n)) @ zw)
    values = comps.reshape(lead + (m, n * n)) @ pairs
    # Column p of the product pairs zeta(X, W) with zeta(Y, Z); column k + p
    # pairs zeta(X, Z) with zeta(Y, W).
    inner = np.diagonal(
        np.swapaxes(values[..., : 2 * k], -1, -2) @ values[..., 2 * k :], 0, -2, -1
    )
    expected = inner[..., :k] - inner[..., k:]
    probed = np.abs(np.diagonal(t_at, 0, -2, -1) - expected).max(axis=-1)
    return np.maximum(residual, probed)


def bound_coefficient(mode: BoundMode, n: int) -> float:
    """Factor c of a bound c * ||trace zeta||^2 in tangent dimension n: 1/4
    for the general bound, valid for every Gauss pair, and (n - 1)/(4n) for
    the improved one, a valid claim only when total symmetry is certified."""
    return 0.25 if mode is BoundMode.GENERAL else (n - 1) / (4.0 * n)


def total_symmetry_residuals(components: np.ndarray) -> np.ndarray:
    """Residual of the cubic-symmetry hypothesis for each form in a stack
    zeta[..., r, i, j]; see :func:`is_totally_symmetric`.  +inf where m' < n,
    which leaves no room for the adapted frame, so no tolerance certifies it.
    On forms bitwise symmetric in (i, j), as :func:`checked_components` and
    the draws of :mod:`curvlike.sampling` give them, C[r, i, j] - C[i, r, j]
    meets every difference the permutations make."""
    comps = np.asarray(components)
    n = comps.shape[-1]
    if comps.shape[-3] < n:
        return np.full(comps.shape[:-3], np.inf)
    within = (-3, -2, -1)
    cubic, tail = comps[..., :n, :, :], comps[..., n:, :, :]
    swapped = cubic - np.swapaxes(cubic, -3, -2)
    residual = np.abs(swapped, out=swapped).max(axis=within)
    # max |tail| without an |tail| array; abs turns a -0.0 maximum into +0.0.
    top, bottom = tail.max(axis=within, initial=0.0), tail.min(axis=within, initial=0.0)
    return np.maximum(residual, np.abs(np.maximum(top, -bottom)))


def is_totally_symmetric(
    zeta: BundleValuedForm, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Certify the cubic-symmetry hypothesis behind the improved bound.

    Reading bundle slots 0..n-1 as the adapted frame, C[i][j][k] :=
    zeta[i][j][k] must be invariant under all permutations of (i, j, k), and
    every slot past n-1 must vanish, to tol * ||zeta||.  Returns (verdict,
    max residual), (False, inf) when the bundle has fewer than n slots.
    """
    residual = float(total_symmetry_residuals(zeta.components))
    return bool(_certified(residual, norm_sqs(zeta.components), tol)), residual


def _certified(residual, norm_sq, tol: float):
    """The improved bound's certificate: total-symmetry residual, linear in
    zeta, <= tol * ||zeta||, so it is invariant under zeta -> 2^k zeta."""
    return residual <= tol * np.sqrt(norm_sq)


@dataclass(frozen=True)
class FormEvaluation:
    """Per-form quantities that every verdict reads, from :func:`evaluate`;
    each field keeps the stack's leading axes.  ``ricci_max``, max Ric_T over
    unit vectors, is the top eigenvalue of ``ricci_form`` from
    :func:`top_eigenvalues`: the verdicts compare values only, and the one
    maximizing direction a report prints is :func:`check_evaluated`'s.
    :func:`_certified` reads ``symmetry_residual``.  ``norm_sq``, ||zeta||^2,
    scales every gate on a quantity of zeta's size."""

    norm_sq: np.ndarray
    trace: np.ndarray
    trace_norm_sq: np.ndarray
    ricci_form: np.ndarray
    ricci_max: np.ndarray
    symmetry_residual: np.ndarray


def evaluate(components: np.ndarray) -> FormEvaluation:
    """||zeta||^2, trace zeta, ||trace zeta||^2, S_T with its top eigenvalue
    and the total-symmetry residual of a form or a stack zeta[..., r, i, j],
    bitwise symmetric in (i, j).  The trace is taken once, for S_T and its
    norm alike; the spectrum of the whole stack is one ``eigvalsh``, with no
    eigenvectors."""
    comps = np.asarray(components)
    trace = traces(comps)
    s_form, norm_sq = ricci_forms(comps, trace), norm_sqs(comps)
    top, residual = top_eigenvalues(s_form), total_symmetry_residuals(comps)
    return FormEvaluation(norm_sq, trace, squared_norms(trace), s_form, top, residual)


def _gaps(evaluation: FormEvaluation, mode: BoundMode) -> np.ndarray:
    """Bound minus max Ric_T for each evaluated form; < 0 where it fails."""
    coefficient = bound_coefficient(mode, evaluation.ricci_form.shape[-1])
    return coefficient * evaluation.trace_norm_sq - evaluation.ricci_max


def check_bound(
    zeta: BundleValuedForm, mode: BoundMode, tol: float = DEFAULT_TOL
) -> BoundReport:
    """Evaluate one bound end to end: form S_T, extremize Ric_T, certify the
    hypothesis, classify the equality case.

    The improved bound is still reported when certification fails (the gap may
    then be negative); callers read ``symmetry_certified`` before claiming it.
    """
    [report] = check_evaluated(zeta, evaluate(zeta.components), (mode,), tol)
    return report


def check_evaluated(
    zeta: BundleValuedForm, evaluation: FormEvaluation, modes, tol: float
) -> list[BoundReport]:
    """:func:`check_bound` in each of ``modes``, in order, on a form whose
    :func:`evaluate` is in hand.  The maximizing direction is the same in
    every mode: one ``eigh`` of S_T, by :func:`top_eigenvector`."""
    direction = top_eigenvector(evaluation.ricci_form)
    symmetric = bool(_certified(evaluation.symmetry_residual, evaluation.norm_sq, tol))
    reports = []
    for mode in modes:
        bound = bound_coefficient(mode, zeta.n) * float(evaluation.trace_norm_sq)
        reports.append(
            BoundReport(
                mode=mode,
                bound_value=bound,
                ricci_max=float(evaluation.ricci_max),
                argmax_direction=direction,
                gap=float(_gaps(evaluation, mode)),
                symmetry_certified=mode is BoundMode.GENERAL or symmetric,
                equality_class=_classify(zeta, evaluation, mode, bound, direction, tol),
            )
        )
    return reports


def equality_directions(
    zeta: BundleValuedForm, tol: float = DEFAULT_TOL
) -> list[np.ndarray]:
    """Unit directions attaining the general bound: the eigenvectors of S_T
    that pass the equality test of :func:`corollary_evaluated`, so the
    canonical basis (``eigh`` of 0) for the zero form.  May be empty."""
    comps = zeta.components
    evaluation = evaluate(comps)
    candidates = np.linalg.eigh(evaluation.ricci_form)[1].T
    equal = corollary_evaluated(comps, evaluation, candidates, tol).equality_at_x
    return [positive_lead(x) for x in candidates[equal]]


def _classify(
    zeta: BundleValuedForm,
    evaluation: FormEvaluation,
    mode: BoundMode,
    bound: float,
    direction: np.ndarray,
    tol: float,
) -> EqualityClass:
    """Classify equality of the bound across ALL unit directions.

    Equality for every unit X is S_T = bound * I, tested first within
    tol * ||zeta||^2; it refuses every nonzero traceless form, whose S_T has
    trace -||zeta||^2.  The zero form is ||zeta||^2 = 0.  Beyond it only
    surfaces attain equality, and each test on zeta is a bundle vector norm
    within tol * ||zeta||.  General bound: a surface's sum of squares in
    :func:`corollary_evaluated` is |delta|^2 + |e|^2 at every X, delta =
    (zeta_00 - zeta_11)/2 and e = zeta_01, so its test at ``direction``
    decides every X; the reported frame is the input frame.  Improved bound:
    in the descending eigenbasis v_a of sum_r u_r zeta_r, u = trace/|trace|,
    mu = |trace|/4, the form is H-umbilical iff zeta(v_0, v_0) = 3 mu u,
    zeta(v_1, v_1) = mu u and |zeta(v_0, v_1)| = mu (the eigenbasis makes it
    orthogonal to u); the bundle frame takes u to slot 0.
    """
    n = zeta.n
    if np.abs(evaluation.ricci_form - bound * np.eye(n)).max() > tol * evaluation.norm_sq:
        return EqualityClass(EqualityTag.NO_EQUALITY)
    if evaluation.norm_sq == 0.0:
        return EqualityClass(EqualityTag.ZERO_FORM)
    if n != 2:
        return EqualityClass(EqualityTag.NO_EQUALITY)
    comps = zeta.components
    if mode is BoundMode.GENERAL:
        if corollary_evaluated(comps, evaluation, direction[None], tol).equality_at_x[0]:
            return EqualityClass(EqualityTag.UMBILICAL_SURFACE, tangent_frame=np.eye(2))
        return EqualityClass(EqualityTag.NO_EQUALITY)
    trace_norm = float(np.linalg.norm(evaluation.trace))
    if trace_norm == 0.0:  # past the S_T test only at tol >= 1/2
        return EqualityClass(EqualityTag.NO_EQUALITY)
    u = evaluation.trace / trace_norm
    # eigh sorts ascending; reversing the columns puts them in descending order.
    _, q_vectors = np.linalg.eigh(np.einsum("rij,r->ij", comps, u))
    q_tangent = q_vectors[:, ::-1].T
    mu = trace_norm / 4.0
    # at[r, a, b] = zeta_r(v_a, v_b).
    at = q_tangent @ comps @ q_tangent.T
    gate = tol * np.sqrt(evaluation.norm_sq)
    pattern = (
        np.linalg.norm(at[:, 0, 0] - 3.0 * mu * u) <= gate
        and np.linalg.norm(at[:, 1, 1] - mu * u) <= gate
        and abs(np.linalg.norm(at[:, 0, 1]) - mu) <= gate
    )
    if not pattern:
        return EqualityClass(EqualityTag.NO_EQUALITY)
    q_bundle = rotation_to_first_axis(u)
    return EqualityClass(EqualityTag.H_UMBILICAL_SURFACE, mu, q_tangent, q_bundle)


@dataclass(frozen=True)
class CorollaryTriple:
    """Truth values of the three linked statements at one direction, or bool
    arrays over a stack of directions.

    ``verified`` says the two-imply-the-third pattern holds, i.e. the truth
    table does not show exactly two of the three statements true.
    """

    equality_at_x: bool | np.ndarray
    trace_zero: bool | np.ndarray
    in_null_space: bool | np.ndarray
    verified: bool | np.ndarray


def corollary_triple(
    zeta: BundleValuedForm, x, tol: float = DEFAULT_TOL
) -> CorollaryTriple:
    """Evaluate, at a unit direction X: (a) X attains equality in the general
    bound, (b) trace(zeta) = 0, (c) X lies in the null space of zeta; and
    check that no two of them hold without the third.

    ``x`` may also be a stack ``[..., n]`` of unit directions, evaluated in
    one array pass; the fields are then bool arrays over the stack.  This is
    :func:`corollary_evaluated`, which gates each statement at
    tol * ||zeta||, on the form's :func:`evaluate`.
    """
    xv = as_unit_vector(x, zeta.n, stacked=True)
    comps = zeta.components
    triple = corollary_evaluated(comps, evaluate(comps), xv.reshape(-1, zeta.n), tol)
    fields = (triple.equality_at_x, triple.trace_zero, triple.in_null_space, triple.verified)
    if xv.ndim == 1:
        return CorollaryTriple(*(bool(field[0]) for field in fields))
    return CorollaryTriple(*(field.reshape(xv.shape[:-1]) for field in fields))


def corollary_evaluated(
    components: np.ndarray, evaluation: FormEvaluation, directions: np.ndarray, tol: float
) -> CorollaryTriple:
    """:func:`corollary_triple` of one form zeta[r, i, j] whose
    :func:`evaluate` is in hand, at a stack [k, n] of directions taken as
    unit without a check; the fields are bool arrays of length k.

    One product of the stack with zeta read as (m' n, n) gives zeta(X, e_j)
    for every direction, and one product of that with the columns
    [X | Y_1 ... Y_{n-1}], X and its Householder complement, gives zeta(X, X)
    and every zeta(X, Y_j); their squared norms are one reduction.  Each
    statement is gated at tol * ||zeta||, a gate of 0 for the zero form.
    (a), the package's one equality rule, is the root of the general gap at
    X, ||trace||^2/4 - Ric_T(X) = |zeta(X, X) - trace/2|^2 + sum_j
    |zeta(X, Y_j)|^2; (b) is |trace| and (c) every |zeta(X, e_j)|.
    """
    comps = np.asarray(components)
    m, n, k = comps.shape[-3], comps.shape[-1], len(directions)
    # values[1] holds zeta(X, .) as an (m', n) matrix per direction, column j
    # zeta(X, e_j): zeta is bitwise symmetric, so contracting its last index
    # is contracting i.  values[0] holds zeta(X, .) times [X | Y].
    values = np.empty((2, k, m, n))
    np.matmul(directions, comps.reshape(m * n, n).T, out=values[1].reshape(k, m * n))
    frames = rotation_to_first_axis(directions)
    frames[:, 0, :] = directions
    np.matmul(values[1], np.swapaxes(frames, -1, -2), out=values[0])
    values[0, :, :, 0] -= 0.5 * evaluation.trace
    squares = np.add.reduce(np.square(values, out=values), axis=-2)
    gate = tol * np.sqrt(evaluation.norm_sq)
    equality = np.sqrt(squares[0].sum(axis=-1)) <= gate
    in_null = (np.sqrt(squares[1]) <= gate).all(axis=-1)
    trace_zero = np.full(k, np.sqrt(evaluation.trace_norm_sq) <= gate)
    verified = equality.astype(int) + trace_zero + in_null != 2
    return CorollaryTriple(equality, trace_zero, in_null, verified)
