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

The array kernels (:func:`gauss_components`, :func:`gauss_residuals`,
:func:`ricci_forms`, :func:`total_symmetry_residuals`) take leading axes that
stack independent forms; the functions on single forms are their one-form
case, so a sampling campaign and a single report compute the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BundleTooSmall, DimensionMismatch
from .optim_lemmas import max_ricci
from .tensor_core import (
    DEFAULT_TOL,
    BundleValuedForm,
    CurvatureLikeTensor,
    as_unit_vector,
    orthonormal_complement,
    rotate_frame,
    rotation_to_first_axis,
    trace_norm_sq,
    trace_zeta,
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
    mu >= 0).
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


def gauss_components(
    components: np.ndarray,
    out: np.ndarray | None = None,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Gauss tensors T[..., i, j, k, l] of a stack of forms zeta[..., r, i, j].

    With Z the form reshaped to (m', n^2), the Gram matrix G = Z^T Z holds
    every <zeta_ab, zeta_cd>, so T[i, j, k, l] = G[il, jk] - G[ik, jl] costs
    one product and one subtraction per form.  numpy evaluates the stacked
    Z^T Z through BLAS syrk, which fills one triangle and mirrors it, so G is
    bitwise symmetric and both antisymmetries and the pair-exchange symmetry
    of T are exact.

    ``out`` (shape lead + (n, n, n, n)) receives T and is returned; ``gram``
    (shape lead + (n^2, n^2)) holds G.  Either is allocated when not given.
    """
    comps = np.asarray(components)
    lead, m, n = comps.shape[:-3], comps.shape[-3], comps.shape[-1]
    z = comps.reshape(lead + (m, n * n))
    gram = np.matmul(np.swapaxes(z, -1, -2), z, out=gram)
    g = gram.reshape(lead + (n, n, n, n))
    # At (i, j, k, l) these read g[..., i, l, j, k] and g[..., i, k, j, l].
    return np.subtract(np.moveaxis(g, -3, -1), np.swapaxes(g, -3, -2), out=out)


def build_T_from_zeta(
    zeta: BundleValuedForm, gram: np.ndarray | None = None
) -> CurvatureLikeTensor:
    """Assemble T[i,j,k,l] = sum_r (zeta[r,i,l] zeta[r,j,k] - zeta[r,i,k] zeta[r,j,l]).

    The output satisfies all curvature symmetries by construction.  ``gram``
    is the work buffer of :func:`gauss_components`.
    """
    return CurvatureLikeTensor._adopt(gauss_components(zeta.components, gram=gram))


def ricci_forms(components: np.ndarray) -> np.ndarray:
    """Ricci forms S_T of the Gauss tensors of a stack of forms, straight
    from zeta[..., r, i, j]; see :func:`ricci_form_from_zeta`.

    Two products per form: trace zeta times Z, the form reshaped to
    (m', n^2), gives <trace zeta, zeta_ik>; A^T A, with A the form reshaped
    to (m' n, n), gives sum_r zeta_r zeta_r because each zeta_r is symmetric.
    """
    comps = np.asarray(components)
    lead, m, n = comps.shape[:-3], comps.shape[-3], comps.shape[-1]
    z = comps.reshape(lead + (m, n * n))
    a = comps.reshape(lead + (m * n, n))
    s = (traces(comps)[..., None, :] @ z).reshape(lead + (n, n))
    s -= np.swapaxes(a, -1, -2) @ a
    return 0.5 * (s + np.swapaxes(s, -1, -2))


def ricci_form_from_zeta(zeta: BundleValuedForm) -> np.ndarray:
    """Ricci form S_T of the Gauss-built tensor, straight from zeta:

        S_T[i, k] = <trace zeta, zeta[:, i, k]> - sum_r (zeta_r zeta_r)[i, k],

    symmetrized to kill roundoff.  This is the contraction sum_j T[j, i, k, j]
    of :func:`build_T_from_zeta` at O(m' n^3) cost, without the n^4 tensor.
    """
    return ricci_forms(zeta.components)


def gauss_residuals(
    tensors: np.ndarray,
    components: np.ndarray,
    scratch: np.ndarray | None = None,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Max absolute residual of the algebraic Gauss equation for each pair of
    a tensor stack [..., i, j, k, l] and a form stack [..., r, i, j].

    ``scratch``, shaped like ``tensors``, and ``gram`` are work buffers that
    the rebuild of T overwrites; they are allocated when not given.
    """
    diff = gauss_components(components, out=scratch, gram=gram)
    np.subtract(tensors, diff, out=diff)
    return np.abs(diff, out=diff).max(axis=(-4, -3, -2, -1))


def verify_gauss(
    tensor: CurvatureLikeTensor,
    zeta: BundleValuedForm,
    scratch: np.ndarray | None = None,
    gram: np.ndarray | None = None,
) -> float:
    """Max absolute residual of the algebraic Gauss equation; 0 means the pair
    is exact.  ``scratch`` and ``gram`` are as in :func:`gauss_residuals`."""
    if tensor.n != zeta.n:
        raise DimensionMismatch(
            f"tensor dimension {tensor.n} != form dimension {zeta.n}"
        )
    return float(gauss_residuals(tensor.components, zeta.components, scratch, gram))


def bound_coefficient(mode: BoundMode, n: int) -> float:
    """Factor c of a bound c * ||trace zeta||^2 in tangent dimension n."""
    return 0.25 if mode is BoundMode.GENERAL else (n - 1) / (4.0 * n)


def chen_ricci_bound(zeta: BundleValuedForm) -> float:
    """General bound ||trace zeta||^2 / 4, valid for every Gauss pair."""
    return _bound_value(zeta, BoundMode.GENERAL)


def improved_bound(zeta: BundleValuedForm) -> float:
    """Sharpened bound (n - 1)/(4n) * ||trace zeta||^2; a valid claim only
    when the total-symmetry hypothesis is certified."""
    return _bound_value(zeta, BoundMode.IMPROVED)


def _bound_value(zeta: BundleValuedForm, mode: BoundMode) -> float:
    return bound_coefficient(mode, zeta.n) * trace_norm_sq(zeta)


def total_symmetry_residuals(components: np.ndarray) -> np.ndarray:
    """Residual of the cubic-symmetry hypothesis for each form in a stack
    zeta[..., r, i, j]; see :func:`is_totally_symmetric`."""
    comps = np.asarray(components)
    lead, n = comps.ndim - 3, comps.shape[-1]
    if comps.shape[-3] < n:
        raise BundleTooSmall(
            f"total symmetry needs bundle dimension >= {n}, got {comps.shape[-3]}"
        )
    cubic, tail = comps[..., :n, :, :], comps[..., n:, :, :]
    within = (-3, -2, -1)
    residual = np.zeros(comps.shape[:-3])
    for axes in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        permuted = cubic.transpose(tuple(range(lead)) + tuple(lead + a for a in axes))
        residual = np.maximum(residual, np.abs(cubic - permuted).max(axis=within))
    if tail.size:
        residual = np.maximum(residual, np.abs(tail).max(axis=within))
    return residual


def is_totally_symmetric(
    zeta: BundleValuedForm, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Certify the cubic-symmetry hypothesis behind the improved bound.

    Reading bundle slots 0..n-1 as the adapted frame, C[i][j][k] :=
    zeta[i][j][k] must be invariant under all permutations of (i, j, k), and
    every slot past n-1 must vanish.  Returns (verdict, max residual).
    """
    residual = float(total_symmetry_residuals(zeta.components))
    return residual <= tol, residual


def check_bound(
    zeta: BundleValuedForm, mode: BoundMode, tol: float = DEFAULT_TOL
) -> BoundReport:
    """Evaluate one bound end to end: form S_T, extremize Ric_T, certify the
    hypothesis, classify the equality case.

    The improved bound is still reported when certification fails (the gap may
    then be negative); callers read ``symmetry_certified`` before claiming it.
    """
    s_form = ricci_form_from_zeta(zeta)
    ricci_max, direction = max_ricci(s_form)
    bound = _bound_value(zeta, mode)
    if mode is BoundMode.GENERAL:
        certified = True
    else:
        try:
            certified, _ = is_totally_symmetric(zeta, tol)
        except BundleTooSmall:
            certified = False
    return BoundReport(
        mode=mode,
        bound_value=bound,
        ricci_max=ricci_max,
        argmax_direction=direction,
        gap=bound - ricci_max,
        symmetry_certified=certified,
        equality_class=_classify(zeta, mode, s_form, bound, tol),
    )


def _fix_sign(vector: np.ndarray) -> np.ndarray:
    lead = int(np.argmax(np.abs(vector)))
    return -vector if vector[lead] < 0.0 else vector.copy()


def equality_directions(
    zeta: BundleValuedForm, tol: float = DEFAULT_TOL
) -> list[np.ndarray]:
    """Unit directions attaining the general bound, certified pointwise.

    Candidates are eigenvectors of S_T whose eigenvalue matches the bound
    within tol; each must satisfy zeta(X, Y) = 0 for every Y orthogonal to X
    and zeta(X, X) = trace(zeta) / 2.  For the zero form the canonical basis
    is reported.  May be empty.
    """
    n = zeta.n
    if zeta.max_abs() <= tol:
        return [np.eye(n)[i] for i in range(n)]
    bound = chen_ricci_bound(zeta)
    values, vectors = np.linalg.eigh(ricci_form_from_zeta(zeta))
    half_trace = 0.5 * trace_zeta(zeta)
    certified: list[np.ndarray] = []
    for k in range(n):
        if abs(values[k] - bound) > tol:
            continue
        x = vectors[:, k]
        others = (vectors[:, j] for j in range(n) if j != k)
        if any(float(np.linalg.norm(zeta.value(x, y))) > tol for y in others):
            continue
        if float(np.linalg.norm(zeta.value(x, x) - half_trace)) > tol:
            continue
        certified.append(_fix_sign(x))
    return certified


def classify_all_equality(
    zeta: BundleValuedForm, mode: BoundMode, tol: float = DEFAULT_TOL
) -> EqualityClass:
    """Classify equality of the bound across ALL unit directions.

    Equality for every unit X is equivalent to S_T equaling the bound times
    the identity form, which is tested first.  Beyond the zero form, equality
    can only happen on surfaces: the umbilical pattern for the general bound,
    the H-umbilical lambda = 3 mu pattern for the improved one.  Detection
    canonicalizes by rotating the bundle frame so slot 0 carries trace(zeta)
    and diagonalizing the slot-0 quadratic form with descending eigenvalues,
    which also pins mu >= 0.
    """
    return _classify(
        zeta, mode, ricci_form_from_zeta(zeta), _bound_value(zeta, mode), tol
    )


def _classify(
    zeta: BundleValuedForm,
    mode: BoundMode,
    s_form: np.ndarray,
    bound: float,
    tol: float,
) -> EqualityClass:
    """Body of :func:`classify_all_equality` for an S_T and bound already in hand."""
    n = zeta.n
    if float(np.abs(s_form - bound * np.eye(n)).max()) > tol:
        return EqualityClass(EqualityTag.NO_EQUALITY)
    if zeta.max_abs() <= tol:
        return EqualityClass(EqualityTag.ZERO_FORM)
    if n != 2:
        return EqualityClass(EqualityTag.NO_EQUALITY)
    trace = trace_zeta(zeta)
    trace_norm = float(np.linalg.norm(trace))
    if trace_norm <= tol:
        return EqualityClass(EqualityTag.NO_EQUALITY)
    u = trace / trace_norm

    if mode is BoundMode.GENERAL:
        quad = np.einsum("rij,r->ij", zeta.components, u)
        _, q_vectors = np.linalg.eigh(quad)
        q_tangent = q_vectors.T
        comp = rotate_frame(zeta, q_tangent, np.eye(zeta.m_prime)).components
        umbilical = (
            float(np.abs(comp[:, 0, 1]).max()) <= tol
            and float(np.abs(comp[:, 0, 0] - comp[:, 1, 1]).max()) <= tol
        )
        if umbilical:
            return EqualityClass(
                EqualityTag.UMBILICAL_SURFACE, tangent_frame=q_tangent
            )
        return EqualityClass(EqualityTag.NO_EQUALITY)

    q_bundle = rotation_to_first_axis(u)
    slot_first = rotate_frame(zeta, np.eye(2), q_bundle)
    # eigh sorts ascending; reversing the columns puts them in descending order.
    _, q_vectors = np.linalg.eigh(slot_first.components[0])
    q_tangent = q_vectors[:, ::-1].T
    comp = rotate_frame(slot_first, q_tangent, np.eye(zeta.m_prime)).components
    mu = trace_norm / 4.0
    pattern = (
        abs(comp[0, 0, 0] - 3.0 * mu) <= tol
        and abs(comp[0, 1, 1] - mu) <= tol
        and abs(comp[0, 0, 1]) <= tol
    )
    if zeta.m_prime > 1:
        tail = comp[1:]
        pattern = (
            pattern
            and float(np.abs(tail[:, 0, 0]).max()) <= tol
            and float(np.abs(tail[:, 1, 1]).max()) <= tol
            and abs(float(np.linalg.norm(tail[:, 0, 1])) - mu) <= tol
        )
    else:
        pattern = pattern and mu <= tol
    if pattern:
        return EqualityClass(
            EqualityTag.H_UMBILICAL_SURFACE,
            mu=mu,
            tangent_frame=q_tangent,
            bundle_frame=q_bundle,
        )
    return EqualityClass(EqualityTag.NO_EQUALITY)


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
    one array pass; the fields are then bool arrays over the stack.
    """
    xv = as_unit_vector(x, zeta.n, stacked=True)
    # zeta(X, .) as an (m', n) matrix per direction: column j is zeta(X, e_j).
    zeta_x = np.einsum("rij,...i->...rj", zeta.components, xv)
    perp = zeta_x @ np.swapaxes(orthonormal_complement(xv), -1, -2)
    perp_ok = (np.linalg.norm(perp, axis=-2) <= tol).all(axis=-1)
    half = (zeta_x @ xv[..., None])[..., 0] - 0.5 * trace_zeta(zeta)
    equality = perp_ok & (np.linalg.norm(half, axis=-1) <= tol)
    trace_zero = np.full(equality.shape, float(np.sqrt(trace_norm_sq(zeta))) <= tol)
    in_null = (np.linalg.norm(zeta_x, axis=-2) <= tol).all(axis=-1)
    verified = equality.astype(int) + trace_zero + in_null != 2
    if xv.ndim == 1:
        return CorollaryTriple(
            bool(equality), bool(trace_zero), bool(in_null), bool(verified)
        )
    return CorollaryTriple(equality, trace_zero, in_null, verified)
