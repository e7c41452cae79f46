"""Exact-symmetry storage and contraction of curvature-like tensors and
bundle-valued symmetric bilinear forms.

Everything here is pointwise linear algebra over dense numpy arrays at desk
scale (tangent dimension <= 16, bundle dimension <= 32).  All values are
immutable after construction and every operation is pure, so instances can be
shared across threads freely.  The array kernels (:func:`checked_components`,
:func:`curvature_residuals`, :func:`traces`, :func:`trace_norms_sq`) take
leading axes that stack independent forms or tensors; the functions on single
objects are their one-form case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidTensor,
    NonOrthonormalPair,
    NotOrthogonal,
    NotUnitVector,
    ValidationError,
)

MAX_TANGENT_DIM = 16
MAX_BUNDLE_DIM = 32

#: Default tolerance for every residual check, overridable per call.
DEFAULT_TOL = 1e-9

UNIT_NORM_TOL = 1e-12
PAIR_ORTHO_TOL = 1e-9
FRAME_ORTHO_TOL = 1e-10
INPUT_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Dimensions:
    """Tangent dimension n and bundle dimension m_prime, with desk-scale guards."""

    n: int
    m_prime: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_TANGENT_DIM:
            raise InvalidDimension(
                f"tangent dimension must be in 1..{MAX_TANGENT_DIM}, got {self.n}"
            )
        if not 1 <= self.m_prime <= MAX_BUNDLE_DIM:
            raise InvalidDimension(
                f"bundle dimension must be in 1..{MAX_BUNDLE_DIM}, got {self.m_prime}"
            )


def mirror_symmetric(components: np.ndarray) -> np.ndarray:
    """Copy the strict upper triangle of each trailing (n, n) slice onto the
    lower triangle, making the pair symmetry bitwise exact."""
    out = np.array(components, dtype=float)
    i_up, j_up = np.triu_indices(out.shape[-1], k=1)
    out[..., j_up, i_up] = out[..., i_up, j_up]
    return out


def checked_components(components) -> np.ndarray:
    """Validated copy of form components ``[..., r, i, j]``, read-only and
    bitwise symmetric in (i, j); leading axes stack independent forms.

    Checks the desk-scale dimensions, finiteness and the 1e-12 pair symmetry
    of every form (the message names the worst entry), then mirrors the upper
    triangle.  :class:`BundleValuedForm` is the one-form case.
    """
    arr = np.asarray(components, dtype=float)
    if arr.ndim < 3 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatch(
            f"expected components of shape (m', n, n), got {arr.shape}"
        )
    Dimensions(n=arr.shape[-1], m_prime=arr.shape[-3])
    if not np.all(np.isfinite(arr)):
        raise ValidationError("zeta components must be finite")
    asym = np.abs(arr - np.swapaxes(arr, -1, -2))
    if asym.max(initial=0.0) > INPUT_SYMMETRY_TOL:
        *form, r, i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        worst = arr[tuple(form)]
        raise ValidationError(
            f"zeta[{r}][{i}][{j}] = {float(worst[r, i, j])!r} differs from "
            f"zeta[{r}][{j}][{i}] = {float(worst[r, j, i])!r}"
        )
    sym = mirror_symmetric(arr)
    sym.setflags(write=False)
    return sym


class BundleValuedForm:
    """Symmetric bilinear form on an n-dimensional tangent space with values in
    an m'-dimensional Riemannian bundle.

    Components are stored as a read-only array ``components[r, i, j]`` with
    ``components[r, i, j] == components[r, j, i]`` bitwise: each unordered pair
    is taken from the upper triangle and mirrored at construction.  Input that
    is asymmetric beyond 1e-12 is rejected.
    """

    __slots__ = ("dims", "components")

    def __init__(self, components) -> None:
        arr = np.asarray(components, dtype=float)
        if arr.ndim != 3:
            raise DimensionMismatch(
                f"expected components of shape (m', n, n), got {arr.shape}"
            )
        self.components = checked_components(arr)
        self.dims = Dimensions(n=arr.shape[1], m_prime=arr.shape[0])

    @classmethod
    def zeros(cls, n: int, m_prime: int) -> "BundleValuedForm":
        return cls(np.zeros((m_prime, n, n)))

    @property
    def n(self) -> int:
        return self.dims.n

    @property
    def m_prime(self) -> int:
        return self.dims.m_prime

    def value(self, x, y) -> np.ndarray:
        """Bundle vector zeta(X, Y)."""
        return np.einsum("rij,i,j->r", self.components, x, y)

    def max_abs(self) -> float:
        return float(np.abs(self.components).max())


class CurvatureLikeTensor:
    """Dense 4-index tensor expected to carry the curvature symmetries.

    Construction does not validate the symmetries; builders guarantee them and
    user-supplied tensors go through :func:`validate_curvature_symmetries`.
    """

    __slots__ = ("n", "components")

    def __init__(self, components) -> None:
        arr = np.array(np.asarray(components, dtype=float))
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise DimensionMismatch(
                f"expected components of shape (n, n, n, n), got {arr.shape}"
            )
        if not 1 <= arr.shape[0] <= MAX_TANGENT_DIM:
            raise InvalidDimension(
                f"tangent dimension must be in 1..{MAX_TANGENT_DIM}, got {arr.shape[0]}"
            )
        arr.setflags(write=False)
        self.n = arr.shape[0]
        self.components = arr

    @classmethod
    def _adopt(cls, components: np.ndarray) -> "CurvatureLikeTensor":
        """Wrap a freshly built (n, n, n, n) float array without copying it;
        the array becomes read-only and must have no other owner."""
        components.setflags(write=False)
        tensor = cls.__new__(cls)
        tensor.n = components.shape[0]
        tensor.components = components
        return tensor

    @classmethod
    def zeros(cls, n: int) -> "CurvatureLikeTensor":
        return cls(np.zeros((n, n, n, n)))


@dataclass(frozen=True)
class SymmetryReport:
    """Max absolute violation of each curvature identity, with a verdict."""

    skew_first_pair: float
    skew_second_pair: float
    first_bianchi: float
    tol: float
    passed: bool

    @property
    def max_residual(self) -> float:
        return max(self.skew_first_pair, self.skew_second_pair, self.first_bianchi)


def curvature_residuals(
    components: np.ndarray, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max absolute violation of T(X,Y,Z,W) = -T(Y,X,Z,W), of
    T(X,Y,Z,W) = -T(X,Y,W,Z) and of the first Bianchi sum
    T(X,Y,Z,W) + T(X,Z,W,Y) + T(X,W,Y,Z) = 0, over all index quadruples of
    each tensor in a stack ``[..., i, j, k, l]``.

    Each residual is formed in ``scratch``, a buffer shaped like the stack
    that is overwritten (allocated when not given).
    """
    a = np.asarray(components)
    if scratch is None:
        scratch = np.empty_like(a)

    def worst(residual: np.ndarray) -> np.ndarray:
        return np.abs(residual, out=residual).max(axis=(-4, -3, -2, -1))

    skew_xy = worst(np.add(a, np.swapaxes(a, -4, -3), out=scratch))
    skew_zw = worst(np.add(a, np.swapaxes(a, -2, -1), out=scratch))
    # At (i, j, k, l) these read a[..., i, k, l, j] and a[..., i, l, j, k].
    cyclic = np.add(a, np.moveaxis(a, -1, -3), out=scratch)
    cyclic += np.moveaxis(a, -3, -1)
    bianchi = worst(cyclic)
    return skew_xy, skew_zw, bianchi


def validate_curvature_symmetries(
    tensor: CurvatureLikeTensor,
    tol: float = DEFAULT_TOL,
    scratch: np.ndarray | None = None,
) -> SymmetryReport:
    """The three :func:`curvature_residuals` of one tensor, formed in
    ``scratch`` when given; passes iff every residual is <= tol."""
    skew_xy, skew_zw, bianchi = (
        float(r) for r in curvature_residuals(tensor.components, scratch)
    )
    passed = skew_xy <= tol and skew_zw <= tol and bianchi <= tol
    return SymmetryReport(skew_xy, skew_zw, bianchi, tol, passed)


def pair_exchange_residual(
    tensor: CurvatureLikeTensor, scratch: np.ndarray | None = None
) -> float:
    """Max violation of T(X,Y,Z,W) = T(Z,W,X,Y), a consequence of the three
    curvature identities; formed in ``scratch`` when given."""
    a = tensor.components
    diff = np.subtract(a, np.einsum("klij->ijkl", a), out=scratch)
    return float(np.abs(diff, out=diff).max())


def as_unit_vector(x, n: int, stacked: bool = False) -> np.ndarray:
    """Validate a unit tangent vector: length n, Euclidean norm 1 within 1e-12.

    With ``stacked``, validate a stack ``[..., n]`` of them; the message names
    the norm farthest from 1.
    """
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1:] != (n,) or (arr.ndim != 1 and not stacked):
        raise DimensionMismatch(f"expected a vector of length {n}, got shape {arr.shape}")
    norms = np.linalg.norm(arr, axis=-1)
    off = np.abs(norms - 1.0)
    if off.max(initial=0.0) > UNIT_NORM_TOL:
        norm = float(norms.flat[int(off.argmax())])
        raise NotUnitVector(f"norm {norm!r} differs from 1 beyond {UNIT_NORM_TOL}")
    return arr


def t_sectional(tensor: CurvatureLikeTensor, x, y) -> float:
    """Sectional value K_T(X ^ Y) = T(X, Y, Y, X) for an orthonormal pair."""
    xv = as_unit_vector(x, tensor.n)
    yv = as_unit_vector(y, tensor.n)
    inner = float(xv @ yv)
    if abs(inner) > PAIR_ORTHO_TOL:
        raise NonOrthonormalPair(f"<X, Y> = {inner!r} exceeds {PAIR_ORTHO_TOL}")
    return float(np.einsum("ijkl,i,j,k,l->", tensor.components, xv, yv, yv, xv))


def _require_symmetries(tensor: CurvatureLikeTensor, tol: float) -> None:
    report = validate_curvature_symmetries(tensor, tol)
    if not report.passed:
        raise InvalidTensor(
            f"curvature symmetries violated (max residual {report.max_residual:.3e} "
            f"> tol {tol:.3e})"
        )


def t_ricci_form(tensor: CurvatureLikeTensor, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ricci-type contraction S_T[i, k] = sum_j T[j, i, k, j], symmetrized to
    kill roundoff.  Raises InvalidTensor if the curvature symmetries fail."""
    _require_symmetries(tensor, tol)
    s = np.einsum("jikj->ik", tensor.components)
    return 0.5 * (s + s.T)


def t_ricci(tensor: CurvatureLikeTensor, x, tol: float = DEFAULT_TOL) -> float:
    """Ricci value Ric_T(X) = S_T(X, X) for a unit vector X."""
    xv = as_unit_vector(x, tensor.n)
    s = t_ricci_form(tensor, tol)
    return float(xv @ s @ xv)


def t_scalar(tensor: CurvatureLikeTensor, tol: float = DEFAULT_TOL) -> float:
    """Scalar value tau_T = sum over i < j of K_T(e_i ^ e_j)."""
    _require_symmetries(tensor, tol)
    i_up, j_up = np.triu_indices(tensor.n, k=1)
    return float(tensor.components[i_up, j_up, j_up, i_up].sum())


def zeta_norm_sq(zeta: BundleValuedForm) -> float:
    """Squared norm ||zeta||^2 = sum of all squared components."""
    return float((zeta.components**2).sum())


def traces(components: np.ndarray) -> np.ndarray:
    """Trace bundle vector sum_i zeta[..., :, i, i] of each form in a stack."""
    return np.einsum("...rii->...r", components)


def trace_zeta(zeta: BundleValuedForm) -> np.ndarray:
    """Bundle vector trace(zeta) = sum_i zeta(e_i, e_i)."""
    return traces(zeta.components)


def trace_norms_sq(components: np.ndarray) -> np.ndarray:
    """Squared norm of the trace bundle vector of each form in a stack
    ``[..., r, i, j]``, as a stacked (1 x m') (m' x 1) product."""
    t = traces(components)
    return (t[..., None, :] @ t[..., :, None])[..., 0, 0]


def trace_norm_sq(zeta: BundleValuedForm) -> float:
    """Squared norm of the trace bundle vector."""
    return float(trace_norms_sq(zeta.components))


def _require_orthogonal(q, size: int, name: str) -> np.ndarray:
    arr = np.asarray(q, dtype=float)
    if arr.shape != (size, size):
        raise DimensionMismatch(
            f"{name} rotation must have shape ({size}, {size}), got {arr.shape}"
        )
    residual = float(np.abs(arr.T @ arr - np.eye(size)).max())
    if residual > FRAME_ORTHO_TOL:
        raise NotOrthogonal(
            f"{name} rotation fails Q^T Q = I by {residual:.3e} (> {FRAME_ORTHO_TOL})"
        )
    return arr


def rotate_frame(zeta: BundleValuedForm, q_tangent, q_bundle) -> BundleValuedForm:
    """Push zeta through orthogonal changes of the tangent and bundle frames:
    zeta'[s, a, b] = sum Q_b[s, r] Q_t[a, i] Q_t[b, j] zeta[r, i, j]."""
    qt = _require_orthogonal(q_tangent, zeta.n, "tangent")
    qb = _require_orthogonal(q_bundle, zeta.m_prime, "bundle")
    rotated = np.einsum("sr,ai,bj,rij->sab", qb, qt, qt, zeta.components)
    return BundleValuedForm(mirror_symmetric(rotated))


def rotation_to_first_axis(u: np.ndarray) -> np.ndarray:
    """Deterministic orthogonal Q with Q @ u = e_0, for a unit vector u, or
    one such Q per vector of a stack ``[..., m]``.

    Householder-based; the reflection direction is chosen by the sign of u[0]
    so the construction never cancels.
    """
    u = np.asarray(u, dtype=float)
    flip = u[..., 0] >= 0.0
    v = u.copy()
    v[..., 0] += np.where(flip, 1.0, -1.0)
    outer = v[..., :, None] * v[..., None, :]
    q = np.eye(u.shape[-1]) - 2.0 * outer / (v[..., None, :] @ v[..., :, None])
    q[..., 0, :] = np.where(flip[..., None], -q[..., 0, :], q[..., 0, :])
    return q


def orthonormal_complement(x: np.ndarray) -> np.ndarray:
    """Rows form an orthonormal basis of the hyperplane orthogonal to unit x;
    for a stack ``[..., n]`` of unit vectors, one (n - 1, n) basis each."""
    return rotation_to_first_axis(x)[..., 1:, :]


def null_space(zeta: BundleValuedForm, rank_tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of N_zeta = {X : zeta(X, Y) = 0 for all Y}.

    The components are stacked into an (m' * n) x n matrix whose kernel is
    N_zeta; singular values below rank_tol times the largest absolute
    component are treated as zero.  Returns a (k, n) array, possibly empty.
    """
    if rank_tol <= 0:
        raise ValidationError(f"rank_tol must be positive, got {rank_tol!r}")
    scale = zeta.max_abs()
    if scale == 0.0:
        return np.eye(zeta.n)
    stacked = zeta.components.reshape(zeta.m_prime * zeta.n, zeta.n)
    _, singular, vt = np.linalg.svd(stacked, full_matrices=False)
    rank = int((singular > rank_tol * scale).sum())
    return vt[rank:].copy()
