"""Exact-symmetry storage and contraction of curvature-like tensors and
bundle-valued symmetric bilinear forms.

Everything here is pointwise linear algebra over dense numpy arrays at desk
scale (tangent dimension <= 16, bundle dimension <= 32).  All values are
immutable after construction and every operation is pure, so instances can be
shared across threads freely.  The array kernels (:func:`checked_components`,
:func:`curvature_residuals`, :func:`pair_exchange_residuals`, :func:`traces`,
:func:`trace_norms_sq`) take leading axes that stack independent forms or
tensors; the functions on single objects are their one-form case.  The two
residual kernels of a 4-index tensor may be given a scratch array, which they
fill and reduce a block of slabs at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAX_TANGENT_DIM = 16
MAX_BUNDLE_DIM = 32

#: Default tolerance for every residual check, overridable per call.
DEFAULT_TOL = 1e-9

UNIT_NORM_TOL = 1e-12
PAIR_ORTHO_TOL = 1e-9
FRAME_ORTHO_TOL = 1e-10
INPUT_SYMMETRY_TOL = 1e-12


def check_tangent_dim(n: int, minimum: int = 1) -> int:
    """The one tangent-dimension rule, ``minimum <= n <= 16``; every entry
    point taking n calls it before allocating anything sized by n."""
    if not minimum <= n <= MAX_TANGENT_DIM:
        raise ValidationError(
            f"tangent dimension must be in {minimum}..{MAX_TANGENT_DIM}, got {n}"
        )
    return n


def check_bundle_dim(m_prime: int) -> int:
    """The one bundle-dimension rule, ``1 <= m' <= 32``."""
    if not 1 <= m_prime <= MAX_BUNDLE_DIM:
        raise ValidationError(
            f"bundle dimension must be in 1..{MAX_BUNDLE_DIM}, got {m_prime}"
        )
    return m_prime


def _finite_float(value, name: str) -> float:
    """An ambient or structure number as a float, so it hashes as it loads; a
    ValidationError names ``name`` if it is a bool or not a real number, not
    finite or beyond binary64."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is an integer too large for binary64") from None
    raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Dimensions:
    """Tangent dimension n and bundle dimension m_prime, with desk-scale guards."""

    n: int
    m_prime: int

    def __post_init__(self) -> None:
        check_tangent_dim(self.n)
        check_bundle_dim(self.m_prime)


# Read-only masks of the entries below the diagonal of an n x n matrix, by n
# (a broadcast view cannot be written to): the entries a form mirrors.
_STRICT_LOWER = [
    np.broadcast_to(np.tri(n, k=-1, dtype=bool), (n, n)) for n in range(MAX_TANGENT_DIM + 1)
]


def page_aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An empty float array of ``shape``, from 64 KiB (8192 floats) up a view
    whose data starts on a 4 KiB page.  The heap would put it at a page offset
    that moves with every allocation before it, and the time of the kernels
    that stream through it moves with the offset, by a few percent."""
    count = math.prod(shape)
    if count < 8192:
        return np.empty(shape)
    raw = np.empty(count + 512)
    start = -raw.ctypes.data % 4096 // 8
    return raw[start : start + count].reshape(shape)


def checked_components(components) -> np.ndarray:
    """Validated copy of form components ``[..., r, i, j]``, read-only and
    bitwise symmetric in (i, j); leading axes stack independent forms.

    Checks the desk-scale dimensions, finiteness and the pair symmetry
    |zeta - zeta^T| <= 1e-12 max |zeta| of every form (the message names the
    first worst entry of the first form that fails),
    then checks headroom: |T| <= 2 ||zeta||^2, so a curvature residual (a sum
    of at most three entries of T) stays below 6 ||zeta||^2;
    ||trace zeta||^2 <= n ||zeta||^2, and an entry of S_T + S_T^T stays below
    2 (sqrt(n) + 1) ||zeta||^2.  So 8 n ||zeta||^2 bounds every quantity the
    reports derive, and a form is accepted when that is finite.  ||zeta||^2 is
    computed on the form scaled by its largest component, so the check itself
    cannot overflow, and only where that component exceeds
    sqrt(max / (8 n m' n^2)), below which no form of the shape overflows.
    :class:`BundleValuedForm` is the one-form case.

    The result is the one allocation: it holds |zeta - zeta^T| for the gate
    and is then overwritten with the mirror.  The input is never written to
    or aliased.
    """
    arr = np.asarray(components, dtype=float)
    if arr.ndim < 3 or arr.shape[-1] != arr.shape[-2]:
        raise ValidationError(
            f"expected components of shape (m', n, n), got {arr.shape}"
        )
    dims = Dimensions(n=arr.shape[-1], m_prime=arr.shape[-3])
    # The largest |component| of each form; a NaN or inf makes it non-finite.
    within = (-3, -2, -1)
    scale = np.maximum(arr.max(axis=within), -arr.min(axis=within))
    if not np.isfinite(scale).all():
        raise ValidationError("zeta components must be finite")
    # zeta^T is copied in first: a ufunc reading the swapped view would
    # allocate an iterator buffer.
    sym, swapped = np.empty(arr.shape), np.swapaxes(arr, -1, -2)
    np.copyto(sym, swapped)
    asym = np.abs(np.subtract(arr, sym, out=sym), out=sym)
    fails = ~(asym.max(axis=within, initial=0.0) <= INPUT_SYMMETRY_TOL * scale)
    if fails.any():
        form = np.unravel_index(int(fails.argmax()), fails.shape)
        r, i, j = np.unravel_index(int(asym[form].argmax()), asym.shape[-3:])
        worst = arr[form]
        raise ValidationError(
            f"zeta[{r}][{i}][{j}] = {float(worst[r, i, j])!r} differs from "
            f"zeta[{r}][{j}][{i}] = {float(worst[r, j, i])!r}"
        )
    np.copyto(sym, arr)
    np.copyto(sym, swapped, where=_STRICT_LOWER[dims.n])
    # scale is max |sym| to 1e-12 relative, far inside the slack of 8 n.
    top = np.finfo(float).max
    limit = math.sqrt(top / (8 * dims.n**3 * dims.m_prime))
    if (scale > limit).any():
        forms, scales = sym.reshape(-1, *sym.shape[-3:]), scale.reshape(-1)
        for k in np.flatnonzero(scales > limit):
            unit_norm_sq = float(np.square(forms[k] / scales[k]).sum())
            if scales[k] > math.sqrt(top / (8 * dims.n * unit_norm_sq)):
                raise ValidationError(
                    f"zeta is too large: 8 n ||zeta||^2 overflows binary64 "
                    f"(largest |component| {float(scales[k])!r})"
                )
    sym.setflags(write=False)
    return sym


class BundleValuedForm:
    """Symmetric bilinear form on an n-dimensional tangent space with values in
    an m'-dimensional Riemannian bundle.

    Components are stored as a read-only array ``components[r, i, j]`` with
    ``components[r, i, j] == components[r, j, i]`` bitwise: each unordered pair
    is taken from the upper triangle and mirrored at construction.  Input that
    is asymmetric beyond 1e-12 times its largest |component| is rejected.
    """

    __slots__ = ("n", "m_prime", "components")

    def __init__(self, components) -> None:
        arr = np.asarray(components, dtype=float)
        if arr.ndim != 3:
            raise ValidationError(
                f"expected components of shape (m', n, n), got {arr.shape}"
            )
        self.components = checked_components(arr)
        self.m_prime, self.n = self.components.shape[:2]

    @classmethod
    def zeros(cls, n: int, m_prime: int) -> "BundleValuedForm":
        Dimensions(n=n, m_prime=m_prime)
        return cls(np.zeros((m_prime, n, n)))

    def value(self, x, y) -> np.ndarray:
        """Bundle vector zeta(X, Y) of two finite tangent vectors of shape (n,)."""
        xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        for name, v in (("X", xv), ("Y", yv)):
            if v.shape != (self.n,):
                raise ValidationError(
                    f"expected a vector of shape ({self.n},), got shape {v.shape}"
                )
            if not np.isfinite(v).all():
                raise ValidationError(f"{name} = {v.tolist()!r} must be finite")
        return np.einsum("rij,i,j->r", self.components, xv, yv)

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
            raise ValidationError(
                f"expected components of shape (n, n, n, n), got {arr.shape}"
            )
        check_tangent_dim(arr.shape[0])
        arr.setflags(write=False)
        self.n = arr.shape[0]
        self.components = arr

    @classmethod
    def zeros(cls, n: int) -> "CurvatureLikeTensor":
        return cls(np.zeros((check_tangent_dim(n),) * 4))


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


def _slab_blocks(n: int, scratch: np.ndarray):
    """(start, stop, index, scratch block) of each block of b slabs
    ``[..., i, :, :, :]`` of an n^4 tensor, for a scratch ``[..., b, n, n, n]``;
    the last block may be short."""
    b = scratch.shape[-4]
    for start in range(0, n, b):
        stop = min(start + b, n)
        out = scratch if stop - start == b else scratch[..., : stop - start, :, :, :]
        yield start, stop, np.s_[..., start:stop, :, :, :], out


def curvature_residuals(
    components: np.ndarray, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max absolute violation of T(X,Y,Z,W) = -T(Y,X,Z,W), of
    T(X,Y,Z,W) = -T(X,Y,W,Z) and of the first Bianchi sum
    T(X,Y,Z,W) + T(X,Z,W,Y) + T(X,W,Y,Z) = 0, over all index quadruples of
    each tensor in a stack ``[..., i, j, k, l]``.  The three residuals are
    formed in turn in ``scratch`` ``[..., b, n, n, n]``, b slabs
    ``[..., i, :, :, :]`` at a time; without one, in one scratch array shaped
    like the stack.  A max of |.| is exact and every sum keeps its operand
    order, so the residuals do not depend on b.
    """
    a = np.asarray(components)
    scratch = np.empty_like(a) if scratch is None else scratch
    # At (i, j, k, l) these read a[..., j, i, k, l], a[..., i, j, l, k],
    # a[..., i, k, l, j] and a[..., i, l, j, k].  Chained ndarray.swapaxes
    # takes a tenth of the time of np.moveaxis.
    views = (
        a.swapaxes(-4, -3),
        a.swapaxes(-2, -1),
        a.swapaxes(-1, -2).swapaxes(-2, -3),
        a.swapaxes(-3, -2).swapaxes(-2, -1),
    )

    def worst(residual: np.ndarray) -> np.ndarray:
        return np.abs(residual, out=residual).max(axis=(-4, -3, -2, -1))

    residuals = None
    for _, _, index, out in _slab_blocks(a.shape[-4], scratch):
        here, xy, zw, kl, lj = (v[index] for v in (a, *views))
        skew_xy = worst(np.add(here, xy, out=out))
        skew_zw = worst(np.add(here, zw, out=out))
        cyclic = np.add(here, kl, out=out)
        cyclic += lj
        block = (skew_xy, skew_zw, worst(cyclic))
        residuals = block if residuals is None else tuple(map(np.maximum, residuals, block))
    return residuals


def _symmetries_hold(worst, tol: float):
    """The curvature-symmetry rule: worst curvature residual <= tol."""
    return worst <= tol


def validate_curvature_symmetries(
    tensor: CurvatureLikeTensor, tol: float = DEFAULT_TOL
) -> SymmetryReport:
    """The three :func:`curvature_residuals` of one tensor and the verdict of
    :func:`_symmetries_hold` on them."""
    residuals = curvature_residuals(tensor.components)
    passed = bool(_symmetries_hold(np.maximum.reduce(residuals), tol))
    return SymmetryReport(*(float(r) for r in residuals), tol, passed)


def pair_exchange_residuals(
    components: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Max violation of T(X,Y,Z,W) = T(Z,W,X,Y), a consequence of the three
    curvature identities, of each tensor in a stack ``[..., i, j, k, l]``:
    T read as an (n^2, n^2) matrix minus its transpose, formed in
    ``scratch`` b slabs of rows at a time as in :func:`curvature_residuals`."""
    a = np.asarray(components)
    lead, n = a.shape[:-4], a.shape[-1]
    scratch = np.empty_like(a) if scratch is None else scratch
    rows = a.reshape(lead + (n * n, n * n))
    columns = rows.swapaxes(-1, -2)
    residual = None
    for start, stop, _, out in _slab_blocks(n, scratch):
        block = slice(start * n, stop * n)
        diff = np.subtract(
            rows[..., block, :], columns[..., block, :], out=out.reshape(lead + (-1, n * n))
        )
        worst = np.abs(diff, out=diff).max(axis=(-2, -1))
        residual = worst if residual is None else np.maximum(residual, worst)
    return residual


def pair_exchange_residual(tensor: CurvatureLikeTensor) -> float:
    """:func:`pair_exchange_residuals` of one tensor."""
    return float(pair_exchange_residuals(tensor.components))


def as_unit_vector(x, n: int, stacked: bool = False) -> np.ndarray:
    """Validate a unit tangent vector: length n, Euclidean norm 1 within 1e-12.

    With ``stacked``, validate a stack ``[..., n]`` of them; the message names
    the norm farthest from 1.
    """
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1:] != (n,) or (arr.ndim != 1 and not stacked):
        raise ValidationError(f"expected a vector of length {n}, got shape {arr.shape}")
    norms = np.linalg.norm(arr, axis=-1)
    off = np.abs(norms - 1.0)
    if not off.max(initial=0.0) <= UNIT_NORM_TOL:  # a NaN norm fails too
        norm = float(norms.flat[int(off.argmax())])
        raise ValidationError(f"norm {norm!r} differs from 1 beyond {UNIT_NORM_TOL}")
    return arr


def t_sectional(tensor: CurvatureLikeTensor, x, y) -> float:
    """Sectional value K_T(X ^ Y) = T(X, Y, Y, X) for an orthonormal pair."""
    xv = as_unit_vector(x, tensor.n)
    yv = as_unit_vector(y, tensor.n)
    inner = float(xv @ yv)
    if not abs(inner) <= PAIR_ORTHO_TOL:
        raise ValidationError(f"<X, Y> = {inner!r} exceeds {PAIR_ORTHO_TOL}")
    return float(np.einsum("ijkl,i,j,k,l->", tensor.components, xv, yv, yv, xv))


def _require_symmetries(tensor: CurvatureLikeTensor, tol: float) -> None:
    report = validate_curvature_symmetries(tensor, tol)
    if not report.passed:
        raise ValidationError(
            f"curvature symmetries violated (max residual {report.max_residual:.3e} "
            f"> tol {tol:.3e})"
        )


def t_ricci_form(tensor: CurvatureLikeTensor, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ricci-type contraction S_T[i, k] = sum_j T[j, i, k, j], symmetrized to
    kill roundoff.  Raises ValidationError if the curvature symmetries fail."""
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
    return float(norm_sqs(zeta.components))


def norm_sqs(components: np.ndarray) -> np.ndarray:
    """||zeta||^2 of each form in a stack ``[..., r, i, j]``."""
    return np.square(components).sum(axis=(-3, -2, -1))


def traces(components: np.ndarray) -> np.ndarray:
    """Trace bundle vector sum_i zeta[..., :, i, i] of each form in a stack."""
    return np.einsum("...rii->...r", components)


def trace_norms_sq(components: np.ndarray) -> np.ndarray:
    """Squared norm of the trace bundle vector of each form in a stack
    ``[..., r, i, j]``: :func:`squared_norms` of its :func:`traces`."""
    return squared_norms(traces(components))


def squared_norms(vectors: np.ndarray) -> np.ndarray:
    """|v|^2 of each vector of a stack ``[..., m]``, as a stacked
    (1 x m) (m x 1) product."""
    return (vectors[..., None, :] @ vectors[..., :, None])[..., 0, 0]


def _require_orthogonal(q, size: int, name: str) -> np.ndarray:
    arr = np.asarray(q, dtype=float)
    if arr.shape != (size, size):
        raise ValidationError(
            f"{name} rotation must have shape ({size}, {size}), got {arr.shape}"
        )
    residual = float(np.abs(arr.T @ arr - np.eye(size)).max())
    if not residual <= FRAME_ORTHO_TOL:
        raise ValidationError(
            f"{name} rotation fails Q^T Q = I by {residual:.3e} (> {FRAME_ORTHO_TOL})"
        )
    return arr


def rotate_frame(zeta: BundleValuedForm, q_tangent, q_bundle) -> BundleValuedForm:
    """Push zeta through orthogonal changes of the tangent and bundle frames:
    zeta'[s, a, b] = sum Q_b[s, r] Q_t[a, i] Q_t[b, j] zeta[r, i, j], taken as
    the mean of the product and its transpose, which is bitwise symmetric."""
    qt = _require_orthogonal(q_tangent, zeta.n, "tangent")
    qb = _require_orthogonal(q_bundle, zeta.m_prime, "bundle")
    rotated = np.tensordot(qb, qt @ zeta.components @ qt.T, axes=1)
    return BundleValuedForm(0.5 * (rotated + np.swapaxes(rotated, -1, -2)))


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


def null_space(zeta: BundleValuedForm, rank_tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of N_zeta = {X : zeta(X, Y) = 0 for all Y}.

    The components are stacked into an (m' * n) x n matrix whose kernel is
    N_zeta; singular values below rank_tol times the largest absolute
    component are treated as zero.  Returns a (k, n) array, possibly empty.
    """
    if not 0 < rank_tol < np.inf:
        need = "positive" if rank_tol <= 0 else "finite"
        raise ValidationError(f"rank_tol must be {need}, got {rank_tol!r}")
    scale = zeta.max_abs()
    if scale == 0.0:
        return np.eye(zeta.n)
    stacked = zeta.components.reshape(zeta.m_prime * zeta.n, zeta.n)
    _, singular, vt = np.linalg.svd(stacked, full_matrices=False)
    rank = int((singular > rank_tol * scale).sum())
    return vt[rank:].copy()
