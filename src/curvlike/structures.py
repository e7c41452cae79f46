"""Constructors for the named second-fundamental-form families.

All adapted-frame families (H-umbilical, slumbilical, H-slumbilical, and the
C-totally real variant) share one component pattern: the geometric meaning of
the normal frame (J e_i, csc(theta) F e_i, or phi e_i) differs, but each frame
is orthonormal, so the pointwise algebra cannot tell them apart.  The ambient
model tag carries the distinction.  Slant structures are built in
:mod:`curvlike.ambient_models`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ambient_models import build_slant_structure
from .errors import ValidationError
from .gauss_bounds import is_totally_symmetric
from .tensor_core import BundleValuedForm, check_tangent_dim


class Family(Enum):
    H_UMBILICAL = "h-umbilical"
    SLUMBILICAL = "slumbilical"
    H_SLUMBILICAL = "h-slumbilical"
    H_UMBILICAL_C_TOTALLY_REAL = "h-umbilical-c-totally-real"
    TOTALLY_UMBILICAL = "totally-umbilical"
    TOTALLY_GEODESIC = "totally-geodesic"


@dataclass(frozen=True)
class FamilyParams:
    """Parameters for one named family; presence rules are family-specific."""

    family: Family
    n: int
    lam: float | None = None
    mu: float | None = None
    theta: float | None = None
    h0: np.ndarray | None = None


# The parameters each family requires, those it may also take, the bundle
# slots it adds past n, and the structure marker its file carries; a slant
# marker records theta, so a slant family carries it only when given theta.
FAMILIES = {
    Family.H_UMBILICAL: (("lambda", "mu"), (), 0, None),
    Family.SLUMBILICAL: (("lambda",), ("theta",), 0, "slant"),
    Family.H_SLUMBILICAL: (("lambda", "mu"), ("theta",), 0, "slant"),
    Family.H_UMBILICAL_C_TOTALLY_REAL: (("lambda", "mu"), (), 1, "c_totally_real"),
    Family.TOTALLY_UMBILICAL: (("h0",), (), 0, None),
    Family.TOTALLY_GEODESIC: ((), (), 0, None),
}


def construct_family(params: FamilyParams) -> BundleValuedForm:
    """Build the component pattern of a named family in its adapted frame.

    Adapted families use bundle slot i for the i-th adapted normal direction:
    zeta[0][0][0] = lambda, zeta[0][j][j] = mu and zeta[j][0][j] = mu for
    j >= 1, everything else zero.  Slumbilical is the mu = lambda special
    case.  The C-totally real variant carries one extra bundle slot (the
    characteristic direction), identically zero.  Totally umbilical forms are
    zeta[r][i][j] = delta_ij h0[r]; totally geodesic is the zero form.  A
    parameter the family does not take, by :data:`FAMILIES`, is refused.
    """
    n = check_tangent_dim(params.n)
    required, optional, extra_slots, _ = FAMILIES[params.family]
    named = {"lambda": params.lam, "mu": params.mu, "theta": params.theta, "h0": params.h0}
    for name, value in named.items():
        if value is not None and name not in required + optional:
            raise ValidationError(f"{params.family.value} takes no {name}")
        if value is not None and not np.isfinite(value).all():
            got = np.asarray(value).tolist()
            raise ValidationError(f"{name} must be finite, got {got!r}")
    missing = [name for name in required if named[name] is None]
    if missing:
        raise ValidationError(f"{params.family.value} requires {missing[0]}")

    if params.family is Family.TOTALLY_GEODESIC:
        return BundleValuedForm.zeros(n, n)

    if params.family is Family.TOTALLY_UMBILICAL:
        h0 = np.asarray(params.h0, dtype=float)
        if h0.ndim != 1 or h0.size < 1:
            raise ValidationError(f"h0 must be a nonempty vector, got shape {h0.shape}")
        components = np.zeros((h0.size, n, n))
        components[:, np.arange(n), np.arange(n)] = h0[:, None]
        return _built(components, "h0")

    mu = params.lam if params.mu is None else params.mu
    if params.theta is not None:
        if not 0.0 < params.theta < math.pi / 2:
            raise ValidationError(
                f"slant families need theta in (0, pi/2), got {params.theta!r}"
            )
        build_slant_structure(n, params.theta)

    components = np.zeros((n + extra_slots, n, n))
    components[0, 0, 0] = params.lam
    for j in range(1, n):
        components[0, j, j] = mu
        components[j, 0, j] = mu
        components[j, j, 0] = mu
    return _built(components, " and ".join(required))


def _built(components: np.ndarray, names: str) -> BundleValuedForm:
    """The family's form, with a refusal of it (a form too large for binary64)
    naming the parameters it was built from."""
    try:
        return BundleValuedForm(components)
    except ValidationError as exc:
        raise ValidationError(f"{names}: {exc}") from exc


class RigidityVerdict(Enum):
    FORCED_GEODESIC = "forced-geodesic"
    DIMENSION_1 = "dimension-1"
    SYMMETRIC_NONZERO = "symmetric-nonzero"


def umbilical_rigidity_witness(n: int, h0, tol: float = 1e-12) -> RigidityVerdict:
    """Rigidity of totally umbilical points under the cubic symmetry.

    Builds zeta = g (x) h0 and checks it against total symmetry: for n >= 2 a
    nonzero mean-curvature vector is incompatible with the symmetry, so the
    point is forced geodesic.  DIMENSION_1 is the exceptional n = 1 case;
    SYMMETRIC_NONZERO is the failure verdict that must never occur.
    """
    if check_tangent_dim(n) == 1:
        return RigidityVerdict.DIMENSION_1
    h = np.atleast_1d(np.asarray(h0, dtype=float))
    if h.size < n:
        h = np.concatenate([h, np.zeros(n - h.size)])
    zeta = construct_family(FamilyParams(Family.TOTALLY_UMBILICAL, n=n, h0=h))
    symmetric, _ = is_totally_symmetric(zeta, tol)
    if float(np.linalg.norm(h)) <= tol:
        return RigidityVerdict.FORCED_GEODESIC
    if symmetric:
        return RigidityVerdict.SYMMETRIC_NONZERO
    return RigidityVerdict.FORCED_GEODESIC
