"""Ambient space-form models as Ricci offsets.

Each model contributes a constant Delta with Ric(X) = Ric_T(X) + Delta for all
unit X, where T is the Gauss-built tensor of the second fundamental form.  The
full ambient curvature tensors are folded into these constants: for a slant
submanifold the tangential-structure terms contribute exactly
-3c cos^2(theta)/4 to the Ricci contraction (skewness of P kills the mixed
terms and sum_j <P e_j, X>^2 = cos^2(theta) for unit X), so only the offset
survives at the pointwise level.  The slant structure P is built here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .gauss_bounds import BoundMode, ricci_forms
from .tensor_core import BundleValuedForm, _finite_float, as_unit_vector, check_tangent_dim


class AmbientKind(Enum):
    REAL_SPACE_FORM = "real_space_form"
    COMPLEX_LAGRANGIAN = "complex_lagrangian"
    COMPLEX_SLANT = "complex_slant"
    SASAKIAN_C_TOTALLY_REAL = "sasakian_c_totally_real"


@dataclass(frozen=True)
class AmbientModel:
    """Tagged constant-curvature ambient model; theta only for the slant kind."""

    kind: AmbientKind
    c: float
    theta: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _finite_float(self.c, "c"))
        if self.theta is not None:
            object.__setattr__(self, "theta", _finite_float(self.theta, "theta"))
        if self.kind is AmbientKind.COMPLEX_SLANT:
            if self.theta is None:
                raise ValidationError("complex_slant requires theta")
            slant_cos(self.theta)
        elif self.theta is not None:
            raise ValidationError("theta is only valid for complex_slant models")


def slant_cos(theta: float) -> float:
    """The one slant-angle rule: cos(theta) for theta in (0, pi/2], snapped
    to 0 when |cos theta| < 1e-12 so that theta = pi/2 is the Lagrangian case
    exactly; ValidationError outside the range."""
    if not 0.0 < theta <= math.pi / 2:
        raise ValidationError(f"theta must lie in (0, pi/2], got {theta!r}")
    cos_t = math.cos(theta)
    return 0.0 if abs(cos_t) < 1e-12 else cos_t


@dataclass(frozen=True)
class SlantStructure:
    """Tangential part P of the ambient complex structure for slant angle theta.

    ``adapted_normal_gram`` is the Gram matrix of the adapted normal frame
    csc(theta) F e_i, computed from P through <F X, F Y> = <X, Y> - <P X, P Y>;
    it equals the identity exactly when the slant identities hold, which is the
    certification that the adapted frame is orthonormal.
    """

    n: int
    theta: float
    p: np.ndarray
    adapted_normal_gram: np.ndarray


def build_slant_structure(n: int, theta: float) -> SlantStructure:
    """Canonical block model: P e_{2a} = cos(theta) e_{2a+1} and
    P e_{2a+1} = -cos(theta) e_{2a}.

    theta = pi/2 gives P = 0 (the Lagrangian case) and accepts any n; a proper
    slant angle forces even n, since P^2 = -cos^2(theta) I is then a scaled
    complex structure.  This is the one owner of that parity rule.
    """
    check_tangent_dim(n)
    cos_t = slant_cos(theta)
    if cos_t != 0.0 and n % 2 != 0:
        raise ValidationError(
            f"proper slant angle {theta!r} requires even tangent dimension, got {n}"
        )
    p = np.zeros((n, n))
    if cos_t != 0.0:
        for a in range(0, n, 2):
            p[a + 1, a] = cos_t
            p[a, a + 1] = -cos_t
    sin_sq = math.sin(theta) ** 2
    gram = (np.eye(n) - p.T @ p) / sin_sq
    return SlantStructure(n=n, theta=theta, p=p, adapted_normal_gram=gram)


def ricci_offset(model: AmbientModel, n: int) -> float:
    """Constant Delta in Ric(X) = Ric_T(X) + Delta for unit X.  The one check
    of a model at dimension n, which :func:`application_bounds` runs too:
    ValidationError, naming c, if the offset or the c-part of the application
    bound (the slant kind's (n - 1) c) overflows, then the slant structure's
    parity rule."""
    check_tangent_dim(n, 2)
    if model.kind is AmbientKind.REAL_SPACE_FORM:
        offset = (n - 1) * model.c
    elif model.kind is AmbientKind.COMPLEX_LAGRANGIAN:
        offset = 0.25 * (n - 1) * model.c
    elif model.kind is AmbientKind.COMPLEX_SLANT:
        cos_t = slant_cos(model.theta)
        offset = 0.25 * (n - 1) * model.c + 0.75 * model.c * (cos_t * cos_t)
    else:
        offset = 0.25 * (n - 1) * (model.c + 3.0)
    if not math.isfinite(offset):
        raise ValidationError(f"c = {model.c!r} overflows the Ricci offset at n = {n}")
    if not math.isfinite(_application_bound(model, n, 0.0)):
        raise ValidationError(
            f"c = {model.c!r} overflows the application bound at n = {n}"
        )
    if model.theta is not None:
        build_slant_structure(n, model.theta)
    return offset


def application_bounds(model: AmbientModel, n: int, trace_sq):
    """Model-themed right-hand side of the Ricci bound for forms of tangent
    dimension n, from their ||trace zeta||^2 (a number or an array of them).

    Written exactly as the geometric statements display it, with
    ||H||^2 = ||trace zeta||^2 / n^2, so agreement with bound-plus-offset is a
    genuine transcription check:

        real space form:        n^2 ||H||^2 / 4 + (n-1) c
        complex Lagrangian:     (n-1)/4 * (c + n ||H||^2)
        complex slant:          1/4 * ((n-1) n ||H||^2 + (n-1) c + 3 c cos^2 theta)
        Sasakian C-totally real:(n-1)/4 * (c + 3 + n ||H||^2)

    The model is first checked at n by :func:`ricci_offset`, so a model the
    offset refuses has no application bound either.
    """
    ricci_offset(model, n)
    return _application_bound(model, n, trace_sq)


def _application_bound(model: AmbientModel, n: int, trace_sq):
    """:func:`application_bounds` of a model already checked at n."""
    h_sq = trace_sq / float(n) ** 2
    if model.kind is AmbientKind.REAL_SPACE_FORM:
        return n * n * h_sq / 4.0 + (n - 1) * model.c
    if model.kind is AmbientKind.COMPLEX_LAGRANGIAN:
        return (n - 1) / 4.0 * (model.c + n * h_sq)
    if model.kind is AmbientKind.COMPLEX_SLANT:
        cos_t = slant_cos(model.theta)
        return 0.25 * (
            (n - 1) * n * h_sq + (n - 1) * model.c + 3.0 * model.c * (cos_t * cos_t)
        )
    return (n - 1) / 4.0 * (model.c + 3.0 + n * h_sq)


def base_mode(model: AmbientModel) -> BoundMode:
    """The abstract bound the model's statement rests on: general for the real
    space form, improved for the other three."""
    if model.kind is AmbientKind.REAL_SPACE_FORM:
        return BoundMode.GENERAL
    return BoundMode.IMPROVED


def intrinsic_ricci(model: AmbientModel, zeta: BundleValuedForm, x) -> float:
    """Ric(X) recovered from the Ricci form of the Gauss-built tensor plus the
    model offset, for a unit vector X."""
    xv = as_unit_vector(x, zeta.n)
    return float(xv @ ricci_forms(zeta.components) @ xv) + ricci_offset(model, zeta.n)
