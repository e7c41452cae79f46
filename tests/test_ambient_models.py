"""Unit tests for the ambient offsets and the themed Ricci bounds."""

import math

import numpy as np
import pytest

from curvlike.ambient_models import (
    AmbientKind,
    AmbientModel,
    application_bounds,
    base_mode,
    intrinsic_ricci,
    ricci_offset,
)
from curvlike.errors import ValidationError
from curvlike.gauss_bounds import BoundMode, build_T_from_zeta, check_bound
from curvlike.instance_io import StructureInfo
from curvlike.optim_lemmas import max_ricci
from curvlike.structures import build_slant_structure
from curvlike.tensor_core import BundleValuedForm, t_ricci_form, trace_norms_sq
from random_forms import random_unit, sample_general, sample_symmetric

THETAS = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


def _models(rng, n):
    """One model of each improved-bound kind, valid at dimension n: a proper
    slant angle needs even n, and theta = pi/2 is valid at any n."""
    c = float(rng.uniform(-5.0, 5.0))
    theta = float(rng.uniform(0.1, math.pi / 2))
    yield AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, c)
    yield AmbientModel(AmbientKind.COMPLEX_SLANT, c, theta if n % 2 == 0 else math.pi / 2)
    yield AmbientModel(AmbientKind.SASAKIAN_C_TOTALLY_REAL, c)


class TestModelValidation:
    def test_slant_requires_theta(self):
        with pytest.raises(ValidationError, match=r"^complex_slant requires theta$"):
            AmbientModel(AmbientKind.COMPLEX_SLANT, 1.0)

    def test_theta_range(self):
        with pytest.raises(ValidationError, match=r"^theta must lie in \(0, pi/2\], got 0\.0$"):
            AmbientModel(AmbientKind.COMPLEX_SLANT, 1.0, theta=0.0)
        with pytest.raises(ValidationError, match=r"^theta must lie in \(0, pi/2\]"):
            AmbientModel(AmbientKind.COMPLEX_SLANT, 1.0, theta=math.pi / 2 + 0.1)

    def test_theta_rejected_elsewhere(self):
        with pytest.raises(ValidationError, match=r"^theta is only valid for complex_slant models$"):
            AmbientModel(AmbientKind.REAL_SPACE_FORM, 1.0, theta=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_name_the_field(self, bad):
        for kind in AmbientKind:
            theta = 0.7 if kind is AmbientKind.COMPLEX_SLANT else None
            with pytest.raises(ValidationError, match="c must be finite"):
                AmbientModel(kind, bad, theta)
        with pytest.raises(ValidationError, match="theta must be finite"):
            AmbientModel(AmbientKind.COMPLEX_SLANT, 1.0, theta=bad)

    @pytest.mark.parametrize("kind", list(AmbientKind))
    def test_integer_beyond_binary64_names_the_field(self, kind):
        theta = 0.7 if kind is AmbientKind.COMPLEX_SLANT else None
        with pytest.raises(ValidationError, match=r"^c is an integer too large for binary64$"):
            AmbientModel(kind, 10**400, theta)
        with pytest.raises(ValidationError, match=r"^c is an integer too large for binary64$"):
            AmbientModel(kind, -(10**400), theta)
        if theta is not None:
            with pytest.raises(
                ValidationError, match=r"^theta is an integer too large for binary64$"
            ):
                AmbientModel(kind, 1.0, 10**400)

    @pytest.mark.parametrize(
        "value, shown", [(True, "True"), (False, "False"), ("1", "'1'"), (None, "None")],
        ids=["true", "false", "str", "none"],
    )
    def test_a_bool_or_a_non_number_is_refused_by_name(self, value, shown):
        """As the loader refuses a JSON true for ambient.c and structure.theta,
        the library constructors refuse a bool, and a non-number is a
        ValidationError, not a bare TypeError."""
        for kind in AmbientKind:
            theta = 0.7 if kind is AmbientKind.COMPLEX_SLANT else None
            with pytest.raises(ValidationError, match=rf"^c must be a number, got {shown}$"):
                AmbientModel(kind, value, theta)
        if value is not None:  # a None theta means no theta
            with pytest.raises(ValidationError, match=rf"^theta must be a number, got {shown}$"):
                AmbientModel(AmbientKind.COMPLEX_SLANT, 1.0, theta=value)
            with pytest.raises(ValidationError, match=rf"^theta must be a number, got {shown}$"):
                StructureInfo("slant", value)

    @pytest.mark.parametrize(
        "c", [1, np.int64(1), np.float64(1.0), np.float32(1.0)],
        ids=["int", "int64", "float64", "float32"],
    )
    def test_numbers_are_stored_as_floats(self, c):
        model = AmbientModel(AmbientKind.COMPLEX_SLANT, c, theta=np.int64(1))
        assert (type(model.c), type(model.theta)) == (float, float)
        assert (model.c, model.theta) == (1.0, 1.0)


class TestRicciOffset:
    def test_sasakian_flat_case(self):
        model = AmbientModel(AmbientKind.SASAKIAN_C_TOTALLY_REAL, -3.0)
        for n in (2, 3, 7):
            assert ricci_offset(model, n) == 0.0

    def test_slant_arithmetic(self):
        model = AmbientModel(AmbientKind.COMPLEX_SLANT, 4.0, theta=math.pi / 3)
        assert ricci_offset(model, 2) == pytest.approx(1.75, abs=1e-12)

    def test_slant_at_right_angle_equals_lagrangian_exactly(self):
        rng = np.random.default_rng(71)
        for n in (2, 3, 5):
            zeta = sample_general(rng, n, n)
            for c in (-2.0, 0.0, 4.0):
                slant = AmbientModel(AmbientKind.COMPLEX_SLANT, c, theta=math.pi / 2)
                lag = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, c)
                assert ricci_offset(slant, n) == ricci_offset(lag, n)
                trace_sq = trace_norms_sq(zeta.components)
                assert float(application_bounds(slant, zeta.n, trace_sq)) == float(
                    application_bounds(lag, zeta.n, trace_sq)
                )
                x = random_unit(rng, n)
                assert intrinsic_ricci(slant, zeta, x) == intrinsic_ricci(lag, zeta, x)

    def test_real_space_form(self):
        model = AmbientModel(AmbientKind.REAL_SPACE_FORM, 2.0)
        assert ricci_offset(model, 4) == 6.0

    @pytest.mark.parametrize("kind", list(AmbientKind))
    def test_overflow_names_c(self, kind):
        theta = 0.5 if kind is AmbientKind.COMPLEX_SLANT else None
        model = AmbientModel(kind, 1e308, theta)
        with pytest.raises(ValidationError, match=r"^c = 1e\+308 overflows"):
            ricci_offset(model, 16)
        assert math.isfinite(ricci_offset(AmbientModel(kind, 1e300, theta), 16))

    def test_slant_application_bound_overflow_names_c(self):
        """At n = 4 the slant offset scales (n - 1) c by 1/4 and stays
        finite at c = 1e308, but the application bound forms (n - 1) c
        unscaled; the one model check refuses c for it."""
        model = AmbientModel(AmbientKind.COMPLEX_SLANT, 1e308, 0.5)
        assert math.isfinite(0.25 * 3 * model.c + 0.75 * model.c * math.cos(0.5) ** 2)
        with pytest.raises(
            ValidationError,
            match=r"^c = 1e\+308 overflows the application bound at n = 4$",
        ):
            ricci_offset(model, 4)
        finite = AmbientModel(AmbientKind.COMPLEX_SLANT, 1e307, 0.5)
        assert math.isfinite(application_bounds(finite, 4, 0.0))
        assert math.isfinite(ricci_offset(finite, 4))

    def test_proper_slant_angle_at_odd_n_is_refused(self):
        """The one model check applies the slant structure's parity rule, so
        the offset and the intrinsic Ricci curvature refuse an odd n."""
        model = AmbientModel(AmbientKind.COMPLEX_SLANT, 1.0, theta=0.5)
        message = r"^proper slant angle 0\.5 requires even tangent dimension, got 3$"
        with pytest.raises(ValidationError, match=message):
            ricci_offset(model, 3)
        with pytest.raises(ValidationError, match=message):
            intrinsic_ricci(model, BundleValuedForm.zeros(3, 3), [1.0, 0.0, 0.0])
        assert math.isfinite(ricci_offset(model, 4))

    def test_application_bound_runs_the_same_model_check(self):
        """application_bounds refuses what ricci_offset refuses, with the same
        message: the parity rule and the overflow of c each have one path."""
        model = AmbientModel(AmbientKind.COMPLEX_SLANT, 1.0, theta=0.5)
        message = r"^proper slant angle 0\.5 requires even tangent dimension, got 3$"
        for trace_sq in (0.0, np.ones(4)):
            with pytest.raises(ValidationError, match=message):
                application_bounds(model, 3, trace_sq)
        assert math.isfinite(application_bounds(model, 4, 0.0))
        lagrangian = AmbientModel(AmbientKind.COMPLEX_SLANT, 1.0, theta=math.pi / 2)
        assert math.isfinite(application_bounds(lagrangian, 3, 0.0))
        huge = AmbientModel(AmbientKind.COMPLEX_SLANT, 1e308, 0.5)
        with pytest.raises(
            ValidationError,
            match=r"^c = 1e\+308 overflows the application bound at n = 3$",
        ):
            application_bounds(huge, 3, 0.0)

    def test_dimension_guard(self):
        model = AmbientModel(AmbientKind.REAL_SPACE_FORM, 1.0)
        message = r"^tangent dimension must be in 2\.\.16, got 1$"
        with pytest.raises(ValidationError, match=message):
            ricci_offset(model, 1)
        zeta = BundleValuedForm(np.ones((1, 1, 1)))
        with pytest.raises(ValidationError, match=message):
            float(application_bounds(model, zeta.n, trace_norms_sq(zeta.components)))


class TestApplicationBound:
    def test_lagrangian_reference(self, h_umbilical_ref):
        model = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 0.0)
        trace_sq = trace_norms_sq(h_umbilical_ref.components)
        assert float(trace_sq) / float(h_umbilical_ref.n) ** 2 == 4.0
        assert float(application_bounds(model, h_umbilical_ref.n, trace_sq)) == pytest.approx(2.0, abs=1e-12)

    def test_sasakian_zero_form(self):
        model = AmbientModel(AmbientKind.SASAKIAN_C_TOTALLY_REAL, 1.0)
        zeta = BundleValuedForm.zeros(2, 3)
        trace_sq = trace_norms_sq(zeta.components)
        assert float(application_bounds(model, zeta.n, trace_sq)) == pytest.approx(1.0, abs=1e-15)

    def test_flat_zero_form(self):
        # The flat parameter is c = 0 except for the Sasakian kind, whose
        # curvature enters as c + 3.  n is even, as the proper slant angle
        # needs.
        zeta = BundleValuedForm.zeros(4, 2)
        flat = [
            AmbientModel(AmbientKind.REAL_SPACE_FORM, 0.0),
            AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 0.0),
            AmbientModel(AmbientKind.COMPLEX_SLANT, 0.0, theta=0.5),
            AmbientModel(AmbientKind.SASAKIAN_C_TOTALLY_REAL, -3.0),
        ]
        trace_sq = trace_norms_sq(zeta.components)
        for model in flat:
            assert float(application_bounds(model, zeta.n, trace_sq)) == 0.0

    def test_decomposes_into_bound_plus_offset(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            zeta = sample_symmetric(rng, n, n)
            trace_sq = trace_norms_sq(zeta.components)
            improved = check_bound(zeta, BoundMode.IMPROVED).bound_value
            for model in _models(rng, n):
                lhs = float(application_bounds(model, zeta.n, trace_sq))
                rhs = improved + ricci_offset(model, n)
                assert abs(lhs - rhs) <= 1e-12
        zeta = sample_general(rng, 4, 5)
        model = AmbientModel(AmbientKind.REAL_SPACE_FORM, 1.5)
        assert abs(
            float(application_bounds(model, zeta.n, trace_norms_sq(zeta.components)))
            - (check_bound(zeta, BoundMode.GENERAL).bound_value + ricci_offset(model, 4))
        ) <= 1e-12


class TestIntrinsicRicci:
    def test_totally_geodesic_lagrangian(self):
        model = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 4.0)
        zeta = BundleValuedForm.zeros(3, 3)
        for x in np.eye(3):
            assert intrinsic_ricci(model, zeta, x) == pytest.approx(2.0, abs=1e-15)

    def test_flat_sasakian_zero(self):
        model = AmbientModel(AmbientKind.SASAKIAN_C_TOTALLY_REAL, -3.0)
        zeta = BundleValuedForm.zeros(2, 3)
        assert intrinsic_ricci(model, zeta, [1.0, 0.0]) == 0.0

    def test_reference_instance(self, h_umbilical_ref):
        model = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 0.0)
        assert intrinsic_ricci(model, h_umbilical_ref, [1.0, 0.0]) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_bounded_by_application_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            zeta = sample_symmetric(rng, n, n)
            x = random_unit(rng, n)
            trace_sq = trace_norms_sq(zeta.components)
            for model in _models(rng, n):
                assert intrinsic_ricci(model, zeta, x) <= (
                    float(application_bounds(model, zeta.n, trace_sq)) + 1e-9
                )

    def test_real_space_form_recovery(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            zeta = sample_general(rng, n, int(rng.integers(1, 2 * n + 3)))
            model = AmbientModel(AmbientKind.REAL_SPACE_FORM, float(rng.uniform(-3, 3)))
            lam, _ = max_ricci(t_ricci_form(build_T_from_zeta(zeta)))
            intrinsic_max = lam + ricci_offset(model, n)
            h_sq = float(trace_norms_sq(zeta.components)) / float(zeta.n) ** 2
            expected = n * n * h_sq / 4.0 + (n - 1) * model.c
            assert intrinsic_max <= expected + 1e-9


class TestSlantCurvatureTermFoldsIntoOffset:
    """The tangential-structure terms of the slant ambient curvature reduce to
    the constant -3 c cos^2(theta) / 4 on the Ricci contraction."""

    @pytest.mark.parametrize("n", (2, 4, 6))
    @pytest.mark.parametrize("theta", THETAS)
    def test_p_term_ricci_contraction(self, n, theta):
        structure = build_slant_structure(n, theta)
        p = structure.p
        rng = np.random.default_rng(47)
        c = 4.0
        for _ in range(20):
            x = random_unit(rng, n)
            basis = np.eye(n)
            total = 0.0
            for j in range(n):
                e = basis[j]
                # tangential terms of the ambient curvature, contracted as a
                # Ricci sum: <P e_j, X><P X, e_j> - <P X, X><P e_j, e_j>
                #            + 2 <P e_j, X><P X, e_j>
                total += (p @ e) @ x * ((p @ x) @ e) - ((p @ x) @ x) * ((p @ e) @ e)
                total += 2.0 * ((p @ e) @ x) * ((p @ x) @ e)
            contribution = (c / 4.0) * total
            assert contribution == pytest.approx(
                -0.75 * c * math.cos(theta) ** 2, abs=1e-12
            )


class TestBaseMode:
    @pytest.mark.parametrize(
        "kind, theta, mode",
        [
            (AmbientKind.REAL_SPACE_FORM, None, BoundMode.GENERAL),
            (AmbientKind.COMPLEX_LAGRANGIAN, None, BoundMode.IMPROVED),
            (AmbientKind.COMPLEX_SLANT, 0.7, BoundMode.IMPROVED),
            (AmbientKind.SASAKIAN_C_TOTALLY_REAL, None, BoundMode.IMPROVED),
        ],
    )
    def test_kind_selects_mode(self, kind, theta, mode):
        assert base_mode(AmbientModel(kind, 0.0, theta)) is mode
