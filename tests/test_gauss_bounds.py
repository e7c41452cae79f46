"""Unit tests for the Gauss construction, the two bounds, and the classifiers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvlike.errors import BundleTooSmall, DimensionMismatch
from curvlike.gauss_bounds import (
    BoundMode,
    EqualityTag,
    build_T_from_zeta,
    check_bound,
    chen_ricci_bound,
    classify_all_equality,
    corollary_triple,
    equality_directions,
    gauss_components,
    improved_bound,
    is_totally_symmetric,
    ricci_form_from_zeta,
    ricci_forms,
    total_symmetry_residuals,
    verify_gauss,
)
from curvlike.optim_lemmas import max_ricci
from curvlike.sampling import (
    draw_general,
    draw_symmetric,
    random_orthogonal,
    sample_general,
    sample_symmetric,
)
from curvlike.structures import Family, FamilyParams, construct_family
from curvlike.tensor_core import (
    BundleValuedForm,
    CurvatureLikeTensor,
    curvature_residuals,
    pair_exchange_residual,
    orthonormal_complement,
    rotate_frame,
    t_ricci_form,
    trace_norm_sq,
    trace_norms_sq,
    trace_zeta,
    zeta_norm_sq,
)


class TestBuildAndVerify:
    def test_zero_form(self):
        tensor = build_T_from_zeta(BundleValuedForm.zeros(3, 2))
        assert np.array_equal(tensor.components, np.zeros((3, 3, 3, 3)))

    def test_reference_entry(self, h_umbilical_ref):
        tensor = build_T_from_zeta(h_umbilical_ref)
        assert tensor.components[0, 1, 1, 0] == 2.0

    def test_umbilical_n3_sectional_entries(self, umbilical_n3):
        tensor = build_T_from_zeta(umbilical_n3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert tensor.components[i, j, j, i] == 1.0

    def test_round_trip_residual_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            zeta = sample_general(rng, int(rng.integers(2, 6)), int(rng.integers(1, 5)))
            assert verify_gauss(build_T_from_zeta(zeta), zeta) == 0.0

    def test_zero_tensor_against_reference(self, h_umbilical_ref):
        residual = verify_gauss(CurvatureLikeTensor.zeros(2), h_umbilical_ref)
        assert residual == pytest.approx(2.0, abs=1e-15)

    def test_perturbation_is_linear(self, h_umbilical_ref):
        tensor = build_T_from_zeta(h_umbilical_ref)
        comps = np.array(tensor.components)
        eps = 3e-7
        comps[0, 1, 1, 0] += eps
        assert verify_gauss(CurvatureLikeTensor(comps), h_umbilical_ref) == (
            pytest.approx(eps, abs=1e-15)
        )

    def test_dimension_mismatch(self, h_umbilical_ref):
        with pytest.raises(DimensionMismatch):
            verify_gauss(CurvatureLikeTensor.zeros(3), h_umbilical_ref)


class TestGramKernel:
    """T as one Gram-matrix GEMM per form, over stacks of forms."""

    @staticmethod
    def slot_sum(zeta):
        """The defining sum over bundle slots, one outer product at a time."""
        return sum(
            np.einsum("il,jk->ijkl", slot, slot) - np.einsum("ik,jl->ijkl", slot, slot)
            for slot in zeta.components
        )

    @pytest.mark.parametrize("n, m", [(2, 2), (4, 6), (8, 8), (16, 32), (5, 3)])
    def test_matches_slot_sum_with_exact_symmetries(self, n, m):
        rng = np.random.default_rng([n, m, 1])
        forms = [sample_general(rng, n, m)]
        if m >= n:
            forms.append(sample_symmetric(rng, n, m))
        for zeta in forms:
            tensor = build_T_from_zeta(zeta)
            error = np.abs(tensor.components - self.slot_sum(zeta)).max()
            assert error <= 1e-15 * zeta_norm_sq(zeta)
            skew_xy, skew_zw, _ = curvature_residuals(tensor.components)
            assert skew_xy == skew_zw == pair_exchange_residual(tensor) == 0.0

    @pytest.mark.parametrize("draw", [draw_general, draw_symmetric])
    @pytest.mark.parametrize("n, m", [(3, 3), (4, 6), (16, 32)])
    def test_stack_equals_one_form_bitwise(self, draw, n, m):
        stack = draw(np.random.default_rng([n, m, 2]), n, m, 4)
        kernels = (
            gauss_components,
            ricci_forms,
            trace_norms_sq,
            total_symmetry_residuals,
            lambda c: curvature_residuals(gauss_components(c))[2],
        )
        for kernel in kernels:
            batched = kernel(stack)
            for k, comps in enumerate(stack):
                assert np.array_equal(batched[k], kernel(comps))


class TestDirectRicciForm:
    @pytest.mark.parametrize("n, m", [(2, 2), (4, 6), (8, 8), (16, 32)])
    def test_matches_contraction_of_built_tensor(self, n, m):
        rng = np.random.default_rng([n, m])
        for zeta in (sample_general(rng, n, m), sample_symmetric(rng, n, m)):
            expected = t_ricci_form(build_T_from_zeta(zeta))
            direct = ricci_form_from_zeta(zeta)
            assert np.array_equal(direct, direct.T)
            assert np.abs(direct - expected).max() <= 1e-12 * zeta_norm_sq(zeta)


class TestBoundValues:
    def test_zero(self):
        zeta = BundleValuedForm.zeros(4, 3)
        assert chen_ricci_bound(zeta) == 0.0
        assert improved_bound(zeta) == 0.0

    def test_reference(self, h_umbilical_ref):
        assert chen_ricci_bound(h_umbilical_ref) == 4.0
        assert improved_bound(h_umbilical_ref) == 2.0

    def test_umbilical_n3(self, umbilical_n3):
        assert chen_ricci_bound(umbilical_n3) == 2.25
        assert improved_bound(umbilical_n3) == pytest.approx(1.5, abs=1e-15)


class TestTotalSymmetry:
    def test_zero_true(self):
        ok, residual = is_totally_symmetric(BundleValuedForm.zeros(3, 3))
        assert ok and residual == 0.0

    def test_reference_true(self, h_umbilical_ref):
        ok, residual = is_totally_symmetric(h_umbilical_ref)
        assert ok and residual == 0.0

    def test_umbilical_n3_false(self, umbilical_n3):
        ok, residual = is_totally_symmetric(umbilical_n3)
        assert not ok
        assert residual == pytest.approx(1.0, abs=1e-15)

    def test_tail_must_vanish(self):
        comps = np.zeros((4, 2, 2))
        comps[0, 0, 0] = 1.0
        comps[3, 1, 1] = 0.5  # beyond the first n slots
        ok, residual = is_totally_symmetric(BundleValuedForm(comps))
        assert not ok and residual >= 0.5

    def test_bundle_too_small(self):
        with pytest.raises(BundleTooSmall):
            is_totally_symmetric(BundleValuedForm.zeros(3, 2))


class TestCheckBound:
    def test_zero_both_modes(self):
        zeta = BundleValuedForm.zeros(3, 2)
        for mode in BoundMode:
            report = check_bound(zeta, mode)
            assert report.gap == 0.0
            assert report.equality_class.tag is EqualityTag.ZERO_FORM

    def test_reference_improved(self, h_umbilical_ref):
        report = check_bound(h_umbilical_ref, BoundMode.IMPROVED)
        assert report.ricci_max == pytest.approx(2.0, abs=1e-12)
        assert report.bound_value == 2.0
        assert abs(report.gap) <= 1e-12
        assert report.symmetry_certified
        assert report.equality_class.tag is EqualityTag.H_UMBILICAL_SURFACE
        assert report.equality_class.mu == pytest.approx(1.0, abs=1e-12)

    def test_umbilical_n3_improved_negative_gap(self, umbilical_n3):
        report = check_bound(umbilical_n3, BoundMode.IMPROVED)
        assert not report.symmetry_certified
        assert report.gap == pytest.approx(-0.5, abs=1e-12)


class TestSoundness:
    def test_general_bound_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            zeta = sample_general(rng, n, int(rng.integers(1, 2 * n + 3)))
            lam, _ = max_ricci(t_ricci_form(build_T_from_zeta(zeta)))
            assert lam <= chen_ricci_bound(zeta) + 1e-9

    def test_improved_bound_on_symmetric_instances(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            zeta = sample_symmetric(rng, n, n + int(rng.integers(0, 3)))
            lam, _ = max_ricci(t_ricci_form(build_T_from_zeta(zeta)))
            assert lam <= improved_bound(zeta) + 1e-9


class TestEqualityDirections:
    def test_zero_form_reports_canonical_basis(self):
        dirs = equality_directions(BundleValuedForm.zeros(3, 2))
        assert len(dirs) == 3
        assert_allclose(np.stack(dirs), np.eye(3))

    def test_double_umbilical_surface(self):
        comps = np.zeros((2, 2, 2))
        comps[0, 0, 0] = comps[0, 1, 1] = 2.0
        dirs = equality_directions(BundleValuedForm(comps))
        assert len(dirs) == 2

    def test_umbilical_n3_has_none(self, umbilical_n3):
        assert equality_directions(umbilical_n3) == []


class TestClassification:
    def test_zero_form(self):
        zeta = BundleValuedForm.zeros(2, 2)
        for mode in BoundMode:
            assert classify_all_equality(zeta, mode).tag is EqualityTag.ZERO_FORM

    def test_h_umbilical_improved(self, h_umbilical_ref):
        eq = classify_all_equality(h_umbilical_ref, BoundMode.IMPROVED)
        assert eq.tag is EqualityTag.H_UMBILICAL_SURFACE
        assert eq.mu == pytest.approx(1.0, abs=1e-12)

    def test_h_umbilical_general_is_not_equality(self, h_umbilical_ref):
        eq = classify_all_equality(h_umbilical_ref, BoundMode.GENERAL)
        assert eq.tag is EqualityTag.NO_EQUALITY

    def test_umbilical_surface_general(self, umbilical_n2):
        eq = classify_all_equality(umbilical_n2, BoundMode.GENERAL)
        assert eq.tag is EqualityTag.UMBILICAL_SURFACE

    def test_slumbilical_never_attains_improved(self):
        zeta = construct_family(FamilyParams(Family.SLUMBILICAL, n=2, lam=1.0))
        report = check_bound(zeta, BoundMode.IMPROVED)
        assert report.ricci_max == pytest.approx(0.0, abs=1e-12)
        assert report.bound_value == pytest.approx(0.5, abs=1e-15)
        assert report.equality_class.tag is EqualityTag.NO_EQUALITY

    def test_rotation_invariance_of_classification(self, h_umbilical_ref, umbilical_n2):
        rng = np.random.default_rng(57)
        cases = [
            (h_umbilical_ref, BoundMode.IMPROVED, EqualityTag.H_UMBILICAL_SURFACE, 1.0),
            (umbilical_n2, BoundMode.GENERAL, EqualityTag.UMBILICAL_SURFACE, None),
        ]
        for zeta, mode, tag, mu in cases:
            for _ in range(25):
                rotated = rotate_frame(
                    zeta,
                    random_orthogonal(rng, zeta.n),
                    random_orthogonal(rng, zeta.m_prime),
                )
                eq = classify_all_equality(rotated, mode)
                assert eq.tag is tag
                if mu is not None:
                    assert abs(eq.mu) == pytest.approx(mu, abs=1e-9)

    def test_random_instances_classify_no_equality_stably(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            zeta = sample_general(rng, n, int(rng.integers(1, 4)))
            tag = classify_all_equality(zeta, BoundMode.GENERAL).tag
            rotated = rotate_frame(
                zeta, random_orthogonal(rng, n), random_orthogonal(rng, zeta.m_prime)
            )
            assert classify_all_equality(rotated, BoundMode.GENERAL).tag is tag


def per_vector_triple(zeta, x, tol=1e-9):
    """(equality at X, trace zero, X in the null space) from one ``zeta.value``
    call and one norm per test vector."""
    xv = np.asarray(x, dtype=float)
    perp_ok = all(
        float(np.linalg.norm(zeta.value(xv, y))) <= tol
        for y in orthonormal_complement(xv)
    )
    half_trace = 0.5 * trace_zeta(zeta)
    half_ok = float(np.linalg.norm(zeta.value(xv, xv) - half_trace)) <= tol
    trace_zero = float(np.sqrt(trace_norm_sq(zeta))) <= tol
    in_null = all(
        float(np.linalg.norm(zeta.value(xv, e))) <= tol for e in np.eye(zeta.n)
    )
    return perp_ok and half_ok, trace_zero, in_null


class TestCorollary:
    def test_matches_per_vector_evaluation(self):
        rng = np.random.default_rng(67)
        forms = [
            BundleValuedForm.zeros(3, 2),
            BundleValuedForm.zeros(16, 32),
            construct_family(
                FamilyParams(Family.TOTALLY_UMBILICAL, n=2, h0=np.array([1.0, 0.0]))
            ),
            construct_family(
                FamilyParams(Family.TOTALLY_UMBILICAL, n=4, h0=np.array([0.3, -2.0]))
            ),
            construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0)),
            construct_family(FamilyParams(Family.H_UMBILICAL, n=5, lam=1.5, mu=0.5)),
        ]
        for _ in range(20):
            n = int(rng.integers(1, 9))
            forms.append(sample_general(rng, n, int(rng.integers(1, 9))))
        seen = set()
        for zeta in forms:
            n = zeta.n
            argmax = check_bound(zeta, BoundMode.GENERAL).argmax_direction
            directions = [argmax, *np.eye(n)]
            for _ in range(3):
                x = rng.standard_normal(n)
                directions.append(x / np.linalg.norm(x))
            for x in directions:
                triple = corollary_triple(zeta, x)
                got = (triple.equality_at_x, triple.trace_zero, triple.in_null_space)
                assert got == per_vector_triple(zeta, x)
                assert triple.verified == (sum(got) != 2)
                seen.add(got)
        assert {(True, True, True), (True, False, False), (False, False, False)} <= seen

    def test_zero_form_all_true(self):
        triple = corollary_triple(BundleValuedForm.zeros(2, 2), [1.0, 0.0])
        assert triple.equality_at_x and triple.trace_zero and triple.in_null_space
        assert triple.verified

    def test_trace_free_non_null_direction(self):
        comps = np.zeros((1, 2, 2))
        comps[0, 0, 0] = 1.0
        comps[0, 1, 1] = -1.0
        triple = corollary_triple(BundleValuedForm(comps), [1.0, 0.0])
        assert (triple.equality_at_x, triple.trace_zero, triple.in_null_space) == (
            False,
            True,
            False,
        )
        assert triple.verified

    def test_reference_all_false(self, h_umbilical_ref):
        triple = corollary_triple(h_umbilical_ref, [1.0, 0.0])
        assert (triple.equality_at_x, triple.trace_zero, triple.in_null_space) == (
            False,
            False,
            False,
        )
        assert triple.verified

    def test_verified_on_random_instances(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            zeta = sample_general(rng, n, int(rng.integers(1, 5)))
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            assert corollary_triple(zeta, x).verified
