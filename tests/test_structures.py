"""Unit tests for slant structures, family constructors, and rigidity."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvlike.errors import ValidationError
from curvlike.gauss_bounds import (
    BoundMode,
    EqualityTag,
    check_bound,
    is_totally_symmetric,
)
from curvlike.structures import (
    Family,
    FamilyParams,
    RigidityVerdict,
    build_slant_structure,
    construct_family,
    umbilical_rigidity_witness,
)

THETAS = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


class TestSlantStructure:
    def test_lagrangian_gives_zero_p(self):
        structure = build_slant_structure(2, math.pi / 2)
        assert np.array_equal(structure.p, np.zeros((2, 2)))

    def test_lagrangian_accepts_odd_dimension(self):
        structure = build_slant_structure(3, math.pi / 2)
        assert structure.n == 3

    def test_pi_third_block(self):
        structure = build_slant_structure(2, math.pi / 3)
        assert_allclose(structure.p, [[0.0, -0.5], [0.5, 0.0]], atol=1e-15)
        assert_allclose(structure.p @ structure.p, -0.25 * np.eye(2), atol=1e-15)

    def test_proper_slant_rejects_odd_dimension(self):
        with pytest.raises(ValidationError, match=r"requires even tangent dimension, got 3$"):
            build_slant_structure(3, math.pi / 4)

    def test_theta_range(self):
        with pytest.raises(ValidationError, match=r"^theta must lie in \(0, pi/2\], got 0\.0$"):
            build_slant_structure(2, 0.0)
        with pytest.raises(ValidationError, match=r"^theta must lie in \(0, pi/2\]"):
            build_slant_structure(2, math.pi)

    def test_huge_n_is_refused_before_any_allocation(self):
        """An (n, n) P at n = 10**6 would take 8 TB; the dimension rule runs
        first."""
        with pytest.raises(
            ValidationError, match=r"^tangent dimension must be in 1\.\.16, got 1000000$"
        ):
            build_slant_structure(10**6, math.pi / 2)

    @pytest.mark.parametrize("n", (2, 4, 6))
    @pytest.mark.parametrize("theta", THETAS)
    def test_invariants(self, n, theta):
        structure = build_slant_structure(n, theta)
        p = structure.p
        cos_sq = math.cos(theta) ** 2
        assert np.abs(p + p.T).max() <= 1e-12
        assert np.abs(p @ p + cos_sq * np.eye(n)).max() <= 1e-12
        assert np.abs(p.T @ p - cos_sq * np.eye(n)).max() <= 1e-12
        assert np.abs(structure.adapted_normal_gram - np.eye(n)).max() <= 1e-12


class TestConstructFamily:
    def test_reference_components(self, h_umbilical_ref):
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 3.0
        expected[0, 1, 1] = 1.0
        expected[1, 0, 1] = expected[1, 1, 0] = 1.0
        assert np.array_equal(h_umbilical_ref.components, expected)

    def test_totally_geodesic(self):
        zeta = construct_family(FamilyParams(Family.TOTALLY_GEODESIC, n=4))
        assert zeta.max_abs() == 0.0
        assert zeta.m_prime == 4

    def test_slumbilical_pattern_and_symmetry(self):
        zeta = construct_family(FamilyParams(Family.SLUMBILICAL, n=3, lam=2.0))
        comps = zeta.components
        for i in range(3):
            assert comps[0, i, i] == 2.0
        for j in (1, 2):
            assert comps[j, 0, j] == 2.0
        ok, residual = is_totally_symmetric(zeta, tol=1e-12)
        assert ok and residual == 0.0

    def test_h_slumbilical_distinct_parameters(self):
        zeta = construct_family(
            FamilyParams(Family.H_SLUMBILICAL, n=4, lam=2.0, mu=0.5, theta=math.pi / 4)
        )
        assert zeta.components[0, 0, 0] == 2.0
        assert zeta.components[0, 1, 1] == 0.5
        ok, _ = is_totally_symmetric(zeta, tol=1e-12)
        assert ok

    def test_c_totally_real_variant_has_zero_characteristic_slot(self):
        zeta = construct_family(
            FamilyParams(Family.H_UMBILICAL_C_TOTALLY_REAL, n=3, lam=1.0, mu=2.0)
        )
        assert zeta.m_prime == 4
        assert np.array_equal(zeta.components[3], np.zeros((3, 3)))
        ok, _ = is_totally_symmetric(zeta, tol=1e-12)
        assert ok

    def test_totally_umbilical(self):
        h0 = np.array([0.5, -1.0])
        zeta = construct_family(FamilyParams(Family.TOTALLY_UMBILICAL, n=3, h0=h0))
        assert zeta.m_prime == 2
        for r in range(2):
            assert_allclose(zeta.components[r], h0[r] * np.eye(3))

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValidationError, match=r"^h-umbilical requires mu$"):
            construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=1.0))
        with pytest.raises(ValidationError, match=r"^slumbilical requires lambda$"):
            construct_family(FamilyParams(Family.SLUMBILICAL, n=2))
        with pytest.raises(ValidationError, match=r"^totally-umbilical requires h0$"):
            construct_family(FamilyParams(Family.TOTALLY_UMBILICAL, n=2))

    def test_slant_theta_range(self):
        with pytest.raises(ValidationError, match=r"^slant families need theta in \(0, pi/2\)"):
            construct_family(
                FamilyParams(Family.SLUMBILICAL, n=2, lam=1.0, theta=math.pi / 2)
            )

    def test_every_adapted_family_is_totally_symmetric(self):
        params = [
            FamilyParams(Family.H_UMBILICAL, n=4, lam=1.5, mu=-0.5),
            FamilyParams(Family.SLUMBILICAL, n=5, lam=-2.0),
            FamilyParams(Family.H_SLUMBILICAL, n=2, lam=0.3, mu=2.0, theta=0.7),
            FamilyParams(Family.H_UMBILICAL_C_TOTALLY_REAL, n=3, lam=1.0, mu=1.0),
            FamilyParams(Family.TOTALLY_GEODESIC, n=3),
        ]
        for p in params:
            ok, residual = is_totally_symmetric(construct_family(p), tol=1e-12)
            assert ok, p.family
            assert residual == 0.0


class TestSaturation:
    def test_h_umbilical_lambda_three_mu_saturates(self):
        for mu in (0.5, 1.0, 2.0):
            zeta = construct_family(
                FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0 * mu, mu=mu)
            )
            report = check_bound(zeta, BoundMode.IMPROVED)
            assert abs(report.gap) <= 1e-12
            assert report.equality_class.tag is EqualityTag.H_UMBILICAL_SURFACE
            assert report.equality_class.mu == pytest.approx(mu, abs=1e-12)

    @pytest.mark.parametrize("lam", (0.5, 1.0, 2.0))
    def test_slumbilical_strict_gap(self, lam):
        zeta = construct_family(FamilyParams(Family.SLUMBILICAL, n=2, lam=lam))
        report = check_bound(zeta, BoundMode.IMPROVED)
        assert report.gap == pytest.approx(lam * lam / 2.0, abs=1e-12)
        assert report.gap > 0.0
        assert report.symmetry_certified


class TestLagrangianSymmetryCheck:
    def test_families_pass(self):
        zeta = construct_family(FamilyParams(Family.H_UMBILICAL, n=3, lam=2.0, mu=1.0))
        ok, _ = is_totally_symmetric(zeta)
        assert ok

    def test_umbilical_fails(self, umbilical_n3):
        ok, residual = is_totally_symmetric(umbilical_n3)
        assert not ok and residual == 1.0

    def test_zero_passes(self):
        from curvlike.tensor_core import BundleValuedForm

        ok, residual = is_totally_symmetric(BundleValuedForm.zeros(3, 3))
        assert ok and residual == 0.0


class TestUmbilicalRigidity:
    def test_dimension_one_is_exceptional(self):
        assert umbilical_rigidity_witness(1, [5.0]) is RigidityVerdict.DIMENSION_1

    def test_huge_n_is_refused_before_any_allocation(self):
        with pytest.raises(
            ValidationError, match=r"^tangent dimension must be in 1\.\.16, got 1000000$"
        ):
            umbilical_rigidity_witness(10**6, [1.0])

    def test_unit_vector_forces_geodesic(self):
        verdict = umbilical_rigidity_witness(3, [1.0, 0.0, 0.0])
        assert verdict is RigidityVerdict.FORCED_GEODESIC

    def test_zero_vector_is_vacuous(self):
        assert umbilical_rigidity_witness(2, [0.0, 0.0]) is RigidityVerdict.FORCED_GEODESIC

    def test_never_symmetric_nonzero(self):
        rng = np.random.default_rng(83)
        for n in range(2, 7):
            for _ in range(100):
                h0 = rng.standard_normal(n)
                while np.linalg.norm(h0) <= 1e-12:
                    h0 = rng.standard_normal(n)
                assert umbilical_rigidity_witness(n, h0) is (
                    RigidityVerdict.FORCED_GEODESIC
                )
