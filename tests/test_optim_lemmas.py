"""Unit tests for the quadratic maxima, the oracle, and the eigen-extremum."""

import numpy as np
import pytest
from jacobi_oracle import jacobi_eigh
from numpy.testing import assert_allclose

from curvlike.errors import ValidationError
from curvlike.optim_lemmas import (
    ConstrainedQuadratic,
    Objective,
    brute_force_max,
    f1_max_closed,
    f2_max_closed,
    f_value,
    max_ricci,
)

S_VALUES = (-10.0, -1.0, 0.0, 1.0, 10.0)


class TestFValue:
    def test_zero_point(self):
        q = ConstrainedQuadratic(Objective.F1, 4, 0.0)
        assert f_value(q, np.zeros(4)) == 0.0

    def test_f1_arithmetic(self):
        q = ConstrainedQuadratic(Objective.F1, 3, 6.0)
        assert f_value(q, [4.0, 1.0, 1.0]) == 6.0

    def test_f2_arithmetic(self):
        q = ConstrainedQuadratic(Objective.F2, 3, 4.0)
        assert f_value(q, [1.0, 2.0, 1.0]) == 2.0

    def test_length_mismatch(self):
        q = ConstrainedQuadratic(Objective.F1, 3, 1.0)
        with pytest.raises(ValidationError, match=r"^expected 3 coordinates, got shape \(2,\)$"):
            f_value(q, [1.0, 2.0])

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValidationError, match=r"^tangent dimension must be in 2\.\.16, got 1$"):
            ConstrainedQuadratic(Objective.F1, 1, 0.0)


class TestClosedForms:
    def test_f1_reference(self):
        result = f1_max_closed(3, 6.0)
        assert result.max_value == 6.0
        assert_allclose(result.argmax, [4.0, 1.0, 1.0])

    def test_f1_zero_sum(self):
        result = f1_max_closed(2, 0.0)
        assert result.max_value == 0.0
        assert_allclose(result.argmax, [0.0, 0.0])

    def test_f1_surface_case_matches_h_umbilical_diagonal(self):
        result = f1_max_closed(2, 4.0)
        assert result.max_value == 2.0
        assert_allclose(result.argmax, [3.0, 1.0])

    def test_f2_reference(self):
        family = f2_max_closed(3, 4.0)
        assert family.max_value == 2.0
        assert family.a1 == 1.0
        assert family.tail_sum == 3.0
        assert_allclose(family.representative, [1.0, 1.5, 1.5])

    def test_f2_equal_distribution(self):
        family = f2_max_closed(4, 8.0)
        assert family.max_value == 8.0
        assert_allclose(family.representative, [2.0, 2.0, 2.0, 2.0])
        q = ConstrainedQuadratic(Objective.F2, 4, 8.0)
        assert f_value(q, family.representative) == 8.0

    def test_invalid_dimension(self):
        with pytest.raises(ValidationError, match=r"^tangent dimension must be in 2\.\.16, got 1$"):
            f1_max_closed(1, 3.0)
        with pytest.raises(ValidationError, match=r"^tangent dimension must be in 2\.\.16, got 1$"):
            f2_max_closed(1, 3.0)

    def test_n_above_desk_scale(self):
        """The oracle draws ORACLE_SAMPLES points of length n, so n is capped
        at the tangent-dimension limit; only n = 17 is tried."""
        with pytest.raises(ValidationError, match=r"^tangent dimension must be in 2\.\.16, got 17$"):
            ConstrainedQuadratic(Objective.F1, 17, 0.0)
        with pytest.raises(ValidationError, match=r"^tangent dimension must be in 2\.\.16, got 17$"):
            f1_max_closed(17, 3.0)
        with pytest.raises(ValidationError, match=r"^tangent dimension must be in 2\.\.16, got 17$"):
            f2_max_closed(17, 3.0)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("s", S_VALUES)
    def test_argmax_feasible_and_attains(self, n, s):
        r1 = f1_max_closed(n, s)
        assert abs(r1.argmax.sum() - s) <= 1e-12 * max(1.0, abs(s))
        q1 = ConstrainedQuadratic(Objective.F1, n, s)
        assert f_value(q1, r1.argmax) == pytest.approx(r1.max_value, abs=1e-12)
        r2 = f2_max_closed(n, s)
        assert abs(r2.representative.sum() - s) <= 1e-12 * max(1.0, abs(s))
        q2 = ConstrainedQuadratic(Objective.F2, n, s)
        assert f_value(q2, r2.representative) == pytest.approx(r2.max_value, abs=1e-12)


class TestOracle:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("s", S_VALUES)
    def test_matches_closed_forms(self, n, s):
        q1 = ConstrainedQuadratic(Objective.F1, n, s)
        assert abs(brute_force_max(q1, samples=20_000).max_value - f1_max_closed(n, s).max_value) <= 1e-8
        q2 = ConstrainedQuadratic(Objective.F2, n, s)
        assert abs(brute_force_max(q2, samples=20_000).max_value - f2_max_closed(n, s).max_value) <= 1e-8

    def test_f1_argmax_matches(self):
        q = ConstrainedQuadratic(Objective.F1, 3, 6.0)
        assert_allclose(brute_force_max(q).argmax, [4.0, 1.0, 1.0], atol=1e-9)

    def test_dominates_random_feasible_points(self):
        rng = np.random.default_rng(77)
        for which in Objective:
            for n in (2, 5, 8):
                for s in S_VALUES:
                    q = ConstrainedQuadratic(which, n, s)
                    closed = (
                        f1_max_closed(n, s).max_value
                        if which is Objective.F1
                        else f2_max_closed(n, s).max_value
                    )
                    points = rng.standard_normal((10_000, n)) * (1.0 + abs(s))
                    points += ((s - points.sum(axis=1)) / n)[:, None]
                    tails = points[:, 1:]
                    if which is Objective.F1:
                        values = points[:, 0] * tails.sum(1) - (tails**2).sum(1)
                    else:
                        values = points[:, 0] * tails.sum(1) - points[:, 0] ** 2
                    assert values.max() <= closed + 1e-9


class TestJacobi:
    def test_diagonal_matrix(self):
        lam, vec = max_ricci(np.diag([3.0, 1.0]))
        assert lam == 3.0
        assert_allclose(vec, [1.0, 0.0])

    def test_off_diagonal_two_by_two(self):
        lam, vec = max_ricci(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert_allclose(vec, [1.0 / np.sqrt(2.0)] * 2, atol=1e-12)

    def test_scaled_identity_is_exact_and_deterministic(self):
        for n in (2, 5, 16):
            lam, vec = max_ricci(2.0 * np.eye(n))
            assert lam == 2.0
            assert_allclose(vec, np.eye(n)[0])

    def test_zero_matrix(self):
        lam, vec = max_ricci(np.zeros((3, 3)))
        assert lam == 0.0
        assert_allclose(vec, np.eye(3)[0])

    def test_eigen_residual_and_dominance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 17))
            a = rng.standard_normal((n, n))
            a = a + a.T
            values, vectors = jacobi_eigh(a)
            norm = np.linalg.norm(a)
            for k in range(n):
                residual = np.linalg.norm(a @ vectors[:, k] - values[k] * vectors[:, k])
                assert residual <= 1e-10 * norm
            lam, vec = max_ricci(a)
            _assert_matches_oracle(lam, vec, values, vectors, norm)
            probes = rng.standard_normal((1000, n))
            probes /= np.linalg.norm(probes, axis=1)[:, None]
            quad = np.einsum("ki,ij,kj->k", probes, a, probes)
            assert quad.max() <= lam + 1e-9

    def test_agrees_with_numpy(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            a = rng.standard_normal((n, n))
            a = a + a.T
            values, vectors = jacobi_eigh(a)
            assert_allclose(np.sort(values), np.linalg.eigvalsh(a), atol=1e-10)
            lam, vec = max_ricci(a)
            _assert_matches_oracle(lam, vec, values, vectors, np.linalg.norm(a))

    def test_sign_convention(self):
        lam, vec = max_ricci(np.array([[2.0, 0.0], [0.0, -1.0]]))
        assert vec[int(np.argmax(np.abs(vec)))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match=r"^matrix asymmetric by 5\.000e-01"):
            max_ricci(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValidationError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            max_ricci(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        """A NaN matrix passes a `residual > tol` symmetry gate; the
        finiteness check comes first so no NaN eigenpair is returned."""
        with pytest.raises(ValidationError, match=r"^matrix entries must be finite$"):
            max_ricci(np.full((2, 2), bad))
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(ValidationError, match=r"^matrix entries must be finite$"):
            max_ricci(a)


def _assert_matches_oracle(lam, vec, values, vectors, norm):
    """max_ricci against the Jacobi oracle's top eigenpair, sign rule applied
    to the oracle vector; the seeded populations have simple top eigenvalues."""
    k = int(np.argmax(values))
    top = vectors[:, k]
    expected = top * np.sign(top[int(np.argmax(np.abs(top)))])
    assert abs(lam - values[k]) <= 1e-10 * norm
    assert_allclose(vec, expected, atol=1e-8)
