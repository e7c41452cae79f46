"""Unit tests for the Gauss construction, the two bounds, and the classifiers."""

import ast
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvlike import gauss_bounds
from curvlike.errors import ValidationError
from curvlike.instance_io import Instance
from curvlike.reporting import build_instance_report
from curvlike.gauss_bounds import (
    BoundMode,
    EqualityTag,
    build_T_from_zeta,
    check_bound,
    corollary_triple,
    equality_directions,
    evaluate,
    gauss_components,
    gauss_probe_residuals,
    is_totally_symmetric,
    ricci_forms,
    ricci_probe_residuals,
    total_symmetry_residuals,
)
from curvlike.optim_lemmas import max_ricci, positive_lead
from curvlike.sampling import draw_general, draw_symmetric
from curvlike.structures import Family, FamilyParams, construct_family
from curvlike.tensor_core import (
    DEFAULT_TOL,
    BundleValuedForm,
    CurvatureLikeTensor,
    checked_components,
    curvature_residuals,
    pair_exchange_residual,
    rotate_frame,
    rotation_to_first_axis,
    t_ricci_form,
    trace_norms_sq,
    traces,
    zeta_norm_sq,
)
from classify_oracle import reference_improved_class
from random_forms import random_orthogonal, sample_general, sample_symmetric
from ricci_oracle import einsum_ricci_forms


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

    @staticmethod
    def gauss_residual(tensor, zeta):
        """The residual ``check`` and ``report`` print for ``tensor``."""
        comps = zeta.components
        return float(gauss_probe_residuals(tensor.components, comps, ricci_forms(comps)))

    def test_round_trip_residual_is_roundoff(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            zeta = sample_general(rng, int(rng.integers(2, 6)), int(rng.integers(1, 5)))
            residual = self.gauss_residual(build_T_from_zeta(zeta), zeta)
            assert residual <= PROBE_ROUNDOFF * zeta_norm_sq(zeta)

    def test_zero_tensor_against_reference(self, h_umbilical_ref):
        """The contraction of the zero tensor misses all of S_T = 2 I, and
        no probe value reaches 2."""
        residual = self.gauss_residual(CurvatureLikeTensor.zeros(2), h_umbilical_ref)
        assert residual == 2.0

    def test_perturbation_is_linear(self, h_umbilical_ref):
        tensor = build_T_from_zeta(h_umbilical_ref)
        comps = np.array(tensor.components)
        eps = 3e-7
        comps[0, 1, 1, 0] += eps
        assert self.gauss_residual(CurvatureLikeTensor(comps), h_umbilical_ref) == (
            pytest.approx(eps, abs=1e-15)
        )


class TestStackedProductKernel:
    """T as X - X.swapaxes(-2, -1), X from one stacked product per form,
    over stacks of forms."""

    @staticmethod
    def slot_sum(zeta):
        """The defining sum over bundle slots, one outer product at a time."""
        return sum(
            np.einsum("il,jk->ijkl", slot, slot) - np.einsum("ik,jl->ijkl", slot, slot)
            for slot in zeta.components
        )

    @pytest.mark.parametrize("n, m", [(2, 2), (4, 6), (6, 6), (8, 8), (16, 32), (5, 3)])
    def test_matches_slot_sum_with_exact_symmetries(self, n, m):
        """The second skew is exact (T is X minus its transpose); the first
        skew and pair exchange hold to roundoff at worst, bounded as in
        test_t_from_one_stacked_product_property."""
        rng = np.random.default_rng([n, m, 1])
        forms = [sample_general(rng, n, m)]
        if m >= n:
            forms.append(sample_symmetric(rng, n, m))
        for zeta in forms:
            tensor = build_T_from_zeta(zeta)
            error = np.abs(tensor.components - self.slot_sum(zeta)).max()
            assert error <= 1e-15 * zeta_norm_sq(zeta)
            skew_xy, skew_zw, _ = curvature_residuals(tensor.components)
            bound = 4 * np.finfo(float).eps * zeta_norm_sq(zeta)
            assert skew_zw == 0.0
            assert skew_xy <= bound
            assert pair_exchange_residual(tensor) <= bound

    @pytest.mark.parametrize("draw", [draw_general, draw_symmetric])
    @pytest.mark.parametrize("n, m", [(3, 3), (4, 6), (16, 32)])
    def test_stack_equals_one_form_bitwise(self, draw, n, m):
        stack = checked_components(draw(np.random.default_rng([n, m, 2]), n, m, 4))
        kernels = (
            gauss_components,
            ricci_forms,
            trace_norms_sq,
            total_symmetry_residuals,
            lambda c: curvature_residuals(gauss_components(c))[2],
            *(
                lambda c, name=field.name: getattr(evaluate(c), name)
                for field in dataclasses.fields(gauss_bounds.FormEvaluation)
            ),
        )
        for kernel in kernels:
            batched = kernel(stack)
            for k, comps in enumerate(stack):
                assert np.array_equal(batched[k], kernel(comps))

    def test_t_from_one_stacked_product_property(self):
        """Over n = 1..16, m' in {1, 2, 5, 16, 32}, general and symmetric
        draws at a seeded scale 2^k, in a stack of 3 and alone: T agrees with
        an einsum reference that shares no code with the kernel within
        4 eps ||zeta||^2; the second skew is exactly 0.0, since T is X minus
        its transpose whatever the BLAS does; the first skew and pair
        exchange, which pair one dot product with the same one taken
        elsewhere in the product, are within 4 eps ||zeta||^2 (both read 0.0
        on OpenBLAS 0.3 on x86_64, but exactness needs the BLAS to take a dot
        product the same way wherever it sits); and a form gives the same
        bits alone and in the stack."""
        rng = np.random.default_rng(71)
        eps = np.finfo(float).eps
        for n in range(1, 17):
            for m in (1, 2, 5, 16, 32):
                for draw in (draw_general, draw_symmetric) if m >= n else (draw_general,):
                    stack = draw(rng, n, m, 3) * 2.0 ** int(rng.integers(-30, 31))
                    tensors = gauss_components(stack)
                    reference = np.einsum("...ril,...rjk->...ijkl", stack, stack) - np.einsum(
                        "...rik,...rjl->...ijkl", stack, stack
                    )
                    for k, comps in enumerate(stack):
                        bound = 4 * eps * (comps**2).sum()
                        alone = gauss_components(comps)
                        assert alone.tobytes() == tensors[k].tobytes()
                        assert np.abs(alone - reference[k]).max() <= bound
                        skew_xy, skew_zw, _ = curvature_residuals(alone)
                        assert skew_zw == 0.0
                        assert skew_xy <= bound
                        assert pair_exchange_residual(CurvatureLikeTensor(alone)) <= bound

    def test_built_tensor_is_read_only_and_the_constructor_copies(self):
        zeta = sample_general(np.random.default_rng(72), 4, 6)
        assert not build_T_from_zeta(zeta).components.flags.writeable
        fresh = gauss_components(zeta.components)
        assert CurvatureLikeTensor(fresh).components is not fresh
        assert fresh.flags.writeable


class TestDirectRicciForm:
    @pytest.mark.parametrize("n, m", [(2, 2), (4, 6), (8, 8), (16, 32)])
    def test_matches_contraction_of_built_tensor(self, n, m):
        rng = np.random.default_rng([n, m])
        for zeta in (sample_general(rng, n, m), sample_symmetric(rng, n, m)):
            expected = t_ricci_form(build_T_from_zeta(zeta))
            direct = ricci_forms(zeta.components)
            assert np.array_equal(direct, direct.T)
            assert np.abs(direct - expected).max() <= 1e-12 * zeta_norm_sq(zeta)

    def test_matches_einsum_oracle(self):
        """The two-product kernel against the einsum contraction it replaced,
        within 1e-14 ||zeta||^2, on general and symmetric stacks at every n
        and at three scales."""
        rng = np.random.default_rng(73)
        for n in range(1, 17):
            for m in sorted({1, 3, n, 2 * n, 32}):
                draws = [draw_general(rng, n, m, 4)]
                if m >= n:
                    draws.append(draw_symmetric(rng, n, m, 4))
                for comps in draws:
                    comps = comps * rng.choice([1e-3, 1.0, 1e4])
                    norm_sq = (comps**2).sum(axis=(-3, -2, -1))
                    error = np.abs(ricci_forms(comps) - einsum_ricci_forms(comps))
                    assert (error.max(axis=(-2, -1)) <= 1e-14 * norm_sq).all()


# Largest gauss_probe_residuals / ||zeta||^2 of a correct pair: 3.6e-16 over
# n = 1..16, m' in {1, n, 32}, general and symmetric draws at scales 1e-3, 1
# and 1e4.  The pin leaves a margin of 5.6x.
PROBE_ROUNDOFF = 2e-15


def off_ricci_diagonal(n):
    """Index quadruples (j, i, k, l) of T with j != l, which the contraction
    sum_j T[j, i, k, j] never reads."""
    return [idx for idx in np.ndindex((n,) * 4) if idx[0] != idx[3]]


def probe_weights(n):
    """max over the probes of |X_j Y_i Z_k W_l|, the weight of T[j, i, k, l]
    in the probed values, as an (n, n, n, n) array."""
    xy, zw, *_ = gauss_bounds._probe_matrices(n)
    return np.abs(xy[:, :, None] * zw.T[:, None, :]).max(axis=0).reshape((n,) * 4)


class TestGaussProbes:
    """The Gauss residual of ``check``, ``report`` and campaign audits: T
    against S_T and against zeta at fixed probe vectors, with no rebuild of
    T."""

    DELTA = 1e-6

    @pytest.mark.parametrize("n", range(1, 17))
    def test_probe_matrices_are_the_seeded_vectors(self, n):
        """Both residuals read one cached set of read-only matrices, built
        from the seeded unit vectors X, Y, Z, W, bitwise as rebuilt here one
        outer product at a time."""
        rng = np.random.default_rng([gauss_bounds.GAUSS_PROBE_SEED, n])
        v = rng.standard_normal((4, gauss_bounds.GAUSS_PROBES, n))
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        x, y, z, w = v
        units = v.reshape(-1, n)

        def outers(a, b):
            return np.array([np.outer(p, q).ravel() for p, q in zip(a, b)])

        pairs = [outers(x, w), outers(x, z), outers(y, z), outers(y, w)]
        squares = [*outers(units, units), np.eye(n).ravel()]
        expected = (
            outers(x, y),
            outers(z, w).T,
            np.concatenate(pairs).T,
            units.T,
            np.array(squares).T,
        )
        matrices = gauss_bounds._probe_matrices(n)
        assert matrices is gauss_bounds._probe_matrices(n)
        assert len(matrices) == len(expected)
        for got, want in zip(matrices, expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    @staticmethod
    def residual(tensor, comps):
        return float(gauss_probe_residuals(tensor, comps, ricci_forms(comps)))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    def test_correct_pair_is_roundoff(self, scale):
        rng = np.random.default_rng(74)
        for n in range(1, 17):
            for m in sorted({1, n, 32}):
                draws = [draw_general(rng, n, m, 3)]
                if m >= n:
                    draws.append(draw_symmetric(rng, n, m, 3))
                for comps in draws:
                    comps = comps * scale
                    residual = gauss_probe_residuals(
                        gauss_components(comps), comps, ricci_forms(comps)
                    )
                    norm_sq = (comps**2).sum(axis=(-3, -2, -1))
                    assert (residual <= PROBE_ROUNDOFF * norm_sq).all()

    def test_every_off_diagonal_entry_is_probed(self):
        """Each T[j, i, k, l] with j != l enters some probe T(X, Y, Z, W) with
        weight |X_j Y_i Z_k W_l| >= 2.5e-6, so an error there moves the
        residual by at least that fraction of itself."""
        for n in range(2, 17):
            weight = probe_weights(n)
            assert min(weight[idx] for idx in off_ricci_diagonal(n)) >= 2.5e-6

    @pytest.mark.parametrize(
        "n, m, draw", [(3, 3, draw_symmetric), (16, 32, draw_general)]
    )
    def test_error_off_the_ricci_diagonal_is_caught_by_the_probes(self, n, m, draw):
        comps = draw(np.random.default_rng([n, m, 4]), n, m, 1)[0]
        tensor = gauss_components(comps)
        floor = PROBE_ROUNDOFF * zeta_norm_sq(BundleValuedForm(comps))
        entries = off_ricci_diagonal(n)
        weakest = min(entries, key=probe_weights(n).__getitem__)
        picks = np.random.default_rng(75).permutation(len(entries))[:40]
        for idx in [weakest, *(entries[k] for k in picks)]:
            broken = tensor.copy()
            broken[idx] += self.DELTA
            # The contraction reads no entry with j != l, so it would report
            # the full error on its own: the probes caught this one.
            assert floor < self.residual(broken, comps) < self.DELTA

    @pytest.mark.parametrize(
        "n, m, draw", [(3, 3, draw_symmetric), (16, 32, draw_general)]
    )
    def test_error_on_the_ricci_diagonal_is_caught_by_the_contraction(self, n, m, draw):
        comps = draw(np.random.default_rng([n, m, 5]), n, m, 1)[0]
        tensor = gauss_components(comps)
        rng = np.random.default_rng(76)
        for _ in range(20):
            j, i, k = rng.integers(n, size=3)
            broken = tensor.copy()
            broken[j, i, k, j] -= self.DELTA
            # A probe weighs the entry by less than 1; the contraction shows
            # all of it.
            assert self.residual(broken, comps) == pytest.approx(self.DELTA, rel=1e-6)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_stack_equals_one_form_bitwise(self, n):
        rng = np.random.default_rng([n, 6])
        for m in sorted({1, n, 32}):
            comps = draw_general(rng, n, m, 3)
            ricci = ricci_forms(comps)
            built = gauss_components(comps)
            noisy = built + 1e-9 * rng.standard_normal(built.shape)
            for tensors in (built, noisy):
                stacked = gauss_probe_residuals(tensors, comps, ricci)
                for k in range(3):
                    alone = gauss_probe_residuals(tensors[k], comps[k], ricci[k])
                    assert np.array_equal(stacked[k], alone)


# Largest ricci_probe_residuals / ||zeta||^2 of a correct pair: 4.1e-16 over
# n = 1..16, m' in {1, n, 32}, general and symmetric draws at scales 1e-3, 1
# and 1e4 (4.9e-16 over 50 more draws of each shape and kind).  The pin
# leaves a margin of 4.9x.
RICCI_PROBE_ROUNDOFF = 2e-15


class TestRicciProbes:
    """The campaign's per-instance check: S_T against zeta at the probe
    vectors, with no n^4 tensor and no code shared with ricci_forms."""

    DELTA = 1e-6

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    def test_correct_pair_is_roundoff(self, scale):
        rng = np.random.default_rng(77)
        for n in range(1, 17):
            for m in sorted({1, n, 32}):
                draws = [draw_general(rng, n, m, 3)]
                if m >= n:
                    draws.append(draw_symmetric(rng, n, m, 3))
                for comps in draws:
                    comps = comps * scale
                    residual = ricci_probe_residuals(comps, ricci_forms(comps))
                    norm_sq = (comps**2).sum(axis=(-3, -2, -1))
                    assert (residual <= RICCI_PROBE_ROUNDOFF * norm_sq).all()

    @pytest.mark.parametrize(
        "n, m, draw", [(3, 3, draw_symmetric), (16, 32, draw_general)]
    )
    def test_error_in_any_entry_is_caught(self, n, m, draw):
        comps = draw(np.random.default_rng([n, m, 7]), n, m, 1)[0]
        s_form = ricci_forms(comps)
        floor = RICCI_PROBE_ROUNDOFF * zeta_norm_sq(BundleValuedForm(comps))
        for i, k in zip(*np.triu_indices(n)):
            broken = s_form.copy()
            broken[i, k] += self.DELTA
            broken[k, i] += self.DELTA if i != k else 0.0
            assert 100 * floor < float(ricci_probe_residuals(comps, broken))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_stack_equals_one_form_bitwise(self, n):
        rng = np.random.default_rng([n, 8])
        for m in sorted({1, n, 32}):
            comps = draw_general(rng, n, m, 3)
            ricci = ricci_forms(comps)
            noisy = ricci + 1e-9 * rng.standard_normal(ricci.shape)
            for forms in (ricci, noisy):
                stacked = ricci_probe_residuals(comps, forms)
                for k in range(3):
                    alone = ricci_probe_residuals(comps[k], forms[k])
                    assert np.array_equal(stacked[k], alone)

    def test_shares_no_kernel_with_ricci_forms(self):
        """The route calls no curvlike function but its probe matrices."""
        tree = ast.parse(inspect.getsource(ricci_probe_residuals))
        called = {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert called == {"_probe_matrices"}


class TestBoundValues:
    def test_zero(self):
        zeta = BundleValuedForm.zeros(4, 3)
        assert check_bound(zeta, BoundMode.GENERAL).bound_value == 0.0
        assert check_bound(zeta, BoundMode.IMPROVED).bound_value == 0.0

    def test_reference(self, h_umbilical_ref):
        assert check_bound(h_umbilical_ref, BoundMode.GENERAL).bound_value == 4.0
        assert check_bound(h_umbilical_ref, BoundMode.IMPROVED).bound_value == 2.0

    def test_umbilical_n3(self, umbilical_n3):
        assert check_bound(umbilical_n3, BoundMode.GENERAL).bound_value == 2.25
        improved = check_bound(umbilical_n3, BoundMode.IMPROVED).bound_value
        assert improved == pytest.approx(1.5, abs=1e-15)


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
        ok, residual = is_totally_symmetric(BundleValuedForm.zeros(3, 2))
        assert not ok and residual == np.inf


class TestEvaluate:
    def test_fields_are_the_kernels(self):
        comps = draw_general(np.random.default_rng(81), 5, 7, 3)
        evaluation = evaluate(comps)
        s_form = ricci_forms(comps)
        assert np.array_equal(evaluation.ricci_form, s_form)
        assert np.array_equal(evaluation.ricci_max, np.linalg.eigvalsh(s_form).max(axis=-1))
        assert np.array_equal(evaluation.trace, np.einsum("...rii->...r", comps))
        assert np.array_equal(evaluation.trace_norm_sq, trace_norms_sq(comps))
        assert np.array_equal(
            evaluation.symmetry_residual, total_symmetry_residuals(comps)
        )

    @pytest.mark.parametrize("n, m", [(16, 32), (8, 8), (7, 9), (3, 3)])
    def test_stack_of_eight_equals_one_form_bitwise(self, n, m):
        """A campaign evaluates eight (16, 32) forms per stacked pass: every
        field carries the bits of the one-form evaluation."""
        rng = np.random.default_rng([n, m, 84])
        for draw in (draw_general, draw_symmetric) * 4:
            comps = checked_components(draw(rng, n, m, 8))
            stacked = evaluate(comps)
            for k in range(8):
                alone = evaluate(comps[k])
                for field in dataclasses.fields(stacked):
                    got = getattr(stacked, field.name)[k]
                    assert np.array_equal(got, getattr(alone, field.name)), (k, field.name)

    def test_bundle_too_small_is_never_certified(self):
        """m' < n has no residual: +inf, for one form and for a stack, so
        every ``residual <= tol`` test fails without raising."""
        comps = draw_general(np.random.default_rng(82), 4, 3, 5)
        assert np.array_equal(evaluate(comps).symmetry_residual, np.full(5, np.inf))
        assert evaluate(comps[0]).symmetry_residual == np.inf
        report = check_bound(BundleValuedForm(comps[0]), BoundMode.IMPROVED)
        assert not report.symmetry_certified

    @pytest.mark.parametrize("n, m", [(2, 2), (4, 6), (5, 3), (16, 32)])
    def test_extremum_is_max_ricci_bitwise(self, n, m):
        """check_bound reads the evaluation's eigvalsh top and one eigh for the
        direction; max_ricci symmetrizes and decomposes again by the same two
        rules, and both must give the same bits."""
        rng = np.random.default_rng([n, m, 83])
        for _ in range(5):
            zeta = sample_general(rng, n, m)
            report = check_bound(zeta, BoundMode.GENERAL)
            ricci_max, direction = max_ricci(ricci_forms(zeta.components))
            assert report.ricci_max == ricci_max
            assert np.array_equal(report.argmax_direction, direction)

    @pytest.mark.parametrize("draw", [draw_general, draw_symmetric])
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (4, 6), (8, 8), (16, 16), (16, 32)])
    def test_eigvalsh_top_and_printed_direction_agree_with_eigh(self, draw, n, m):
        """ricci_max comes from eigvalsh and argmax_direction from eigh, two
        LAPACK routes that differ in the last bits: eigh's top eigenvalue and
        S_T(v, v) at the printed direction v stay within 8 eps ||S_T||_F of
        ricci_max (measured at most 1.8 and 4.1 on these draws)."""
        comps = checked_components(draw(np.random.default_rng([n, m, 85]), n, m, 100))
        evaluation = evaluate(comps)
        for k, s_form in enumerate(evaluation.ricci_form):
            report = check_bound(BundleValuedForm(comps[k]), BoundMode.GENERAL)
            v = report.argmax_direction
            bound = 8 * np.finfo(float).eps * np.linalg.norm(s_form)
            assert abs(np.linalg.eigh(s_form)[0].max() - report.ricci_max) <= bound
            assert abs(v @ s_form @ v - report.ricci_max) <= bound


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
            assert lam <= check_bound(zeta, BoundMode.GENERAL).bound_value + 1e-9

    def test_improved_bound_on_symmetric_instances(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            zeta = sample_symmetric(rng, n, n + int(rng.integers(0, 3)))
            lam, _ = max_ricci(t_ricci_form(build_T_from_zeta(zeta)))
            assert lam <= check_bound(zeta, BoundMode.IMPROVED).bound_value + 1e-9


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

    def test_matches_per_vector_oracle(self, umbilical_n3):
        """The stacked corollary test certifies, bitwise and in eigenvalue
        order, the eigenvectors of S_T that the per-vector test accepts: on
        the zero form, a double umbilical surface, umbilical n = 3 (no
        eigenvalue near the bound at all), H-umbilical lambda = 3 mu, rotated
        umbilical surfaces with and without a 1e-5 perturbation (eigenvalues
        within tol * ||zeta||^2 of the bound whose squares fail the test), a
        rotated n = 3 form with one equality direction (eigenvectors of
        either sign) and 20 seeded general forms up to (16, 32)."""
        rng = np.random.default_rng(83)
        double = np.zeros((2, 2, 2))
        double[0, 0, 0] = double[0, 1, 1] = 2.0
        one_direction = np.zeros((2, 3, 3))
        one_direction[0] = np.diag([1.0, 0.3, 0.7])
        one_direction[1, 1:, 1:] = [[0.5, 0.2], [0.2, -0.5]]
        forms = [
            BundleValuedForm.zeros(3, 2),
            BundleValuedForm(double),
            umbilical_n3,
            construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0)),
        ]
        for m in (1, 2, 5):
            umbilical = construct_family(
                FamilyParams(Family.TOTALLY_UMBILICAL, n=2, h0=rng.standard_normal(m))
            )
            rotated = rotate_frame(
                umbilical, random_orthogonal(rng, 2), random_orthogonal(rng, m)
            )
            perturbed = rotated.components.copy()
            perturbed[0, 0, 1] = perturbed[0, 1, 0] = perturbed[0, 0, 1] + 1e-5
            forms += [rotated, BundleValuedForm(perturbed)]
        for _ in range(4):
            forms.append(
                rotate_frame(
                    BundleValuedForm(one_direction),
                    random_orthogonal(rng, 3),
                    random_orthogonal(rng, 2),
                )
            )
        for _ in range(19):
            n = int(rng.integers(1, 17))
            forms.append(sample_general(rng, n, int(rng.integers(1, 33))))
        forms.append(sample_general(rng, 16, 32))
        seen = set()
        for zeta in forms:
            expected, candidates, flipped = reference_equality_directions(zeta)
            got = equality_directions(zeta)
            assert len(got) == len(expected)
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))
            seen.add((candidates, len(expected), flipped))
        assert {(0, 0, False), (2, 2, False), (2, 0, False), (1, 1, True)} <= seen


def reference_equality_directions(zeta, tol=1e-9):
    """Eigenvectors of S_T that pass the per-vector equality test,
    sign-fixed; with the number of eigenvalues within tol * ||zeta||^2 of the
    general bound, which the squares test makes no filter of, and whether a
    sign fix changed a certified vector."""
    values, vectors = np.linalg.eigh(ricci_forms(zeta.components))
    bound = check_bound(zeta, BoundMode.GENERAL).bound_value
    near = int((np.abs(values - bound) <= tol * zeta_norm_sq(zeta)).sum())
    raw = [x for x in vectors.T if per_vector_triple(zeta, x, tol)[0]]
    certified = [positive_lead(x) for x in raw]
    flipped = any(not np.array_equal(x, y) for x, y in zip(raw, certified))
    return certified, near, flipped


class TestClassification:
    def test_zero_form(self):
        zeta = BundleValuedForm.zeros(2, 2)
        for mode in BoundMode:
            assert check_bound(zeta, mode).equality_class.tag is EqualityTag.ZERO_FORM

    def test_h_umbilical_improved(self, h_umbilical_ref):
        eq = check_bound(h_umbilical_ref, BoundMode.IMPROVED).equality_class
        assert eq.tag is EqualityTag.H_UMBILICAL_SURFACE
        assert eq.mu == pytest.approx(1.0, abs=1e-12)

    def test_h_umbilical_general_is_not_equality(self, h_umbilical_ref):
        eq = check_bound(h_umbilical_ref, BoundMode.GENERAL).equality_class
        assert eq.tag is EqualityTag.NO_EQUALITY

    def test_umbilical_surface_general(self, umbilical_n2):
        eq = check_bound(umbilical_n2, BoundMode.GENERAL).equality_class
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
                eq = check_bound(rotated, mode).equality_class
                assert eq.tag is tag
                if mu is not None:
                    assert abs(eq.mu) == pytest.approx(mu, abs=1e-9)

    def test_random_instances_classify_no_equality_stably(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            zeta = sample_general(rng, n, int(rng.integers(1, 4)))
            tag = check_bound(zeta, BoundMode.GENERAL).equality_class.tag
            rotated = rotate_frame(
                zeta, random_orthogonal(rng, n), random_orthogonal(rng, zeta.m_prime)
            )
            assert check_bound(rotated, BoundMode.GENERAL).equality_class.tag is tag

    def test_umbilical_witness_agrees_with_equality_directions(self):
        """An umbilical surface off by zeta_00 - zeta_11 = (1.55, 1, 0.5)e-9:
        ||(zeta_00 - zeta_11)/2|| = 9.6e-10 is within tol, so both axes attain
        the general bound pointwise, and so does every direction.  The tag
        agrees with equality_directions in every tangent frame."""
        h = np.array([0.7, -0.3, 0.2])
        split = np.array([1.55e-9, 1e-9, 0.5e-9])
        comps = np.zeros((3, 2, 2))
        comps[:, 0, 0] = h + split
        comps[:, 1, 1] = h
        witness = BundleValuedForm(comps)
        rng = np.random.default_rng(89)
        frames = [np.eye(2)] + [random_orthogonal(rng, 2) for _ in range(25)]
        for q in frames:
            zeta = rotate_frame(witness, q, np.eye(3))
            eq = check_bound(zeta, BoundMode.GENERAL).equality_class
            assert eq.tag is EqualityTag.UMBILICAL_SURFACE
            assert np.array_equal(eq.tangent_frame, np.eye(2))
            assert len(equality_directions(zeta)) == 2

    def test_umbilical_tag_holds_at_every_direction(self):
        """The umbilical tag and the corollary's equality at X are one rule,
        so a surface is tagged umbilical iff equality holds at the printed
        maximizer, at both axes and at 64 directions around the circle, all
        at the default tol.  The draws are umbilical surfaces in 3 to 5
        bundle slots, perturbed by 1e-9.7 ... 1e-7.8 and rotated, a band
        built to straddle the gate.  When the classifier compared ||[delta
        e]||_2 with an absolute tol, 5 of its 381 tagged draws printed a
        row with equality false."""
        rng = np.random.default_rng(97)
        angles = np.linspace(0.0, np.pi, 64, endpoint=False)
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        tagged = 0
        for _ in range(1000):
            m = int(rng.integers(3, 6))
            comps = np.zeros((m, 2, 2))
            comps[:, 0, 0] = comps[:, 1, 1] = rng.standard_normal(m)
            noise = rng.uniform(-1.0, 1.0, (m, 2, 2))
            comps += 10.0 ** rng.uniform(-9.7, -7.8) * (noise + noise.transpose(0, 2, 1)) / 2
            zeta = rotate_frame(BundleValuedForm(comps), random_orthogonal(rng, 2), np.eye(m))
            report = check_bound(zeta, BoundMode.GENERAL)
            tag = report.equality_class.tag is EqualityTag.UMBILICAL_SURFACE
            tagged += tag
            stack = np.vstack([report.argmax_direction, np.eye(2), circle])
            assert corollary_triple(zeta, stack).equality_at_x.tolist() == [tag] * len(stack)
        assert 200 <= tagged <= 800

    def test_sqrt2_band_agrees_everywhere(self):
        """h = (0.7, -0.3), zeta_00 = h + a, zeta_11 = h - a, zeta_01 = a with
        a = 0.8e-9 (0.6, 0.8): the sum of squares is 2 |a|^2 at every X, and
        its root 1.13e-9 exceeds the gate 1.08e-9.  Each axis residual was
        within an absolute tol while ||[delta e]||_2 was not, so the tag
        said no-equality while ``equality_directions`` and ``report``'s
        axis rows said equality.  Now all three say no equality."""
        h = np.array([0.7, -0.3])
        a = 0.8e-9 * np.array([0.6, 0.8])
        comps = np.zeros((2, 2, 2))
        comps[:, 0, 0], comps[:, 1, 1] = h + a, h - a
        comps[:, 0, 1] = comps[:, 1, 0] = a
        zeta = BundleValuedForm(comps)
        assert check_bound(zeta, BoundMode.GENERAL).equality_class.tag is EqualityTag.NO_EQUALITY
        assert equality_directions(zeta) == []
        doc, code = build_instance_report(Instance(zeta=zeta), DEFAULT_TOL)
        assert code == 0
        assert [row["equality_at_x"] for row in doc["corollary"]["rows"]] == [False] * 3
        assert doc["bounds"]["general"]["equality_class"]["tag"] == "no-equality"

    @pytest.mark.parametrize("mu", [1e-6, 1.0, 1e4, 1e6, 1e8])
    def test_h_umbilical_tag_in_random_frames_at_every_scale(self, mu):
        """A lambda = 3 mu surface keeps its tag and mu in 300 random tangent
        and bundle frames.  Its pattern was once tested at an absolute tol,
        and the tag was lost in 31 of these 300 frames at mu = 1e6 and in all of
        them at mu = 1e8."""
        rng = np.random.default_rng(109)
        base = construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0 * mu, mu=mu))
        for _ in range(300):
            zeta = rotate_frame(base, random_orthogonal(rng, 2), random_orthogonal(rng, 2))
            eq = check_bound(zeta, BoundMode.IMPROVED).equality_class
            assert eq.tag is EqualityTag.H_UMBILICAL_SURFACE
            assert eq.mu == pytest.approx(mu, rel=1e-12)

    def test_tiny_umbilical_surfaces_are_not_the_zero_form(self):
        """Umbilical surfaces zeta_r = h_r I with h ~ N(0, I) 1e-10 in 1 to
        5 slots: the zero form is ||zeta||^2 = 0, and the umbilical test is
        on zeta's own scale, so each is tagged umbilical.  A max |zeta| <=
        tol test called all 200 the zero form."""
        rng = np.random.default_rng(113)
        for _ in range(200):
            h = rng.standard_normal(int(rng.integers(1, 6))) * 1e-10
            zeta = BundleValuedForm(h[:, None, None] * np.eye(2))
            eq = check_bound(zeta, BoundMode.GENERAL).equality_class
            assert eq.tag is EqualityTag.UMBILICAL_SURFACE
            assert len(equality_directions(zeta)) == 2

    def test_traceless_surface_at_a_huge_tol(self):
        """zeta = [diag(1, -1)] has S_T = -I and ||zeta||^2 = 2, so at tol =
        1/2 it passes S_T = bound * I = 0 within tol * ||zeta||^2.  It has
        no trace to orient the improved pattern by, and is no equality case
        of either bound; classifying it raises no warning."""
        zeta = BundleValuedForm(np.diag([1.0, -1.0])[None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in BoundMode:
                assert check_bound(zeta, mode, 0.5).equality_class.tag is EqualityTag.NO_EQUALITY

    def test_improved_pattern_is_load_bearing(self):
        """Slot 0 = 2 mu I and slot 1 = diag(sqrt 2 mu, -sqrt 2 mu) give S_T =
        bound * I for the improved bound, yet the form is neither totally
        symmetric nor H-umbilical: lambda = 2 mu, not 3 mu."""
        mu = 1.0
        comps = np.zeros((2, 2, 2))
        comps[0] = 2.0 * mu * np.eye(2)
        comps[1] = np.diag([np.sqrt(2.0) * mu, -np.sqrt(2.0) * mu])
        zeta = BundleValuedForm(comps)
        report = check_bound(zeta, BoundMode.IMPROVED)
        s_form = evaluate(comps).ricci_form
        assert np.abs(s_form - report.bound_value * np.eye(2)).max() <= 1e-15
        assert not report.symmetry_certified
        assert report.equality_class.tag is EqualityTag.NO_EQUALITY

    def test_surface_gap_identity(self):
        """At n = 2, S_T - bound * I = -gap * I for the general bound, with gap
        = ||delta||^2 + ||e||^2, delta = (zeta_00 - zeta_11)/2 and e =
        zeta_01: the gap is quadratic in the distance from umbilical."""
        rng = np.random.default_rng(101)
        eps = np.finfo(float).eps
        for _ in range(200):
            zeta = sample_general(rng, 2, int(rng.integers(1, 9)))
            comps = zeta.components
            report = check_bound(zeta, BoundMode.GENERAL)
            off = np.abs(evaluate(comps).ricci_form - report.bound_value * np.eye(2)).max()
            delta = 0.5 * (comps[:, 0, 0] - comps[:, 1, 1])
            distance = float(delta @ delta + comps[:, 0, 1] @ comps[:, 0, 1])
            scale = 4 * eps * zeta_norm_sq(zeta)
            assert abs(off - report.gap) <= scale
            assert abs(report.gap - distance) <= scale

    def test_improved_matches_two_rotation_reference(self):
        """The one-rotation improved branch against the two-rotation
        reference on perturbed H-umbilical lambda = 3 mu forms, mu from 1e-2
        to 1e2, in 1 to 4 bundle slots, rotated in the tangent and the
        bundle: the same tags, the same mu and bundle frame bit for bit, and
        tangent frames within 4 eps."""
        rng = np.random.default_rng(103)
        eps = np.finfo(float).eps
        tags = set()
        for _ in range(400):
            m = int(rng.integers(1, 5))
            mu = 10.0 ** rng.uniform(-2.0, 2.0)
            pattern = construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0 * mu, mu=mu))
            comps = np.zeros((m, 2, 2))
            comps[: min(m, 2)] = pattern.components[:m]
            noise = rng.standard_normal((m, 2, 2))
            comps += 10.0 ** rng.uniform(-12.0, -8.0) * (noise + noise.transpose(0, 2, 1)) / 2
            zeta = rotate_frame(
                BundleValuedForm(comps), random_orthogonal(rng, 2), random_orthogonal(rng, m)
            )
            got = check_bound(zeta, BoundMode.IMPROVED).equality_class
            expected = reference_improved_class(zeta)
            assert got.tag is expected.tag
            tags.add(got.tag)
            if got.tag is EqualityTag.H_UMBILICAL_SURFACE:
                assert got.mu == expected.mu
                assert np.array_equal(got.bundle_frame, expected.bundle_frame)
                assert np.abs(got.tangent_frame - expected.tangent_frame).max() <= 4 * eps
        assert tags == {EqualityTag.H_UMBILICAL_SURFACE, EqualityTag.NO_EQUALITY}


def per_vector_triple(zeta, x, tol=1e-9):
    """(equality at X, trace zero, X in the null space) from one ``zeta.value``
    call per test vector, each compared with tol * ||zeta||: equality is the
    root of the general gap's sum of squares at X, |zeta(X, X) - trace / 2|^2
    + sum_Y |zeta(X, Y)|^2 over the complement, the others one norm each."""
    xv = np.asarray(x, dtype=float)
    gate = tol * math.sqrt(zeta_norm_sq(zeta))
    half_trace = 0.5 * traces(zeta.components)
    squares = float(np.sum((zeta.value(xv, xv) - half_trace) ** 2)) + sum(
        float(np.sum(zeta.value(xv, y) ** 2)) for y in rotation_to_first_axis(xv)[1:]
    )
    trace_zero = float(np.sqrt(trace_norms_sq(zeta.components))) <= gate
    in_null = all(
        float(np.linalg.norm(zeta.value(xv, e))) <= gate for e in np.eye(zeta.n)
    )
    return math.sqrt(squares) <= gate, trace_zero, in_null


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

    def test_stack_matches_per_direction_calls(self):
        """One call over a stack of directions gives, row for row, the
        verdicts of one call per direction and of the per-vector evaluation,
        on the zero, umbilical and H-umbilical lambda = 3 mu families and 20
        seeded general forms."""
        rng = np.random.default_rng(74)
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
        ]
        for _ in range(20):
            n = int(rng.integers(1, 17))
            forms.append(sample_general(rng, n, int(rng.integers(1, 33))))
        fields = ("equality_at_x", "trace_zero", "in_null_space", "verified")
        for zeta in forms:
            n = zeta.n
            argmax = check_bound(zeta, BoundMode.GENERAL).argmax_direction
            x = rng.standard_normal((3, n))
            stack = np.vstack([argmax, np.eye(n), x / np.linalg.norm(x, axis=1)[:, None]])
            triples = corollary_triple(zeta, stack)
            for field in fields:
                assert getattr(triples, field).shape == (len(stack),)
            for k, direction in enumerate(stack):
                one = corollary_triple(zeta, direction)
                row = tuple(bool(getattr(triples, field)[k]) for field in fields)
                assert row == tuple(getattr(one, field) for field in fields)
                assert all(type(getattr(one, field)) is bool for field in fields)
                assert row[:3] == per_vector_triple(zeta, direction)

    @pytest.mark.parametrize("x", [[np.nan, np.nan], [1.0, np.nan], [[1.0, 0.0], [np.nan, 0.0]]])
    def test_rejects_a_nan_direction(self, h_umbilical_ref, x):
        """A NaN direction used to pass the unit-norm gate and come back
        with verified = True."""
        with pytest.raises(ValidationError, match=r"^norm nan differs from 1"):
            corollary_triple(h_umbilical_ref, x)

    def test_stack_rejects_a_bad_direction(self, h_umbilical_ref):
        with pytest.raises(ValidationError, match=r"^norm 1\.414.* differs from 1 beyond"):
            corollary_triple(h_umbilical_ref, [[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValidationError, match=r"^expected a vector of length 2, got shape \(3, 3\)$"):
            corollary_triple(h_umbilical_ref, np.eye(3))

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
