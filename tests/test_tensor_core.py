"""Unit tests for tensor storage, contractions, and frame operations."""

import copy
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvlike.errors import ValidationError
from curvlike.gauss_bounds import build_T_from_zeta
from curvlike.tensor_core import (
    BundleValuedForm,
    CurvatureLikeTensor,
    Dimensions,
    checked_components,
    null_space,
    pair_exchange_residual,
    rotate_frame,
    rotation_to_first_axis,
    t_ricci,
    t_ricci_form,
    t_scalar,
    t_sectional,
    trace_norms_sq,
    traces,
    validate_curvature_symmetries,
    zeta_norm_sq,
)
from curvlike.optim_lemmas import max_ricci
from curvlike.sampling import draw_general, draw_symmetric
from random_forms import random_orthogonal, random_unit, sample_general
from symmetry_oracle import reference_checked_components


class TestDimensions:
    def test_desk_scale_guards(self):
        Dimensions(1, 1)
        Dimensions(16, 32)
        with pytest.raises(ValidationError, match=r"^tangent dimension must be in 1\.\.16, got 0$"):
            Dimensions(0, 1)
        with pytest.raises(ValidationError, match=r"^tangent dimension must be in 1\.\.16, got 17$"):
            Dimensions(17, 1)
        with pytest.raises(ValidationError, match=r"^bundle dimension must be in 1\.\.32, got 33$"):
            Dimensions(2, 33)

    def test_zeros_check_n_before_allocating(self):
        message = r"^tangent dimension must be in 1\.\.16, got 1000000$"
        with pytest.raises(ValidationError, match=message):
            BundleValuedForm.zeros(10**6, 1)
        with pytest.raises(ValidationError, match=message):
            CurvatureLikeTensor.zeros(10**6)

    def test_draws_check_dimensions_before_allocating(self):
        for draw in (draw_general, draw_symmetric):
            with pytest.raises(ValidationError, match=r"^tangent dimension must be in 1\.\.16, got 1000000$"):
                draw(np.random.default_rng(0), 10**6, 1, 1)
            with pytest.raises(ValidationError, match=r"^bundle dimension must be in 1\.\.32, got 1000000$"):
                draw(np.random.default_rng(0), 2, 10**6, 1)

    def test_form_rejects_bad_shapes(self):
        with pytest.raises(ValidationError, match=r"^expected components of shape \(m', n, n\)"):
            BundleValuedForm(np.zeros((2, 3, 2)))
        with pytest.raises(ValidationError, match=r"^bundle dimension must be in 1\.\.32, got 33$"):
            BundleValuedForm(np.zeros((33, 2, 2)))


def headroom_ok(components) -> bool:
    """The headroom rule on one form: 8 n ||zeta||^2 is finite, judged on
    the form scaled by its largest component."""
    scale = float(np.abs(components).max())
    if scale == 0.0:
        return True
    unit_norm_sq = float(np.square(components / scale).sum())
    n = components.shape[-1]
    return not scale > math.sqrt(np.finfo(float).max / (8 * n * unit_norm_sq))


def _refuses(components) -> bool:
    """Whether :func:`checked_components` refuses a form for headroom."""
    try:
        checked_components(components)
    except ValidationError as exc:
        assert str(exc).startswith("zeta is too large: ")
        return True
    return False


class TestBundleValuedForm:
    def test_symmetry_is_bitwise_exact(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((3, 4, 4))
        sym = 0.5 * (raw + raw.transpose(0, 2, 1))
        form = BundleValuedForm(sym)
        assert np.array_equal(form.components, form.components.transpose(0, 2, 1))

    def test_rejects_asymmetric_input_naming_indices(self):
        comps = np.zeros((1, 2, 2))
        comps[0, 0, 1] = 1e-3
        with pytest.raises(ValidationError, match=r"zeta\[0\]\[0\]\[1\]"):
            BundleValuedForm(comps)

    def test_rejects_non_finite(self):
        """Also in a stack, and in the lower triangle, before the mirror
        drops it."""
        for value, index in ((np.inf, (0, 0, 0)), (np.nan, (0, 1, 0)), (-np.inf, (0, 1, 0))):
            comps = np.zeros((1, 2, 2))
            comps[index] = value
            with pytest.raises(ValidationError, match=r"^zeta components must be finite$"):
                BundleValuedForm(comps)
            with pytest.raises(ValidationError, match=r"^zeta components must be finite$"):
                checked_components(np.stack([np.zeros((1, 2, 2)), comps]))

    def test_headroom_is_the_scaled_norm_rule_per_form(self):
        """Around each form's limit, every form of a stack gets the verdict
        of the scaled rule on it alone, also above the shape's sufficient
        bound sqrt(max / (8 n m' n^2)), where one large entry passes."""
        rng = np.random.default_rng(7)
        for n, m in ((2, 1), (3, 3), (16, 32)):
            single = np.zeros((m, n, n))
            single[0, 0, 0] = 1.0
            drawn = sample_general(rng, n, m).components
            for base in (single, drawn / np.abs(drawn).max()):
                limit = math.sqrt(np.finfo(float).max / (8 * n * np.square(base).sum()))
                forms = [base * (limit * (1 + k * 2.0**-50)) for k in range(-3, 4)]
                refused = [not headroom_ok(form) for form in forms]
                assert any(refused) and not all(refused)
                assert [_refuses(form) for form in forms] == refused
                kept = np.stack([form for form, bad in zip(forms, refused) if not bad])
                checked_components(kept)
                first = float(np.abs(forms[refused.index(True)]).max())
                with pytest.raises(ValidationError) as caught:
                    checked_components(np.stack(forms))
                assert str(caught.value).endswith(f"(largest |component| {first!r})")

    def test_components_read_only(self):
        form = BundleValuedForm.zeros(2, 2)
        with pytest.raises(ValueError):
            form.components[0, 0, 0] = 1.0

    def test_value_pairs_two_tangent_vectors(self):
        comps = np.zeros((2, 2, 2))
        comps[0, 0, 1] = comps[0, 1, 0] = 3.0
        comps[1] = np.eye(2)
        assert np.array_equal(
            BundleValuedForm(comps).value([1.0, 2.0], [0.5, 1.0]), [6.0, 2.5]
        )

    @pytest.mark.parametrize(
        "x, y",
        [((3,), (2,)), ((2,), (3,)), ((2,), (2, 2)), ((1, 2), (2,)), ((), (2,))],
    )
    def test_value_rejects_a_vector_of_the_wrong_shape(self, x, y):
        bad = re.escape(str(x if x != (2,) else y))
        with pytest.raises(
            ValidationError, match=rf"^expected a vector of shape \(2,\), got shape {bad}$"
        ):
            BundleValuedForm.zeros(2, 2).value(np.ones(x), np.ones(y))

    @pytest.mark.parametrize(
        "x, y, name",
        [
            ([np.inf, 0.0], [0.0, 1.0], "X"),
            ([np.nan, 0.0], [1.0, 0.0], "X"),
            ([1.0, 0.0], [0.0, -np.inf], "Y"),
        ],
    )
    def test_value_rejects_a_non_finite_vector(self, x, y, name):
        form = BundleValuedForm(np.eye(2)[None])
        with pytest.raises(ValidationError, match=rf"^{name} = \[.*\] must be finite$"):
            form.value(x, y)


class TestCheckedComponentsMemory:
    """:func:`checked_components` allocates one array, its result, and never
    writes to or aliases its input."""

    def test_peak_is_the_result(self):
        stack = draw_general(np.random.default_rng(190), 16, 32, 8)
        checked_components(stack)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = checked_components(stack)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= result.nbytes + 64 * 1024

    @staticmethod
    def inputs(rng):
        """(name, components) pairs of each kind of input, symmetric and not."""
        for shift in (0.0, 1e-9):
            stack = draw_general(rng, 4, 3, 5)
            stack[3, 2, 1, 0] += shift
            frozen = stack.copy()
            frozen.setflags(write=False)
            yield "writable", stack
            yield "read-only", frozen
            yield "swapaxes view", np.swapaxes(stack.copy(), -1, -2)
            yield "nested list", stack[3].tolist()

    def test_input_is_untouched(self):
        for name, components in self.inputs(np.random.default_rng(191)):
            kept = copy.deepcopy(components)
            try:
                result = checked_components(components)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as expected:
                    reference_checked_components(components)
                assert str(exc) == str(expected.value), name
                result = None
            if isinstance(components, list):
                assert components == kept, name
                continue
            assert components.tobytes() == kept.tobytes(), name
            assert components.flags.writeable == (name != "read-only"), name
            assert result is None or not np.shares_memory(result, components), name


class TestSymmetryValidation:
    def test_zero_tensor_passes(self):
        report = validate_curvature_symmetries(CurvatureLikeTensor.zeros(3))
        assert report.passed
        assert report.max_residual == 0.0

    def test_gauss_built_passes_tight(self, h_umbilical_ref):
        tensor = build_T_from_zeta(h_umbilical_ref)
        report = validate_curvature_symmetries(tensor, tol=1e-12)
        assert report.passed

    def test_perturbed_entry_fails(self, h_umbilical_ref):
        tensor = build_T_from_zeta(h_umbilical_ref)
        comps = np.array(tensor.components)
        comps[0, 1, 1, 0] += 1e-3
        bad = CurvatureLikeTensor(comps)
        report = validate_curvature_symmetries(bad, tol=1e-6)
        assert not report.passed
        assert report.skew_first_pair == pytest.approx(1e-3, rel=1e-9)


class TestSectional:
    def test_zero_tensor(self):
        assert t_sectional(CurvatureLikeTensor.zeros(2), [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_h_umbilical_reference(self, h_umbilical_ref):
        tensor = build_T_from_zeta(h_umbilical_ref)
        assert t_sectional(tensor, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0, abs=1e-14)

    def test_swap_symmetry_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            zeta = sample_general(rng, n, int(rng.integers(1, 4)))
            tensor = build_T_from_zeta(zeta)
            q = random_orthogonal(rng, n)
            x, y = q[0], q[1]
            assert t_sectional(tensor, x, y) == pytest.approx(
                t_sectional(tensor, y, x), abs=1e-10
            )

    def test_rejects_non_unit(self):
        tensor = CurvatureLikeTensor.zeros(2)
        with pytest.raises(ValidationError, match=r"^norm 2\.0 differs from 1 beyond"):
            t_sectional(tensor, [2.0, 0.0], [0.0, 1.0])

    def test_rejects_non_orthogonal_pair(self):
        tensor = CurvatureLikeTensor.zeros(2)
        s = 1.0 / np.sqrt(2.0)
        with pytest.raises(ValidationError, match=r"^<X, Y> = .* exceeds 1e-09$"):
            t_sectional(tensor, [1.0, 0.0], [s, s])

    @pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_rejects_nan_direction(self, bad):
        """A NaN compares false with every tolerance, so the unit-norm and
        pair gates must fail closed on it rather than return NaN."""
        tensor = CurvatureLikeTensor.zeros(2)
        for x, y in ((bad, [0.0, 1.0]), ([1.0, 0.0], bad)):
            with pytest.raises(ValidationError, match=r"^norm nan differs from 1"):
                t_sectional(tensor, x, y)


class TestRicci:
    def test_zero(self):
        assert np.array_equal(t_ricci_form(CurvatureLikeTensor.zeros(3)), np.zeros((3, 3)))

    def test_h_umbilical_form_is_twice_identity(self, h_umbilical_ref):
        s = t_ricci_form(build_T_from_zeta(h_umbilical_ref))
        assert_allclose(s, 2.0 * np.eye(2), atol=1e-14)

    def test_umbilical_n3_value(self, umbilical_n3):
        tensor = build_T_from_zeta(umbilical_n3)
        assert t_ricci(tensor, [1.0, 0.0, 0.0]) == pytest.approx(2.0, abs=1e-14)

    def test_basis_independence(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            zeta = sample_general(rng, n, 3)
            tensor = build_T_from_zeta(zeta)
            s = t_ricci_form(tensor)
            q = random_orthogonal(rng, n)
            conj = np.einsum("ai,bj,ck,dl,ijkl->abcd", q, q, q, q, tensor.components)
            s_rot = t_ricci_form(CurvatureLikeTensor(conj), tol=1e-8)
            assert_allclose(s_rot, q @ s @ q.T, atol=1e-10)

    def test_invalid_tensor_rejected(self):
        comps = np.zeros((2, 2, 2, 2))
        comps[0, 0, 0, 0] = 1.0  # breaks antisymmetry
        with pytest.raises(ValidationError, match=r"^curvature symmetries violated"):
            t_ricci_form(CurvatureLikeTensor(comps))


class TestScalar:
    def test_zero(self):
        assert t_scalar(CurvatureLikeTensor.zeros(4)) == 0.0

    def test_h_umbilical(self, h_umbilical_ref):
        tensor = build_T_from_zeta(h_umbilical_ref)
        tau = t_scalar(tensor)
        assert tau == pytest.approx(2.0, abs=1e-14)
        trace_sq = float(trace_norms_sq(h_umbilical_ref.components))
        cross = 0.5 * trace_sq - 0.5 * zeta_norm_sq(h_umbilical_ref)
        assert tau == pytest.approx(cross, abs=1e-14)

    def test_umbilical_n3(self, umbilical_n3):
        tau = t_scalar(build_T_from_zeta(umbilical_n3))
        assert tau == pytest.approx(3.0, abs=1e-14)
        trace_sq = float(trace_norms_sq(umbilical_n3.components))
        assert 0.5 * trace_sq - 0.5 * zeta_norm_sq(umbilical_n3) == (
            pytest.approx(3.0, abs=1e-14)
        )

    def test_trace_identity_on_random_instances(self):
        # sum_i Ric_T(e_i) = 2 tau_T
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            zeta = sample_general(rng, n, int(rng.integers(1, 5)))
            tensor = build_T_from_zeta(zeta)
            s = t_ricci_form(tensor)
            assert np.trace(s) == pytest.approx(2.0 * t_scalar(tensor), abs=1e-10)


class TestZetaScalars:
    def test_zero_form(self):
        zeta = BundleValuedForm.zeros(3, 2)
        assert zeta_norm_sq(zeta) == 0.0
        assert np.array_equal(traces(zeta.components), np.zeros(2))
        assert float(trace_norms_sq(zeta.components)) == 0.0

    def test_h_umbilical_values(self, h_umbilical_ref):
        assert_allclose(traces(h_umbilical_ref.components), [4.0, 0.0])
        assert float(trace_norms_sq(h_umbilical_ref.components)) == 16.0
        assert zeta_norm_sq(h_umbilical_ref) == 12.0

    def test_frame_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n, mp = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            zeta = sample_general(rng, n, mp)
            rotated = rotate_frame(
                zeta, random_orthogonal(rng, n), random_orthogonal(rng, mp)
            )
            assert zeta_norm_sq(rotated) == pytest.approx(zeta_norm_sq(zeta), abs=1e-10)
            assert float(trace_norms_sq(rotated.components)) == pytest.approx(
                float(trace_norms_sq(zeta.components)), abs=1e-10
            )


class TestRotateFrame:
    def test_identity(self, h_umbilical_ref):
        same = rotate_frame(h_umbilical_ref, np.eye(2), np.eye(2))
        assert_allclose(same.components, h_umbilical_ref.components, atol=0)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        zeta = sample_general(rng, 3, 4)
        qt, qb = random_orthogonal(rng, 3), random_orthogonal(rng, 4)
        there = rotate_frame(zeta, qt, qb)
        back = rotate_frame(there, qt.T, qb.T)
        assert_allclose(back.components, zeta.components, atol=1e-12)

    def test_tangent_swap_on_reference(self, h_umbilical_ref):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        rotated = rotate_frame(h_umbilical_ref, swap, np.eye(2))
        assert_allclose(rotated.components[:, 0, 0], [1.0, 0.0])
        assert_allclose(rotated.components[:, 1, 1], [3.0, 0.0])

    # Largest |rotate_frame - upper-triangle mirror| / max|zeta| over these
    # draws, up to (16, 32): 2.1 eps (3.2 eps over 300 draws up to (16, 32)).
    # The pin leaves a margin of 10x over the larger.  The reference product
    # is contracted pairwise (optimize=True); the plain four-operand einsum
    # costs m'^2 n^4 and takes about 87 ms at (16, 16).
    MIRROR_DRIFT = 32 * np.finfo(float).eps

    def test_result_is_bitwise_symmetric_and_near_the_mirror(self):
        """The mean of the rotated product and its transpose is symmetric to
        the bit, and moves from the upper-triangle mirror by roundoff only,
        at scales 2^-40, 1 and 2^40.  A power-of-two scale scales the
        product exactly, so the mirror is computed once per draw."""
        rng = np.random.default_rng(34)
        for _ in range(30):
            n, mp = int(rng.integers(1, 17)), int(rng.integers(1, 33))
            comps = draw_general(rng, n, mp, 1)[0]
            qt, qb = random_orthogonal(rng, n), random_orthogonal(rng, mp)
            product = np.einsum("sr,ai,bj,rij->sab", qb, qt, qt, comps, optimize=True)
            upper = np.tri(n, dtype=bool).T
            mirror = np.where(upper, product, np.swapaxes(product, -1, -2))
            for scale in (2.0**-40, 1.0, 2.0**40):
                zeta = BundleValuedForm(scale * comps)
                rotated = rotate_frame(zeta, qt, qb).components
                assert np.array_equal(rotated, np.swapaxes(rotated, -1, -2))
                drift = float(np.abs(rotated - scale * mirror).max())
                assert drift <= self.MIRROR_DRIFT * zeta.max_abs(), (n, mp, scale)

    # Largest |rotate_frame - long-double product| / max|zeta|: 2.27 eps over
    # these 30 draws, 2.68 eps over 300 draws up to (16, 32).
    LONG_DOUBLE_DRIFT = 4 * np.finfo(float).eps

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
        reason="long double is binary64 on this platform",
    )
    def test_matches_a_long_double_product(self):
        """The two-contraction rotation stays within a few eps of the same
        product taken in extended precision, at every size up to (16, 32)."""
        rng = np.random.default_rng(35)
        sizes = [(16, 32), (16, 16), (1, 1), (2, 2)]
        sizes += [(int(rng.integers(1, 17)), int(rng.integers(1, 33))) for _ in range(26)]
        for n, mp in sizes:
            comps = draw_general(rng, n, mp, 1)[0]
            qt, qb = random_orthogonal(rng, n), random_orthogonal(rng, mp)
            wide = [a.astype(np.longdouble) for a in (qt, qb, comps)]
            product = np.tensordot(wide[1], wide[0] @ wide[2] @ wide[0].T, axes=1)
            reference = 0.5 * (product + np.swapaxes(product, -1, -2))
            zeta = BundleValuedForm(comps)
            drift = float(np.abs(rotate_frame(zeta, qt, qb).components - reference).max())
            assert drift <= self.LONG_DOUBLE_DRIFT * zeta.max_abs(), (n, mp)

    def test_rejects_nan_rotation(self, h_umbilical_ref):
        q = np.full((2, 2), np.nan)
        with pytest.raises(ValidationError, match=r"^tangent rotation fails Q\^T Q = I by nan"):
            rotate_frame(h_umbilical_ref, q, np.eye(2))
        with pytest.raises(ValidationError, match=r"^bundle rotation fails Q\^T Q = I by nan"):
            rotate_frame(h_umbilical_ref, np.eye(2), q)

    def test_rejects_non_orthogonal(self, h_umbilical_ref):
        with pytest.raises(ValidationError, match=r"^tangent rotation fails Q\^T Q = I"):
            rotate_frame(h_umbilical_ref, np.array([[1.0, 0.1], [0.0, 1.0]]), np.eye(2))


class TestFrameHelpers:
    def test_rotation_to_first_axis(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 5, 9):
            for _ in range(20):
                u = random_unit(rng, m)
                q = rotation_to_first_axis(u)
                assert_allclose(q @ q.T, np.eye(m), atol=1e-12)
                assert_allclose(q @ u, np.eye(m)[0], atol=1e-12)

    def test_rows_after_the_first_complement_the_vector(self):
        """Rows 1 ... n-1 of the rotation are an orthonormal basis of the
        hyperplane orthogonal to u, the complement the corollary reads."""
        rng = np.random.default_rng(4)
        x = random_unit(rng, 5)
        comp = rotation_to_first_axis(x)[1:]
        assert comp.shape == (4, 5)
        assert_allclose(comp @ x, np.zeros(4), atol=1e-12)
        assert_allclose(comp @ comp.T, np.eye(4), atol=1e-12)


class TestNullSpace:
    @pytest.mark.parametrize("rank_tol", [0.0, -1.0])
    def test_rejects_a_rank_tol_that_is_not_positive(self, rank_tol):
        comps = np.zeros((1, 3, 3))
        comps[0, 1, 1] = 1.0
        with pytest.raises(ValidationError, match=r"^rank_tol must be positive, got "):
            null_space(BundleValuedForm(comps), rank_tol)

    def test_rejects_an_infinite_rank_tol(self):
        """Every singular value is below inf, which would make the whole
        tangent space the null space of a nonzero form."""
        with pytest.raises(ValidationError, match=r"^rank_tol must be finite, got inf$"):
            null_space(BundleValuedForm(np.eye(2)[None]), np.inf)

    def test_reports_a_nan_rank_tol_as_not_finite(self):
        with pytest.raises(ValidationError, match=r"^rank_tol must be finite, got nan$"):
            null_space(BundleValuedForm(np.eye(2)[None]), np.nan)

    def test_zero_form_gives_full_basis(self):
        basis = null_space(BundleValuedForm.zeros(4, 2))
        assert basis.shape == (4, 4)
        assert_allclose(basis @ basis.T, np.eye(4), atol=1e-12)

    def test_kernel_by_inspection(self):
        comps = np.zeros((1, 3, 3))
        comps[0, 1, 1] = 1.0
        basis = null_space(BundleValuedForm(comps))
        # zeta only pairs e2 with e2, so the kernel is span{e1, e3}; e1 must be in it.
        assert basis.shape[0] == 2
        coeffs = basis @ np.eye(3)[0]
        assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_single_direction_kernel(self):
        comps = np.zeros((2, 3, 3))
        comps[0, 1, 1] = 1.0
        comps[1, 1, 2] = comps[1, 2, 1] = 2.0
        comps[1, 2, 2] = -1.0
        basis = null_space(BundleValuedForm(comps))
        assert basis.shape == (1, 3)
        assert abs(basis[0] @ np.eye(3)[0]) == pytest.approx(1.0, abs=1e-12)

    def test_h_umbilical_trivial_kernel(self, h_umbilical_ref):
        assert null_space(h_umbilical_ref).shape == (0, 2)

    def test_annihilation_property(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            comps = np.array(sample_general(rng, n, 3).components)
            comps[:, 0, :] = 0.0
            comps[:, :, 0] = 0.0
            zeta = BundleValuedForm(comps)
            basis = null_space(zeta)
            assert basis.shape[0] >= 1
            scale = zeta.max_abs()
            for v in basis:
                for _ in range(50):
                    y = rng.standard_normal(n)
                    assert np.linalg.norm(zeta.value(v, y)) <= 1e-8 * scale * max(
                        1.0, np.linalg.norm(y)
                    )


    def test_thin_svd_is_bitwise_the_full_svd(self):
        rng = np.random.default_rng(211)
        deficient = 0
        for k in range(60):
            n = int(rng.integers(1, 17))
            m = int(rng.integers(1, 33))
            comps = np.array(sample_general(rng, n, m).components)
            if k % 3 == 0:
                # Annihilate a random number of tangent directions, then turn
                # the kernel out of the coordinate axes.
                drop = int(rng.integers(1, n + 1))
                comps[:, :drop, :] = 0.0
                comps[:, :, :drop] = 0.0
                q = random_orthogonal(rng, n)
                comps = np.einsum("rab,ai,bj->rij", comps, q, q)
            zeta = BundleValuedForm(comps)
            stacked = zeta.components.reshape(m * n, n)
            _, s_full, vt_full = np.linalg.svd(stacked)
            _, s_thin, vt_thin = np.linalg.svd(stacked, full_matrices=False)
            assert np.array_equal(s_thin, s_full)
            assert np.array_equal(vt_thin, vt_full)
            basis = null_space(zeta)
            if zeta.max_abs() > 0.0:
                rank = int((s_full > 1e-9 * zeta.max_abs()).sum())
                assert np.array_equal(basis, vt_full[rank:])
            deficient += basis.shape[0] > 0
        assert deficient >= 15


class TestGaussBuiltInvariants:
    def test_pair_exchange_and_symmetries_on_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            zeta = sample_general(rng, n, int(rng.integers(1, 2 * n + 3)))
            tensor = build_T_from_zeta(zeta)
            report = validate_curvature_symmetries(tensor, tol=1e-12)
            assert report.passed
            assert pair_exchange_residual(tensor) <= 1e-12

    def test_max_ricci_matches_dense_sampling(self):
        rng = np.random.default_rng(31)
        zeta = sample_general(rng, 4, 5)
        s = t_ricci_form(build_T_from_zeta(zeta))
        lam, vec = max_ricci(s)
        samples = rng.standard_normal((10_000, 4))
        samples /= np.linalg.norm(samples, axis=1)[:, None]
        values = np.einsum("ki,ij,kj->k", samples, s, samples)
        assert values.max() <= lam + 1e-9
        assert float(vec @ s @ vec) == pytest.approx(lam, abs=1e-9)
