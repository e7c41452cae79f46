"""The n^4 stage of one form: X, T and the residual scratch in one buffer.

``reporting._gauss_stage`` builds T with ``gauss_components`` into the first
n slabs of a ``gauss_buffer``, over the product X in its last n, and reduces
the curvature and pair-exchange residuals in the slabs of X it leaves spent,
n // 2 slabs at a time from n = 10 on.  Every residual must equal, bit for
bit, the whole-array route that allocates its own arrays.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlike.gauss_bounds import (
    evaluate,
    gauss_buffer,
    gauss_components,
    gauss_probe_residuals,
    ricci_forms,
)
from curvlike.reporting import _gauss_stage, _symmetry_block
from curvlike.sampling import draw_general, draw_symmetric
from curvlike.tensor_core import BundleValuedForm, curvature_residuals, pair_exchange_residuals

FORMS = st.integers(1, 16).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(1, 32),
        st.sampled_from([draw_general, draw_symmetric]),
        st.integers(0, 2**32 - 1),
        st.integers(-30, 30),
    )
)


def form(n, bundle_dim, draw, seed, k):
    """One seeded draw times 2^k; a symmetric draw needs m' >= n."""
    if draw is draw_symmetric and bundle_dim < n:
        draw = draw_general
    return draw(np.random.default_rng(seed), n, bundle_dim, 1)[0] * 2.0**k


def whole_array(comps, ricci_form):
    """The five residuals by the route that allocates its own arrays: one
    fresh buffer for T and X, one block, a scratch shaped like T."""
    tensor = gauss_components(comps)
    return (
        *curvature_residuals(tensor),
        pair_exchange_residuals(tensor),
        gauss_probe_residuals(tensor, comps, ricci_form),
    )


@settings(max_examples=120, deadline=None)
@given(FORMS)
def test_stage_residuals_equal_the_whole_array_route_bitwise(case):
    comps = form(*case)
    ricci = ricci_forms(comps)
    residuals, gauss, pair = _gauss_stage(comps, ricci, True)
    assert _gauss_stage(comps, ricci, False)[2] is None
    for staged, whole in zip((*residuals, pair, gauss), whole_array(comps, ricci)):
        assert np.array_equal(staged, whole) and staged.tobytes() == whole.tobytes()


def test_blocked_residuals_cover_n_10_to_15_and_every_scale():
    """The shapes the property samples least: every n with more than one
    block, at m' in {1, n, 32} and three scales of each draw."""
    for n in range(10, 17):
        for bundle_dim in sorted({1, n, 32}):
            for draw, k in ((draw_general, -30), (draw_symmetric, 0), (draw_general, 30)):
                comps = form(n, bundle_dim, draw, n * 100 + bundle_dim, k)
                ricci = ricci_forms(comps)
                residuals, gauss, pair = _gauss_stage(comps, ricci, True)
                staged = np.array([*residuals, pair, gauss])
                assert staged.tobytes() == np.array(whole_array(comps, ricci)).tobytes()


def test_blocked_build_equals_stacked_and_one_form_builds_bitwise():
    """T written into a stage buffer, b slabs at a time, equals the one-block
    build of the form alone and of the form in a stack."""
    rng = np.random.default_rng(81)
    for n in range(1, 17):
        for bundle_dim in sorted({1, n, 32}):
            stack = draw_general(rng, n, bundle_dim, 3)
            stacked = gauss_components(stack)
            for k, comps in enumerate(stack):
                alone = gauss_components(comps)
                blocked = gauss_components(comps, out=gauss_buffer(n))
                assert np.array_equal(stacked[k], alone)
                assert np.array_equal(blocked, alone)


def test_buffer_holds_t_g_and_half_of_t_from_n_10():
    assert gauss_buffer(9).shape == (18, 9, 9, 9)
    assert gauss_buffer(10).shape == (15, 10, 10, 10)
    assert gauss_buffer(15).shape == (22, 15, 15, 15)
    assert gauss_buffer(16).nbytes == 768 * 1024


def traced_peak_kib(call) -> float:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def test_stage_peak_at_16_32_stays_below_1024_kib():
    """One 768 KiB buffer holds T (512 KiB), X and the scratch; before the
    stage, the Gram matrix, T and a residual scratch or copy were 512 KiB
    each and the peak was 1154 KiB (measured: 840 KiB in both modes, 898 KiB
    when T came from the Gram matrix)."""
    comps = draw_general(np.random.default_rng(82), 16, 32, 1)[0]
    zeta = BundleValuedForm(comps)
    evaluation = evaluate(zeta.components)
    report_peak = traced_peak_kib(lambda: _symmetry_block(zeta, evaluation, 1e-9))
    audit_peak = traced_peak_kib(lambda: _gauss_stage(comps, evaluation.ricci_form, False))
    assert report_peak < 1024
    assert audit_peak < 1024
