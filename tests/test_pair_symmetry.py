"""Differential tests of the two kernels that use the (i, j) symmetry of a
form: :func:`checked_components` (one selection pass mirrors the form, and
the pair-symmetry gate reads the difference from it) and
:func:`total_symmetry_residuals` (one swap of r and i).  Both must give the
bits, and on refusal the message, of the direct references in
``symmetry_oracle``."""

import numpy as np
import pytest

from curvlike.errors import ValidationError
from curvlike.gauss_bounds import total_symmetry_residuals
from curvlike.sampling import draw_general, draw_symmetric
from curvlike.tensor_core import checked_components
from symmetry_oracle import (
    reference_checked_components,
    reference_total_symmetry_residuals,
)


def outcome(kernel, components):
    """What a kernel returns, to the bit, or the message it refuses with."""
    try:
        out = kernel(components)
    except ValidationError as exc:
        return "refused", str(exc)
    return "ok", out.dtype.str, out.shape, out.tobytes(), out.flags.writeable


def check_both(components):
    """Outcome of checked_components, asserted equal to the reference's."""
    got = outcome(checked_components, components)
    assert got == outcome(reference_checked_components, components)
    return got


def residuals_match(checked):
    got = outcome(total_symmetry_residuals, checked)
    assert got == outcome(reference_total_symmetry_residuals, checked)


def stacks(rng, n, m):
    """Stacks of three forms at (n, m'): exactly symmetric, symmetric to
    roundoff, asymmetric below 1e-12 max |zeta| and far above it."""
    general = draw_general(rng, n, m, 3)
    found = [general, general + 4e-13 * rng.uniform(-1.0, 1.0, general.shape)]
    found.append(general + 1e-9 * rng.uniform(-1.0, 1.0, general.shape))
    if m >= n:
        symmetric = draw_symmetric(rng, n, m, 3)
        nudged = symmetric.copy()
        nudged[1, n - 1, 0, 0] += 2.0**-40  # total symmetry broken by one entry
        tail = symmetric.copy()
        tail[2, -1, -1, -1] += 2.0**-30  # a non-zero slot past n - 1
        found += [symmetric, nudged, tail]
    return found


@pytest.mark.parametrize("n", range(1, 17))
def test_every_shape_matches_the_reference(n):
    """n = 1..16 with m' = 1..32, m' < n included."""
    for m in range(1, 33):
        rng = np.random.default_rng([n, m, 15])
        for components in stacks(rng, n, m):
            if check_both(components)[0] == "ok":
                residuals_match(checked_components(components))


def test_leading_axes_match_the_reference():
    rng = np.random.default_rng(151)
    for n, m in ((1, 1), (3, 2), (4, 6), (16, 32)):
        forms = draw_symmetric(rng, n, m, 4) if m >= n else draw_general(rng, n, m, 4)
        for components in (forms[0], forms[:0], forms.reshape(2, 2, *forms.shape[1:])):
            assert check_both(components)[0] == "ok"
            residuals_match(checked_components(components))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_below_the_diagonal_is_refused(value):
    """The mirror would drop a lower entry, and ``NaN > tol`` is False, so
    the gate must fail closed on it."""
    for n, m in ((2, 1), (4, 3), (16, 32)):
        components = draw_general(np.random.default_rng([n, m, 152]), n, m, 3)
        components[1, m - 1, n - 1, 0] = value
        assert check_both(components) == ("refused", "zeta components must be finite")


@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("scale", [1.0, 2.0**40, 2.0**-40])
def test_asymmetry_of_exactly_the_tolerance_passes_and_one_ulp_more_fails(lower, scale):
    """The gate is 1e-12 times the form's largest |component|, here a
    diagonal entry ``scale``; a power of two keeps the gate exact.  The
    zero forms beside it in the stack have a gate of 0 and pass."""
    gate = 1e-12 * scale
    for base, difference, verdict in (
        (0.0, gate, "ok"),
        (0.0, np.nextafter(gate, np.inf), "refused"),
        (0.5 * scale, gate, None),  # 0.5 + 1e-12 rounds; the reference decides
        (-0.75 * scale, -gate, None),
    ):
        components = np.zeros((3, 2, 4, 4))
        components[1, 0, 3, 3] = scale
        components[1, 1, 2, 0] = components[1, 1, 0, 2] = base
        components[(1, 1, 2, 0) if lower else (1, 1, 0, 2)] = base + difference
        got = check_both(components)
        assert verdict is None or got[0] == verdict


def test_tied_worst_pairs_name_the_first_in_index_order():
    d = 2.0**-20
    components = np.zeros((2, 4, 4, 4))
    components[1, 2, 3, 1], components[1, 2, 1, 3] = 0.25 + d, 0.25
    components[1, 0, 2, 0], components[1, 0, 0, 2] = 0.5 + d, 0.5
    message = f"zeta[0][0][2] = 0.5 differs from zeta[0][2][0] = {0.5 + d!r}"
    assert check_both(components) == ("refused", message)
    components[0, 3, 2, 1], components[0, 3, 1, 2] = -1.0, -1.0 - d
    message = f"zeta[3][1][2] = {-1.0 - d!r} differs from zeta[3][2][1] = -1.0"
    assert check_both(components) == ("refused", message)


def test_headroom_refusal_matches_the_reference():
    """Pair symmetry is judged before headroom, in a stack too."""
    rng = np.random.default_rng(153)
    for n, m in ((2, 1), (3, 3), (16, 32)):
        components = draw_general(rng, n, m, 3)
        components[2] *= 1e300
        assert check_both(components)[1].startswith("zeta is too large: ")
        if n > 1:
            components[2, 0, 0, 1] *= 1.5
            assert check_both(components)[1].startswith("zeta[0][0][1] = ")


def test_residual_ties_across_the_permutations():
    """Dyadic cubic blocks, symmetric in (i, j), whose worst differences tie
    between several permutations and index triples."""
    rng = np.random.default_rng(154)
    for n in (1, 2, 3, 5, 16):
        cubic = rng.integers(-4, 5, size=(6, n, n, n)) * 0.125
        cubic = np.where(np.triu(np.ones((n, n), dtype=bool)), cubic, np.swapaxes(cubic, -1, -2))
        for m in (n, n + 1, 32):
            components = np.zeros((6, m, n, n))
            components[:, :n] = cubic
            residuals_match(checked_components(components))
