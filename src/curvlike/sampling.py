"""Seeded random instance generation shared by the CLI and the test suite.

All draws go through numpy's PCG64 generator (``np.random.default_rng``), a
documented portable 64-bit PRNG: a fixed seed reproduces the same instances
byte for byte.  Drawing ``count`` forms in one call consumes the stream
exactly as ``count`` one-form draws do, so a campaign may draw in chunks of
any size.

A draw is returned ready to use: it is bitwise equal to what
:func:`~curvlike.tensor_core.checked_components` makes of it (finite, of
checked dimensions, bitwise symmetric in (i, j), any mirrored entry copied
from the upper triangle), though writable.  Standard normals cannot break the
finiteness or headroom rules, so a campaign evaluates its draws directly,
without that copy and its checks.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import _STRICT_LOWER, Dimensions, page_aligned_empty

PRNG_NAME = "numpy-pcg64"

# Floats in the scratch block of draw_general's in-place symmetrization (32 KiB).
_BLOCK_FLOATS = 4096


def draw_general(
    rng: np.random.Generator, n: int, m_prime: int, count: int
) -> np.ndarray:
    """Components (count, m', n, n) of ``count`` unrestricted forms: i.i.d.
    standard normals symmetrized in the tangent pair, (z + z^T) / 2, which is
    bitwise symmetric because addition commutes.  The draw fills one
    page-aligned array and is symmetrized in place, a block of n x n matrices
    at a time, so the result is the one stack-sized allocation."""
    Dimensions(n=n, m_prime=m_prime)
    raw = rng.standard_normal(out=page_aligned_empty((count, m_prime, n, n)))
    matrices = raw.reshape(-1, n, n)
    step = max(1, _BLOCK_FLOATS // (n * n))
    scratch = np.empty((min(step, len(matrices)), n, n))
    for start in range(0, len(matrices), step):
        block = matrices[start : start + step]
        part = scratch[: len(block)]
        # z^T is copied in first: a ufunc reading the swapped view would
        # allocate an iterator buffer.
        np.copyto(part, np.swapaxes(block, -1, -2))
        part += block
        np.multiply(part, 0.5, out=block)
    return raw


def draw_symmetric(
    rng: np.random.Generator, n: int, m_prime: int, count: int
) -> np.ndarray:
    """Components (count, m', n, n) of ``count`` totally symmetric forms: a
    random 3-index array averaged over all six index permutations fills bundle
    slots 0..n-1, its lower triangle in (i, j) mirrored from the upper; the
    tail stays zero.  Needs m' >= n, which
    :func:`~curvlike.reporting.run_sample` checks before its first draw."""
    Dimensions(n=n, m_prime=m_prime)
    raw = rng.standard_normal((count, n, n, n))
    # One buffer, summed in the order of (raw + p1 + ... + p5) / 6.
    cubic = raw + raw.transpose(0, 1, 3, 2)
    for axes in ((0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)):
        cubic += raw.transpose(axes)
    cubic /= 6.0
    components = np.zeros((count, m_prime, n, n))
    placed = components[:, :n]
    np.copyto(placed, cubic)
    np.copyto(placed, np.swapaxes(cubic, -1, -2), where=_STRICT_LOWER[n])
    return components
