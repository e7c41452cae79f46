"""Seeded random instance generation shared by the CLI and the test suite.

All draws go through numpy's PCG64 generator (``np.random.default_rng``), a
documented portable 64-bit PRNG: a fixed seed reproduces the same instances
byte for byte.  Drawing ``count`` forms in one call consumes the stream
exactly as ``count`` one-form draws do, so a campaign may draw in chunks of
any size.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import Dimensions

PRNG_NAME = "numpy-pcg64"


def draw_general(
    rng: np.random.Generator, n: int, m_prime: int, count: int
) -> np.ndarray:
    """Components (count, m', n, n) of ``count`` unrestricted forms: i.i.d.
    standard normals symmetrized in the tangent pair."""
    Dimensions(n=n, m_prime=m_prime)
    raw = rng.standard_normal((count, m_prime, n, n))
    total = raw + raw.transpose(0, 1, 3, 2)
    return np.multiply(total, 0.5, out=total)


def draw_symmetric(
    rng: np.random.Generator, n: int, m_prime: int, count: int
) -> np.ndarray:
    """Components (count, m', n, n) of ``count`` totally symmetric forms: a
    random 3-index array averaged over all six index permutations fills bundle
    slots 0..n-1; the tail stays zero.  Needs m' >= n, which
    :func:`~curvlike.reporting.run_sample` checks before its first draw."""
    Dimensions(n=n, m_prime=m_prime)
    raw = rng.standard_normal((count, n, n, n))
    # One buffer, summed in the order of (raw + p1 + ... + p5) / 6.
    cubic = raw + raw.transpose(0, 1, 3, 2)
    for axes in ((0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)):
        cubic += raw.transpose(axes)
    cubic /= 6.0
    components = np.zeros((count, m_prime, n, n))
    components[:, :n] = cubic
    return components
