"""Seeded random forms, vectors and rotations for the tests: one form from
the campaign draws, a uniform unit vector, a random orthogonal matrix."""

import numpy as np

from curvlike.sampling import draw_general, draw_symmetric
from curvlike.tensor_core import BundleValuedForm


def sample_general(rng: np.random.Generator, n: int, m_prime: int) -> BundleValuedForm:
    """One unrestricted form; see :func:`curvlike.sampling.draw_general`."""
    return BundleValuedForm(draw_general(rng, n, m_prime, 1)[0])


def sample_symmetric(
    rng: np.random.Generator, n: int, m_prime: int
) -> BundleValuedForm:
    """One totally symmetric form; see :func:`curvlike.sampling.draw_symmetric`."""
    return BundleValuedForm(draw_symmetric(rng, n, m_prime, 1)[0])


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random unit vector."""
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with a deterministic sign fix."""
    a = rng.standard_normal((k, k))
    q, r = np.linalg.qr(a)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs
