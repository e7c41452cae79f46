"""Cyclic-Jacobi eigensolver: the independent oracle for the LAPACK eigen path.

Pure Python and numpy elementwise arithmetic only, so it shares no code with
``np.linalg.eigh``, which the library uses.
"""

import numpy as np

MAX_SWEEPS = 50
OFF_FACTOR = 1e-12


def jacobi_eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a small symmetric matrix by cyclic Jacobi rotations.

    Convergence: off-diagonal Frobenius norm <= 1e-12 * ||A||_F, within at
    most 50 sweeps (AssertionError otherwise, not expected at n <= 16).
    Returns (eigenvalues, eigenvectors-as-columns), unsorted.
    """
    a = np.asarray(matrix, dtype=float)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    vectors = np.eye(n)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n), vectors
    target = OFF_FACTOR * norm

    def off(b: np.ndarray) -> float:
        # Sum the off-diagonal entries directly; subtracting the diagonal
        # energy from the total cancels catastrophically near convergence.
        stripped = b.copy()
        np.fill_diagonal(stripped, 0.0)
        return float(np.linalg.norm(stripped))

    for _ in range(MAX_SWEEPS):
        if off(a) <= target:
            return np.diag(a).copy(), vectors
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                root = np.hypot(1.0, tau)  # sqrt(1 + tau^2) without overflow
                if tau >= 0.0:
                    t = 1.0 / (tau + root)
                else:
                    t = 1.0 / (tau - root)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s_ = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s_ * col_q
                a[:, q] = s_ * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s_ * row_q
                a[q, :] = s_ * row_p + c * row_q
                vec_p, vec_q = vectors[:, p].copy(), vectors[:, q].copy()
                vectors[:, p] = c * vec_p - s_ * vec_q
                vectors[:, q] = s_ * vec_p + c * vec_q
    assert off(a) <= target, f"Jacobi sweep limit ({MAX_SWEEPS}) reached"
    return np.diag(a).copy(), vectors
