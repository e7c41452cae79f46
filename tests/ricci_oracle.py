"""Ricci form S_T by index contraction: the differential oracle for the
two-product kernel :func:`curvlike.gauss_bounds.ricci_forms`.

    S_T[i, k] = <trace zeta, zeta[:, i, k]> - sum_r (zeta_r zeta_r)[i, k]

as two einsums, symmetrized, with no reshaped products.
"""

import numpy as np


def einsum_ricci_forms(components) -> np.ndarray:
    comps = np.asarray(components, dtype=float)
    trace = np.einsum("...rii->...r", comps)
    s = np.einsum("...r,...rik->...ik", trace, comps) - np.einsum(
        "...rij,...rjk->...ik", comps, comps
    )
    return 0.5 * (s + np.swapaxes(s, -1, -2))
