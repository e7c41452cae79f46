"""Reference corollary: :func:`curvlike.gauss_bounds.corollary_triple` as it
was written before the stacked kernel :func:`~curvlike.gauss_bounds.corollary_evaluated`
replaced it.  zeta(X, .) comes from one ``np.tensordot``, zeta(X, Y) for the
Householder complement and zeta(X, X) from two separate products, the trace
is taken again from zeta, and each test takes its own ``np.linalg.norm``.
Equality at X is one Frobenius norm over zeta(X, X) - trace / 2 and every
zeta(X, Y), the root of the general gap's sum of squares at X.

It compares with an absolute ``gate``, as the library once compared with
tol; the tests call it at the kernel's gate tol * ||zeta||.
"""

from __future__ import annotations

import numpy as np

from curvlike.tensor_core import (
    as_unit_vector,
    rotation_to_first_axis,
    trace_norms_sq,
    traces,
)


def reference_corollary(zeta, x, gate: float) -> tuple[np.ndarray, ...]:
    """(equality at X, trace zero, X in the null space, verified) as bool
    arrays over a stack ``[..., n]`` of unit directions."""
    xv = as_unit_vector(x, zeta.n, stacked=True)
    zeta_x = np.tensordot(xv, zeta.components, axes=(-1, -1))
    complement = rotation_to_first_axis(xv)[..., 1:, :]
    perp = zeta_x @ np.swapaxes(complement, -1, -2)
    half = (zeta_x @ xv[..., None])[..., 0] - 0.5 * traces(zeta.components)
    # Equality: the Frobenius norm of the (m', n) block [half | perp].
    deviation = np.concatenate([half[..., None], perp], axis=-1)
    equality = np.linalg.norm(deviation, axis=(-2, -1)) <= gate
    trace_norm = float(np.sqrt(trace_norms_sq(zeta.components)))
    trace_zero = np.full(equality.shape, trace_norm <= gate)
    in_null = (np.linalg.norm(zeta_x, axis=-2) <= gate).all(axis=-1)
    verified = equality.astype(int) + trace_zero + in_null != 2
    return equality, trace_zero, in_null, verified
