"""The improved-bound equality classifier in its two-rotation form: the
differential reference for the improved branch of
:func:`curvlike.gauss_bounds._classify`.

- The shared opening is the same: S_T = bound * I, the zero form, n = 2 and a
  nonzero trace.
- The bundle frame is rotated first, so that slot 0 carries trace(zeta).
- The tangent frame is then the descending eigenbasis of the rotated slot 0,
  applied by a second rotation.
- A one-slot bundle is tested on its own branch: mu must vanish.
"""

import numpy as np

from curvlike.gauss_bounds import (
    BoundMode,
    EqualityClass,
    EqualityTag,
    bound_coefficient,
    evaluate,
)
from curvlike.tensor_core import DEFAULT_TOL, rotate_frame, rotation_to_first_axis


def reference_improved_class(zeta, tol: float = DEFAULT_TOL) -> EqualityClass:
    evaluation = evaluate(zeta.components)
    n = zeta.n
    bound = bound_coefficient(BoundMode.IMPROVED, n) * float(evaluation.trace_norm_sq)
    if float(np.abs(evaluation.ricci_form - bound * np.eye(n)).max()) > tol * float(
        evaluation.norm_sq
    ):
        return EqualityClass(EqualityTag.NO_EQUALITY)
    if zeta.max_abs() <= tol:
        return EqualityClass(EqualityTag.ZERO_FORM)
    if n != 2:
        return EqualityClass(EqualityTag.NO_EQUALITY)
    trace = evaluation.trace
    trace_norm = float(np.linalg.norm(trace))
    if trace_norm <= tol:
        return EqualityClass(EqualityTag.NO_EQUALITY)

    q_bundle = rotation_to_first_axis(trace / trace_norm)
    slot_first = rotate_frame(zeta, np.eye(2), q_bundle)
    _, q_vectors = np.linalg.eigh(slot_first.components[0])
    q_tangent = q_vectors[:, ::-1].T
    comp = rotate_frame(slot_first, q_tangent, np.eye(zeta.m_prime)).components
    mu = trace_norm / 4.0
    pattern = (
        abs(comp[0, 0, 0] - 3.0 * mu) <= tol
        and abs(comp[0, 1, 1] - mu) <= tol
        and abs(comp[0, 0, 1]) <= tol
    )
    if zeta.m_prime > 1:
        tail = comp[1:]
        pattern = (
            pattern
            and float(np.abs(tail[:, 0, 0]).max()) <= tol
            and float(np.abs(tail[:, 1, 1]).max()) <= tol
            and abs(float(np.linalg.norm(tail[:, 0, 1])) - mu) <= tol
        )
    else:
        pattern = pattern and mu <= tol
    if pattern:
        return EqualityClass(
            EqualityTag.H_UMBILICAL_SURFACE,
            mu=mu,
            tangent_frame=q_tangent,
            bundle_frame=q_bundle,
        )
    return EqualityClass(EqualityTag.NO_EQUALITY)
