"""Constrained quadratic maximization in closed form with an independent
oracle, plus the eigen-extremum used to maximize Ricci forms.

Two quadratic families appear in the sharp Ricci bounds:

    f1(a) = a[0] * (a[1] + ... + a[n-1]) - (a[1]^2 + ... + a[n-1]^2)
    f2(a) = a[0] * (a[1] + ... + a[n-1]) - a[0]^2

both maximized over the hyperplane a[0] + ... + a[n-1] = S.  The closed forms
are cross-checked by :func:`brute_force_max`, which eliminates the constraint,
solves the stationarity system and samples the hyperplane at random.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .tensor_core import check_tangent_dim

ORACLE_SAMPLES = 100_000
ORACLE_SEED = 1849340219

SYMMETRY_TOL = 1e-10


class Objective(Enum):
    F1 = "f1"
    F2 = "f2"


@dataclass(frozen=True)
class ConstrainedQuadratic:
    """One of the two quadratic objectives with its hyperplane constraint sum."""

    which: Objective
    n: int
    constraint_sum: float

    def __post_init__(self) -> None:
        check_tangent_dim(self.n, 2)


def f_value(problem: ConstrainedQuadratic, a) -> float:
    """Evaluate the objective literally; the constraint is not enforced here."""
    arr = np.asarray(a, dtype=float)
    if arr.shape != (problem.n,):
        raise ValidationError(
            f"expected {problem.n} coordinates, got shape {arr.shape}"
        )
    tail = arr[1:]
    if problem.which is Objective.F1:
        return float(arr[0] * tail.sum() - (tail**2).sum())
    return float(arr[0] * tail.sum() - arr[0] ** 2)


@dataclass(frozen=True)
class QuadraticMax:
    max_value: float
    argmax: np.ndarray


def f1_max_closed(n: int, s: float) -> QuadraticMax:
    """Sharp maximum of f1 on the hyperplane: (n-1)/(4n) * S^2, attained at
    a[0] = (n+1)S/(2n) and a[j] = S/(2n) for j >= 1 (the unique maximizer)."""
    check_tangent_dim(n, 2)
    argmax = np.full(n, s / (2.0 * n))
    argmax[0] = (n + 1) * s / (2.0 * n)
    return QuadraticMax((n - 1) / (4.0 * n) * s * s, argmax)


@dataclass(frozen=True)
class F2Family:
    """Maximizer family of f2: a[0] is pinned, only the tail sum is.

    ``representative`` distributes the tail equally, the canonical choice for
    deterministic tests and reports.
    """

    max_value: float
    a1: float
    tail_sum: float
    representative: np.ndarray


def f2_max_closed(n: int, s: float) -> F2Family:
    """Sharp maximum of f2 on the hyperplane: S^2 / 8, attained exactly on the
    family a[0] = S/4, a[1] + ... + a[n-1] = 3S/4."""
    check_tangent_dim(n, 2)
    a1 = s / 4.0
    tail_sum = 3.0 * s / 4.0
    representative = np.full(n, tail_sum / (n - 1))
    representative[0] = a1
    return F2Family(s * s / 8.0, a1, tail_sum, representative)


def brute_force_max(
    problem: ConstrainedQuadratic,
    samples: int = ORACLE_SAMPLES,
    seed: int = ORACLE_SEED,
) -> QuadraticMax:
    """Independent oracle for the constrained maxima.

    Eliminates a[0] = S - sum(tail).  For F1 the reduced objective is strictly
    concave in the tail and the stationarity system 2(I + J) x = S 1 is solved
    by elimination; for F2 the objective depends on the tail only through its
    sum, leaving a concave single-variable quadratic in a[0].  The stationary
    value is then cross-checked against seeded random points on the constraint
    hyperplane; any sampled value above it by more than 1e-9 max(1, |value|)
    means the oracle itself is broken.
    """
    n = problem.n
    s = problem.constraint_sum
    if problem.which is Objective.F1:
        system = 2.0 * (np.eye(n - 1) + np.ones((n - 1, n - 1)))
        tail = np.linalg.solve(system, np.full(n - 1, s))
        argmax = np.concatenate(([s - tail.sum()], tail))
    else:
        a1 = s / 4.0
        argmax = np.concatenate(([a1], np.full(n - 1, (s - a1) / (n - 1))))
    best = f_value(problem, argmax)

    rng = np.random.default_rng(seed)
    points = rng.standard_normal((samples, n)) * (1.0 + abs(s))
    points += ((s - points.sum(axis=1)) / n)[:, None]
    tails = points[:, 1:]
    if problem.which is Objective.F1:
        values = points[:, 0] * tails.sum(axis=1) - (tails**2).sum(axis=1)
    else:
        values = points[:, 0] * tails.sum(axis=1) - points[:, 0] ** 2
    sampled_max = float(values.max())
    if sampled_max > best + 1e-9 * max(1.0, abs(best)):
        raise ArithmeticError(
            f"oracle self-check failed: sampled {sampled_max!r} exceeds "
            f"stationary value {best!r}"
        )
    return QuadraticMax(best, argmax)


def max_ricci(s_form) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a symmetric form with a unit eigenvector.

    Realizes the extremization of Ric_T over unit vectors by LAPACK's
    symmetric eigensolvers.  The input must be square, finite and symmetric
    within 1e-10 (ValidationError otherwise).  The value is
    :func:`top_eigenvalues`' and the vector :func:`top_eigenvector`'s, the
    rules by which ``check_bound`` reads its form, so on an S_T both give the
    same bits.
    """
    a = np.asarray(s_form, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    residual = float(np.abs(a - a.T).max(initial=0.0))
    if residual > SYMMETRY_TOL:
        raise ValidationError(
            f"matrix asymmetric by {residual:.3e} (> {SYMMETRY_TOL})"
        )
    sym = 0.5 * (a + a.T)
    return float(top_eigenvalues(sym)), top_eigenvector(sym)


def top_eigenvalues(s_forms: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric form in a stack [..., n, n], from
    one ``eigvalsh``, which computes no eigenvectors.  A form gives the same
    bits alone and in a stack."""
    return np.linalg.eigvalsh(s_forms).max(axis=-1)


def top_eigenvector(s_form: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of one symmetric form, from
    one ``eigh``.  Its sign is fixed so its largest-magnitude coordinate is
    positive, and eigenvalue ties resolve to the first index, so the result
    is deterministic."""
    values, vectors = np.linalg.eigh(s_form)
    return positive_lead(vectors[:, int(np.argmax(values))])


def positive_lead(vector: np.ndarray) -> np.ndarray:
    """Copy of ``vector`` signed so its largest-magnitude coordinate is positive."""
    lead = int(np.argmax(np.abs(vector)))
    return -vector if vector[lead] < 0.0 else vector.copy()
