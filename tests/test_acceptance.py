"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion.  Populations are seeded, so every run checks the same
instances.
"""

import math

import numpy as np
import pytest

from curvlike.ambient_models import (
    AmbientKind,
    AmbientModel,
    application_bounds,
    ricci_offset,
)
from curvlike.cli import main
from curvlike.gauss_bounds import (
    BoundMode,
    EqualityTag,
    build_T_from_zeta,
    check_bound,
    corollary_triple,
    gauss_probe_residuals,
    is_totally_symmetric,
    ricci_forms,
)
from curvlike.instance_io import Instance, load_instance, save_instance
from curvlike.optim_lemmas import (
    ConstrainedQuadratic,
    Objective,
    brute_force_max,
    f1_max_closed,
    f2_max_closed,
    max_ricci,
)
from curvlike.structures import (
    Family,
    FamilyParams,
    RigidityVerdict,
    construct_family,
    umbilical_rigidity_witness,
)
from curvlike.tensor_core import (
    BundleValuedForm,
    pair_exchange_residual,
    rotate_frame,
    t_ricci_form,
    t_scalar,
    trace_norms_sq,
    validate_curvature_symmetries,
    zeta_norm_sq,
)
from random_forms import random_orthogonal, random_unit, sample_general, sample_symmetric

GENERAL_POPULATION_SEED = 20_240_001
SYMMETRIC_POPULATION_SEED = 20_240_002
POPULATION_SIZE = 1000


def _passed(criterion: str) -> None:
    print(f"criterion {criterion}: PASS")


@pytest.fixture(scope="module")
def general_population():
    rng = np.random.default_rng(GENERAL_POPULATION_SEED)
    population = []
    for _ in range(POPULATION_SIZE):
        n = int(rng.integers(2, 7))
        m_prime = int(rng.integers(1, 2 * n + 3))
        population.append(sample_general(rng, n, m_prime))
    return population


@pytest.fixture(scope="module")
def symmetric_population():
    rng = np.random.default_rng(SYMMETRIC_POPULATION_SEED)
    population = []
    for _ in range(POPULATION_SIZE):
        n = int(rng.integers(2, 7))
        m_prime = n + int(rng.integers(0, 3))
        population.append(sample_symmetric(rng, n, m_prime))
    return population


def test_c01_gauss_soundness(general_population):
    for zeta in general_population:
        tensor = build_T_from_zeta(zeta)
        report = validate_curvature_symmetries(tensor, tol=1e-12)
        assert report.passed
        assert pair_exchange_residual(tensor) <= 1e-12
        comps = zeta.components
        residual = gauss_probe_residuals(tensor.components, comps, ricci_forms(comps))
        assert residual <= 1e-12 * zeta_norm_sq(zeta)
    _passed("01 gauss-soundness")


def test_c02_general_bound(general_population):
    violations = 0
    for zeta in general_population:
        lam, _ = max_ricci(t_ricci_form(build_T_from_zeta(zeta)))
        if lam > check_bound(zeta, BoundMode.GENERAL).bound_value + 1e-9:
            violations += 1
    assert violations == 0
    _passed("02 general-bound")


def test_c03_improved_bound(symmetric_population):
    violations = 0
    for zeta in symmetric_population:
        assert is_totally_symmetric(zeta)[0]
        lam, _ = max_ricci(t_ricci_form(build_T_from_zeta(zeta)))
        if lam > check_bound(zeta, BoundMode.IMPROVED).bound_value + 1e-9:
            violations += 1
    assert violations == 0
    _passed("03 improved-bound")


def test_c04_hypothesis_necessity():
    zeta = construct_family(
        FamilyParams(Family.TOTALLY_UMBILICAL, n=3, h0=np.array([1.0, 0.0, 0.0]))
    )
    symmetric, _ = is_totally_symmetric(zeta)
    assert not symmetric
    report = check_bound(zeta, BoundMode.IMPROVED)
    assert not report.symmetry_certified
    assert report.gap == pytest.approx(-0.5, abs=1e-9)
    _passed("04 hypothesis-necessity")


def test_c05_saturation_and_classification():
    mu = 1.0
    reference = construct_family(
        FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0 * mu, mu=mu)
    )
    report = check_bound(reference, BoundMode.IMPROVED)
    assert abs(report.gap) <= 1e-12
    assert report.equality_class.tag is EqualityTag.H_UMBILICAL_SURFACE
    assert report.equality_class.mu == pytest.approx(mu, abs=1e-9)

    rng = np.random.default_rng(55)
    for _ in range(50):
        rotated = rotate_frame(
            reference, random_orthogonal(rng, 2), random_orthogonal(rng, 2)
        )
        eq = check_bound(rotated, BoundMode.IMPROVED).equality_class
        assert eq.tag is EqualityTag.H_UMBILICAL_SURFACE
        assert abs(eq.mu) == pytest.approx(mu, abs=1e-9)

    umbilical = construct_family(
        FamilyParams(Family.TOTALLY_UMBILICAL, n=2, h0=np.array([1.0, 0.0]))
    )
    general = check_bound(umbilical, BoundMode.GENERAL)
    assert abs(general.gap) <= 1e-12
    assert general.equality_class.tag is EqualityTag.UMBILICAL_SURFACE

    zero = BundleValuedForm.zeros(2, 2)
    for mode in BoundMode:
        assert check_bound(zero, mode).equality_class.tag is EqualityTag.ZERO_FORM
    _passed("05 saturation-and-classification")


def test_c06_scalar_identity(general_population, symmetric_population):
    for zeta in general_population + symmetric_population:
        tau = t_scalar(build_T_from_zeta(zeta))
        trace_sq = float(trace_norms_sq(zeta.components))
        identity = 0.5 * trace_sq - 0.5 * zeta_norm_sq(zeta)
        assert abs(tau - identity) <= 1e-10
    _passed("06 scalar-identity")


def test_c07_lemma_oracle_equivalence():
    rng = np.random.default_rng(71)
    for n in range(2, 9):
        for s in (-10.0, -1.0, 0.0, 1.0, 10.0):
            closed_f1 = f1_max_closed(n, s)
            oracle_f1 = brute_force_max(ConstrainedQuadratic(Objective.F1, n, s))
            assert abs(closed_f1.max_value - oracle_f1.max_value) <= 1e-8
            closed_f2 = f2_max_closed(n, s)
            oracle_f2 = brute_force_max(ConstrainedQuadratic(Objective.F2, n, s))
            assert abs(closed_f2.max_value - oracle_f2.max_value) <= 1e-8

            points = rng.standard_normal((10_000, n)) * (1.0 + abs(s))
            points += ((s - points.sum(axis=1)) / n)[:, None]
            tails = points[:, 1:]
            f1_values = points[:, 0] * tails.sum(axis=1) - (tails**2).sum(axis=1)
            f2_values = points[:, 0] * tails.sum(axis=1) - points[:, 0] ** 2
            assert f1_values.max() <= closed_f1.max_value + 1e-9
            assert f2_values.max() <= closed_f2.max_value + 1e-9
    _passed("07 lemma-oracle-equivalence")


def test_c08_ambient_application_bounds():
    rng = np.random.default_rng(81)

    def improved_models():
        c = float(rng.uniform(-5.0, 5.0))
        theta = float(rng.uniform(0.05, math.pi / 2))
        kind = rng.integers(0, 3)
        if kind == 0:
            return AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, c)
        if kind == 1:
            return AmbientModel(AmbientKind.COMPLEX_SLANT, c, theta)
        return AmbientModel(AmbientKind.SASAKIAN_C_TOTALLY_REAL, c)

    per_model = {k: 0 for k in AmbientKind}
    while min(
        per_model[AmbientKind.COMPLEX_LAGRANGIAN],
        per_model[AmbientKind.COMPLEX_SLANT],
        per_model[AmbientKind.SASAKIAN_C_TOTALLY_REAL],
    ) < 500:
        model = improved_models()
        per_model[model.kind] += 1
        n = int(rng.integers(2, 7))
        if model.theta is not None and n % 2:
            # A proper slant angle needs even n; theta = pi/2 is valid at any n.
            model = AmbientModel(AmbientKind.COMPLEX_SLANT, model.c, math.pi / 2)
        zeta = sample_symmetric(rng, n, n)
        lam, _ = max_ricci(t_ricci_form(build_T_from_zeta(zeta)))
        intrinsic_max = lam + ricci_offset(model, n)
        bound = float(application_bounds(model, zeta.n, trace_norms_sq(zeta.components)))
        assert intrinsic_max <= bound + 1e-9
        improved = check_bound(zeta, BoundMode.IMPROVED).bound_value
        assert abs(bound - (improved + ricci_offset(model, n))) <= 1e-12

    for _ in range(500):
        n = int(rng.integers(2, 7))
        zeta = sample_general(rng, n, int(rng.integers(1, 2 * n + 3)))
        model = AmbientModel(AmbientKind.REAL_SPACE_FORM, float(rng.uniform(-5, 5)))
        lam, _ = max_ricci(t_ricci_form(build_T_from_zeta(zeta)))
        intrinsic_max = lam + ricci_offset(model, n)
        trace_sq = trace_norms_sq(zeta.components)
        h_sq = float(trace_sq) / float(zeta.n) ** 2
        recovery = n * n * h_sq / 4.0 + (n - 1) * model.c
        assert intrinsic_max <= recovery + 1e-9
        assert abs(
            float(application_bounds(model, zeta.n, trace_sq))
            - (check_bound(zeta, BoundMode.GENERAL).bound_value + ricci_offset(model, n))
        ) <= 1e-12
    _passed("08 ambient-application-bounds")


def test_c09_slumbilical_non_attainment():
    for lam in (0.5, 1.0, 2.0):
        zeta = construct_family(FamilyParams(Family.SLUMBILICAL, n=2, lam=lam))
        report = check_bound(zeta, BoundMode.IMPROVED)
        assert report.symmetry_certified
        assert report.gap == pytest.approx(lam * lam / 2.0, abs=1e-12)
        assert report.gap > 0.0
        assert report.equality_class.tag is EqualityTag.NO_EQUALITY
    _passed("09 slumbilical-non-attainment")


def test_c10_umbilical_rigidity():
    assert umbilical_rigidity_witness(1, [3.0]) is RigidityVerdict.DIMENSION_1
    rng = np.random.default_rng(91)
    for n in range(2, 7):
        for _ in range(100):
            h0 = rng.standard_normal(n)
            while np.linalg.norm(h0) <= 1e-12:
                h0 = rng.standard_normal(n)
            assert umbilical_rigidity_witness(n, h0) is RigidityVerdict.FORCED_GEODESIC
    _passed("10 umbilical-rigidity")


def test_c11_corollary_two_imply_third(general_population):
    rng = np.random.default_rng(111)
    for zeta in general_population:
        x = random_unit(rng, zeta.n)
        assert corollary_triple(zeta, x).verified

    # Constructed special cases: trace-free forms, null-direction forms, the
    # named families, and the zero form.
    for _ in range(100):
        n = int(rng.integers(2, 6))
        base = np.array(sample_general(rng, n, int(rng.integers(1, 5))).components)
        for r in range(base.shape[0]):
            base[r] -= (np.trace(base[r]) / n) * np.eye(n)
        trace_free = BundleValuedForm(base)
        assert float(trace_norms_sq(trace_free.components)) <= 1e-18
        for x in (random_unit(rng, n), np.eye(n)[0]):
            assert corollary_triple(trace_free, x).verified

        nulled = np.array(sample_general(rng, n, 3).components)
        nulled[:, 0, :] = 0.0
        nulled[:, :, 0] = 0.0
        null_form = BundleValuedForm(nulled)
        assert corollary_triple(null_form, np.eye(n)[0]).verified
        assert corollary_triple(null_form, random_unit(rng, n)).verified

        both = np.array(nulled)
        tail_projector = np.diag([0.0] + [1.0] * (n - 1))
        for r in range(both.shape[0]):
            both[r] -= (np.trace(both[r]) / (n - 1)) * tail_projector
        triple = corollary_triple(BundleValuedForm(both), np.eye(n)[0])
        assert triple.verified
        assert triple.equality_at_x and triple.trace_zero and triple.in_null_space

    reference = construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0))
    assert corollary_triple(reference, [1.0, 0.0]).verified
    umbilical = construct_family(
        FamilyParams(Family.TOTALLY_UMBILICAL, n=2, h0=np.array([1.0, 0.0]))
    )
    triple = corollary_triple(umbilical, [1.0, 0.0])
    assert triple.verified and triple.equality_at_x
    zero_triple = corollary_triple(BundleValuedForm.zeros(3, 2), np.eye(3)[1])
    assert zero_triple.verified
    assert zero_triple.equality_at_x and zero_triple.trace_zero and zero_triple.in_null_space
    _passed("11 corollary-two-imply-third")


def test_c12_cli_determinism(tmp_path, capsys):
    argv = [
        "sample", "--n", "4", "--bundle", "6", "--count", "60",
        "--seed", "314159", "--family", "symmetric",
    ]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()

    rng = np.random.default_rng(121)
    for k in range(20):
        zeta = sample_general(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        path = tmp_path / f"round{k}.json"
        save_instance(Instance(zeta=zeta), path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.zeta.components, zeta.components)

    target = str(tmp_path / "ref.json")
    assert main([
        "construct", "--family", "h-umbilical", "--n", "2",
        "--lambda", "3", "--mu", "1", "-o", target,
    ]) == 0
    capsys.readouterr()
    assert main(["report", target, "--format", "json"]) == 0
    report_one = capsys.readouterr().out
    assert main(["report", target, "--format", "json"]) == 0
    report_two = capsys.readouterr().out
    assert report_one.encode() == report_two.encode()
    _passed("12 cli-determinism")
