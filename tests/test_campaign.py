"""The chunked sampling campaign against a per-instance reference loop built
from the public one-form functions, its per-instance check of S_T against
mutations off the audited set, and the draws it evaluates without a form
check."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlike import gauss_bounds, reporting, tensor_core
from curvlike.ambient_models import (
    AmbientKind,
    AmbientModel,
    application_bounds,
    base_mode,
    ricci_offset,
)
from curvlike.gauss_bounds import (
    BoundMode,
    _gaps,
    build_T_from_zeta,
    check_bound,
    evaluate,
    gauss_probe_residuals,
    is_totally_symmetric,
    ricci_forms,
    ricci_probe_residuals,
)
from curvlike.instance_io import dump_json
from curvlike.reporting import run_sample
from curvlike.sampling import draw_general, draw_symmetric
from curvlike.tensor_core import (
    DEFAULT_TOL,
    checked_components,
    norm_sqs,
    trace_norms_sq,
    validate_curvature_symmetries,
    zeta_norm_sq,
)
from random_forms import sample_general, sample_symmetric


def reference_results(n, bundle_dim, count, seed, family, ambient, tol):
    """The campaign's results block, one instance at a time: every S_T is
    probed against its form, and T is built and audited only for the first
    instance of least general gap and for every instance with a verdict hit.
    Curvature and Gauss residuals and both gaps are gated at tol * ||zeta||^2,
    certification and the ambient margin at tol."""
    rng = np.random.default_rng(seed)
    sample = sample_general if family == "general" else sample_symmetric
    forms = [sample(rng, n, bundle_dim) for _ in range(count)]
    generals = [check_bound(zeta, BoundMode.GENERAL, tol) for zeta in forms]
    tightest = min(range(count), key=lambda index: generals[index].gap, default=None)
    violations = []
    symmetric_count = audited = 0
    max_gauss = max_symmetry = 0.0
    min_general = min_improved = min_margin = float("inf")
    for index, (zeta, general) in enumerate(zip(forms, generals)):
        gate = tol * zeta_norm_sq(zeta)
        ricci = ricci_forms(zeta.components)
        probed = float(ricci_probe_residuals(zeta.components, ricci))
        max_gauss = max(max_gauss, probed)
        found = []
        symmetric_count += is_totally_symmetric(zeta, tol)[0]
        min_general = min(min_general, general.gap)
        if general.gap < -gate:
            found.append({"index": index, "kind": "general-bound", "detail": general.gap})
        improved = None
        if family == "symmetric":
            improved = check_bound(zeta, BoundMode.IMPROVED, tol)
            min_improved = min(min_improved, improved.gap)
            if not improved.symmetry_certified:
                found.append({"index": index, "kind": "certification", "detail": None})
            elif improved.gap < -gate:
                found.append(
                    {"index": index, "kind": "improved-bound", "detail": improved.gap}
                )
        if ambient is not None:
            base = general if base_mode(ambient) is BoundMode.GENERAL else improved
            trace_sq = trace_norms_sq(zeta.components)
            margin = float(application_bounds(ambient, zeta.n, trace_sq)) - (
                base.ricci_max + ricci_offset(ambient, n)
            )
            min_margin = min(min_margin, margin)
            if margin < -tol:
                found.append({"index": index, "kind": "ambient-bound", "detail": margin})
        if found or probed > gate or index == tightest:
            audited += 1
            tensor = build_T_from_zeta(zeta)
            sym = validate_curvature_symmetries(tensor, gate)
            max_symmetry = max(max_symmetry, sym.max_residual)
            gauss = gauss_probe_residuals(tensor.components, zeta.components, ricci)
            gauss = max(probed, float(gauss))
            max_gauss = max(max_gauss, gauss)
            if not sym.passed:
                violations.append(
                    {"index": index, "kind": "symmetry", "detail": sym.max_residual}
                )
            if gauss > gate:
                violations.append({"index": index, "kind": "gauss", "detail": gauss})
        violations.extend(found)
    return {
        "instances": count,
        "symmetric_count": int(symmetric_count),
        "audited": audited,
        "max_gauss_residual": max_gauss,
        "max_symmetry_residual": max_symmetry,
        "min_gap_general": None if count == 0 else min_general,
        "min_gap_improved": (
            None if family != "symmetric" or count == 0 else min_improved
        ),
        "min_ambient_margin": None if ambient is None or count == 0 else min_margin,
        "violations": violations,
        "all_pass": not violations,
    }


LAGRANGIAN = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 1.0)
SLANT = AmbientModel(AmbientKind.COMPLEX_SLANT, 4.0, theta=0.7)
SASAKIAN = AmbientModel(AmbientKind.SASAKIAN_C_TOTALLY_REAL, -2.0)
REAL = AmbientModel(AmbientKind.REAL_SPACE_FORM, -1.0)

CASES = [
    (3, 3, 40, "symmetric", LAGRANGIAN),
    (2, 2, 40, "symmetric", SLANT),
    (4, 5, 30, "symmetric", SASAKIAN),
    (4, 6, 30, "general", REAL),
    (5, 3, 30, "general", None),
    (16, 32, 3, "general", None),
    (16, 32, 17, "general", REAL),
    (3, 3, 0, "symmetric", LAGRANGIAN),
    (4, 6, 1, "general", REAL),
]


def _cases():
    for n, bundle_dim, count, family, ambient in CASES:
        kind = "none" if ambient is None else ambient.kind.value
        yield pytest.param(
            n, bundle_dim, count, family, ambient,
            id=f"{n}x{bundle_dim}-{family}-{kind}-count{count}",
        )


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("n, bundle_dim, count, family, ambient", _cases())
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_results_bitwise(self, n, bundle_dim, count, family, ambient, seed):
        doc, code = run_sample(n, bundle_dim, count, seed, family, ambient, DEFAULT_TOL)
        expected = reference_results(
            n, bundle_dim, count, seed, family, ambient, DEFAULT_TOL
        )
        assert dump_json(doc["results"]) == dump_json(expected)
        assert code == (0 if expected["all_pass"] else 1)

    # A tolerance below roundoff flags symmetry, Gauss and certification residuals,
    # and a negative one flags gaps and margins, interleaved by index.  No
    # tolerance shows an improved-bound violation: it needs a certified form
    # beyond the bound, which the theorem rules out for exact draws.
    @pytest.mark.parametrize("tol", [1e-300, -2.0])
    @pytest.mark.parametrize("n, bundle_dim, count, family, ambient", _cases())
    def test_violations_in_index_order(
        self, n, bundle_dim, count, family, ambient, tol
    ):
        doc, code = run_sample(n, bundle_dim, count, 11, family, ambient, tol)
        expected = reference_results(n, bundle_dim, count, 11, family, ambient, tol)
        assert dump_json(doc["results"]) == dump_json(expected)
        assert code == (0 if expected["all_pass"] else 1)

    def test_every_violation_kind_is_exercised(self):
        kinds = set()
        for n, bundle_dim, count, family, ambient in CASES:
            for tol in (1e-300, -2.0):
                doc, _ = run_sample(n, bundle_dim, count, 11, family, ambient, tol)
                kinds |= {v["kind"] for v in doc["results"]["violations"]}
        assert kinds == {
            "symmetry", "gauss", "general-bound", "certification", "ambient-bound"
        }


MUTATION_CASES = [(16, 32, 8, "general", REAL), (3, 3, 40, "symmetric", LAGRANGIAN)]


class TestPerInstanceCheck:
    """A campaign checks every S_T against its form, and the curvature
    identities of T only on the audited set: a corruption of either is
    caught where it happens, and reported as a violation."""

    @staticmethod
    def forms(n, bundle_dim, count, seed, family):
        """The campaign's forms, and the index of its one audited instance."""
        draw = draw_general if family == "general" else draw_symmetric
        comps = checked_components(draw(np.random.default_rng(seed), n, bundle_dim, count))
        return comps, int(_gaps(evaluate(comps), BoundMode.GENERAL).argmin())

    @staticmethod
    def delta(form) -> float:
        """A corruption ten times the gate tol * ||zeta||^2 of ``form``."""
        return 10 * DEFAULT_TOL * float(norm_sqs(form))

    @pytest.mark.parametrize("n, bundle_dim, count, family, ambient", MUTATION_CASES)
    def test_corrupted_ricci_form_off_the_audit_is_caught(
        self, monkeypatch, n, bundle_dim, count, family, ambient
    ):
        args = (n, bundle_dim, count, 13, family, ambient, DEFAULT_TOL)
        clean, _ = run_sample(*args)
        comps, tightest = self.forms(*args[:5])
        target = comps[(tightest + 1) % count]
        delta = self.delta(target)
        ricci, build, built = gauss_bounds.ricci_forms, reporting.gauss_components, []

        def corrupted(components):
            forms = ricci(components)
            for k in np.flatnonzero((components == target).all(axis=(-3, -2, -1))):
                forms[k, 0, 1] += delta
                forms[k, 1, 0] += delta
            return forms

        def recording(form, out=None):
            built.append(np.array(form))
            return build(form, out)

        monkeypatch.setattr(gauss_bounds, "ricci_forms", corrupted)
        monkeypatch.setattr(reporting, "gauss_components", recording)
        doc, code = run_sample(*args)
        results = doc["results"]
        assert clean["results"]["max_gauss_residual"] < 1e-10
        assert results["max_gauss_residual"] >= 1e-8
        # The S_T check made the corrupted instance a hit, so it was audited
        # too: the contraction of its T misses the corrupted S_T by delta.
        index = (tightest + 1) % count
        assert results["violations"] == [
            {"index": index, "kind": "gauss", "detail": results["max_gauss_residual"]}
        ]
        assert results["max_gauss_residual"] == pytest.approx(delta, rel=1e-6)
        assert results["audited"] == len(built) == 2
        assert sorted(map(bytes, built)) == sorted(map(bytes, comps[[tightest, index]]))
        assert code == 1

    @pytest.mark.parametrize("n, bundle_dim, count, family, ambient", MUTATION_CASES)
    def test_corrupted_bianchi_entry_of_the_audited_tensor_is_caught(
        self, monkeypatch, n, bundle_dim, count, family, ambient
    ):
        args = (n, bundle_dim, count, 13, family, ambient, DEFAULT_TOL)
        comps, tightest = self.forms(*args[:5])
        delta = self.delta(comps[tightest])
        build = reporting.gauss_components

        def corrupted(form, out=None):
            tensor = build(form, out)
            # Both antisymmetries still hold exactly; the Bianchi sum
            # T[0,1,2,0] + T[0,2,0,1] + T[0,0,1,2] is off by delta.
            for index, sign in (
                ((0, 1, 2, 0), 1), ((1, 0, 0, 2), 1), ((1, 0, 2, 0), -1), ((0, 1, 0, 2), -1)
            ):
                tensor[index] += sign * delta
            return tensor

        monkeypatch.setattr(reporting, "gauss_components", corrupted)
        doc, code = run_sample(*args)
        results = doc["results"]
        assert results["max_symmetry_residual"] == pytest.approx(delta, rel=1e-6)
        # T[0, 1, 2, 0] lies on the Ricci diagonal, so the contraction shows
        # all of delta to the Gauss probe too.
        assert results["max_gauss_residual"] == pytest.approx(delta, rel=1e-6)
        assert results["violations"] == [
            {"index": tightest, "kind": "symmetry", "detail": results["max_symmetry_residual"]},
            {"index": tightest, "kind": "gauss", "detail": results["max_gauss_residual"]},
        ]
        assert code == 1


CHUNK_CASES = st.one_of(
    st.tuples(
        st.integers(1, 5), st.integers(1, 6), st.just("general"),
        st.sampled_from([None, REAL]),
    ),
    # A proper slant angle needs even n.
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(n, 6), st.just("symmetric"),
            st.sampled_from(
                [None, LAGRANGIAN, SASAKIAN, REAL] + ([SLANT] if n % 2 == 0 else [])
            ),
        )
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    case=CHUNK_CASES,
    count=st.integers(0, 9),
    seed=st.integers(0, 2**64 - 1),
    tol=st.sampled_from([DEFAULT_TOL, 1e-300, -2.0]),
)
def test_report_bytes_do_not_depend_on_chunk_size(case, count, seed, tol):
    n, bundle_dim, family, ambient = case
    if ambient is not None and n < 2:
        ambient = None
    args = (n, bundle_dim, count, seed, family, ambient, tol)
    reports = set()
    # One instance per chunk, the whole call in one chunk, and the default.
    form_bytes = 8 * bundle_dim * n * n
    for chunk_bytes in (form_bytes, form_bytes * max(count, 1), reporting._CHUNK_ZETA_BYTES):
        with mock.patch.object(reporting, "_CHUNK_ZETA_BYTES", chunk_bytes):
            doc, code = run_sample(*args)
        reports.add((reporting.render_report(doc, "json"), code))
    assert len(reports) == 1


class TestDrawsAreReadyToUse:
    """Each draw is what :func:`checked_components` would make of it, so a
    campaign evaluates it as drawn: the same report bytes, no form check,
    and no second stack-sized buffer."""

    @staticmethod
    def grid():
        for n in range(1, 17):
            for m_prime in sorted({1, n, min(2 * n, 32), 32}):
                for family, draw in (("general", draw_general), ("symmetric", draw_symmetric)):
                    if family == "general" or m_prime >= n:
                        yield n, m_prime, family, draw

    @pytest.mark.parametrize("seed", [0, 2**63 + 5])
    def test_draw_is_its_checked_components(self, seed):
        for n, m_prime, family, draw in self.grid():
            for count in (0, 1, 5, 300):
                drawn = draw(np.random.default_rng(seed), n, m_prime, count)
                checked = checked_components(drawn)
                case = (n, m_prime, family, count)
                assert drawn.shape == checked.shape == (count, m_prime, n, n), case
                assert drawn.tobytes() == checked.tobytes(), case
                assert drawn.flags.writeable, case

    CAMPAIGNS = [
        (4, 6, 30, 3, "general", None),
        (16, 32, 17, 5, "general", REAL),
        (3, 3, 150, 7, "symmetric", LAGRANGIAN),
        (2, 2, 40, 11, "symmetric", SLANT),
        (4, 5, 30, 13, "symmetric", SASAKIAN),
        (3, 3, 0, 17, "symmetric", None),
    ]

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-300, -2.0])
    @pytest.mark.parametrize("case", CAMPAIGNS)
    def test_report_bytes_match_checked_draws(self, monkeypatch, case, tol):
        n, bundle_dim, count, seed, family, ambient = case
        args = (n, bundle_dim, count, seed, family, ambient, tol)
        drawn = run_sample(*args)
        for name in ("draw_general", "draw_symmetric"):
            draw = getattr(reporting, name)
            monkeypatch.setattr(
                reporting, name, lambda *a, draw=draw: checked_components(draw(*a))
            )
        checked = run_sample(*args)
        for fmt in ("json", "text"):
            assert reporting.render_report(drawn[0], fmt) == reporting.render_report(
                checked[0], fmt
            )
        assert drawn[1] == checked[1]

    @pytest.mark.parametrize("case", CAMPAIGNS)
    def test_campaign_runs_no_form_check(self, monkeypatch, case):
        n, bundle_dim, count, seed, family, ambient = case
        calls = []
        check = tensor_core.checked_components

        def counting(components):
            calls.append(np.shape(components))
            return check(components)

        monkeypatch.setattr(tensor_core, "checked_components", counting)
        monkeypatch.setattr(reporting, "checked_components", counting, raising=False)
        run_sample(n, bundle_dim, count, seed, family, ambient, DEFAULT_TOL)
        assert calls == []

    def test_general_draw_peak_is_the_result(self):
        """The draw is symmetrized in place: beyond the (8, 32, 16, 16) result
        only a bounded scratch block is allocated."""
        rng = np.random.default_rng(192)
        draw_general(rng, 16, 32, 8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = draw_general(rng, 16, 32, 8)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert result.shape == (8, 32, 16, 16)
        assert peak <= result.nbytes + 64 * 1024
