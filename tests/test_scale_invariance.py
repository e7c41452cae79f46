"""Verdicts on quantities quadratic in zeta scale with the data.

The curvature and Gauss residuals, both gaps and the S_T = bound * I test
are gated at tol * ||zeta||^2 with no floor, and the total-symmetry residual
that certifies the improved bound, and the corollary's four tests on zeta,
at tol * ||zeta||.  Scaling zeta by 2^k scales every such quantity and its
gate by exactly the same power of two, so the verdicts are bitwise
invariant, and large and tiny forms are judged as unit-scale ones are.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvlike.cli import main
from curvlike.instance_io import Instance, save_instance
from curvlike.gauss_bounds import BoundMode
from curvlike.reporting import build_bound_report, build_check_report, build_instance_report
from curvlike.sampling import draw_general, draw_symmetric
from curvlike.tensor_core import DEFAULT_TOL, BundleValuedForm


def gap_verdicts(doc: dict) -> list[bool]:
    return [
        any(failure.startswith(f"{mode.value} bound violated") for failure in doc["failures"])
        for mode in BoundMode
    ]


def verdicts(comps: np.ndarray, tol: float) -> dict:
    """``check``'s exit code and ``symmetry.passed``; the general and the
    improved gap verdicts of ``report`` and of ``bound``; the improved
    bound's certificate; and the rows of ``report``'s corollary block.
    ``report`` takes only a positive tol, which is also its null-space rank
    tolerance."""
    instance = Instance(zeta=BundleValuedForm(comps))
    check, check_code = build_check_report(instance, tol)
    bounds = {mode: build_bound_report(instance, mode, tol)[0] for mode in BoundMode}
    doc = build_instance_report(instance, tol)[0] if tol > 0 else None
    report = gap_verdicts(doc) if doc else [None] * 2
    bound = [gap_verdicts(bounds[mode])[index] for index, mode in enumerate(BoundMode)]
    return {
        "check": (check_code, check["symmetry"]["passed"]),
        "general": (report[0], bound[0]),
        "improved": (report[1], bound[1]),
        "certified": bounds[BoundMode.IMPROVED]["bound"]["symmetry_certified"],
        "corollary": doc["corollary"]["rows"] if doc else None,
    }


def umbilical(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """zeta_r = h_r I: the general gap is 0 up to roundoff, so a gate of
    roundoff size decides it both ways."""
    return rng.standard_normal(m)[:, None, None] * np.eye(n)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    m=st.integers(1, 8),
    kind=st.sampled_from(["general", "symmetric", "umbilical"]),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-30, 30),
    # Gates of roundoff size decide the residuals both ways, and a negative
    # tol makes the gap verdicts fire on gaps below |tol| * ||zeta||^2.
    tol=st.sampled_from([DEFAULT_TOL, 1e-15, 2e-16, 5e-17, -0.01, -0.1]),
)
# Times 2^-30 every |zeta(X, e_j)| of this surface is below an absolute 1e-9.
@example(n=2, m=2, kind="umbilical", seed=199, k=-30, tol=DEFAULT_TOL)
def test_verdicts_are_invariant_under_power_of_two_scaling(n, m, kind, seed, k, tol):
    rng = np.random.default_rng(seed)
    if kind == "umbilical":
        comps = umbilical(rng, n, m)
    elif kind == "symmetric":
        comps = draw_symmetric(rng, n, max(m, n), 1)[0]
    else:
        comps = draw_general(rng, n, m, 1)[0]
    assert verdicts(comps * 2.0**k, tol) == verdicts(comps, tol)


def test_tiny_umbilical_surface_is_not_certified():
    """An umbilical surface is not totally symmetric at any scale, and
    violates the improved bound.  Times 2^-30 its residual falls below an
    absolute tol = 1e-9, but not below tol * ||zeta||, so the improved bound
    is not claimed and neither ``bound`` nor ``report`` calls its gap of
    -3.5e-19 a violation."""
    comps = umbilical(np.random.default_rng(199), 2, 2) * 2.0**-30
    instance = Instance(zeta=BundleValuedForm(comps))
    doc, code = build_bound_report(instance, BoundMode.IMPROVED, DEFAULT_TOL)
    assert doc["bound"]["symmetry_certified"] is False
    assert doc["bound"]["gap"] < -doc["tolerance"]
    assert doc["failures"] == [
        "improved bound not certified: form fails the total-symmetry hypothesis"
    ]
    assert code == 1
    report, _ = build_instance_report(instance, DEFAULT_TOL)
    assert report["bounds"]["improved"]["symmetry_certified"] is False
    assert gap_verdicts(report) == [False, False]


def test_tiny_umbilical_surface_keeps_its_corollary():
    """The same umbilical surface times 2^-30 prints the corollary rows of
    the unscaled form and exits 0: equality holds at every direction and
    neither the trace nor any zeta(X, e_j) vanishes against tol * ||zeta||.
    An absolute tol = 1e-9 read every |zeta(X, e_j)| as 0, so each row
    showed exactly two statements true and the report exited 1.  Its tag
    stays zero-form: that verdict is the classifier's own test on zeta."""
    comps = umbilical(np.random.default_rng(199), 2, 2)
    unscaled, unscaled_code = build_instance_report(
        Instance(zeta=BundleValuedForm(comps)), DEFAULT_TOL
    )
    tiny = Instance(zeta=BundleValuedForm(comps * 2.0**-30))
    report, code = build_instance_report(tiny, DEFAULT_TOL)
    assert (code, report["failures"]) == (unscaled_code, unscaled["failures"]) == (0, [])
    assert report["corollary"] == unscaled["corollary"]
    fields = ("equality_at_x", "trace_zero", "in_null_space", "verified")
    rows = [[row[field] for field in fields] for row in report["corollary"]["rows"]]
    assert rows == [[True, False, False, True]] * 3
    assert report["bounds"]["general"]["equality_class"]["tag"] == "zero-form"


def test_large_general_forms_pass_check(tmp_path, capsys):
    """Ten seeded general (8, 8) forms times 1e4: roundoff in T's first
    Bianchi sum and Gauss residual exceeds an absolute 1e-9, but not the
    gate 1e-9 * ||zeta||^2."""
    for seed in range(10):
        comps = draw_general(np.random.default_rng([seed, 88]), 8, 8, 1)[0] * 1e4
        path = str(tmp_path / f"big{seed}.json")
        save_instance(Instance(zeta=BundleValuedForm(comps)), path)
        assert main(["check", path]) == 0
        assert "failures: []" in capsys.readouterr().out


def test_tiny_generic_form_is_not_the_zero_form(tmp_path, capsys):
    """A generic (3, 3) form times 1e-11 has S_T far from bound * I relative
    to ||zeta||^2, so neither bound calls it an equality case."""
    comps = draw_general(np.random.default_rng(33), 3, 3, 1)[0] * 1e-11
    path = str(tmp_path / "tiny.json")
    save_instance(Instance(zeta=BundleValuedForm(comps)), path)
    assert main(["report", path]) == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    assert [bounds[mode]["equality_class"]["tag"] for mode in bounds] == ["no-equality"] * 2
