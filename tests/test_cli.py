"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvlike import gauss_bounds, reporting
from curvlike.ambient_models import AmbientKind, AmbientModel
from curvlike.cli import main
from curvlike.errors import ValidationError
from curvlike.gauss_bounds import (
    BoundMode,
    evaluate,
    ricci_forms,
    total_symmetry_residuals,
)
from curvlike.instance_io import Instance, save_instance
from curvlike.sampling import draw_general, draw_symmetric
from curvlike.structures import Family, FamilyParams, construct_family
from curvlike.tensor_core import (
    DEFAULT_TOL,
    BundleValuedForm,
    checked_components,
    zeta_norm_sq,
)
from random_forms import sample_general, sample_symmetric


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstructAndBound:
    def test_reference_flow(self, tmp_path, capsys):
        target = str(tmp_path / "x.json")
        code, out, _ = run_cli(
            capsys,
            "construct", "--family", "h-umbilical", "--n", "2",
            "--lambda", "3", "--mu", "1", "-o", target,
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "bound", target, "--mode", "improved")
        assert code == 0
        assert "gap: 0.0" in out
        assert "tag: h-umbilical-surface" in out
        assert "mu: 1.0" in out

    def test_umbilical_n3_improved_fails(self, tmp_path, capsys):
        target = str(tmp_path / "u.json")
        code, _, _ = run_cli(
            capsys,
            "construct", "--family", "totally-umbilical", "--n", "3",
            "--h0", "1,0,0", "-o", target,
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "bound", target, "--mode", "improved")
        assert code == 1
        assert "symmetry_certified: false" in out
        assert "gap: -0.5" in out
        # An uncertified improved bound claims nothing, so its gap is no
        # violation: `bound` fails on the certificate alone, as `report`
        # and `sample` count it.
        assert out.endswith(
            "\nfailures: [improved bound not certified: "
            "form fails the total-symmetry hypothesis]\n"
        )
        code, out, _ = run_cli(capsys, "report", target, "--format", "json")
        doc = json.loads(out)
        assert doc["bounds"]["improved"]["gap"] == -0.5
        assert (code, doc["failures"]) == (0, [])

    def test_general_mode_passes_there(self, tmp_path, capsys):
        target = str(tmp_path / "u.json")
        run_cli(
            capsys,
            "construct", "--family", "totally-umbilical", "--n", "3",
            "--h0", "1,0,0", "-o", target,
        )
        code, out, _ = run_cli(capsys, "bound", target, "--mode", "general")
        assert code == 0

    def test_large_scale_general_form_passes(self, tmp_path, capsys):
        # The n^4 tensor of this form carries curvature-symmetry roundoff far
        # above 1e-9 (within its gate tol * ||zeta||^2); the bound never needs
        # that tensor.
        base = sample_general(np.random.default_rng([2, 3]), 4, 6)
        zeta = BundleValuedForm(base.components * 1e4)
        path = str(tmp_path / "big.json")
        save_instance(Instance(zeta=zeta), path)
        code, out, _ = run_cli(capsys, "bound", path, "--mode", "general")
        assert code == 0
        ricci_max = float(out.split("ricci_max: ")[1].split()[0])
        expected = np.linalg.eigvalsh(ricci_forms(zeta.components)).max()
        assert abs(ricci_max - expected) <= 1e-12 * zeta_norm_sq(zeta)

    @pytest.mark.parametrize(
        "flags, name",
        [
            (("--family", "h-umbilical", "--lambda", "nan", "--mu", "1"), "lambda"),
            (("--family", "h-umbilical", "--lambda", "3", "--mu", "inf"), "mu"),
            (("--family", "slumbilical", "--lambda", "1", "--theta", "nan"), "theta"),
            (("--family", "totally-umbilical", "--h0", "1,-inf"), "h0"),
        ],
    )
    def test_non_finite_parameter_names_the_flag(self, tmp_path, capsys, flags, name):
        target = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "construct", "--n", "2", *flags, "-o", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name} must be finite, got ")
        assert err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize(
        "flags, names",
        [
            (("--family", "totally-umbilical", "--h0", "0.1,-0.6666666666666666,1e300"), "h0"),
            (("--family", "h-umbilical", "--lambda", "1e300", "--mu", "1"), "lambda and mu"),
            (("--family", "h-umbilical", "--lambda", "3", "--mu=-1e300"), "lambda and mu"),
            (("--family", "slumbilical", "--lambda", "1e300"), "lambda"),
        ],
    )
    def test_overflowing_parameter_names_the_flag(self, tmp_path, capsys, flags, names):
        target = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "construct", "--n", "3", *flags, "-o", str(target))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {names}: zeta is too large: 8 n ||zeta||^2 overflows binary64 "
            "(largest |component| 1e+300)\n"
        )
        assert not target.exists()

    def test_missing_parameter_is_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "construct", "--family", "h-umbilical", "--n", "2",
            "--lambda", "3", "-o", str(tmp_path / "y.json"),
        )
        assert code == 2
        assert "mu" in err

    def test_huge_n_is_exit_2_before_any_allocation(self, tmp_path, capsys):
        """n = 10**6 would ask for an (n, n, n) array of 8e18 bytes; the
        dimension rule refuses it first, with one line and no file."""
        target = tmp_path / "big.json"
        code, out, err = run_cli(
            capsys,
            "construct", "--family", "h-umbilical", "--n", "1000000",
            "--lambda", "1", "--mu", "1", "-o", str(target),
        )
        assert (code, out) == (2, "")
        assert err == "error: tangent dimension must be in 1..16, got 1000000\n"
        assert not target.exists()

    def test_odd_n_proper_slant_is_exit_2(self, tmp_path, capsys):
        target = tmp_path / "f.json"
        code, out, err = run_cli(
            capsys,
            "construct", "--family", "slumbilical", "--n", "3",
            "--lambda", "1", "--theta", "0.7", "-o", str(target),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: proper slant angle 0.7 requires even tangent dimension, got 3\n"
        )
        assert not target.exists()


# Every command that loads an instance file; the path goes last.
FILE_COMMANDS = (["report"], ["bound", "--mode", "general"], ["check"], ["nullspace"])

# The parameter flags each family takes; the slant families also take --theta.
FAMILY_FLAGS = {
    "h-umbilical": ["--lambda", "1", "--mu", "2"],
    "slumbilical": ["--lambda", "1"],
    "h-slumbilical": ["--lambda", "1", "--mu", "2"],
    "h-umbilical-c-totally-real": ["--lambda", "1", "--mu", "2"],
    "totally-umbilical": ["--h0", "1,0.5"],
    "totally-geodesic": [],
}
SLANT_FAMILIES = ("slumbilical", "h-slumbilical")
PARAMETER_FLAGS = {"lambda": "1", "mu": "2", "theta": "0.5", "h0": "1,0.5"}


class TestConstructWritesOnlyLoadableFiles:
    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_round_trip(self, tmp_path, capsys, family):
        """For every n and, on a slant family, every slant angle, `construct`
        either refuses (exit 2, no file) or writes a file that every file
        command loads."""
        assert set(FAMILY_FLAGS) == {f.value for f in Family}
        thetas = (None, 0.3, math.pi / 4, math.pi / 2)
        written = 0
        for n in range(1, 17):
            for theta in thetas if family in SLANT_FAMILIES else (None,):
                target = str(tmp_path / f"{n}-{theta}.json")
                argv = [
                    "construct", "--family", family, "--n", str(n),
                    *FAMILY_FLAGS[family], "-o", target,
                ]
                if theta is not None:
                    argv += ["--theta", repr(theta)]
                code, _, err = run_cli(capsys, *argv)
                case = (n, theta, err)
                if code == 2:
                    assert not (tmp_path / f"{n}-{theta}.json").exists(), case
                    continue
                assert (code, err) == (0, ""), case
                written += 1
                for op in FILE_COMMANDS:
                    code, _, err = run_cli(capsys, *op, target)
                    assert code != 2, (*case, op)
        assert written >= 16

    @pytest.mark.parametrize("family", sorted(FAMILY_FLAGS))
    def test_foreign_parameter_is_exit_2(self, tmp_path, capsys, family):
        """A parameter the family does not take is refused by name, not
        dropped, and no file is written."""
        own = {flag[2:] for flag in FAMILY_FLAGS[family][::2]}
        if family in SLANT_FAMILIES:
            own.add("theta")
        foreign = sorted(set(PARAMETER_FLAGS) - own)
        assert foreign
        target = tmp_path / "x.json"
        for name in foreign:
            code, out, err = run_cli(
                capsys,
                "construct", "--family", family, "--n", "2", *FAMILY_FLAGS[family],
                f"--{name}", PARAMETER_FLAGS[name], "-o", str(target),
            )
            assert (code, out) == (2, ""), name
            assert err == f"error: {family} takes no {name}\n"
            assert not target.exists()

    @pytest.mark.parametrize("scale", ["1e150", "1e200", "1e300"])
    @pytest.mark.parametrize(
        "family, flags",
        [
            ("totally-umbilical", ["--h0", "{scale},1"]),
            ("h-umbilical", ["--lambda", "{scale}", "--mu", "1"]),
            ("slumbilical", ["--lambda", "{scale}"]),
        ],
    )
    def test_large_parameters(self, tmp_path, capsys, scale, family, flags):
        """`construct` writes a file exactly when every file command loads
        it; the headroom rule cuts between 1e150 and 1e200."""
        target = tmp_path / "x.json"
        flags = [flag.format(scale=scale) for flag in flags]
        for n in (2, 16):
            argv = ["construct", "--family", family, "--n", str(n), *flags]
            code, _, err = run_cli(capsys, *argv, "-o", str(target))
            assert (code == 0) is (scale == "1e150"), (n, err)
            assert target.exists() is (code == 0)
            if code == 0:
                codes = [run_cli(capsys, *op, str(target))[0] for op in FILE_COMMANDS]
                assert 2 not in codes
                target.unlink()

    @pytest.mark.parametrize("n", [2, 16])
    def test_headroom_limit(self, tmp_path, capsys, n):
        """The largest accepted h0 of a totally umbilical form, and the next
        double: `construct`, every file command on a hand-written file, the
        form constructor and a stacked check give each one verdict."""
        # ||zeta||^2 = n h^2, and at the limit 8 n ||zeta||^2 = max.
        limit = math.sqrt(np.finfo(float).max / (8 * n * n))
        for h, accepted in ((limit, True), (math.nextafter(limit, math.inf), False)):
            target = tmp_path / f"constructed-{accepted}.json"
            code, _, _ = run_cli(
                capsys, "construct", "--family", "totally-umbilical", "--n", str(n),
                "--h0", repr(h), "-o", str(target),
            )
            assert (code == 0, target.exists()) == (accepted, accepted)
            form = np.diag([h] * n)[None]
            path = tmp_path / f"written-{accepted}.json"
            doc = {"version": 1, "n": n, "bundle_dim": 1, "zeta": form.tolist()}
            path.write_text(json.dumps(doc))
            refusal = f"error: {path}: field 'zeta': zeta is too large"
            for op in FILE_COMMANDS:
                code, _, err = run_cli(capsys, *op, str(path))
                assert (code != 2) is accepted, (h, op, err)
                assert accepted or err.startswith(refusal)
            stack = np.stack([np.eye(n)[None], form])
            for build, arg in ((BundleValuedForm, form), (checked_components, stack)):
                if accepted:
                    build(arg)
                else:
                    with pytest.raises(ValidationError, match="^zeta is too large"):
                        build(arg)


class TestLemma:
    def test_f1_reference(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "--which", "f1", "--n", "3", "--sum", "6")
        assert code == 0
        assert "max: 6.0" in out
        assert "argmax: [4.0, 1.0, 1.0]" in out

    def test_f2_with_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lemma", "--which", "f2", "--n", "3", "--sum", "4", "--values", "1,2,1",
        )
        assert code == 0
        assert "value: 2.0" in out
        assert "within_bound: true" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--sum", "nan"), "error: --sum must be finite, got nan\n"),
            (("--sum=-inf",), "error: --sum must be finite, got -inf\n"),
            (
                ("--sum", "4", "--values", "1,nan,5"),
                "error: --values must be finite, got '1,nan,5'\n",
            ),
        ],
    )
    def test_non_finite_input_names_the_flag(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "lemma", "--which", "f2", "--n", "3", *flags)
        assert (code, out, err) == (2, "", message)

    def test_overflowing_sum_names_the_flag(self, capsys):
        """S^2 overflows binary64 above about 1.3e154: refused before any
        kernel warns."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "lemma", "--which", "f1", "--n", "3", "--sum", "1e200"
            )
        assert caught == []
        assert (code, out, err) == (
            2, "", "error: --sum must be within +-1e+150, got 1e+200\n"
        )

    @pytest.mark.parametrize("which", ["f1", "f2"])
    @pytest.mark.parametrize("n", ["2", "16"])
    def test_sum_limit_is_1e150(self, capsys, which, n):
        """|S| = 1e150 passes the gate and runs the closed form and the oracle
        without a warning, and the relative agreement gate passes; just past
        it is refused."""
        argv = ("lemma", "--which", which, "--n", n)
        for raw in ("1e150", "-1e150"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run_cli(capsys, *argv, f"--sum={raw}")
            assert caught == []
            assert code == 0 and err == "" and "oracle:" in out
        code, out, err = run_cli(capsys, *argv, "--sum=-1.000001e150")
        assert (code, out, err) == (
            2, "", "error: --sum must be within +-1e+150, got -1.000001e+150\n"
        )

    def test_n_above_desk_scale_names_n(self, capsys):
        code, out, err = run_cli(capsys, "lemma", "--which", "f1", "--n", "17", "--sum", "1")
        assert (code, out, err) == (2, "", "error: tangent dimension must be in 2..16, got 17\n")

    @pytest.mark.parametrize(
        "which, n, total",
        [("f1", "3", "1e6"), ("f2", "16", "1e150")],
    )
    def test_agreement_gate_scales_with_the_maximum(self, capsys, which, n, total):
        """One ulp of a large maximum is not a disagreement."""
        code, out, err = run_cli(capsys, "lemma", "--which", which, "--n", n, "--sum", total)
        assert (code, err) == (0, "")
        assert "failures: []" in out

    def test_feasibility_gate_scales_with_the_sum(self, capsys):
        code, out, err = run_cli(
            capsys,
            "lemma", "--which", "f2", "--n", "3", "--sum", "1e6",
            "--values", "250000,375000,375000.0000001",
        )
        assert (code, err) == (0, "")
        assert "feasible: true" in out
        assert "within_bound: true" in out

    @pytest.mark.parametrize("which", ["f1", "f2"])
    def test_closed_form_off_by_1e6_relative_still_fails(self, capsys, monkeypatch, which):
        """The relative gate keeps catching a real error at large scale."""
        real = reporting.f1_max_closed if which == "f1" else reporting.f2_max_closed

        def skewed(n, s):
            exact = real(n, s)
            return dataclasses.replace(exact, max_value=exact.max_value * (1 + 1e-6))

        monkeypatch.setattr(reporting, f"{which}_max_closed", skewed)
        code, out, err = run_cli(capsys, "lemma", "--which", which, "--n", "3", "--sum", "1e6")
        assert (code, err) == (1, "")
        assert "closed form and oracle disagree by" in out


class TestCheckAndNullspace:
    def test_check_passes_on_valid_instance(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = str(tmp_path / "r.json")
        save_instance(Instance(zeta=sample_general(rng, 3, 4)), path)
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 0
        assert "passed: true" in out

    def test_invalid_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "n": 2')
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert "error:" in err

    def test_nullspace_of_degenerate_form(self, tmp_path, capsys):
        comps = np.zeros((1, 3, 3))
        comps[0, 1, 1] = 1.0
        from curvlike.tensor_core import BundleValuedForm

        path = str(tmp_path / "d.json")
        save_instance(Instance(zeta=BundleValuedForm(comps)), path)
        code, out, _ = run_cli(capsys, "nullspace", path)
        assert code == 0
        assert "basis_dim: 2" in out


class TestReportEnvelope:
    def test_file_reports_print_version_2_and_a_hash(self, tmp_path, capsys):
        """Report version 2 marks the instance hash over ζ's binary64 bytes."""
        path = str(tmp_path / "g.json")
        save_instance(Instance(zeta=sample_general(np.random.default_rng(2), 3, 4)), path)
        for argv in (
            ("report", path, "--format", "text"),
            ("bound", path, "--mode", "general"),
            ("check", path),
            ("nullspace", path),
        ):
            _, out, _ = run_cli(capsys, *argv)
            lines = out.splitlines()
            assert lines[0] == "version: 2"
            hashes = [line for line in lines if line.startswith("  sha256: ")]
            assert len(hashes) == 1
            assert re.fullmatch("  sha256: [0-9a-f]{64}", hashes[0])


class TestSample:
    def test_symmetric_campaign_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--n", "3", "--bundle", "3", "--count", "50",
            "--seed", "123", "--family", "symmetric",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["all_pass"] is True
        assert doc["results"]["symmetric_count"] == 50
        assert doc["params"]["seed"] == 123
        assert doc["prng"] == "numpy-pcg64"

    def test_general_campaign_rarely_symmetric(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--n", "3", "--bundle", "3", "--count", "1000",
            "--seed", "7", "--family", "general",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["symmetric_count"] <= 10

    def test_byte_identical_reports_for_same_seed(self, capsys):
        argv = [
            "sample", "--n", "4", "--bundle", "5", "--count", "40",
            "--seed", "987654321", "--family", "general",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first.encode() == second.encode()

    @pytest.mark.parametrize(
        "golden, argv",
        [
            (
                "sample_3x3_symmetric_complex_lagrangian.json",
                ["--n", "3", "--bundle", "3", "--family", "symmetric",
                 "--ambient", "complex_lagrangian", "--c", "1"],
            ),
            (
                "sample_4x6_general_real_space_form.json",
                ["--n", "4", "--bundle", "6", "--family", "general",
                 "--ambient", "real_space_form", "--c", "-1"],
            ),
        ],
    )
    def test_golden_bytes(self, capsys, golden, argv):
        """Every field of a small campaign, including the nonzero
        max_gauss_residual that the fixed probe vectors give."""
        code, out, _ = run_cli(capsys, "sample", *argv, "--count", "5", "--seed", "11")
        assert code == 0
        assert out == (GOLDEN / golden).read_text()
        assert json.loads(out)["results"]["max_gauss_residual"] > 0.0

    @pytest.mark.parametrize(
        "shape, family", [(("3", "3"), "symmetric"), (("16", "32"), "general")]
    )
    def test_same_argv_same_bytes(self, capsys, shape, family):
        argv = [
            "sample", "--n", shape[0], "--bundle", shape[1], "--count", "12",
            "--seed", "31337", "--family", family,
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first and first.encode() == second.encode()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--c", "nan"),
            ("--c", "inf"),
            ("--ambient", "complex_slant", "--c", "1", "--theta", "nan"),
        ],
    )
    def test_non_finite_ambient_is_exit_2(self, capsys, flags):
        if flags[0] == "--c":
            flags = ("--ambient", "complex_lagrangian") + flags
        code, out, err = run_cli(
            capsys,
            "sample", "--n", "3", "--bundle", "3", "--count", "300",
            "--seed", "1", "--family", "symmetric", *flags,
        )
        assert code == 2
        assert out == ""
        field = "theta" if "--theta" in flags else "c"
        assert f"{field} must be finite" in err

    def test_overflowing_ambient_offset_is_exit_2_before_any_draw(
        self, capsys, monkeypatch
    ):
        """(n - 1) c overflows at n = 16: the campaign refuses c up front,
        naming it, instead of drawing every instance and failing in the
        writer."""

        def no_draw(*args):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(reporting, "draw_general", no_draw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys,
                "sample", "--n", "16", "--bundle", "3", "--count", "2", "--seed", "1",
                "--family", "general", "--ambient", "real_space_form", "--c", "1e308",
            )
        assert caught == []
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: c = 1e+308 ")

    def test_slant_application_bound_overflow_is_exit_2_before_any_draw(
        self, capsys, monkeypatch
    ):
        """At n = 3 the slant offset stays finite at c = 1e308 but the
        application bound's unscaled (n - 1) c does not: the campaign refuses
        c up front instead of failing in the writer."""

        def no_draw(*args):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(reporting, "draw_symmetric", no_draw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys,
                "sample", "--n", "3", "--bundle", "3", "--count", "2", "--seed", "1",
                "--family", "symmetric", "--ambient", "complex_slant",
                "--c", "1e308", "--theta", "0.5",
            )
        assert caught == []
        assert (code, out) == (2, "")
        assert err == "error: c = 1e+308 overflows the application bound at n = 3\n"

    def test_different_seeds_differ(self, capsys):
        base = [
            "sample", "--n", "4", "--bundle", "5", "--count", "10", "--family", "general",
        ]
        _, first, _ = run_cli(capsys, *base, "--seed", "1")
        _, second, _ = run_cli(capsys, *base, "--seed", "2")
        assert first != second

    def test_ambient_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--n", "4", "--bundle", "4", "--count", "30",
            "--seed", "5", "--family", "symmetric",
            "--ambient", "complex_slant", "--c", "4.0", "--theta", "0.7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["min_ambient_margin"] >= -1e-9

    def test_odd_n_proper_slant_ambient_is_exit_2(self, tmp_path, capsys):
        """A proper slant angle needs even n, whether it comes as
        `structure.theta`, as `ambient.theta` in a file or as `--theta` of a
        campaign; theta = pi/2 is the Lagrangian case and fits any n."""
        message = "proper slant angle 0.7 requires even tangent dimension, got 3\n"
        code, out, err = run_cli(
            capsys,
            "sample", "--n", "3", "--bundle", "3", "--count", "2", "--seed", "1",
            "--family", "symmetric", "--ambient", "complex_slant",
            "--c", "1", "--theta", "0.7",
        )
        assert (code, out, err) == (2, "", "error: " + message)
        path = str(tmp_path / "odd.json")
        zeta = sample_symmetric(np.random.default_rng(5), 3, 3)
        ambient = AmbientModel(AmbientKind.COMPLEX_SLANT, 1.0, 0.7)
        save_instance(Instance(zeta=zeta, ambient=ambient), path)
        code, out, err = run_cli(capsys, "report", path)
        assert (code, out, err) == (2, "", f"error: {path}: field 'ambient': " + message)
        lagrangian = AmbientModel(AmbientKind.COMPLEX_SLANT, 1.0, math.pi / 2)
        save_instance(Instance(zeta=zeta, ambient=lagrangian), path)
        code, _, err = run_cli(capsys, "report", path)
        assert (code, err) == (0, "")

    def test_improved_ambient_rejects_general_family(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sample", "--n", "3", "--bundle", "3", "--count", "5",
            "--seed", "5", "--family", "general",
            "--ambient", "complex_lagrangian", "--c", "1.0",
        )
        assert code == 2
        assert "symmetric" in err


class TestReport:
    def test_non_finite_ambient_in_file_is_exit_2(self, tmp_path, capsys):
        zeta = construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0))
        path = tmp_path / "nan.json"
        ambient = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 1.0)
        save_instance(Instance(zeta=zeta, ambient=ambient), str(path))
        path.write_text(path.read_text().replace('"c": 1.0', '"c": NaN'))
        code, out, err = run_cli(capsys, "report", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert "ambient" in err and "c must be finite" in err

    @pytest.mark.parametrize(
        "field, old, new",
        [
            ("zeta[0][1][1]", "[0.5, -1.0]]]", "[0.5, {}]]]"),
            ("ambient.c", '"c": 1.0', '"c": {}'),
            ("ambient.theta", '"theta": 0.7},', '"theta": {}}},'),
            ("structure.theta", '"theta": 0.7}}', '"theta": {}}}}}'),
        ],
    )
    def test_integer_beyond_binary64_in_file_is_exit_2(self, tmp_path, capsys, field, old, new):
        """A JSON integer of 401 digits overflows binary64; the loader names
        its field instead of crashing in the float conversion."""
        doc = {
            "version": 1, "n": 2, "bundle_dim": 1, "zeta": [[[1.0, 0.5], [0.5, -1.0]]],
            "ambient": {"kind": "complex_slant", "c": 1.0, "theta": 0.7},
            "structure": {"kind": "slant", "theta": 0.7},
        }
        text = json.dumps(doc)
        assert text.count(old) == 1
        path = tmp_path / "huge.json"
        path.write_text(text.replace(old, new.format(10**400)))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: field '{field}' is an integer too large for binary64\n"

    def test_file_that_is_not_utf8_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not valid UTF-8: invalid start byte at byte 0\n"

    def test_utf8_byte_order_mark_is_refused(self, tmp_path, capsys):
        """The standard decoder takes a BOM at the head of bytes, but the
        loader decodes the file first and refuses the BOM in the text."""
        zeta = construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0))
        path = tmp_path / "bom.json"
        save_instance(Instance(zeta=zeta), str(path))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"

    @pytest.mark.parametrize(
        "depth, shown", [(5, "[[]]"), (900, "[[[[[[[...]]]]]]]"), (2000, "[[[[[[[...]]]]]]]")]
    )
    def test_deeply_nested_zeta_is_exit_2_with_a_bounded_message(
        self, tmp_path, capsys, depth, shown
    ):
        """The refusal shows a nested entry cut short, so no depth overflows
        the stack while the message is formatted."""
        path = tmp_path / "deep.json"
        head = '{"version": 1, "n": 2, "bundle_dim": 1, "zeta": '
        path.write_text(head + "[" * depth + "]" * depth + "}")
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: field 'zeta[0][0][0]' must be a number, got {shown}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--format", "json"],
            ["report", "--format", "text"],
            ["bound", "--mode", "general"],
            ["bound", "--mode", "improved"],
            ["check"],
            ["nullspace"],
        ],
    )
    def test_overflowing_form_is_exit_2_without_warnings(self, tmp_path, capsys, argv):
        """A component of 1e300 leaves 8 n ||zeta||^2 no room in binary64:
        `construct` writes no such file, and every file command refuses a
        hand-written one at load, naming the field, before any kernel warns."""
        path = tmp_path / "big.json"
        h0 = [0.1, -0.6666666666666666, 1e300]
        too_large = "zeta is too large: 8 n ||zeta||^2 overflows binary64"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys,
                "construct", "--family", "totally-umbilical", "--n", "3",
                "--h0", ",".join(map(repr, h0)), "-o", str(path),
            )
            assert (code, out) == (2, "")
            assert err == f"error: h0: {too_large} (largest |component| 1e+300)\n"
            assert not path.exists()
            zeta = [np.diag([h] * 3).tolist() for h in h0]
            doc = {"version": 1, "n": 3, "bundle_dim": 3, "zeta": zeta}
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert caught == []
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: field 'zeta': {too_large} (largest |component| 1e+300)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--format", "json"],
            ["report", "--format", "text"],
            ["bound", "--mode", "general"],
            ["check"],
        ],
    )
    def test_overflowing_ambient_offset_in_file_is_exit_2(self, tmp_path, capsys, argv):
        """(n - 1) c overflows at n = 3 with c = 1e308: the file is refused at
        load, naming the ambient field, before any kernel warns."""
        zeta = sample_general(np.random.default_rng(3), 3, 3)
        ambient = AmbientModel(AmbientKind.REAL_SPACE_FORM, 1e308)
        path = str(tmp_path / "big_c.json")
        save_instance(Instance(zeta=zeta, ambient=ambient), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert caught == []
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "field 'ambient': c = 1e+308 " in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--format", "json"],
            ["report", "--format", "text"],
            ["bound", "--mode", "general"],
            ["check"],
        ],
    )
    def test_slant_application_bound_overflow_in_file_is_exit_2(
        self, tmp_path, capsys, argv
    ):
        """The file form of the slant overflow: refused at load, naming the
        ambient field, where `report` used to fail in the writer."""
        zeta = sample_symmetric(np.random.default_rng(5), 3, 3)
        ambient = AmbientModel(AmbientKind.COMPLEX_SLANT, 1e308, 0.5)
        path = str(tmp_path / "big_slant.json")
        save_instance(Instance(zeta=zeta, ambient=ambient), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert caught == []
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: field 'ambient': "
            "c = 1e+308 overflows the application bound at n = 3\n"
        )

    @pytest.mark.parametrize("family", ["symmetric", "general"])
    def test_total_symmetry_fields_match_the_kernel(self, tmp_path, capsys, family):
        sample = sample_symmetric if family == "symmetric" else sample_general
        zeta = sample(np.random.default_rng(21), 4, 6)
        path = str(tmp_path / "z.json")
        save_instance(Instance(zeta=zeta), path)
        _, out, _ = run_cli(capsys, "report", path, "--format", "json")
        doc = json.loads(out)
        residual = float(total_symmetry_residuals(zeta.components))
        assert doc["zeta"]["total_symmetry_residual"] == residual
        certificate = doc["relative_tolerance"] * np.sqrt(doc["zeta"]["norm_sq"])
        assert doc["zeta"]["totally_symmetric"] is bool(residual <= certificate)
        assert doc["zeta"]["totally_symmetric"] is (family == "symmetric")
        assert doc["bounds"]["improved"]["symmetry_certified"] is (family == "symmetric")

    def test_total_symmetry_fields_when_bundle_too_small(self, tmp_path, capsys):
        """m' < n: no adapted frame fits, so there is no residual and the
        improved bound is never certified."""
        zeta = sample_general(np.random.default_rng(22), 4, 3)
        path = str(tmp_path / "small.json")
        save_instance(Instance(zeta=zeta), path)
        _, out, _ = run_cli(capsys, "report", path, "--format", "json")
        doc = json.loads(out)
        assert doc["zeta"]["total_symmetry_residual"] is None
        assert doc["zeta"]["totally_symmetric"] is False
        assert doc["bounds"]["improved"]["symmetry_certified"] is False
        code, out, _ = run_cli(capsys, "bound", path, "--mode", "improved")
        assert code == 1
        assert "symmetry_certified: false" in out

    def test_ambient_verdict_is_the_campaign_margin(self, tmp_path, capsys):
        """Max Ric_T + offset lies 1.86e-9 above this complex-slant bound, of
        size 1e7, where app + tol rounds up by a whole ulp: the old test
        intrinsic <= app + tol passed it.  The margin app - (max Ric_T +
        offset) is exact there and below -tol, so ``report`` and the
        campaign pass both call it a violation."""
        mu = 1.1216980453677514
        zeta = construct_family(
            FamilyParams(Family.H_UMBILICAL, n=2, lam=3 * mu, mu=mu)
        )
        ambient = AmbientModel(
            AmbientKind.COMPLEX_SLANT, -26910743.65859768, 1.107185475467293
        )
        path = str(tmp_path / "edge.json")
        save_instance(Instance(zeta=zeta, ambient=ambient), path)
        code, out, _ = run_cli(capsys, "report", path, "--format", "json")
        doc, tol = json.loads(out), DEFAULT_TOL
        block = doc["ambient"]
        app, intrinsic = block["application_bound"], block["intrinsic_ricci_max"]
        assert -2 * tol < app - intrinsic < -tol
        assert (code, block["claim_certified"], block["holds"]) == (1, True, False)
        assert doc["failures"] == [
            f"ambient bound violated: intrinsic max {intrinsic!r} exceeds {app!r}"
        ]
        stack = gauss_bounds.evaluate(np.stack([zeta.components] * 3))
        kinds = reporting._verdicts(tol, evaluation=stack, ambient=ambient)
        assert kinds["ambient-bound"][0].tolist() == [True] * 3
        assert kinds["ambient-bound"][1][0] == app - intrinsic

    def test_json_report_round_trips_and_passes(self, tmp_path, capsys):
        zeta = construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0))
        path = str(tmp_path / "x.json")
        save_instance(Instance(zeta=zeta), path)
        code, out, _ = run_cli(capsys, "report", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bounds"]["improved"]["gap"] == 0.0
        assert doc["bounds"]["improved"]["equality_class"]["tag"] == "h-umbilical-surface"
        assert doc["corollary"]["all_verified"] is True
        assert doc["failures"] == []

    def test_text_report_mirrors_json_fields(self, tmp_path, capsys):
        zeta = construct_family(FamilyParams(Family.SLUMBILICAL, n=2, lam=1.0))
        path = str(tmp_path / "s.json")
        save_instance(Instance(zeta=zeta), path)
        _, json_out, _ = run_cli(capsys, "report", path, "--format", "json")
        _, text_out, _ = run_cli(capsys, "report", path, "--format", "text")
        doc = json.loads(json_out)

        def keys(value):
            if isinstance(value, dict):
                for k, v in value.items():
                    yield k
                    yield from keys(v)

        for key in keys(doc):
            assert f"{key}:" in text_out

    def test_report_deterministic_bytes(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        path = str(tmp_path / "r.json")
        save_instance(Instance(zeta=sample_general(rng, 3, 3)), path)
        _, first, _ = run_cli(capsys, "report", path, "--format", "json")
        _, second, _ = run_cli(capsys, "report", path, "--format", "json")
        assert first.encode() == second.encode()


class TestAmbientNeedsTwoDimensions:
    def test_sample_and_file_give_one_message(self, tmp_path, capsys):
        """`ricci_offset` is the one check of n >= 2 for an ambient model,
        so a campaign and an instance file say the same thing."""
        message = "tangent dimension must be in 2..16, got 1\n"
        code, out, err = run_cli(
            capsys,
            "sample", "--n", "1", "--bundle", "1", "--count", "2", "--seed", "1",
            "--family", "general", "--ambient", "real_space_form",
        )
        assert (code, out, err) == (2, "", "error: " + message)
        path = str(tmp_path / "n1.json")
        zeta = BundleValuedForm(np.ones((1, 1, 1)))
        save_instance(Instance(zeta, AmbientModel(AmbientKind.REAL_SPACE_FORM, 1.0)), path)
        code, out, err = run_cli(capsys, "report", path)
        assert (code, out, err) == (2, "", f"error: {path}: field 'ambient': " + message)


class TestToleranceOverride:
    def test_env_var_respected(self, tmp_path, capsys, monkeypatch):
        zeta = construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0))
        path = str(tmp_path / "x.json")
        save_instance(Instance(zeta=zeta), path)
        monkeypatch.setenv("CURVLIKE_TOL", "1e-6")
        code, out, _ = run_cli(capsys, "report", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["relative_tolerance"] == 1e-6
        assert doc["tolerance"] == 1e-6 * doc["zeta"]["norm_sq"]

    def test_report_null_space_uses_the_tolerance(self, tmp_path, capsys, monkeypatch):
        """A singular value of 1e-5 against a largest component of 2 is zero
        at tolerance 1e-3 and not at the default, for both commands."""
        comps = np.zeros((2, 3, 3))
        comps[0, 0, 0], comps[0, 1, 1], comps[1, 2, 2] = 1.0, 2.0, 1e-5
        path = str(tmp_path / "thin.json")
        save_instance(Instance(zeta=BundleValuedForm(comps)), path)
        monkeypatch.delenv("CURVLIKE_TOL", raising=False)
        for raw, dim in ((None, 0), ("1e-3", 1)):
            if raw is not None:
                monkeypatch.setenv("CURVLIKE_TOL", raw)
            _, out, _ = run_cli(capsys, "nullspace", path)
            assert f"\nbasis_dim: {dim}\n" in out
            _, out, _ = run_cli(capsys, "report", path, "--format", "json")
            assert json.loads(out)["zeta"]["null_space_dim"] == dim

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_env_var_is_exit_2(self, capsys, monkeypatch, raw):
        """NaN passes a `tol <= 0` check and used to fail in the writer."""
        monkeypatch.setenv("CURVLIKE_TOL", raw)
        code, out, err = run_cli(capsys, "lemma", "--which", "f1", "--n", "2", "--sum", "1")
        assert (code, out) == (2, "")
        assert err == f"error: CURVLIKE_TOL must be finite, got {raw!r}\n"

    def test_bad_env_var_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CURVLIKE_TOL", "banana")
        code, _, err = run_cli(capsys, "lemma", "--which", "f1", "--n", "2", "--sum", "1")
        assert code == 2
        assert "CURVLIKE_TOL" in err


@pytest.fixture
def t_builds(monkeypatch):
    """Records the tangent dimension of every n^4 Gauss tensor built, once per
    tensor of a stack, wherever a curvlike module builds one, and counts the
    calls of the Gauss residual ``gauss_probe_residuals``."""
    build = gauss_bounds.gauss_components
    probes = gauss_bounds.gauss_probe_residuals
    record = {"built": [], "gauss_probe_residuals": 0}

    def counting(components, out=None):
        tensors = build(components, out)
        n = tensors.shape[-1]
        record["built"].extend([n] * (tensors.size // n**4))
        return tensors

    def probing(*args, **kwargs):
        record["gauss_probe_residuals"] += 1
        return probes(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "curvlike":
            continue
        for attr, original, wrapper in (
            ("gauss_components", build, counting),
            ("gauss_probe_residuals", probes, probing),
        ):
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapper)
    return record


def einsum_gauss(comps):
    """T[i, j, k, l] = <zeta_il, zeta_jk> - <zeta_ik, zeta_jl> as two einsums."""
    return np.einsum("ril,rjk->ijkl", comps, comps) - np.einsum("rik,rjl->ijkl", comps, comps)


class TestGaussTensorBuilds:
    """The n^4 tensor is built only where its own residuals are reported,
    never rebuilt, and each built tensor is checked against zeta once with
    the probe kernel: once per ``check`` or ``report``, once per audited
    instance of a campaign."""

    @staticmethod
    def counts(built=(), probes=0):
        return {"built": list(built), "gauss_probe_residuals": probes}

    def test_bound_builds_none(self, tmp_path, capsys, t_builds):
        path = str(tmp_path / "g.json")
        zeta = sample_general(np.random.default_rng(5), 4, 6)
        save_instance(Instance(zeta=zeta), path)
        for mode in ("general", "improved"):
            run_cli(capsys, "bound", path, "--mode", mode)
        assert t_builds == self.counts()

    def test_report_with_ambient_builds_one(self, tmp_path, capsys, t_builds):
        zeta = construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0))
        ambient = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 1.0)
        path = str(tmp_path / "h.json")
        save_instance(Instance(zeta=zeta, ambient=ambient), path)
        code, _, _ = run_cli(capsys, "report", path, "--format", "json")
        assert code == 0
        assert t_builds == self.counts([2], probes=1)

    def test_check_builds_one_and_probes_it_once(self, tmp_path, capsys, t_builds):
        path = str(tmp_path / "g.json")
        save_instance(Instance(zeta=sample_general(np.random.default_rng(6), 4, 6)), path)
        code, _, _ = run_cli(capsys, "check", path)
        assert code == 0
        assert t_builds == self.counts([4], probes=1)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, -1e300])
    def test_sample_builds_one_per_audited_instance(self, monkeypatch, t_builds, tol):
        """A campaign builds T only for its audited instances: at the default
        tol the first one of least general gap, one per call; at tol = -1e300
        every instance has a verdict hit and is audited.  The curvature
        residuals see exactly those tensors."""
        residuals, seen = reporting.curvature_residuals, []

        def recording(tensor, scratch=None):
            seen.append(np.array(tensor))
            return residuals(tensor, scratch)

        monkeypatch.setattr(reporting, "curvature_residuals", recording)
        calls = [
            (3, 3, 6, draw_symmetric, AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 1.0)),
            (4, 5, 5, draw_general, AmbientModel(AmbientKind.REAL_SPACE_FORM, -1.0)),
        ]
        audited, built, expected = [], [], []
        for n, bundle_dim, count, draw, ambient in calls:
            family = "general" if draw is draw_general else "symmetric"
            doc, _ = reporting.run_sample(n, bundle_dim, count, 4, family, ambient, tol)
            audited.append(doc["results"]["audited"])
            built += [n] * audited[-1]
            comps = checked_components(draw(np.random.default_rng(4), n, bundle_dim, count))
            tightest = int(gauss_bounds._gaps(evaluate(comps), BoundMode.GENERAL).argmin())
            picks = [tightest] if tol == DEFAULT_TOL else range(count)
            expected += [einsum_gauss(comps[k]) for k in picks]
        assert audited == ([1, 1] if tol == DEFAULT_TOL else [6, 5])
        assert t_builds == self.counts(built, probes=len(built))
        assert len(seen) == len(expected)
        for tensor, want in zip(seen, expected):
            np.testing.assert_allclose(tensor, want, rtol=0, atol=1e-12)


@pytest.fixture
def form_kernels(monkeypatch):
    """Counts the per-form kernels wherever a curvlike module calls them:
    the Ricci form S_T, each ``eigvalsh`` and each ``eigh`` of an S_T it
    returned (by value, so a symmetrized copy counts too) and the
    total-symmetry residual.  Counts are per call, whether of
    one form or a stack."""
    ricci, symmetry = gauss_bounds.ricci_forms, gauss_bounds.total_symmetry_residuals
    counts = {"ricci_forms": 0, "eigvalsh": 0, "eigh": 0, "total_symmetry_residuals": 0}
    forms = []

    def counting_ricci(components):
        counts["ricci_forms"] += 1
        forms.append(ricci(components))
        return forms[-1]

    def counting_symmetry(components):
        counts["total_symmetry_residuals"] += 1
        return symmetry(components)

    def counting(name):
        solver = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            if any(np.shape(a) == f.shape and np.array_equal(a, f) for f in forms):
                counts[name] += 1
            return solver(a, *args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "curvlike":
            continue
        for attr, original, wrapper in (
            ("ricci_forms", ricci, counting_ricci),
            ("total_symmetry_residuals", symmetry, counting_symmetry),
        ):
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapper)
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    return counts


class TestOneEvaluationPerForm:
    """S_T, its eigvalsh and the total-symmetry residual are computed once per
    report or bound call, and once per campaign chunk.  Only a printed
    maximizing direction needs eigh: once per report or bound call, never
    in a campaign."""

    @staticmethod
    def once(times=1, directions=0):
        return {
            "ricci_forms": times,
            "eigvalsh": times,
            "eigh": directions,
            "total_symmetry_residuals": times,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--format", "json"],
            ["report", "--format", "text"],
            ["bound", "--mode", "general"],
            ["bound", "--mode", "improved"],
        ],
    )
    def test_file_ops(self, tmp_path, capsys, form_kernels, argv):
        zeta = sample_symmetric(np.random.default_rng(23), 4, 6)
        ambient = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 1.0)
        path = str(tmp_path / "s.json")
        save_instance(Instance(zeta=zeta, ambient=ambient), path)
        code, _, _ = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 0
        assert form_kernels == self.once(directions=1)

    def test_check(self, tmp_path, capsys, form_kernels):
        """``check`` prints no direction: one evaluation gives the S_T that
        the Gauss residual reads and the scale of its gates."""
        path = str(tmp_path / "g.json")
        save_instance(Instance(zeta=sample_general(np.random.default_rng(24), 4, 6)), path)
        code, _, _ = run_cli(capsys, "check", path)
        assert code == 0
        assert form_kernels == self.once()

    def test_sample_once_per_chunk(self, capsys, form_kernels):
        # (16, 32) chunks hold 8 forms: 20 instances, 3 chunks.
        code, _, _ = run_cli(
            capsys,
            "sample", "--n", "16", "--bundle", "32", "--count", "20", "--seed", "4",
            "--family", "general", "--ambient", "real_space_form", "--c", "-1",
        )
        assert code == 0
        assert form_kernels == self.once(3)
