"""End-to-end tests of the command-line interface."""

import json
import sys
import warnings

import numpy as np
import pytest

from curvlike import gauss_bounds
from curvlike.ambient_models import AmbientKind, AmbientModel
from curvlike.cli import main
from curvlike.gauss_bounds import ricci_form_from_zeta
from curvlike.instance_io import Instance, save_instance
from curvlike.sampling import sample_general
from curvlike.structures import Family, FamilyParams, construct_family
from curvlike.tensor_core import BundleValuedForm, zeta_norm_sq


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
        # above the absolute 1e-9 tolerance; the bound never needs that tensor.
        base = sample_general(np.random.default_rng([2, 3]), 4, 6)
        zeta = BundleValuedForm(base.components * 1e4)
        path = str(tmp_path / "big.json")
        save_instance(Instance(zeta=zeta), path)
        code, out, _ = run_cli(capsys, "bound", path, "--mode", "general")
        assert code == 0
        ricci_max = float(out.split("ricci_max: ")[1].split()[0])
        expected = np.linalg.eigvalsh(ricci_form_from_zeta(zeta)).max()
        assert abs(ricci_max - expected) <= 1e-12 * zeta_norm_sq(zeta)

    def test_missing_parameter_is_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "construct", "--family", "h-umbilical", "--n", "2",
            "--lambda", "3", "-o", str(tmp_path / "y.json"),
        )
        assert code == 2
        assert "mu" in err


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
            "sample", "--n", "3", "--bundle", "3", "--count", "30",
            "--seed", "5", "--family", "symmetric",
            "--ambient", "complex_slant", "--c", "4.0", "--theta", "0.7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["min_ambient_margin"] >= -1e-9

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
        "argv",
        [
            ["report", "--format", "json"],
            ["report", "--format", "text"],
            ["bound", "--mode", "general"],
            ["bound", "--mode", "improved"],
            ["check"],
        ],
    )
    def test_overflowing_form_is_exit_2_without_warnings(self, tmp_path, capsys, argv):
        """A component of 1e300 loads, but its squared norm overflows: the
        report is refused up front, naming zeta, before any kernel warns."""
        path = str(tmp_path / "big.json")
        code, _, _ = run_cli(
            capsys,
            "construct", "--family", "totally-umbilical", "--n", "3",
            "--h0", "0.1,-0.6666666666666666,1e300", "-o", path,
        )
        assert code == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert caught == []
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: zeta ")

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


class TestToleranceOverride:
    def test_env_var_respected(self, tmp_path, capsys, monkeypatch):
        zeta = construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0))
        path = str(tmp_path / "x.json")
        save_instance(Instance(zeta=zeta), path)
        monkeypatch.setenv("CURVLIKE_TOL", "1e-6")
        code, out, _ = run_cli(capsys, "report", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-6

    def test_bad_env_var_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CURVLIKE_TOL", "banana")
        code, _, err = run_cli(capsys, "lemma", "--which", "f1", "--n", "2", "--sum", "1")
        assert code == 2
        assert "CURVLIKE_TOL" in err


@pytest.fixture
def t_builds(monkeypatch):
    """Records the tangent dimension of every n^4 Gauss tensor built, once per
    tensor of a stack, wherever a curvlike module builds one.  The rebuild a
    Gauss residual compares against is not counted."""
    build = gauss_bounds.gauss_components
    residuals = gauss_bounds.gauss_residuals
    built = []
    in_reference = []

    def counting(components, *args, **kwargs):
        tensors = build(components, *args, **kwargs)
        if not in_reference:
            n = tensors.shape[-1]
            built.extend([n] * (tensors.size // n**4))
        return tensors

    def reference(tensors, components, *args, **kwargs):
        in_reference.append(True)
        try:
            return residuals(tensors, components, *args, **kwargs)
        finally:
            in_reference.pop()

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "curvlike":
            continue
        for attr, original, wrapper in (
            ("gauss_components", build, counting),
            ("gauss_residuals", residuals, reference),
        ):
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapper)
    return built


class TestGaussTensorBuilds:
    """The n^4 tensor is built only where its own residuals are reported."""

    def test_bound_builds_none(self, tmp_path, capsys, t_builds):
        path = str(tmp_path / "g.json")
        zeta = sample_general(np.random.default_rng(5), 4, 6)
        save_instance(Instance(zeta=zeta), path)
        for mode in ("general", "improved"):
            run_cli(capsys, "bound", path, "--mode", mode)
        assert t_builds == []

    def test_report_with_ambient_builds_one(self, tmp_path, capsys, t_builds):
        zeta = construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0))
        ambient = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 1.0)
        path = str(tmp_path / "h.json")
        save_instance(Instance(zeta=zeta, ambient=ambient), path)
        code, _, _ = run_cli(capsys, "report", path, "--format", "json")
        assert code == 0
        assert t_builds == [2]

    def test_sample_builds_one_per_instance(self, capsys, t_builds):
        run_cli(
            capsys,
            "sample", "--n", "3", "--bundle", "3", "--count", "6", "--seed", "4",
            "--family", "symmetric", "--ambient", "complex_lagrangian", "--c", "1",
        )
        run_cli(
            capsys,
            "sample", "--n", "4", "--bundle", "5", "--count", "5", "--seed", "4",
            "--family", "general", "--ambient", "real_space_form", "--c", "-1",
        )
        assert t_builds == [3] * 6 + [4] * 5
