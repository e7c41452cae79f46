"""Every gate must be able to fail: faults of known size injected into the
kernel that makes a gated quantity, through ``check``, ``report``, ``bound``
and a ``sample`` campaign.

A fault well above the gate tol * ||zeta||^2 flips the verdict and the exit
code at every scale; a fault of roundoff size flips nothing.  The ambient
margin is gated at tol * (||zeta||^2 + |offset|): an offset fault above it
flips the ambient verdict.
Faults are injected with monkeypatch only, into every curvlike module that
binds the kernel, and every form is seeded.
"""

import json
import re
import sys

import numpy as np
import pytest

from curvlike import ambient_models, gauss_bounds
from curvlike.ambient_models import AmbientKind, AmbientModel
from curvlike.cli import main
from curvlike.instance_io import Instance, load_instance, save_instance
from curvlike.structures import Family, FamilyParams, construct_family
from curvlike.tensor_core import BundleValuedForm, norm_sqs
from random_forms import sample_general


def metric_square(n: int) -> np.ndarray:
    """g ∧ g, the Kulkarni-Nomizu square of the Euclidean metric, in the
    index order of the Gauss tensor: 2 (delta_il delta_jk - delta_ik delta_jl).
    It has every curvature symmetry, so only the Gauss residual can see it."""
    eye = np.eye(n)
    return 2.0 * (
        np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    )


def patch_kernel(monkeypatch, name: str, faulty, owner=gauss_bounds) -> None:
    """Replace the kernel ``<owner>.<name>`` by ``faulty`` in every
    curvlike module that binds it."""
    kernel = getattr(owner, name)
    for module_name, module in list(sys.modules.items()):
        bound = getattr(module, name, None)
        if module_name.split(".")[0] == "curvlike" and bound is kernel:
            monkeypatch.setattr(module, name, faulty)


@pytest.fixture
def tensor_fault(monkeypatch):
    """Returns a setter: ``tensor_fault(add)`` makes every Gauss tensor built
    from then on go through ``add(tensor, norm_sq)``, which changes the
    tensors of a stack in place, given each form's ||zeta||^2."""
    build = gauss_bounds.gauss_components

    def set_fault(add) -> None:
        def faulty(components, out=None):
            tensor = build(components, out)
            add(tensor, norm_sqs(np.asarray(components)))
            return tensor

        patch_kernel(monkeypatch, "gauss_components", faulty)

    return set_fault


@pytest.fixture
def ricci_fault(monkeypatch):
    """Returns a setter: ``ricci_fault(size)`` makes every Ricci form computed
    from then on S_T + size * ||zeta||^2 * I, per form of a stack."""
    build = gauss_bounds.ricci_forms

    def set_size(size: float) -> None:
        def faulty(components, trace=None):
            comps = np.asarray(components)
            shift = size * norm_sqs(comps)[..., None, None]
            return build(comps, trace) + shift * np.eye(comps.shape[-1])

        patch_kernel(monkeypatch, "ricci_forms", faulty)

    return set_size


@pytest.fixture
def gauss_fault(tensor_fault):
    """Returns a setter: ``gauss_fault(size)`` makes every Gauss tensor built
    from then on T + size * ||zeta||^2 * (g ∧ g), per form of a stack."""

    def set_size(size: float) -> None:
        def add(tensor, norm_sq):
            fault = metric_square(tensor.shape[-1])
            tensor += size * norm_sq[..., None, None, None, None] * fault

        tensor_fault(add)

    return set_size


def run(capsys, *argv):
    """Exit code and report of one CLI call.  ``report`` and ``sample`` print
    JSON; of the text of ``check`` and ``bound`` the fields this file reads
    are parsed (their failures print as one unquoted list, and no message
    holds a comma)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    if argv[0] not in ("check", "bound"):
        return code, json.loads(out)
    names = "tolerance|ricci_max|skew_second_pair|gauss_residual|passed|failures"
    field = dict(re.findall(rf"^\s*({names}): (.*)$", out, re.M))
    failures = [f for f in field.pop("failures")[1:-1].split(", ") if f]
    doc = {"tolerance": float(field["tolerance"]), "failures": failures}
    if argv[0] == "bound":
        return code, {**doc, "bound": {"ricci_max": float(field["ricci_max"])}}
    keys = ("skew_second_pair", "gauss_residual", "passed")
    return code, {**doc, "symmetry": {key: json.loads(field[key]) for key in keys}}


def write_form(tmp_path, scale: float, n: int = 4, bundle_dim: int = 6) -> str:
    zeta = sample_general(np.random.default_rng(31), n, bundle_dim)
    path = str(tmp_path / "form.json")
    save_instance(Instance(zeta=BundleValuedForm(zeta.components * scale)), path)
    return path


def sample_args(n: int, bundle_dim: int) -> tuple[str, ...]:
    """A 4-instance general campaign."""
    return ("sample", "--n", str(n), "--bundle", str(bundle_dim), "--count", "4",
            "--seed", "5", "--family", "general")


SAMPLE = sample_args(4, 6)
SCALES = [1e-3, 1.0, 1e4]


class TestGaussTensorFault:
    """T + delta (g ∧ g) keeps every curvature symmetry, so only the
    independent Gauss residual catches it."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_check_and_report_fail(self, tmp_path, capsys, gauss_fault, scale):
        path = write_form(tmp_path, scale)
        gauss_fault(1e-3)
        for command in ("check", "report"):
            code, doc = run(capsys, command, path)
            symmetry = doc["symmetry"]
            assert code == 1
            assert symmetry["passed"] is True
            assert symmetry["gauss_residual"] > doc["tolerance"]
            assert [f for f in doc["failures"] if f.startswith("Gauss residual")] == [
                f"Gauss residual {symmetry['gauss_residual']!r} exceeds the tolerance"
            ]

    def test_sample_fails_on_its_audited_instance(self, capsys, gauss_fault):
        gauss_fault(1e-3)
        code, doc = run(capsys, *SAMPLE)
        results = doc["results"]
        assert code == 1
        assert results["all_pass"] is False
        assert results["audited"] == 1
        [violation] = results["violations"]
        assert violation["kind"] == "gauss"
        assert violation["detail"] == results["max_gauss_residual"]

    @pytest.mark.parametrize("scale", SCALES)
    def test_roundoff_sized_fault_flips_nothing(self, tmp_path, capsys, gauss_fault, scale):
        path = write_form(tmp_path, scale)
        clean = [run(capsys, command, path) for command in ("check", "report")]
        clean_sample = run(capsys, *SAMPLE)
        gauss_fault(1e-20)
        for command, (code, doc) in zip(("check", "report"), clean):
            faulty_code, faulty = run(capsys, command, path)
            assert (faulty_code, faulty["failures"]) == (code, doc["failures"]) == (0, [])
            assert faulty["symmetry"]["passed"] is True
        code, doc = run(capsys, *SAMPLE)
        assert code == clean_sample[0] == 0
        assert doc["results"]["violations"] == [] and doc["results"]["all_pass"] is True


SYMMETRY_FAILURE = "curvature symmetries failed on the built tensor"


def antisymmetry_fault(slab: int, size: float):
    """T(X,Y,Z,W) = -T(X,Y,W,Z) broken by size * ||zeta||^2 at the one entry
    T[slab, slab, 0, 1].  Every curvature residual that reads it, both skews
    and the Bianchi sum, does so in slab ``slab`` of T only."""

    def add(tensor, norm_sq):
        tensor[..., slab, slab, 0, 1] += size * norm_sq

    return add


# The n^4 stage reduces T in blocks of n // 2 slabs from n = 10 on: two
# blocks of 8 at n = 16, and blocks of 7, 7 and 1 at n = 15.  The fault sits
# in the first slab or in the last, so a skipped or short last block misses it.
BLOCKED = [(16, 32, 0), (16, 32, 15), (15, 30, 0), (15, 30, 14)]


class TestAntisymmetryFault:
    """One entry of T off its second-pair antisymmetry fails ``check``,
    ``report`` and a 4-instance ``sample`` on the symmetry gate, wherever
    the entry sits among the blocks the n^4 stage reduces."""

    @pytest.mark.parametrize("n, bundle_dim, slab", BLOCKED)
    def test_check_and_report_fail(self, tmp_path, capsys, tensor_fault, n, bundle_dim, slab):
        path = write_form(tmp_path, 1.0, n, bundle_dim)
        tensor_fault(antisymmetry_fault(slab, 1e-6))
        for command in ("check", "report"):
            code, doc = run(capsys, command, path)
            symmetry = doc["symmetry"]
            assert code == 1
            assert symmetry["passed"] is False
            assert symmetry["skew_second_pair"] > doc["tolerance"]
            assert SYMMETRY_FAILURE in doc["failures"]

    @pytest.mark.parametrize("n, bundle_dim, slab", BLOCKED)
    def test_sample_fails_on_its_audited_instance(self, capsys, tensor_fault, n, bundle_dim, slab):
        tensor_fault(antisymmetry_fault(slab, 1e-6))
        code, doc = run(capsys, *sample_args(n, bundle_dim))
        results = doc["results"]
        assert code == 1
        assert results["audited"] == 1
        [symmetry] = [v for v in results["violations"] if v["kind"] == "symmetry"]
        assert symmetry["detail"] == results["max_symmetry_residual"]

    @pytest.mark.parametrize("n, bundle_dim, slab", BLOCKED)
    def test_roundoff_sized_fault_flips_nothing(
        self, tmp_path, capsys, tensor_fault, n, bundle_dim, slab
    ):
        path = write_form(tmp_path, 1.0, n, bundle_dim)
        tensor_fault(antisymmetry_fault(slab, 1e-20))
        for command in ("check", "report"):
            code, doc = run(capsys, command, path)
            assert (code, doc["failures"]) == (0, [])
            assert doc["symmetry"]["passed"] is True
        code, doc = run(capsys, *sample_args(n, bundle_dim))
        assert code == 0
        assert doc["results"]["violations"] == [] and doc["results"]["all_pass"] is True


class TestRicciFormFault:
    """S_T + delta ||zeta||^2 I breaks the contraction of T that the Gauss
    probe checks, so ``check``, ``report`` and a ``sample`` campaign fail.
    ``bound`` prints no Gauss residual: it shows the fault only as a
    ``ricci_max`` moved by delta ||zeta||^2."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_check_and_report_fail(self, tmp_path, capsys, ricci_fault, scale):
        path = write_form(tmp_path, scale)
        ricci_fault(1e-3)
        for command in ("check", "report"):
            code, doc = run(capsys, command, path)
            symmetry = doc["symmetry"]
            assert code == 1
            assert symmetry["passed"] is True
            assert symmetry["gauss_residual"] > doc["tolerance"]
            assert [f for f in doc["failures"] if f.startswith("Gauss residual")] == [
                f"Gauss residual {symmetry['gauss_residual']!r} exceeds the tolerance"
            ]

    def test_sample_reports_gauss_violations(self, capsys, ricci_fault):
        ricci_fault(1e-3)
        code, doc = run(capsys, *SAMPLE)
        results = doc["results"]
        assert code == 1
        assert results["all_pass"] is False
        assert results["audited"] == 4
        assert [(v["index"], v["kind"]) for v in results["violations"]] == [
            (index, "gauss") for index in range(4)
        ]
        worst = max(v["detail"] for v in results["violations"])
        assert worst == results["max_gauss_residual"]

    @pytest.mark.parametrize("scale", SCALES)
    def test_bound_moves_ricci_max_only(self, tmp_path, capsys, ricci_fault, scale):
        path = write_form(tmp_path, scale)
        norm_sq = float(norm_sqs(load_instance(path).zeta.components))
        argv = ("bound", path, "--mode", "general")
        code, clean = run(capsys, *argv)
        ricci_fault(1e-3)
        faulty_code, faulty = run(capsys, *argv)
        assert (faulty_code, faulty["failures"]) == (code, clean["failures"]) == (0, [])
        moved = faulty["bound"]["ricci_max"] - clean["bound"]["ricci_max"]
        assert abs(moved - 1e-3 * norm_sq) <= 64 * np.finfo(float).eps * norm_sq

    @pytest.mark.parametrize("scale", SCALES)
    def test_roundoff_sized_fault_flips_nothing(self, tmp_path, capsys, ricci_fault, scale):
        path = write_form(tmp_path, scale)
        commands = [(command, path) for command in ("check", "report")]
        commands += [("bound", path, "--mode", "general"), SAMPLE]
        clean = [run(capsys, *argv) for argv in commands]
        ricci_fault(1e-20)
        for argv, (code, doc) in zip(commands, clean):
            faulty_code, faulty = run(capsys, *argv)
            assert faulty_code == code == 0
            assert faulty.get("failures", []) == doc.get("failures", []) == []
        assert faulty["results"]["violations"] == [] and faulty["results"]["all_pass"] is True


@pytest.fixture
def offset_fault(monkeypatch):
    """Returns a setter: ``offset_fault(delta)`` makes every ambient offset
    computed from then on the model's offset + delta, where ``reporting``
    adds it to max Ric_T; the application bound is its own formula, so the
    ambient margin moves by -delta."""
    offset = ambient_models.ricci_offset

    def set_delta(delta: float) -> None:
        def faulty(model, n):
            return offset(model, n) + delta

        patch_kernel(monkeypatch, "ricci_offset", faulty, owner=ambient_models)

    return set_delta


def write_h_umbilical(tmp_path) -> str:
    """The lambda = 3 mu H-umbilical surface in a complex Lagrangian
    ambient: it attains the improved bound, so its ambient margin is 0."""
    zeta = construct_family(FamilyParams(Family.H_UMBILICAL, 2, lam=3.0, mu=1.0))
    ambient = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 1.0)
    path = str(tmp_path / "h-umbilical.json")
    save_instance(Instance(zeta=zeta, ambient=ambient), path)
    return path


AMBIENT_SAMPLE = (*SAMPLE, "--ambient", "real_space_form", "--c", "-1")


class TestAmbientOffsetFault:
    """An offset moved by delta moves the intrinsic Ricci maximum and not
    the application bound, so ``report`` and a ``sample`` campaign fail on
    the ambient gate once delta exceeds the margin plus its gate."""

    def test_report_fails_at_zero_margin(self, tmp_path, capsys, offset_fault):
        path = write_h_umbilical(tmp_path)
        code, clean = run(capsys, "report", path)
        ambient = clean["ambient"]
        assert (code, clean["failures"]) == (0, [])
        assert ambient["application_bound"] - ambient["intrinsic_ricci_max"] == 0.0
        offset_fault(1e-3)
        code, doc = run(capsys, "report", path)
        ambient = doc["ambient"]
        assert code == 1
        assert ambient["holds"] is False
        assert doc["failures"] == [
            f"ambient bound violated: intrinsic max {ambient['intrinsic_ricci_max']!r} "
            f"exceeds {ambient['application_bound']!r}"
        ]

    def test_sample_reports_ambient_violations(self, capsys, offset_fault):
        code, clean = run(capsys, *AMBIENT_SAMPLE)
        margin = clean["results"]["min_ambient_margin"]
        assert code == 0 and margin > 0.0
        offset_fault(2.0 * margin)
        code, doc = run(capsys, *AMBIENT_SAMPLE)
        results = doc["results"]
        assert code == 1
        assert results["all_pass"] is False
        kinds = {violation["kind"] for violation in results["violations"]}
        assert kinds == {"ambient-bound"}
        worst = min(violation["detail"] for violation in results["violations"])
        assert worst == results["min_ambient_margin"] < 0.0

    def test_roundoff_sized_fault_flips_nothing(self, tmp_path, capsys, offset_fault):
        path = write_h_umbilical(tmp_path)
        clean = [run(capsys, "report", path), run(capsys, *AMBIENT_SAMPLE)]
        offset_fault(1e-20)
        for argv, (code, doc) in zip((("report", path), AMBIENT_SAMPLE), clean):
            faulty_code, faulty = run(capsys, *argv)
            assert faulty_code == code == 0
            assert faulty.get("failures", []) == doc.get("failures", []) == []
        assert faulty["results"]["violations"] == [] and faulty["results"]["all_pass"] is True
