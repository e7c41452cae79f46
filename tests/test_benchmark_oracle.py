"""The benchmark's output checks (``perfbench/oracle.py``, read-only here)
accept the ``check``, ``bound`` and ``report`` outputs of a unit-scale form, a
form times 1e4 and the zero form.

``check_symmetry`` ties ``check``'s verdict and exit code to the residuals
and the ``tolerance`` the report prints, so this also shows that the printed
tolerance is the gate the verdicts use.  An edit to the oracle is tested
here too.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from curvlike.cli import main
from curvlike.instance_io import Instance, save_instance
from curvlike.tensor_core import BundleValuedForm

_ORACLE = Path(__file__).parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE)
oracle = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

NO_EQUALITY = ("no-equality", "no-equality")


def forms():
    """The large form's first Bianchi sum and Gauss residual exceed 1e-9 in
    roundoff, so an absolute gate would fail its ``check``."""
    rng = np.random.default_rng([2, 3])
    return [
        pytest.param(oracle.general_form(rng, 4, 6), NO_EQUALITY, id="unit"),
        pytest.param(oracle.general_form(rng, 8, 8) * 1e4, NO_EQUALITY, id="x1e4"),
        pytest.param(np.zeros((32, 16, 16)), ("zero-form", "zero-form"), id="zero"),
    ]


@pytest.mark.parametrize("zeta, tags", forms())
def test_outputs_satisfy_the_oracle(tmp_path, capsys, zeta, tags):
    path = str(tmp_path / "form.json")
    save_instance(Instance(zeta=BundleValuedForm(zeta)), path)
    ref = oracle.InstanceReference.of(zeta, tags)

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    code, out = run("check", path)
    assert (code, oracle.check_symmetry(ref, out, code)) == (0, [])
    for fmt in ("json", "text"):
        code, out = run("report", path, "--format", fmt)
        assert (code, oracle.check_bounds(ref, ["general", "improved"], out)) == (0, [])
    for mode in ("general", "improved"):
        code, out = run("bound", path, "--mode", mode)
        assert oracle.check_bounds(ref, [mode], out) == []
        # A general form is never certified for the improved bound.
        assert code == (1 if mode == "improved" and tags == NO_EQUALITY else 0)
