"""Smoke test of the three comparison tools, each run as a script in a
subprocess from the repository root: ``tests/cli_digest.py`` prints the same
digests on two runs, ``tests/ab_timing.py`` pairs this tree with itself
with no op whose output differs, and refuses fewer than two rounds, and
``tests/layer_timing.py`` times every layer at every shape of its grid."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_tool(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"tests/{script}", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_cli_digest_is_repeatable():
    first, second = run_tool("cli_digest.py"), run_tool("cli_digest.py")
    assert first.returncode == second.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["files-grid", "campaign-small", "campaign-large"]
    assert all(re.search(r" [0-9a-f]{64}$", line) for line in lines)
    assert second.stdout == first.stdout


def test_ab_timing_pairs_a_tree_with_itself():
    done = run_tool("ab_timing.py", "src", "src", "--workload", "campaign-small",
                    "--rounds", "2", "--json")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert (result["warmup_ops_that_differ"], result["ops_per_side"]) == (0, 20)


def test_ab_timing_needs_two_rounds():
    done = run_tool("ab_timing.py", "src", "src", "--workload", "campaign-small", "--rounds", "1")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines()[-1].endswith("error: --rounds must be at least 2, got 1")


def test_layer_timing_covers_every_layer_and_shape():
    done = run_tool("layer_timing.py", "src", "src", "--rounds", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert (result["seed"], result["rounds"]) == (1, 1)
    assert list(result["layers"]) == [
        "_zeta_array", "checked_components", "ricci_forms", "top_eigenvalues",
        "check_evaluated", "gauss_components", "_gauss_stage", "corollary_evaluated",
        "dump_json", "render_text",
    ]
    for shapes in result["layers"].values():
        assert list(shapes) == ["2x2", "3x3", "4x6", "8x8", "16x32"]
        for row in shapes.values():
            assert row["calls_per_sample"] >= 1
            assert row["A_us"]["min"] > 0 and row["B_us"]["min"] > 0
