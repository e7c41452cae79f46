"""Smoke test of the two comparison tools, each run as a script in a
subprocess from the repository root: ``tests/cli_digest.py`` prints the same
digests on two runs, and ``tests/ab_timing.py`` pairs this tree with itself
with no op whose output differs, and refuses fewer than two rounds."""

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
