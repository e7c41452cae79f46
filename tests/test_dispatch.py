"""``cli.main`` hands ``argv[1:]`` straight to the subparser that ``argv[0]``
names, and falls back to the full parser for anything else; it must give the
same Namespace, stdout, stderr and exit code as ``_PARSER.parse_args`` on
every argv: the benchmark's own and a table of usage errors."""

import sys
from pathlib import Path

import pytest

from curvlike import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SAMPLE = ["sample", "--n", "2", "--bundle", "2", "--count", "3", "--seed", "5"]

# name: (argv, exit code); 0 for help and for argv that parse and run.
USAGE = {
    "no arguments": ([], 2),
    "-h": (["-h"], 0),
    "--help": (["--help"], 0),
    "sample -h": (["sample", "-h"], 0),
    "check FILE -h": (["check", "f", "-h"], 0),
    "unknown command": (["frobnicate", "f"], 2),
    "abbreviated command": (["rep", "f"], 2),
    "option before the command": (["--mode", "general", "bound", "f"], 2),
    "missing --mode": (["bound", "f"], 2),
    "--mode without a value": (["bound", "f", "--mode"], 2),
    "bad --mode choice": (["bound", "f", "--mode", "best"], 2),
    "bad --family choice": ([*SAMPLE, "--family", "weird"], 2),
    "missing file": (["check"], 2),
    "extra positional": (["check", "f", "g"], 2),
    "report extra": (["report", "f", "--format", "json", "extra"], 2),
    "unknown option": (["report", "f", "--frmat", "json"], 2),
    "bad int": ([*SAMPLE[:2], "two", *SAMPLE[3:], "--family", "general"], 2),
    "--c -1.0": (
        [*SAMPLE, "--family", "general", "--ambient", "real_space_form", "--c", "-1.0"], 0
    ),
    "abbreviated --fam": ([*SAMPLE, "--fam", "symmetric"], 0),
    "lemma --sum -2.5": (["lemma", "--which", "f1", "--n", "3", "--sum", "-2.5"], 0),
    "--mode=general, no such file": (["bound", "f", "--mode=general"], 2),
    "-- before the file": (["check", "--", "f"], 2),
    "-- before the command": (["--", "check", "f"], 2),
    "-- before an option": (["report", "f", "--", "--format"], 2),
}


def outcome(argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dispatch_outcome(argv, capsys, monkeypatch) -> tuple:
    """The outcome of ``cli.main(argv)``, checked to be the full parser's."""
    try:
        full = cli._PARSER.parse_args(list(argv))
    except SystemExit:
        full = None
    capsys.readouterr()
    if full is not None:
        direct = cli.parse(list(argv))
        assert list(vars(direct).items()) == list(vars(full).items())
    dispatched = outcome(argv, capsys)
    with monkeypatch.context() as patched:
        patched.setattr(cli, "parse", cli._PARSER.parse_args)
        assert outcome(argv, capsys) == dispatched
    return dispatched


@pytest.mark.parametrize("argv, code", USAGE.values(), ids=USAGE.keys())
def test_usage_table(argv, code, capsys, monkeypatch):
    assert dispatch_outcome(argv, capsys, monkeypatch)[0] == code


def test_benchmark_argvs(tmp_path, capsys, monkeypatch):
    ops = workloads.file_round(1, tmp_path)
    for workload in workloads.CAMPAIGNS:
        ops += [workloads.campaign_op(workload, 1, 0), workloads.campaign_warmup(workload)]
    assert {op.command for op in ops} == {"report", "bound", "check", "sample"}
    for op in ops:
        assert dispatch_outcome(op.argv, capsys, monkeypatch)[0] == op.expected_exit
