"""Paired in-process timing of two program trees over the benchmark's ops.

Both trees' ``curvlike`` packages are loaded into one process under distinct
package names (``curvlike_a`` and ``curvlike_b``; the package imports only
relatively), and every op of the chosen workload runs once on each side,
alternating A and B op by op.  Each round flips which side runs first, so
neither side always runs on the warmer cache.  The ops are the benchmark's
own, from ``perfbench/workloads.py`` of this tree, which is only read: a
files-grid round is one ``file_round`` of the seed, a campaign round is ten
consecutive ``sample`` calls.  Run it from the repository root::

    python tests/ab_timing.py PARENT_TREE/src src --workload files-grid --rounds 30

It prints each side's p50, p90 and mean op time, the median of the per-op
log(t_B / t_A) with its quartiles, and the quartiles of each round's median
log ratio with the number of rounds B won; a negative ratio means B is faster.  A
warm-up round is not timed, and the ops whose exit code or output differ
between A and B in it are counted.  ``--json`` prints one JSON object
instead.  The pairing resolves per-op changes of a percent or two, below
the spread of separate benchmark runs; it does not replace them.
"""

from __future__ import annotations

import os

# As the benchmark does: one BLAS thread and the program's default tolerance.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CURVLIKE_TOL", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CAMPAIGN_CALLS_PER_ROUND = 10


def load_package(src: Path, name: str):
    """The ``curvlike`` package under ``src``, imported as the package ``name``."""
    package = src.resolve() / "curvlike"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_main(src: Path, name: str):
    """``cli.main`` of the ``curvlike`` package under ``src``, imported as the
    package ``name``."""
    load_package(src, name)
    return importlib.import_module(f"{name}.cli").main


def run_op(main, argv) -> tuple[int, tuple]:
    """(nanoseconds, (exit code, stdout, stderr)) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter_ns() - start
    return elapsed, (code, out.getvalue(), err.getvalue())


def round_ops(workloads, workload: str, seed: int):
    """The argv of every op of round ``number``, as a function of ``number``:
    files-grid repeats the seed's one round, as the benchmark does."""
    if workload == "files-grid":
        grid = [op.argv for op in workloads.file_round(seed, Path("files"))]
        return lambda number: grid
    calls = CAMPAIGN_CALLS_PER_ROUND
    return lambda number: [
        workloads.campaign_op(workload, seed, index).argv
        for index in range(number * calls, (number + 1) * calls)
    ]


def percentile_ms(ns: list[int], q: int) -> float:
    return statistics.quantiles(ns, n=100)[q - 1] / 1e6


def summary(times: list[int]) -> dict:
    return {
        "p50_ms": round(percentile_ms(times, 50), 4),
        "p90_ms": round(percentile_ms(times, 90), 4),
        "mean_ms": round(statistics.fmean(times) / 1e6, 4),
    }


def paired(mains, workloads, workload: str, seed: int, rounds: int) -> dict:
    """Time ``rounds`` rounds of ops on both sides, after an untimed warm-up
    round (round -1, so a campaign times none of its calls twice)."""
    ops = round_ops(workloads, workload, seed)
    differ = sum(run_op(mains[0], argv)[1] != run_op(mains[1], argv)[1] for argv in ops(-1))
    times: tuple[list[int], list[int]] = ([], [])
    round_medians = []
    for number in range(rounds):
        order = (0, 1) if number % 2 == 0 else (1, 0)
        start = len(times[0])
        for argv in ops(number):
            for side in order:
                times[side].append(run_op(mains[side], argv)[0])
        round_medians.append(statistics.median(
            math.log(b / a) for a, b in zip(times[0][start:], times[1][start:])
        ))
    logs = [math.log(b / a) for a, b in zip(*times)]
    low, median, high = statistics.quantiles(logs, n=4)
    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "ops_per_side": len(logs),
        "warmup_ops_that_differ": differ,
        "A": summary(times[0]),
        "B": summary(times[1]),
        "log_ratio_B_over_A": {
            "median": round(median, 5),
            "quartiles": [round(low, 5), round(high, 5)],
            "round_median_quartiles": [
                round(q, 5) for q in statistics.quantiles(round_medians, n=4)
            ],
            "rounds_B_faster": sum(m < 0 for m in round_medians),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="program source tree A (holds curvlike/)")
    parser.add_argument("b", type=Path, help="program source tree B")
    parser.add_argument(
        "--workload", default="files-grid",
        choices=["files-grid", "campaign-small", "campaign-large"],
    )
    parser.add_argument("--rounds", type=int, default=30, help="timed rounds, at least 2")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    if args.rounds < 2:  # the quartiles of the round medians need two
        parser.error(f"--rounds must be at least 2, got {args.rounds}")
    mains = (load_main(args.a, "curvlike_a"), load_main(args.b, "curvlike_b"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("files").mkdir()
            result = paired(mains, workloads, args.workload, args.seed, args.rounds)
        finally:
            os.chdir(home)
    if args.json:
        print(json.dumps(result))
        return 0
    print(f"{args.workload}: {args.rounds} rounds, {result['ops_per_side']} ops per side, "
          f"{result['warmup_ops_that_differ']} warm-up ops differ")
    for side in ("A", "B"):
        s = result[side]
        print(f"  {side}  p50 {s['p50_ms']:.4f} ms  p90 {s['p90_ms']:.4f} ms  "
              f"mean {s['mean_ms']:.4f} ms")
    ratio = result["log_ratio_B_over_A"]
    low, high = ratio["quartiles"]
    print(f"  per-op log(B/A): median {ratio['median']:+.4f}, quartiles {low:+.4f} .. {high:+.4f}")
    r_low, r_mid, r_high = ratio["round_median_quartiles"]
    print(f"  round medians: {r_low:+.4f} / {r_mid:+.4f} / {r_high:+.4f} (quartiles), "
          f"B faster in {ratio['rounds_B_faster']} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
