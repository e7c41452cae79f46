"""Benchmark of the curvlike command-line interface.

    python3 perfbench/run.py --workload files-grid --seed 1 --seconds 30 --trace 0

Drives ``curvlike.cli.main`` in-process, with stdout captured, from one
single-threaded process with BLAS pinned to one thread, on the sources under
``src/`` of the checkout it sits in.  Each operation is one CLI invocation,
run in a closed loop: the next starts when the previous one returns.  Times
and set-up times are scaled to a reference machine speed (see
``calibration.py``).

With ``--trace 0`` it reports the end-to-end metrics, measured with tracing
off.  With ``--trace 1`` it reports the per-layer metrics: every round of
operations runs untraced and then traced (see ``tracing.py``); it reports
self time and call counts per traced function, the per-subcommand latencies
of the untraced rounds, and the tracing overhead, the difference between the
two.

Every output is checked against ``oracle.py``, and op 0 of every
(file, subcommand) pair and of each campaign is replayed at the end and must
give identical bytes.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run details (the
environment, every problem found, the spans of traced runs) go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, and use the program's default tolerance.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CURVLIKE_TOL", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

import workloads  # noqa: E402
from calibration import Calibrator  # noqa: E402
from oracle import check_bounds, check_campaign, check_symmetry  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("campaign-small", "campaign-large", "files-grid")
SETUP_REPEATS = 11
MAX_PROBLEMS_KEPT = 50


@dataclass(frozen=True)
class Plan:
    """The operations of a workload: ``op(i)`` is operation i, and a round is
    the smallest block of operations that repeats the workload's mix."""

    op: Callable
    round_size: int
    instances_per_op: int
    warmup: workloads.Op  # run once in set-up; the same kind of op on every seed


class Sample(NamedTuple):
    command: str
    ns: int
    probe: int  # index of the calibration probe taken last before the op


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed ops whose output disagreed with the oracle or its replay
    failed_by_key: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def record(self, op, problems: list[str], wrong: bool) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        self.wrong += wrong
        self.failed_by_key[op.key] = self.failed_by_key.get(op.key, 0) + 1
        if len(self.problems) < MAX_PROBLEMS_KEPT:
            self.problems.append({"op": op.key, "argv": list(op.argv), "problems": problems})


def run_op(cli, op) -> tuple[int | None, str, int, str]:
    """One CLI invocation: (exit code, stdout, nanoseconds, stderr).  The exit
    code is None when the call raised instead of returning one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else None
        except Exception:  # a crash is a failed op, not the end of the run
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), elapsed, err.getvalue()


def check_op(op, code, stdout: str, stderr: str) -> tuple[list[str], bool]:
    """(problems, wrong): any problem fails the op; ``wrong`` marks a result
    the program delivered that disagrees with the oracle."""
    problems = []
    if code != op.expected_exit:
        last = stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit {code} != expected {op.expected_exit} {last[0]}".rstrip())
    wrong = []
    # The CLI prints its report whenever it exits 0 or 1, so then a missing or
    # unreadable report is a wrong result; on exit 2 it prints only an error.
    if code in (0, 1):
        if op.campaign is not None:
            wrong = check_campaign(op.campaign, stdout)
        elif op.command == "check":
            wrong = check_symmetry(op.reference, stdout, code)
        else:
            modes = ["general", "improved"] if op.command == "report" else [op.mode]
            wrong = check_bounds(op.reference, modes, stdout)
    return problems + wrong, bool(wrong)


class Runner:
    def __init__(self, cli, plan: Plan, calibrator: Calibrator) -> None:
        self.cli = cli
        self.plan = plan
        self.tally = Tally()
        self.first: dict = {}  # op key -> (index, code, stdout) of its first run
        self.tracer = None  # stamps the op id on spans while a traced round runs
        self.calibrator = calibrator

    def run(self, index: int) -> Sample:
        op = self.plan.op(index)
        probe = self.calibrator.tick()
        if self.tracer is not None:
            self.tracer.op = index
        code, stdout, elapsed, stderr = run_op(self.cli, op)
        problems, wrong = check_op(op, code, stdout, stderr)
        self.tally.record(op, problems, wrong)
        self.first.setdefault(op.key, (index, code, stdout))
        return Sample(op.command, elapsed, probe)

    def calibrated(self, samples: list[Sample]) -> list[float]:
        return [self.calibrator.scale(s.ns, s.probe) for s in samples]

    def round(self, number: int) -> list[Sample]:
        base = number * self.plan.round_size
        return [self.run(base + i) for i in range(self.plan.round_size)]

    def traced_round(self, number: int, tracer) -> list[Sample]:
        self.tracer = tracer
        tracer.install()
        try:
            return self.round(number)
        finally:
            tracer.uninstall()
            self.tracer = None

    def replay(self) -> None:
        """Run op 0 of every key again; its bytes and exit code must match."""
        for index, code, stdout in list(self.first.values()):
            op = self.plan.op(index)
            again, out, _, stderr = run_op(self.cli, op)
            problems, wrong = check_op(op, again, out, stderr)
            if (again, out) != (code, stdout):
                problems.append("replay differs from the first run")
                wrong = True
            self.tally.record(op, problems, wrong)


def for_seconds(seconds: float, step: Callable) -> list:
    """step(0), step(1), ... until the next step would end further from
    ``seconds`` of wall time than stopping now."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    if workload == "files-grid":
        ops = workloads.file_round(seed, work)
        warmup = next(op for op in ops if op.key == workloads.WARMUP_KEY)
        return Plan(lambda i: ops[i % len(ops)], len(ops), 1, warmup)
    return Plan(
        lambda i: workloads.campaign_op(workload, seed, i), 1,
        workloads.CAMPAIGN_COUNT[workload], workloads.campaign_warmup(workload),
    )


# Times the program's import inside a fresh interpreter, so that interpreter
# start-up is left out and every module the program pulls in is counted.
_IMPORT = (
    "import time; start = time.perf_counter_ns(); import curvlike.cli; "
    "print(time.perf_counter_ns() - start)"
)


def set_up(cli, workload: str, seed: int, work: Path, calibrator: Calibrator):
    """Set up SETUP_REPEATS times: import the program in a fresh interpreter,
    generate the inputs and run one warm-up op.  Returns the seconds each
    set-up took, calibrated and as measured, and the plan."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, probes, plan = [], [], None
    for _ in range(SETUP_REPEATS):
        probes.append(calibrator.tick(force=True))
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT],
            cwd=ROOT, env=env, check=True, timeout=120, capture_output=True, text=True,
        )
        start = time.perf_counter_ns()
        plan = make_plan(workload, seed, work)
        run_op(cli, plan.warmup)
        raw.append(int(child.stdout) + time.perf_counter_ns() - start)
    calibrator.tick(force=True)
    calibrated = [calibrator.scale(ns, i) / 1e9 for ns, i in zip(raw, probes)]
    return calibrated, [ns / 1e9 for ns in raw], plan


def percentile_ms(ns: list[float], q: int) -> float:
    """q-th percentile in ms; 0.0 when there are no samples."""
    if len(ns) < 2:
        return sum(ns) / 1e6
    return statistics.quantiles(ns, n=100)[q - 1] / 1e6


def latency_metrics(ns: list[float], plan: Plan) -> dict:
    return {
        "instances_per_s": (plan.instances_per_op * len(ns) * 1e9 / sum(ns), "1/s"),
        "op_ms_p50": (percentile_ms(ns, 50), "ms"),
        "op_ms_p90": (percentile_ms(ns, 90), "ms"),
    }


def command_metrics(commands: list[str], ns: list[float]) -> dict:
    metrics = {}
    for command in ("report", "bound", "check"):
        mine = [t for c, t in zip(commands, ns) if c == command]
        metrics[f"{command}_ms_p50"] = (percentile_ms(mine, 50), "ms")
        metrics[f"{command}_ms_p90"] = (percentile_ms(mine, 90), "ms")
    return metrics


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {
            v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def measure(cli, args, work: Path, calibrator: Calibrator) -> tuple[dict, Runner, dict]:
    """Set up and run one workload; returns (metrics, runner, run details)."""
    setup, setup_raw, plan = set_up(cli, args.workload, args.seed, work, calibrator)
    runner = Runner(cli, plan, calibrator)
    details: dict = {"setup_s_each": setup, "setup_s_each_uncalibrated": setup_raw}

    if not args.trace:
        samples = [s for r in for_seconds(args.seconds, runner.round) for s in r]
        ns = runner.calibrated(samples)
        metrics = {"setup_s": (statistics.median(setup), "s")}
        metrics.update(latency_metrics(ns, plan))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        details.update(
            ops_timed=len(samples),
            probe_ns_median=statistics.median(runner.calibrator.probes),
            uncalibrated=dict(
                latency_metrics([s.ns for s in samples], plan),
                setup_s=(statistics.median(setup_raw), "s"),
            ),
            commands=command_metrics([s.command for s in samples], ns),
        )
        return metrics, runner, details

    # Each round runs both untraced and traced on the same ops, so the
    # overhead compares equal work and drifts of the host's speed cancel;
    # the order alternates because a repeat of the same ops runs warmer.
    tracer = Tracer()

    def pair(p: int) -> tuple[list[Sample], list[Sample]]:
        if p % 2:
            traced = runner.traced_round(p, tracer)
            return runner.round(p), traced
        return runner.round(p), runner.traced_round(p, tracer)

    pairs = for_seconds(args.seconds, pair)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    plain = [s for p, _ in pairs for s in p]
    traced = [s for _, t in pairs for s in t]
    calibrator = runner.calibrator
    scale = calibrator.factor([calibrator.probes[i] for i in {s.probe for s in traced}])
    metrics = tracer.layer_metrics(len(traced), scale)
    metrics.update(command_metrics([s.command for s in plain], runner.calibrated(plain)))
    plain_ns = sum(runner.calibrated(plain))
    traced_ns = sum(runner.calibrated(traced))
    metrics["tracing.overhead_ms_per_op"] = ((traced_ns - plain_ns) / 1e6 / len(traced), "ms")
    metrics["tracing.overhead_pct"] = (100.0 * (traced_ns - plain_ns) / plain_ns, "%")
    counts = tracer.round_counts(plan.round_size)
    details.update(rounds=len(pairs), counts_repeat=all(c == counts[0] for c in counts))
    return metrics, runner, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "curvlike" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'curvlike'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import curvlike.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    print("environment: " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        with Calibrator(workloads.PROBE[args.workload]) as calibrator:
            metrics, runner, details = measure(cli, args, work, calibrator)
        runner.replay()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = runner.tally
    counts_repeat = details.get("counts_repeat", True)
    correct = tally.wrong == 0 and counts_repeat
    if not counts_repeat:
        print("error: count metrics differ between traced rounds", file=sys.stderr)
    for problem in tally.problems[:5]:
        print(f"problem: {json.dumps(problem)}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for name, (value, unit) in details.get("commands", {}).items():
        print(f"  {name} = {value!r} {unit}")
    for name, (value, unit) in details.get("uncalibrated", {}).items():
        print(f"  {name} (uncalibrated) = {value!r} {unit}")
    if "ops_timed" in details:
        print(f"  ops timed = {details['ops_timed']} (the percentiles' sample count)")
    print(f"  failed_ratio = {tally.failed / tally.attempted!r} ({tally.failed} of {tally.attempted} ops)")

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, environment=env, failed_by_key=tally.failed_by_key,
                  problems=tally.problems, details=details)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
