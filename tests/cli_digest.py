"""Digest of the benchmark's operations: one sha256 per workload over the exit
code, stdout and stderr of every op, run through ``curvlike.cli.main`` in
process.

The ops are the benchmark's own, from ``perfbench/workloads.py``: the
files-grid rounds of seeds 1-4 and 10 calls of each campaign on seed 1.
Two trees that print the same digests gave byte-identical results on every
one of those ops.  Run it from the repository root::

    python tests/cli_digest.py                        # this tree's program
    python tests/cli_digest.py --src OTHER_TREE/src   # another tree's program

The workload definitions always come from this tree; ``--src`` picks the
program they run.
"""

from __future__ import annotations

import os

# As the benchmark does: one BLAS thread and the program's default tolerance.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CURVLIKE_TOL", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FILE_SEEDS = (1, 2, 3, 4)
CAMPAIGN_SEED = 1
CAMPAIGN_CALLS = 10


def run_op(main, argv) -> bytes:
    """Exit code, stdout and stderr of one call, as one length-prefixed record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    record = b""
    for part in (repr(code), out.getvalue(), err.getvalue()):
        data = part.encode("utf-8")
        record += len(data).to_bytes(8, "little") + data
    return record


def digests(main, workloads) -> dict[str, tuple[int, str]]:
    """(op count, sha256) per workload.  Instance files are written under a
    relative directory, so the paths the reports print do not depend on
    where the temporary directory is."""
    result = {}
    files = hashlib.sha256()
    count = 0
    for seed in FILE_SEEDS:
        for op in workloads.file_round(seed, Path("files")):
            files.update(run_op(main, op.argv))
            count += 1
    result["files-grid"] = (count, files.hexdigest())
    for workload in workloads.CAMPAIGNS:
        digest = hashlib.sha256()
        for index in range(CAMPAIGN_CALLS):
            digest.update(run_op(main, workloads.campaign_op(workload, CAMPAIGN_SEED, index).argv))
        result[workload] = (CAMPAIGN_CALLS, digest.hexdigest())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="program source tree")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import workloads
    from curvlike.cli import main as cli_main

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("files").mkdir()
            for workload, (count, digest) in digests(cli_main, workloads).items():
                print(f"{workload}  {count:4d} ops  {digest}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
