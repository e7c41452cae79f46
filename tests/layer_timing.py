"""Paired in-process timing of two program trees, layer by layer.

Both trees' ``curvlike`` packages are loaded into one process as
``tests/ab_timing.py`` loads them.  At each shape (n, m') of :data:`SHAPES`
the form is ``general_form`` of ``perfbench/workloads.py`` (only read) from a
fixed seed, one form for both sides, and every layer of :func:`layer_calls`
is timed on it: each round times one sample of every (layer, shape) on A and
on B in turn, flipping which side goes first from round to round.  A sample
is a fixed number of calls, chosen once per (layer, shape) so that it lasts
about 2 ms on A.  Run it from the repository root::

    python tests/layer_timing.py PARENT_TREE/src src --rounds 15

It prints one JSON object: for each layer and shape, each side's least and
median per-call time in microseconds over the rounds, the median over rounds
of t_B / t_A and the number of rounds B won; a ratio below 1 means B is
faster.  The inputs each layer takes are built first, by the layers before it
on the same side, so both sides start from the same numbers.
"""

from __future__ import annotations

# First: ab_timing sets one BLAS thread, as the benchmark does, before numpy loads.
from ab_timing import ROOT, load_package  # isort: skip

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import orjson  # noqa: E402

SHAPES = ((2, 2), (3, 3), (4, 6), (8, 8), (16, 32))
SAMPLE_S = 2e-3


def layer_calls(pkg: str, form: np.ndarray) -> dict:
    """Name -> zero-argument call of each timed layer of the package ``pkg``
    on ``form``, in the order a file report runs them."""
    modules = sys.modules
    io, tc = modules[f"{pkg}.instance_io"], modules[f"{pkg}.tensor_core"]
    gb, ol = modules[f"{pkg}.gauss_bounds"], modules[f"{pkg}.optim_lemmas"]
    rp = modules[f"{pkg}.reporting"]
    m, n, tol = form.shape[0], form.shape[-1], tc.DEFAULT_TOL
    parsed = orjson.loads(json.dumps(form.tolist()))  # as the loader parses a file
    raw = io._zeta_array(parsed, m, n)
    zeta = tc.BundleValuedForm(raw)
    comps = zeta.components
    evaluation = gb.evaluate(comps)
    ricci, buffer = evaluation.ricci_form, gb.gauss_buffer(n)
    directions = np.eye(n + 1, n, -1)  # as the report's corollary block
    directions[0] = ol.top_eigenvector(ricci)
    doc, _ = rp.build_instance_report(io.Instance(zeta=zeta), tol)
    return {
        "_zeta_array": lambda: io._zeta_array(parsed, m, n),
        "checked_components": lambda: tc.checked_components(raw),
        "ricci_forms": lambda: gb.ricci_forms(comps),
        "top_eigenvalues": lambda: ol.top_eigenvalues(ricci),
        "check_evaluated": lambda: gb.check_evaluated(zeta, evaluation, gb.BoundMode, tol),
        "gauss_components": lambda: gb.gauss_components(comps, out=buffer),
        "_gauss_stage": lambda: rp._gauss_stage(comps, ricci, True),
        "corollary_evaluated": lambda: gb.corollary_evaluated(comps, evaluation, directions, tol),
        "dump_json": lambda: io.dump_json(doc),
        "render_text": lambda: io.render_text(doc),
    }


def sample_s(call, number: int) -> float:
    """Seconds per call over ``number`` back-to-back calls."""
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number


def paired(packages, forms, rounds: int) -> dict:
    calls = {shape: [layer_calls(pkg, forms[shape]) for pkg in packages] for shape in forms}
    names = list(calls[SHAPES[0]][0])
    numbers = {}
    for shape, (a, b) in calls.items():
        for name in names:
            sample_s(b[name], 1)  # warm both sides once
            numbers[name, shape] = max(1, round(SAMPLE_S / sample_s(a[name], 1)))
    times = {key: ([], []) for key in numbers}
    for number in range(rounds):
        order = (0, 1) if number % 2 == 0 else (1, 0)
        for (name, shape), count in numbers.items():
            for side in order:
                times[name, shape][side].append(sample_s(calls[shape][side][name], count))
    result: dict = {"rounds": rounds, "sample_ms": SAMPLE_S * 1e3, "layers": {}}
    for (name, (n, m)), (a, b) in times.items():
        ratios = [tb / ta for ta, tb in zip(a, b)]
        result["layers"].setdefault(name, {})[f"{n}x{m}"] = {
            "calls_per_sample": numbers[name, (n, m)],
            "A_us": {"min": round(min(a) * 1e6, 2), "median": round(statistics.median(a) * 1e6, 2)},
            "B_us": {"min": round(min(b) * 1e6, 2), "median": round(statistics.median(b) * 1e6, 2)},
            "B_over_A": round(statistics.median(ratios), 4),
            "rounds_B_faster": sum(r < 1 for r in ratios),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="program source tree A (holds curvlike/)")
    parser.add_argument("b", type=Path, help="program source tree B")
    parser.add_argument("--rounds", type=int, default=15, help="timed rounds, at least 1")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    packages = []
    for src, name in ((args.a, "curvlike_a"), (args.b, "curvlike_b")):
        load_package(src, name)
        for module in ("instance_io", "tensor_core", "gauss_bounds", "optim_lemmas", "reporting"):
            __import__(f"{name}.{module}")
        packages.append(name)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    forms = {
        (n, m): workloads.general_form(np.random.default_rng([args.seed, n, m]), n, m)
        for n, m in SHAPES
    }
    print(json.dumps({"seed": args.seed, **paired(packages, forms, args.rounds)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
