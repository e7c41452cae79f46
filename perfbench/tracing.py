"""Span tracing of the program's layers from outside the program.

:meth:`Tracer.install` replaces each traced function with a wrapper in every
``curvlike`` module namespace that binds its name (``build_T_from_zeta`` is
bound in ``gauss_bounds``, ``reporting`` and ``ambient_models``, for example),
so calls are seen whichever module makes them.  Spans hold the name, start,
end, parent span and operation id; they stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

# (module, function) pairs, named as the metrics name them.
TARGETS = (
    ("cli", "main"),
    ("instance_io", "load_instance"),
    ("instance_io", "dump_json"),
    ("instance_io", "instance_sha256"),
    ("reporting", "build_instance_report"),
    ("reporting", "build_bound_report"),
    ("reporting", "build_check_report"),
    ("reporting", "run_sample"),
    ("reporting", "render_text"),
    ("sampling", "sample_general"),
    ("sampling", "sample_symmetric"),
    ("tensor_core", "BundleValuedForm.__init__"),
    ("tensor_core", "validate_curvature_symmetries"),
    ("tensor_core", "t_ricci_form"),
    ("tensor_core", "null_space"),
    ("tensor_core", "rotate_frame"),
    ("gauss_bounds", "build_T_from_zeta"),
    ("gauss_bounds", "verify_gauss"),
    ("gauss_bounds", "is_totally_symmetric"),
    ("gauss_bounds", "check_bound"),
    ("gauss_bounds", "classify_all_equality"),
    ("gauss_bounds", "corollary_triple"),
    ("optim_lemmas", "jacobi_eigh"),
    ("optim_lemmas", "max_ricci"),
    ("ambient_models", "application_bound"),
    ("ambient_models", "ricci_offset"),
)
NAMES = tuple(f"{module}.{function}" for module, function in TARGETS)

BUILD_T = "gauss_bounds.build_T_from_zeta"
CLASSIFY = "gauss_bounds.classify_all_equality"
RICCI_FORM = "tensor_core.t_ricci_form"

# Per-span values recorded for the count metrics: the bytes of the n^4 tensor
# a T build computes (8 n^4, computed from n, not measured), and whether an
# equality verdict is something other than no-equality.
_MEASURES = {
    BUILD_T: lambda args, result: 8 * args[0].n ** 4,
    CLASSIFY: lambda args, result: int(result.tag.value != "no-equality"),
}

NAME, START, END, PARENT, OP, VALUE, ERROR = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1  # id stamped on new spans; the caller sets it per operation
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        measure = _MEASURES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[VALUE] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; one the program no longer has is
        skipped and reads as never called."""
        modules = [
            m for key, m in sys.modules.items()
            if key == "curvlike" or key.startswith("curvlike.")
        ]
        for (module, function), name in zip(TARGETS, NAMES):
            home = sys.modules.get(f"curvlike.{module}")
            if "." in function:
                owner_name, attr = function.split(".")
                owner = getattr(home, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is not None:
                    setattr(owner, attr, self._wrap(name, original))
                    self._undo.append((owner, attr, original))
                continue
            original = getattr(home, function, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, function, None) is original:
                    setattr(mod, function, wrapper)
                    self._undo.append((mod, function, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self, op_count: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-op metrics over all spans of ``op_count`` operations; self
        times are multiplied by ``scale`` (the speed calibration)."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls, self_ns, values, errors = Counter(), Counter(), Counter(), Counter()
        for span, covered in zip(self.spans, child):
            name = span[NAME]
            calls[name] += 1
            self_ns[name] += span[END] - span[START] - covered
            values[name] += span[VALUE]
            errors[name] += span[ERROR]
        metrics: dict[str, tuple[float, str]] = {}
        for name in NAMES:
            metrics[f"{name}.calls_per_op"] = (calls[name] / op_count, "count")
            metrics[f"{name}.self_ms_per_op"] = (self_ns[name] * scale / 1e6 / op_count, "ms")
        metrics[f"{BUILD_T}.bytes_per_op"] = (values[BUILD_T] / op_count, "B_computed")
        metrics[f"{CLASSIFY}.equality_ratio"] = (
            values[CLASSIFY] / calls[CLASSIFY] if calls[CLASSIFY] else 0.0, "ratio"
        )
        metrics[f"{RICCI_FORM}.errors_per_op"] = (errors[RICCI_FORM] / op_count, "count")
        return metrics

    def round_counts(self, round_size: int) -> list[Counter]:
        """Exact calls, values and errors per function, for each round of
        ``round_size`` operations: the counts behind the count metrics."""
        rounds: dict[int, Counter] = {}
        for span in self.spans:
            counts = rounds.setdefault(span[OP] // round_size, Counter())
            counts["calls", span[NAME]] += 1
            counts["value", span[NAME]] += span[VALUE]
            counts["errors", span[NAME]] += span[ERROR]
        return [rounds[r] for r in sorted(rounds)]

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, after a header line naming the fields."""
        with gzip.open(path, "wt") as f:
            f.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op", "value", "error"]) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
