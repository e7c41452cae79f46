"""Report assembly and rendering for the CLI.

Reports are plain nested dicts with a fixed field order, serialized through
the deterministic writer in :mod:`curvlike.instance_io`; the text rendering
mirrors the JSON field for field.  For a fixed input (and seed, for sampling
campaigns) the emitted bytes are identical across runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .ambient_models import (
    AmbientModel,
    application_bound,
    application_bounds,
    base_mode,
    mean_curvature_sq,
    ricci_offset,
)
from .errors import BundleTooSmall, ValidationError
from .gauss_bounds import (
    BoundMode,
    BoundReport,
    bound_coefficient,
    build_T_from_zeta,
    check_bound,
    corollary_triple,
    gauss_components,
    gauss_residuals,
    is_totally_symmetric,
    ricci_forms,
    total_symmetry_residuals,
    verify_gauss,
)
from .instance_io import (
    Instance,
    ambient_to_dict,
    dump_json,
    format_floats,
    format_scalar,
    instance_sha256,
    is_float_array,
    structure_to_dict,
)
from .sampling import PRNG_NAME, draw_general, draw_symmetric
from .tensor_core import (
    BundleValuedForm,
    Dimensions,
    checked_components,
    curvature_residuals,
    null_space,
    pair_exchange_residual,
    trace_norm_sq,
    trace_norms_sq,
    trace_zeta,
    validate_curvature_symmetries,
    zeta_norm_sq,
)

TOOL_NAME = "curvlike"

# Gauss tensors a sampling campaign holds at once: one n = 16 tensor.
_CHUNK_T_BYTES = 8 * 16**4


def _require_headroom(zeta: BundleValuedForm) -> None:
    """Reject a form too large for the reports' arithmetic in binary64.

    |T| <= 2 ||zeta||^2, so a curvature residual (a sum of at most three
    entries of T) stays below 6 ||zeta||^2; ||trace zeta||^2 <= n ||zeta||^2,
    and an entry of S_T + S_T^T stays below 2 (sqrt(n) + 1) ||zeta||^2.  So
    8 n ||zeta||^2 bounds every quantity the reports derive, and the form is
    accepted when that is finite.  ||zeta||^2 is computed on the form scaled
    by its largest component, so the check itself cannot overflow.
    """
    scale = zeta.max_abs()
    if scale == 0.0:
        return
    unit_norm_sq = float(np.square(zeta.components / scale).sum())
    if scale > math.sqrt(np.finfo(float).max / (8 * zeta.n * unit_norm_sq)):
        raise ValidationError(
            f"zeta is too large: 8 n ||zeta||^2 overflows binary64 "
            f"(largest |component| {scale!r})"
        )


def report_envelope(kind: str) -> dict:
    """The leading {version, kind, tool} fields every report kind starts with."""
    return {
        "version": 1,
        "kind": kind,
        "tool": {"name": TOOL_NAME, "version": __version__},
    }


def _instance_block(instance: Instance, source: str) -> dict:
    return {
        "source": source,
        "sha256": instance_sha256(instance),
        "n": instance.zeta.n,
        "bundle_dim": instance.zeta.m_prime,
    }


def equality_class_to_dict(eq) -> dict:
    doc: dict = {"tag": eq.tag.value, "mu": eq.mu}
    if eq.tangent_frame is not None:
        doc["tangent_frame"] = eq.tangent_frame
    if eq.bundle_frame is not None:
        doc["bundle_frame"] = eq.bundle_frame
    return doc


def bound_report_to_dict(report: BoundReport) -> dict:
    return {
        "mode": report.mode.value,
        "bound_value": report.bound_value,
        "ricci_max": report.ricci_max,
        "argmax_direction": report.argmax_direction,
        "gap": report.gap,
        "symmetry_certified": report.symmetry_certified,
        "equality_class": equality_class_to_dict(report.equality_class),
    }


def _symmetry_block(zeta: BundleValuedForm, tol: float) -> dict:
    """Residuals of the built T.  Its Gram matrix and one scratch tensor are
    allocated once and shared by the build, the residuals and the rebuild."""
    n = zeta.n
    gram = np.empty((n * n, n * n))
    scratch = np.empty((n, n, n, n))
    tensor = build_T_from_zeta(zeta, gram)
    report = validate_curvature_symmetries(tensor, tol, scratch)
    return {
        "skew_first_pair": report.skew_first_pair,
        "skew_second_pair": report.skew_second_pair,
        "first_bianchi": report.first_bianchi,
        "pair_exchange": pair_exchange_residual(tensor, scratch),
        "gauss_residual": verify_gauss(tensor, zeta, scratch, gram),
        "passed": report.passed,
    }


def _zeta_block(zeta: BundleValuedForm, tol: float) -> dict:
    try:
        symmetric, residual = is_totally_symmetric(zeta, tol)
        residual_field: float | None = residual
    except BundleTooSmall:
        symmetric, residual_field = False, None
    kernel = null_space(zeta)
    return {
        "norm_sq": zeta_norm_sq(zeta),
        "trace": trace_zeta(zeta),
        "trace_norm_sq": trace_norm_sq(zeta),
        "mean_curvature_sq": mean_curvature_sq(zeta),
        "totally_symmetric": symmetric,
        "total_symmetry_residual": residual_field,
        "null_space_dim": int(kernel.shape[0]),
        "null_space": kernel,
    }


def _ambient_block(
    model: AmbientModel,
    zeta: BundleValuedForm,
    general: BoundReport,
    improved: BoundReport,
    tol: float,
) -> tuple[dict, list[str]]:
    base = general if base_mode(model) is BoundMode.GENERAL else improved
    offset = ricci_offset(model, zeta.n)
    app = application_bound(model, zeta)
    intrinsic_max = base.ricci_max + offset
    certified = base.symmetry_certified
    holds = intrinsic_max <= app + tol
    doc = {
        **ambient_to_dict(model),
        "ricci_offset": offset,
        "application_bound": app,
        "intrinsic_ricci_max": intrinsic_max,
        "decomposition_residual": abs(app - (base.bound_value + offset)),
        "claim_certified": certified,
        "holds": holds,
    }
    failures: list[str] = []
    if certified and not holds:
        failures.append(
            f"ambient bound violated: intrinsic max {intrinsic_max!r} exceeds "
            f"{app!r}"
        )
    if not certified:
        failures.append(
            "ambient claim not certified: form fails the total-symmetry hypothesis"
        )
    return doc, failures


def _corollary_block(zeta: BundleValuedForm, argmax: np.ndarray, tol: float) -> dict:
    labels = ["argmax", *(f"e{j + 1}" for j in range(zeta.n))]
    triples = corollary_triple(zeta, np.vstack([argmax, np.eye(zeta.n)]), tol)
    columns = (
        triples.equality_at_x.tolist(),
        triples.trace_zero.tolist(),
        triples.in_null_space.tolist(),
        triples.verified.tolist(),
    )
    rows = [
        {
            "direction": label,
            "equality_at_x": equality,
            "trace_zero": trace_zero,
            "in_null_space": in_null,
            "verified": verified,
        }
        for label, equality, trace_zero, in_null, verified in zip(labels, *columns)
    ]
    return {"rows": rows, "all_verified": bool(triples.verified.all())}


def build_instance_report(
    instance: Instance, tol: float, source: str = "<memory>"
) -> tuple[dict, int]:
    """Full diagnostic report for one instance; returns (report, exit code)."""
    zeta = instance.zeta
    _require_headroom(zeta)
    failures: list[str] = []
    symmetry = _symmetry_block(zeta, tol)
    if not symmetry["passed"]:
        failures.append("curvature symmetries failed on the built tensor")
    general = check_bound(zeta, BoundMode.GENERAL, tol)
    improved = check_bound(zeta, BoundMode.IMPROVED, tol)
    if general.gap < -tol:
        failures.append(f"general bound violated: gap {general.gap!r}")
    if improved.symmetry_certified and improved.gap < -tol:
        failures.append(f"improved bound violated: gap {improved.gap!r}")
    doc = {
        **report_envelope("instance-report"),
        "instance": _instance_block(instance, source),
        "tolerance": tol,
        "symmetry": symmetry,
        "zeta": _zeta_block(zeta, tol),
        "bounds": {
            "general": bound_report_to_dict(general),
            "improved": bound_report_to_dict(improved),
        },
    }
    if instance.ambient is not None:
        ambient_doc, ambient_failures = _ambient_block(
            instance.ambient, zeta, general, improved, tol
        )
        doc["ambient"] = ambient_doc
        failures.extend(ambient_failures)
    if instance.structure is not None:
        doc["structure"] = structure_to_dict(instance.structure)
    doc["corollary"] = _corollary_block(zeta, general.argmax_direction, tol)
    if not doc["corollary"]["all_verified"]:
        failures.append("corollary truth table shows exactly two statements true")
    doc["failures"] = failures
    return doc, (1 if failures else 0)


def build_check_report(
    instance: Instance, tol: float, source: str = "<memory>"
) -> tuple[dict, int]:
    """Symmetry and Gauss-residual gate for one instance."""
    _require_headroom(instance.zeta)
    symmetry = _symmetry_block(instance.zeta, tol)
    failures = []
    if not symmetry["passed"]:
        failures.append("curvature symmetries failed on the built tensor")
    if symmetry["gauss_residual"] > tol:
        failures.append(
            f"Gauss residual {symmetry['gauss_residual']!r} exceeds tol"
        )
    doc = {
        **report_envelope("check-report"),
        "instance": _instance_block(instance, source),
        "tolerance": tol,
        "symmetry": symmetry,
        "failures": failures,
    }
    return doc, (1 if failures else 0)


def build_bound_report(
    instance: Instance, mode: BoundMode, tol: float, source: str = "<memory>"
) -> tuple[dict, int]:
    """Single-mode bound evaluation; exit 1 on violation or failed certification."""
    _require_headroom(instance.zeta)
    report = check_bound(instance.zeta, mode, tol)
    failures = []
    if report.gap < -tol:
        failures.append(f"{mode.value} bound violated: gap {report.gap!r}")
    if mode is BoundMode.IMPROVED and not report.symmetry_certified:
        failures.append(
            "improved bound not certified: form fails the total-symmetry hypothesis"
        )
    doc = {
        **report_envelope("bound-report"),
        "instance": _instance_block(instance, source),
        "tolerance": tol,
        "bound": bound_report_to_dict(report),
        "failures": failures,
    }
    return doc, (1 if failures else 0)


def build_nullspace_report(
    instance: Instance, rank_tol: float, source: str = "<memory>"
) -> tuple[dict, int]:
    kernel = null_space(instance.zeta, rank_tol)
    doc = {
        **report_envelope("nullspace-report"),
        "instance": _instance_block(instance, source),
        "rank_tol": rank_tol,
        "basis_dim": int(kernel.shape[0]),
        "basis": kernel,
    }
    return doc, 0


def run_sample(
    n: int,
    bundle_dim: int,
    count: int,
    seed: int,
    family: str,
    ambient: AmbientModel | None,
    tol: float,
) -> tuple[dict, int]:
    """Seeded sampling campaign; aggregation order is fixed by instance index.

    The campaign runs as array passes over chunks of instances: draw, form
    checks, the n^4 stage (Gauss tensors, their curvature-symmetry residuals
    and Gauss residuals), total-symmetry certificates, Ricci forms and their
    stacked eigenvalues, then gaps, ambient margins and violations.  Every
    kernel is the one the per-form functions use, and a chunk holds at most
    :data:`_CHUNK_T_BYTES` of Gauss tensors, so the report bytes do not
    depend on the chunk size and memory stays flat in ``count``.  The n^4
    stage writes into one workspace allocated per call (Gram matrices,
    tensors and a scratch stack, each sized to one chunk), so chunks after
    the first allocate no n^4 memory.
    """
    if family not in ("general", "symmetric"):
        raise ValidationError(f"family must be 'general' or 'symmetric', got {family!r}")
    if count < 0:
        raise ValidationError(f"count must be non-negative, got {count}")
    Dimensions(n=n, m_prime=bundle_dim)
    if family == "symmetric" and bundle_dim < n:
        raise ValidationError(
            f"symmetric sampling needs bundle_dim >= n, got {bundle_dim} < {n}"
        )
    if (
        ambient is not None
        and base_mode(ambient) is BoundMode.IMPROVED
        and family != "symmetric"
    ):
        raise ValidationError(
            f"ambient kind {ambient.kind.value!r} requires --family symmetric"
        )
    rng = np.random.default_rng(seed)
    draw = draw_general if family == "general" else draw_symmetric
    chunk = max(1, _CHUNK_T_BYTES // (8 * n**4))
    workspace = min(chunk, count)
    gram_work = np.empty((workspace, n * n, n * n))
    tensor_work = np.empty((workspace, n, n, n, n))
    scratch_work = np.empty_like(tensor_work)
    violations: list[dict] = []
    symmetric_count = 0
    max_gauss = 0.0
    max_symmetry = 0.0
    min_gap_general = float("inf")
    min_gap_improved = float("inf")
    min_ambient_margin = float("inf")
    for start in range(0, count, chunk):
        batch = min(chunk, count - start)
        comps = checked_components(draw(rng, n, bundle_dim, batch))
        gram, scratch = gram_work[:batch], scratch_work[:batch]
        tensors = gauss_components(comps, tensor_work[:batch], gram)
        symmetry = np.maximum.reduce(curvature_residuals(tensors, scratch))
        max_symmetry = max(max_symmetry, float(symmetry.max()))
        gauss = gauss_residuals(tensors, comps, scratch, gram)
        max_gauss = max(max_gauss, float(gauss.max()))
        if bundle_dim >= n:
            symmetric = total_symmetry_residuals(comps) <= tol
        else:
            symmetric = np.zeros(len(comps), dtype=bool)
        symmetric_count += int(symmetric.sum())
        ricci_max = np.linalg.eigh(ricci_forms(comps))[0].max(axis=-1)
        trace_sq = trace_norms_sq(comps)
        gap_general = bound_coefficient(BoundMode.GENERAL, n) * trace_sq - ricci_max
        min_gap_general = min(min_gap_general, float(gap_general.min()))
        kinds = [
            ("symmetry", ~(symmetry <= tol), symmetry),
            ("general-bound", gap_general < -tol, gap_general),
        ]
        if family == "symmetric":
            coefficient = bound_coefficient(BoundMode.IMPROVED, n)
            gap_improved = coefficient * trace_sq - ricci_max
            min_gap_improved = min(min_gap_improved, float(gap_improved.min()))
            kinds.append(("certification", ~symmetric, None))
            kinds.append(
                ("improved-bound", symmetric & (gap_improved < -tol), gap_improved)
            )
        if ambient is not None:
            offset = ricci_offset(ambient, n)
            margin = application_bounds(ambient, n, trace_sq) - (ricci_max + offset)
            min_ambient_margin = min(min_ambient_margin, float(margin.min()))
            kinds.append(("ambient-bound", margin < -tol, margin))
        for k in np.flatnonzero(np.logical_or.reduce([hit for _, hit, _ in kinds])):
            violations.extend(
                {
                    "index": start + int(k),
                    "kind": kind,
                    "detail": None if detail is None else float(detail[k]),
                }
                for kind, hit, detail in kinds
                if hit[k]
            )
    params: dict = {
        "n": n,
        "bundle_dim": bundle_dim,
        "count": count,
        "seed": seed,
        "family": family,
    }
    if ambient is not None:
        params["ambient"] = ambient_to_dict(ambient)
    results: dict = {
        "instances": count,
        "symmetric_count": symmetric_count,
        "max_gauss_residual": max_gauss,
        "max_symmetry_residual": max_symmetry,
        "min_gap_general": None if count == 0 else min_gap_general,
        "min_gap_improved": (
            None if family != "symmetric" or count == 0 else min_gap_improved
        ),
        "min_ambient_margin": (
            None if ambient is None or count == 0 else min_ambient_margin
        ),
        "violations": violations,
        "all_pass": not violations,
    }
    doc = {
        **report_envelope("sample-report"),
        "prng": PRNG_NAME,
        "tolerance": tol,
        "params": params,
        "results": results,
    }
    return doc, (0 if not violations else 1)


def _scalar_text(value) -> str:
    return value if isinstance(value, str) else format_scalar(value)


def _is_scalar(value) -> bool:
    return not isinstance(value, (dict, list, tuple, np.ndarray))


def _inline(value) -> str | None:
    """One-line text of a scalar, a flat list or a float row; None for a
    value that nests.  Float rows go through the JSON writer's array emitter."""
    if is_float_array(value):
        return format_floats(value) if value.ndim == 1 or not len(value) else None
    if _is_scalar(value):
        return _scalar_text(value)
    if isinstance(value, dict) or not all(_is_scalar(x) for x in value):
        return None
    return "[" + ", ".join(_scalar_text(x) for x in value) + "]"


def _render(value, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if isinstance(value, dict):
        entries = [(f"{pad}{key}:", item) for key, item in value.items()]
    else:
        entries = [(f"{pad}-", item) for item in value]
    for head, item in entries:
        text = _inline(item)
        if text is None:
            lines.append(head)
            _render(item, depth + 1, lines)
        else:
            lines.append(f"{head} {text}")


def render_text(doc: dict) -> str:
    """Line-oriented rendering that mirrors the JSON report field for field."""
    lines: list[str] = []
    _render(doc, 0, lines)
    return "\n".join(lines) + "\n"


def render_report(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return dump_json(doc)
    if fmt == "text":
        return render_text(doc)
    raise ValidationError(f"format must be 'json' or 'text', got {fmt!r}")
