"""Report assembly and rendering: every report the CLI prints, and its gates.

Reports are plain nested dicts with a fixed field order, serialized through
the deterministic writer in :mod:`curvlike.instance_io`; the text rendering
mirrors the JSON field for field.  For a fixed input (and seed, for sampling
campaigns) the emitted bytes are identical across runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .ambient_models import AmbientModel, application_bounds, base_mode, ricci_offset
from .errors import ValidationError
from .gauss_bounds import (
    BoundMode,
    BoundReport,
    FormEvaluation,
    _certified,
    _gaps,
    check_evaluated,
    corollary_evaluated,
    evaluate,
    gauss_buffer,
    gauss_components,
    gauss_probe_residuals,
    ricci_probe_residuals,
)
from .instance_io import (
    SCALAR_TYPES,
    Instance,
    ambient_to_dict,
    dump_json,
    format_floats,
    format_scalar,
    instance_sha256,
    is_float_array,
    is_scalar,
    structure_to_dict,
)
from .optim_lemmas import (
    ConstrainedQuadratic,
    Objective,
    brute_force_max,
    f1_max_closed,
    f2_max_closed,
    f_value,
)
from .sampling import PRNG_NAME, draw_general, draw_symmetric
from .tensor_core import (
    BundleValuedForm,
    Dimensions,
    _symmetries_hold,
    curvature_residuals,
    null_space,
    pair_exchange_residuals,
)

TOOL_NAME = "curvlike"

LEMMA_AGREEMENT_TOL = 1e-8

# Form components a sampling campaign draws and evaluates in one stacked
# pass: eight n = 16, m' = 32 forms (512 KiB).
_CHUNK_ZETA_BYTES = 512 * 1024

_UNCERTIFIED = "not certified: form fails the total-symmetry hypothesis"


def report_envelope(kind: str) -> dict:
    """The leading {version, kind, tool} fields every report kind starts with.
    Version 2: ``instance.sha256`` hashes ζ's binary64 bytes, not its text."""
    return {"version": 2, "kind": kind, "tool": {"name": TOOL_NAME, "version": __version__}}


def _file_report(
    kind: str, instance: Instance, source: str, body: dict, failures=None
) -> tuple[dict, int]:
    """Envelope, instance block, ``body`` and ``failures`` (exit 1 if any;
    a report without the list exits 0) of every report on one instance."""
    doc = {
        **report_envelope(kind),
        "instance": {
            "source": source,
            "sha256": instance_sha256(instance),
            "n": instance.zeta.n,
            "bundle_dim": instance.zeta.m_prime,
        },
        **body,
    }
    if failures is not None:
        doc["failures"] = failures
    return doc, (1 if failures else 0)


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


def _verdicts(
    tol: float, curvature=None, gauss=None, evaluation=None, ambient=None, norm_sq=None
) -> dict[str, tuple]:
    """Every verdict on a stack of forms, decided once for ``report``,
    ``bound``, ``check`` and ``sample``: the (hit, detail) arrays of each
    violation kind in report order.  ``symmetry`` needs the tensors'
    ``curvature`` residuals, ``gauss`` their Gauss residuals, the other
    kinds the ``evaluation``; an improved-bound hit needs the certificate.
    These residuals and both gaps fail beyond tol * ||zeta||^2 (the
    ``evaluation``'s or an audited form's ``norm_sq``), with no floor, and
    the certificate is tol * ||zeta||; the ambient margin app - (max Ric_T
    + offset), exact near the bound (Sterbenz), fails below -tol *
    (||zeta||^2 + |offset|), as the offset does not scale with zeta.  Every
    verdict is invariant under zeta -> 2^k zeta, the ambient one at offset 0."""
    kinds: dict[str, tuple] = {}
    scale = evaluation.norm_sq if norm_sq is None else norm_sq
    if curvature is not None:
        worst = np.maximum.reduce(curvature)
        kinds["symmetry"] = (~_symmetries_hold(worst, tol * scale), worst)
    if gauss is not None:
        kinds["gauss"] = (gauss > tol * scale, gauss)
    if evaluation is None:
        return kinds
    gap_general = _gaps(evaluation, BoundMode.GENERAL)
    gap_improved = _gaps(evaluation, BoundMode.IMPROVED)
    certified = _certified(evaluation.symmetry_residual, evaluation.norm_sq, tol)
    kinds["general-bound"] = (gap_general < -tol * scale, gap_general)
    kinds["certification"] = (~certified, None)
    kinds["improved-bound"] = (certified & (gap_improved < -tol * scale), gap_improved)
    if ambient is not None:
        n = evaluation.ricci_form.shape[-1]
        offset = ricci_offset(ambient, n)
        intrinsic = evaluation.ricci_max + offset
        margin = application_bounds(ambient, n, evaluation.trace_norm_sq) - intrinsic
        kinds["ambient-bound"] = (margin < -tol * (scale + abs(offset)), margin)
    return kinds


def _tolerances(evaluation: FormEvaluation, tol: float) -> dict:
    """The gate tol * ||zeta||^2 that a file report prints, and tol."""
    return {"tolerance": tol * float(evaluation.norm_sq), "relative_tolerance": tol}


def _gauss_stage(form: np.ndarray, ricci_form: np.ndarray, pair_exchange: bool):
    """The n^4 stage of one form, in one :func:`gauss_buffer`: T from
    :func:`gauss_components`; its curvature residuals and, with
    ``pair_exchange``, its pair-exchange residual, each reduced in the slabs
    of G that T leaves spent; its Gauss residual
    (:func:`gauss_probe_residuals`) against zeta and S_T.  Returns
    (curvature residuals, Gauss residual, pair exchange or None)."""
    n = form.shape[-1]
    buffer = gauss_buffer(n)
    tensor, scratch = gauss_components(form, out=buffer), buffer[n:]
    residuals = curvature_residuals(tensor, scratch)
    pair = pair_exchange_residuals(tensor, scratch) if pair_exchange else None
    return residuals, gauss_probe_residuals(tensor, form, ricci_form), pair


def _symmetry_block(
    zeta: BundleValuedForm, evaluation: FormEvaluation, tol: float, ambient=None
) -> tuple[dict, dict, list[str]]:
    """:func:`_verdicts` of one form; from its :func:`_gauss_stage`, the
    curvature, pair-exchange and Gauss residuals and verdict; the failures."""
    ricci_form = evaluation.ricci_form
    residuals, gauss, pair = _gauss_stage(zeta.components, ricci_form, pair_exchange=True)
    kinds = _verdicts(tol, residuals, gauss, evaluation, ambient)
    names = ("skew_first_pair", "skew_second_pair", "first_bianchi")
    block = {
        **{name: float(r) for name, r in zip(names, residuals)},
        "pair_exchange": float(pair),
        "gauss_residual": float(gauss),
        "passed": not kinds["symmetry"][0],
    }
    failures = [] if block["passed"] else ["curvature symmetries failed on the built tensor"]
    if kinds["gauss"][0]:
        failures.append(f"Gauss residual {float(gauss)!r} exceeds the tolerance")
    return kinds, block, failures


def _zeta_block(
    zeta: BundleValuedForm, evaluation: FormEvaluation, kinds: dict, tol: float
) -> dict:
    trace_sq = float(evaluation.trace_norm_sq)
    residual = float(evaluation.symmetry_residual)
    kernel = null_space(zeta, tol)
    return {
        "norm_sq": float(evaluation.norm_sq),
        "trace": evaluation.trace,
        "trace_norm_sq": trace_sq,
        # ||H||^2 with H = trace zeta / n.
        "mean_curvature_sq": trace_sq / float(zeta.n) ** 2,
        "totally_symmetric": not kinds["certification"][0],
        # +inf marks m' < n, where the residual is undefined.
        "total_symmetry_residual": residual if math.isfinite(residual) else None,
        "null_space_dim": int(kernel.shape[0]),
        "null_space": kernel,
    }


def _ambient_block(
    model: AmbientModel, evaluation: FormEvaluation, base: BoundReport, kinds: dict
) -> tuple[dict, list[str]]:
    n = evaluation.ricci_form.shape[-1]
    offset = ricci_offset(model, n)
    app = float(application_bounds(model, n, evaluation.trace_norm_sq))
    intrinsic_max = base.ricci_max + offset
    doc = {
        **ambient_to_dict(model),
        "ricci_offset": offset,
        "application_bound": app,
        "intrinsic_ricci_max": intrinsic_max,
        "decomposition_residual": abs(app - (base.bound_value + offset)),
        "claim_certified": base.symmetry_certified,
        "holds": not kinds["ambient-bound"][0],
    }
    if not doc["claim_certified"]:
        return doc, [f"ambient claim {_UNCERTIFIED}"]
    if doc["holds"]:
        return doc, []
    return doc, [f"ambient bound violated: intrinsic max {intrinsic_max!r} exceeds {app!r}"]


def _corollary_block(
    zeta: BundleValuedForm, evaluation: FormEvaluation, argmax: np.ndarray, tol: float
) -> dict:
    """The linked statements at the printed maximizer and e_1 ... e_n, from
    one :func:`corollary_evaluated` on the report's evaluation."""
    labels = ["argmax", *(f"e{j + 1}" for j in range(zeta.n))]
    # Row 0 the maximizer, row j the basis vector e_j.
    directions = np.eye(zeta.n + 1, zeta.n, -1)
    directions[0] = argmax
    triples = corollary_evaluated(zeta.components, evaluation, directions, tol)
    fields = ("equality_at_x", "trace_zero", "in_null_space", "verified")
    columns = [getattr(triples, field).tolist() for field in fields]
    rows = [
        {"direction": label, **dict(zip(fields, row))}
        for label, *row in zip(labels, *columns)
    ]
    return {"rows": rows, "all_verified": bool(triples.verified.all())}


def build_instance_report(
    instance: Instance, tol: float, source: str = "<memory>"
) -> tuple[dict, int]:
    """Full diagnostic report for one instance; returns (report, exit code)."""
    zeta = instance.zeta
    evaluation = evaluate(zeta.components)
    kinds, symmetry, failures = _symmetry_block(zeta, evaluation, tol, instance.ambient)
    bounds = dict(zip(BoundMode, check_evaluated(zeta, evaluation, BoundMode, tol)))
    for mode in BoundMode:
        hit, gap = kinds[f"{mode.value}-bound"]
        if hit:
            failures.append(f"{mode.value} bound violated: gap {float(gap)!r}")
    body = {
        **_tolerances(evaluation, tol),
        "symmetry": symmetry,
        "zeta": _zeta_block(zeta, evaluation, kinds, tol),
        "bounds": {mode.value: bound_report_to_dict(bounds[mode]) for mode in BoundMode},
    }
    if instance.ambient is not None:
        ambient_doc, ambient_failures = _ambient_block(
            instance.ambient, evaluation, bounds[base_mode(instance.ambient)], kinds
        )
        body["ambient"] = ambient_doc
        failures.extend(ambient_failures)
    if instance.structure is not None:
        body["structure"] = structure_to_dict(instance.structure)
    body["corollary"] = _corollary_block(
        zeta, evaluation, bounds[BoundMode.GENERAL].argmax_direction, tol
    )
    if not body["corollary"]["all_verified"]:
        failures.append("corollary truth table shows exactly two statements true")
    return _file_report("instance-report", instance, source, body, failures)


def build_check_report(
    instance: Instance, tol: float, source: str = "<memory>"
) -> tuple[dict, int]:
    """Symmetry and Gauss-residual gates for one instance."""
    evaluation = evaluate(instance.zeta.components)
    _, symmetry, failures = _symmetry_block(instance.zeta, evaluation, tol)
    body = {**_tolerances(evaluation, tol), "symmetry": symmetry}
    return _file_report("check-report", instance, source, body, failures)


def build_bound_report(
    instance: Instance, mode: BoundMode, tol: float, source: str = "<memory>"
) -> tuple[dict, int]:
    """Single-mode bound evaluation; exit 1 on violation or failed certification."""
    evaluation = evaluate(instance.zeta.components)
    [report] = check_evaluated(instance.zeta, evaluation, (mode,), tol)
    hit, _ = _verdicts(tol, evaluation=evaluation)[f"{mode.value}-bound"]
    failures = [f"{mode.value} bound violated: gap {report.gap!r}"] if hit else []
    if not report.symmetry_certified:
        failures.append(f"improved bound {_UNCERTIFIED}")
    body = {**_tolerances(evaluation, tol), "bound": bound_report_to_dict(report)}
    return _file_report("bound-report", instance, source, body, failures)


def build_nullspace_report(
    instance: Instance, rank_tol: float, source: str = "<memory>"
) -> tuple[dict, int]:
    kernel = null_space(instance.zeta, rank_tol)
    body = {"rank_tol": rank_tol, "basis_dim": int(kernel.shape[0]), "basis": kernel}
    return _file_report("nullspace-report", instance, source, body)


def build_lemma_report(
    which: Objective, n: int, constraint_sum: float, point: np.ndarray | None, tol: float
) -> tuple[dict, int]:
    """Closed-form maximum of one constrained quadratic against its oracle,
    and, given a finite ``point``, its value against that maximum; exit 1 when
    the two maxima disagree or a feasible point exceeds the maximum."""
    problem = ConstrainedQuadratic(which=which, n=n, constraint_sum=constraint_sum)
    closed = (f1_max_closed if which is Objective.F1 else f2_max_closed)(n, constraint_sum)
    # The closed form's fields in order, max_value printed as "max".
    closed_doc = {"max" if k == "max_value" else k: v for k, v in vars(closed).items()}
    closed_max = closed.max_value
    oracle = brute_force_max(problem)
    agreement = abs(closed_max - oracle.max_value)
    # Each gate is relative to the size of what it judges, floored at 1.
    scale = max(1.0, abs(closed_max))
    failures = []
    if agreement > LEMMA_AGREEMENT_TOL * scale:
        failures.append(
            f"closed form and oracle disagree by {agreement!r} "
            f"(> {LEMMA_AGREEMENT_TOL * scale})"
        )
    doc = {
        **report_envelope("lemma-report"),
        "which": which.value,
        "n": n,
        "sum": constraint_sum,
        "closed_form": closed_doc,
        "oracle": {"max": oracle.max_value, "argmax": oracle.argmax},
        "agreement": agreement,
    }
    if point is not None:
        value = f_value(problem, point)
        feasibility = abs(float(point.sum()) - constraint_sum)
        feasible = feasibility <= tol * max(1.0, abs(constraint_sum))
        within = value <= closed_max + tol * scale
        doc["values"] = {
            "point": point,
            "value": value,
            "feasibility_residual": feasibility,
            "feasible": feasible,
            "within_bound": within,
        }
        if feasible and not within:
            failures.append(
                f"feasible point value {value!r} exceeds the maximum {closed_max!r}"
            )
    doc["failures"] = failures
    return doc, (1 if failures else 0)


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

    The campaign runs as array passes over chunks of instances: draw, one
    stacked :func:`evaluate`, then :func:`_verdicts`, the pass that
    ``report``, ``bound`` and ``check`` run on one form.  A draw is already
    what :func:`~curvlike.tensor_core.checked_components` would return (see
    :mod:`curvlike.sampling`), so it is evaluated as drawn, without that
    copy and its checks.  The campaign flags a gap below -tol * ||zeta||^2
    (the improved one only where a total-symmetry residual <= tol * ||zeta||
    certifies it) and an ambient margin app - (max Ric_T + offset) below
    -tol * (||zeta||^2 + |offset|), the offset checked before the first
    draw.  A chunk holds at most :data:`_CHUNK_ZETA_BYTES` of form
    components, so memory stays flat in ``count``.  Each stage allocates
    only its result, and an audit's n^4 stage one buffer
    (:func:`_gauss_stage`), 768 KiB at (16, 32): glibc then keeps enough
    freed heap from call to call that repeated calls take no minor page
    faults (``ru_minflt``), whether the last chunk is freed before the final
    audit or not.

    Every instance's S_T, which every verdict reads, is checked straight from
    zeta by :func:`ricci_probe_residuals`, at O(k m' n^2) cost.  The n^4
    Gauss tensor is built, one at a time, only for the audited set: the first
    instance of least general gap in the call, and every instance with a
    verdict hit.  Its curvature residuals (a ``symmetry`` violation) and
    :func:`gauss_probe_residuals` against zeta and S_T (with the S_T probe,
    a ``gauss`` violation) are audited, each gated at tol * ||zeta||^2.
    The set is chosen per call, so the report bytes do not depend on the
    chunk size.  ``max_gauss_residual`` is the larger of the two probe
    residuals, ``max_symmetry_residual`` the worst curvature residual over
    the audited set, and ``audited`` its size.
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
    if ambient is not None:
        if base_mode(ambient) is BoundMode.IMPROVED and family != "symmetric":
            raise ValidationError(
                f"ambient kind {ambient.kind.value!r} requires --family symmetric"
            )
        ricci_offset(ambient, n)
    rng = np.random.default_rng(seed)
    draw = draw_general if family == "general" else draw_symmetric
    chunk = max(1, _CHUNK_ZETA_BYTES // (8 * bundle_dim * n * n))
    violations: list[dict] = []
    symmetric_count = audited = 0
    # The largest Gauss and curvature residuals; the least gap or margin of a kind.
    extremes = {"gauss": 0.0, "symmetry": 0.0}
    # The audit arguments of the first least general gap so far, unless audited.
    tightest = None

    def audit(index: int, form, ricci_form, norm_sq, probed) -> None:
        nonlocal audited
        audited += 1
        residuals, gauss, _ = _gauss_stage(form, ricci_form, pair_exchange=False)
        kinds = _verdicts(tol, residuals, np.maximum(gauss, probed), norm_sq=norm_sq)
        for kind, (hit, detail) in kinds.items():
            extremes[kind] = max(extremes[kind], float(detail))
            if hit:
                violations.append({"index": index, "kind": kind, "detail": float(detail)})

    for start in range(0, count, chunk):
        comps = draw(rng, n, bundle_dim, min(chunk, count - start))
        evaluation = evaluate(comps)
        probed = ricci_probe_residuals(comps, evaluation.ricci_form)
        kinds = _verdicts(tol, gauss=probed, evaluation=evaluation, ambient=ambient)
        extremes["gauss"] = max(extremes["gauss"], float(probed.max()))
        symmetric_count += int((~kinds["certification"][0]).sum())
        if family != "symmetric":
            del kinds["certification"], kinds["improved-bound"]
        # A probe hit is audited, and reported there with its T's probe.
        probe_hits, _ = kinds.pop("gauss")
        hits = np.logical_or.reduce([probe_hits, *(hit for hit, _ in kinds.values())])
        gaps = kinds["general-bound"][1]
        k = int(gaps.argmin())
        if gaps[k] < extremes.get("general-bound", math.inf):
            # A hit is audited with its chunk below.
            args = (comps[k], evaluation.ricci_form[k], evaluation.norm_sq[k], probed[k])
            tightest = None if hits[k] else (start + k, *map(np.copy, args))
        for kind, (_, detail) in kinds.items():
            if detail is not None:
                extremes[kind] = min(extremes.get(kind, math.inf), float(detail.min()))
        for k in np.flatnonzero(hits):
            index = start + int(k)
            audit(index, comps[k], evaluation.ricci_form[k], evaluation.norm_sq[k], probed[k])
            for kind, (hit, detail) in kinds.items():
                if hit[k]:
                    value = None if detail is None else float(detail[k])
                    violations.append({"index": index, "kind": kind, "detail": value})
    if tightest is not None:
        audit(*tightest)
        # Its violations, symmetry or gauss, go to their place by index.
        violations.sort(key=lambda violation: violation["index"])
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
        "audited": audited,
        "max_gauss_residual": extremes["gauss"],
        "max_symmetry_residual": extremes["symmetry"],
        "min_gap_general": extremes.get("general-bound"),
        "min_gap_improved": extremes.get("improved-bound"),
        "min_ambient_margin": extremes.get("ambient-bound"),
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


def _inline(value) -> str | None:
    """One-line text of a scalar, a flat list or a float row; None for a
    value that nests.  Float rows go through the JSON writer's array emitter."""
    kind = type(value)
    if kind is dict:
        return None
    if kind in SCALAR_TYPES:
        return value if kind is str else format_scalar(value)
    if is_float_array(value):
        return format_floats(value) if value.ndim == 1 or not len(value) else None
    if is_scalar(value):
        return _scalar_text(value)
    if isinstance(value, dict) or not all(map(is_scalar, value)):
        return None
    return "[" + ", ".join(map(_scalar_text, value)) + "]"


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
