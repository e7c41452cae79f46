"""Independent correctness checks for the outputs of the CLI.

The reference Ricci extremum comes from the direct contraction

    S[i, k] = <trace zeta, zeta_ik> - sum_r (zeta_r zeta_r)[i, k]

and LAPACK's ``eigvalsh``, which shares no code with the program's n^4 tensor
build or its Jacobi solver.  Tolerances scale with ||zeta||^2, the natural
size of S: the Jacobi stopping rule bounds the eigenvalue error by
1e-12 * ||S||_F, and ||S||_F <= (sqrt(n) + 1) ||zeta||^2 <= 5 ||zeta||^2.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

import numpy as np

RELATIVE_TOL = 1e-11

_TEXT_FIELD = re.compile(r"^\s*(mode|ricci_max|gap|tag): (\S+)$", re.MULTILINE)


def general_form(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """I.i.d. standard normals symmetrized in the tangent pair."""
    raw = rng.standard_normal((m, n, n))
    return 0.5 * (raw + raw.transpose(0, 2, 1))


def symmetric_form(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """A random cubic form averaged over all six index permutations in
    bundle slots 0..n-1, zero past them: totally symmetric."""
    raw = rng.standard_normal((n, n, n))
    perms = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    cubic = raw.copy()
    for p in perms:
        cubic += raw.transpose(p)
    zeta = np.zeros((m, n, n))
    zeta[:n] = cubic / 6.0
    return zeta


def direct_ricci_form(zeta: np.ndarray) -> np.ndarray:
    trace = np.einsum("rii->r", zeta)
    s = np.einsum("r,rik->ik", trace, zeta) - np.einsum("rij,rjk->ik", zeta, zeta)
    return 0.5 * (s + s.T)


@dataclass(frozen=True)
class InstanceReference:
    """Expected bound quantities of one instance file."""

    shape: tuple[int, int]  # (n, bundle_dim)
    ricci_max: float
    bounds: dict  # mode -> bound value
    tags: dict  # mode -> expected equality tag
    tol: float

    @classmethod
    def of(cls, zeta: np.ndarray, tags: tuple[str, str]) -> "InstanceReference":
        n = zeta.shape[1]
        trace = np.einsum("rii->r", zeta)
        trace_sq = float(trace @ trace)
        return cls(
            shape=(n, zeta.shape[0]),
            ricci_max=float(np.linalg.eigvalsh(direct_ricci_form(zeta)).max()),
            bounds={"general": trace_sq / 4.0, "improved": (n - 1) / (4.0 * n) * trace_sq},
            tags={"general": tags[0], "improved": tags[1]},
            tol=RELATIVE_TOL * float((zeta**2).sum()),
        )


def _bound_records(stdout: str) -> list[dict]:
    """(mode, ricci_max, gap, tag) of every bound block, in document order,
    from a JSON instance report or a text report."""
    if stdout.startswith("{"):
        doc = json.loads(stdout)
        return [
            {
                "mode": b["mode"],
                "ricci_max": b["ricci_max"],
                "gap": b["gap"],
                "tag": b["equality_class"]["tag"],
            }
            for b in doc["bounds"].values()
        ]
    records: list[dict] = []
    for key, value in _TEXT_FIELD.findall(stdout):
        if key == "mode":
            records.append({"mode": value})
        elif records:
            records[-1][key] = value if key == "tag" else float(value)
    return records


def check_bounds(ref: InstanceReference, modes: list[str], stdout: str) -> list[str]:
    """Problems with the ricci_max, gap and equality tag of each bound block."""
    try:
        records = _bound_records(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    if [r.get("mode") for r in records] != modes:
        return [f"bound blocks {[r.get('mode') for r in records]} != {modes}"]
    problems = []
    for r in records:
        mode = r["mode"]
        if not {"ricci_max", "gap", "tag"} <= r.keys():
            problems.append(f"{mode}: missing fields in {sorted(r)}")
            continue
        if abs(r["ricci_max"] - ref.ricci_max) > ref.tol:
            problems.append(f"{mode}: ricci_max {r['ricci_max']!r} != {ref.ricci_max!r}")
        expected_gap = ref.bounds[mode] - ref.ricci_max
        if abs(r["gap"] - expected_gap) > ref.tol:
            problems.append(f"{mode}: gap {r['gap']!r} != {expected_gap!r}")
        if r["tag"] != ref.tags[mode]:
            problems.append(f"{mode}: equality tag {r['tag']} != {ref.tags[mode]}")
    return problems


# The curvature-symmetry residuals of a check report, then the Gauss residual.
_RESIDUALS = ("skew_first_pair", "skew_second_pair", "first_bianchi", "pair_exchange", "gauss_residual")
_CHECK_FIELD = re.compile(
    r"^\s*(kind|n|bundle_dim|tolerance|passed|failures|" + "|".join(_RESIDUALS) + r"): (.*)$",
    re.MULTILINE,
)


def check_symmetry(ref: InstanceReference, stdout: str, code: int) -> list[str]:
    """Problems with a text check report: it must describe this instance, every
    residual of the tensor built from an exact form must be roundoff-sized,
    and the verdict must follow from the residuals and the tolerance it
    prints and agree with the exit code."""
    fields = dict(_CHECK_FIELD.findall(stdout))
    if fields.get("kind") != "check-report":
        return [f"not a check report: {stdout[:80]!r}"]
    try:
        shape = (int(fields["n"]), int(fields["bundle_dim"]))
        tol = float(fields["tolerance"])
        residuals = {name: float(fields[name]) for name in _RESIDUALS}
        passed = {"true": True, "false": False}[fields["passed"]]
    except (KeyError, ValueError) as exc:
        return [f"unreadable check report: {exc!r}"]
    problems = []
    if shape != ref.shape:
        problems.append(f"(n, bundle_dim) {shape} != {ref.shape}")
    for name, value in residuals.items():
        if not 0.0 <= value <= ref.tol:
            problems.append(f"{name} {value!r} not within {ref.tol!r}")
    # Pair exchange follows from the other three, so a checker may test it or not.
    worst = [max(residuals[r] for r in _RESIDUALS[:k]) for k in (3, 4)]
    if (passed and worst[0] > tol) or (not passed and worst[1] <= tol):
        problems.append(f"passed: {passed} disagrees with the residuals and tolerance {tol!r}")
    clean = passed and residuals["gauss_residual"] <= tol
    if (fields.get("failures") == "[]") != clean or code != (0 if clean else 1):
        problems.append(f"failures {fields.get('failures')!r} and exit {code} disagree with the residuals")
    return problems


@dataclass(frozen=True)
class CampaignSpec:
    """A sampling campaign; ``seed`` and ``count`` fix one ``sample`` call."""

    n: int
    bundle: int
    family: str
    ambient: str
    c: float
    seed: int = 0
    count: int = 0

    def with_draw(self, seed: int, count: int) -> "CampaignSpec":
        return replace(self, seed=seed, count=count)

    def forms(self):
        """The sampled forms, drawn from the documented PCG64 stream in the
        order the campaign consumes it."""
        rng = np.random.default_rng(self.seed)
        draw = general_form if self.family == "general" else symmetric_form
        for _ in range(self.count):
            yield draw(rng, self.n, self.bundle)


def check_campaign(spec: CampaignSpec, stdout: str) -> list[str]:
    """Problems with the instance count and the minimum gaps and margins of
    a sample report, recomputed instance by instance."""
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    n = spec.n
    general, improved, norm_sq = [], [], []
    for zeta in spec.forms():
        trace = np.einsum("rii->r", zeta)
        trace_sq = float(trace @ trace)
        top = float(np.linalg.eigvalsh(direct_ricci_form(zeta)).max())
        general.append(trace_sq / 4.0 - top)
        improved.append((n - 1) / (4.0 * n) * trace_sq - top)
        norm_sq.append(float((zeta**2).sum()))
    # The ambient terms add c-sized rounding on top of the Ricci tolerance.
    tol = RELATIVE_TOL * max(norm_sq) + 1e-12 * n * (1.0 + abs(spec.c))
    margin = general if spec.ambient == "real_space_form" else improved
    expected = {
        "instances": spec.count,
        "min_gap_general": min(general),
        "min_gap_improved": min(improved) if spec.family == "symmetric" else None,
        "min_ambient_margin": min(margin),
    }
    problems = []
    for key, want in expected.items():
        got = results.get(key)
        if want is None or isinstance(want, int):
            if got != want:
                problems.append(f"{key} {got!r} != {want!r}")
        elif not isinstance(got, float) or abs(got - want) > tol:
            problems.append(f"{key} {got!r} != {want!r}")
    return problems
