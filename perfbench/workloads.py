"""Workload definitions: seeded inputs, the CLI argument lists that run them,
and what each operation is expected to produce.

Every input is generated here with numpy from the workload seed; the program
only ever sees the resulting instance files or ``sample`` arguments.  Expected
exit codes and equality tags follow from how each input was built (its
family, whether it satisfies the total-symmetry hypothesis, its ambient
model), never from anything the program prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import CampaignSpec, InstanceReference, general_form, symmetric_form

NO_EQUALITY = "no-equality"
ZERO_FORM = "zero-form"
UMBILICAL = "umbilical-surface"
H_UMBILICAL = "h-umbilical-surface"

# Instances checked by one ``sample`` call: each call is one chunk of a
# campaign, and the next call continues it with the next derived seed.  The
# fixed cost of a call (about 2.2 ms: argument parsing, set-up, the JSON
# report) is under 1% of a 150-instance call at n = 3, and would stay under
# 10% if sampling became ten times faster; at 150 a run times over a hundred
# calls, so the p90 has ten beyond it.  At n = 16 a campaign-large call of 8
# holds 8 Gauss tensors of 8 n^4 bytes, 4.2 MB, about a tenth of the
# process's memory, so a batched build that keeps a whole call's tensors at
# once shows in peak RSS; a call takes under a second.
CAMPAIGN_COUNT = {"campaign-small": 150, "campaign-large": 8}

# The calibration probe of each workload (see calibration.py): the kind of
# work its operations spend their time on.
PROBE = {"campaign-small": "interpreter", "campaign-large": "tensor", "files-grid": "mixed"}


@dataclass(frozen=True)
class Op:
    """One CLI invocation with everything needed to check its result."""

    key: str  # "<file>/<variant>" for file ops, the workload name for campaigns
    command: str  # report | bound | check | sample
    argv: tuple[str, ...]
    expected_exit: int
    mode: str | None = None  # bound mode for ``bound`` ops
    reference: InstanceReference | None = None
    campaign: CampaignSpec | None = None


# --------------------------------------------------------------------------
# files-grid


@dataclass(frozen=True)
class FileSpec:
    name: str
    zeta: np.ndarray
    totally_symmetric: bool
    tags: tuple[str, str]  # expected equality tag for (general, improved)
    ambient: dict | None = None
    structure: dict | None = None


def _rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _adapted(n: int, lam: float, mu: float, q: np.ndarray) -> np.ndarray:
    """H-umbilical pattern in the adapted frame, then rotated by the same
    orthogonal q in the tangent and the bundle, which keeps it totally
    symmetric."""
    zeta = np.zeros((n, n, n))
    zeta[0, 0, 0] = lam
    for j in range(1, n):
        zeta[0, j, j] = mu
        zeta[j, 0, j] = mu
        zeta[j, j, 0] = mu
    rotated = np.einsum("sr,ai,bj,rij->sab", q, q, q, zeta)
    return 0.5 * (rotated + rotated.transpose(0, 2, 1))


def file_specs(seed: int) -> list[FileSpec]:
    """The files-grid instances: a general and a totally symmetric random form
    at each grid point, the scaled copies, and the named families, which are
    the only inputs that reach the equality classifier's deep branches.  The
    zero form sits at (16, 32) so that the op p90 falls inside the class of
    n = 16 bound ops rather than between two classes."""
    rng = np.random.default_rng([seed, 1])
    no_eq = (NO_EQUALITY, NO_EQUALITY)
    specs = []
    for n, m in ((2, 2), (4, 6), (8, 8), (16, 32)):
        specs.append(FileSpec(f"general-{n}x{m}", general_form(rng, n, m), False, no_eq))
        specs.append(FileSpec(f"symmetric-{n}x{m}", symmetric_form(rng, n, m), True, no_eq))
    # The scaled copies share one (4, 6) general form from a fixed stream, not
    # from the seed.  Known defect: the absolute 1e-9 tolerance rejects the
    # x1e4 copy, a valid input (exit 2 on report and bound, exit 1 on check),
    # whenever roundoff leaves any curvature-symmetry residual.  About one
    # draw in five rounds to exactly zero, which would hide the defect on that
    # seed and change the count metrics with it, so the stream is one whose
    # draw leaves a residual (3e-8).  The copy stays in the set so the defect
    # counts as failed operations until the tolerances scale with the data.
    base = general_form(np.random.default_rng([2, 3]), 4, 6)
    specs.append(FileSpec("general-4x6-x1e-3", base * 1e-3, False, no_eq))
    specs.append(FileSpec("general-4x6-x1e4", base * 1e4, False, no_eq))

    specs.append(FileSpec("zero-16x32", np.zeros((32, 16, 16)), True, (ZERO_FORM, ZERO_FORM)))
    specs.append(FileSpec("geodesic-16x16", np.zeros((16, 16, 16)), True, (ZERO_FORM, ZERO_FORM)))

    h0 = rng.standard_normal(3)
    umbilical = np.zeros((3, 2, 2))
    umbilical[:, 0, 0] = h0
    umbilical[:, 1, 1] = h0
    specs.append(FileSpec("umbilical-2x3", umbilical, False, (UMBILICAL, NO_EQUALITY)))

    mu = 0.5 + rng.random()
    specs.append(
        FileSpec(
            "h-umbilical-2x2",
            _adapted(2, 3.0 * mu, mu, _rotation(rng, 2)),
            True,
            (NO_EQUALITY, H_UMBILICAL),
            ambient={"kind": "complex_lagrangian", "c": float(rng.uniform(-2.0, 2.0))},
        )
    )
    lam, mu = 0.5 + rng.random(2)
    theta = float(rng.uniform(0.2, 1.3))
    specs.append(
        FileSpec(
            "h-slumbilical-4x4",
            _adapted(4, lam, mu, _rotation(rng, 4)),
            True,
            no_eq,
            ambient={"kind": "complex_slant", "c": float(rng.uniform(-2.0, 2.0)), "theta": theta},
            structure={"kind": "slant", "theta": theta},
        )
    )
    return specs


def write_instance(spec: FileSpec, directory: Path) -> Path:
    m, n, _ = spec.zeta.shape
    doc: dict = {"version": 1, "n": n, "bundle_dim": m, "zeta": spec.zeta.tolist()}
    if spec.ambient is not None:
        doc["ambient"] = spec.ambient
    if spec.structure is not None:
        doc["structure"] = spec.structure
    path = directory / f"{spec.name}.json"
    # repr floats round-trip binary64, so the program reads exactly spec.zeta.
    path.write_text(json.dumps(doc))
    return path


# Set-up warms up on this op whatever the seed, so set-up time does not
# depend on which op the seeded order puts first.
WARMUP_KEY = "general-2x2/report-json"


def file_round(seed: int, directory: Path) -> list[Op]:
    """One round of files-grid: every file with all five file operations, in
    a seeded order."""
    ops = []
    for spec in file_specs(seed):
        path = str(write_instance(spec, directory))
        ref = InstanceReference.of(spec.zeta, spec.tags)
        improved_exit = 0 if spec.totally_symmetric else 1
        ops += [
            Op(f"{spec.name}/report-json", "report", ("report", path, "--format", "json"), 0, reference=ref),
            Op(f"{spec.name}/report-text", "report", ("report", path, "--format", "text"), 0, reference=ref),
            Op(f"{spec.name}/bound-general", "bound", ("bound", path, "--mode", "general"), 0, "general", ref),
            Op(f"{spec.name}/bound-improved", "bound", ("bound", path, "--mode", "improved"), improved_exit, "improved", ref),
            Op(f"{spec.name}/check", "check", ("check", path), 0, reference=ref),
        ]
    order = np.random.default_rng([seed, 2]).permutation(len(ops))
    return [ops[i] for i in order]


# --------------------------------------------------------------------------
# campaigns

# campaign-small spends its time on per-instance Python overhead, sampling,
# form validation and a 3x3 Jacobi, and never reaches the n^4 kernel: the
# workload for batching.  campaign-large spends about 100 ms per instance on
# the n^4 T build, symmetry validation and a 16x16 Jacobi, on the general-only
# path, so a batched pass that costs time or memory at size shows there.
CAMPAIGNS = {
    "campaign-small": CampaignSpec(n=3, bundle=3, family="symmetric", ambient="complex_lagrangian", c=1.0),
    "campaign-large": CampaignSpec(n=16, bundle=32, family="general", ambient="real_space_form", c=-1.0),
}


def campaign_op(workload: str, seed: int, index: int, count: int | None = None) -> Op:
    """Operation ``index`` of a campaign; its sample seed is derived from the
    workload seed plus the index, so no two operations repeat work."""
    spec = CAMPAIGNS[workload]
    count = CAMPAIGN_COUNT[workload] if count is None else count
    sample_seed = (seed * 1_000_003 + index) % 2**63
    argv = (
        "sample", "--n", str(spec.n), "--bundle", str(spec.bundle),
        "--count", str(count), "--seed", str(sample_seed),
        "--family", spec.family, "--ambient", spec.ambient, "--c", repr(spec.c),
    )
    # Every sampled instance satisfies its bounds, so the campaign passes.
    return Op(workload, "sample", argv, 0, campaign=spec.with_draw(sample_seed, count))



def campaign_warmup(workload: str) -> Op:
    """Set-up's warm-up: one call of the campaign's kind with a single
    instance and a fixed seed, so set-up time does not depend on the seed
    and stays small beside the run."""
    return campaign_op(workload, 0, 0, count=1)
