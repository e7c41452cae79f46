"""Command-line interface: argument syntax, the refusal of the CLI's own
flags and dispatch; every report and its gates are built in
:mod:`curvlike.reporting`.

Subcommands: construct, check, bound, lemma, sample, nullspace, report.
Exit codes: 0 all checks pass, 1 a bound violation or failed certification
was found (the report says which), 2 invalid input.  The default tolerance
1e-9 can be overridden through the CURVLIKE_TOL environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .ambient_models import AmbientKind, AmbientModel
from .errors import CurvlikeError
from .gauss_bounds import BoundMode
from .instance_io import Instance, StructureInfo, load_instance, save_instance
from .optim_lemmas import Objective
from .reporting import (
    build_bound_report,
    build_check_report,
    build_instance_report,
    build_lemma_report,
    build_nullspace_report,
    render_report,
    run_sample,
)
from .structures import FAMILIES, Family, FamilyParams, construct_family
from .tensor_core import DEFAULT_TOL

# S^2 and the oracle's sampled products overflow from |S| ~ 1e153 at n <= 16.
LEMMA_MAX_SUM = 1e150


def _tolerance() -> float:
    raw = os.environ.get("CURVLIKE_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise CurvlikeError(f"CURVLIKE_TOL must be a number, got {raw!r}") from exc
    if not math.isfinite(tol):
        raise CurvlikeError(f"CURVLIKE_TOL must be finite, got {raw!r}")
    if tol <= 0:
        raise CurvlikeError(f"CURVLIKE_TOL must be positive, got {tol!r}")
    return tol


def _parse_floats(raw: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in raw.split(",")])
    except ValueError as exc:
        raise CurvlikeError(f"expected comma-separated numbers, got {raw!r}") from exc


def _cmd_construct(args: argparse.Namespace, tol: float) -> int:
    family = Family(args.family)
    h0 = _parse_floats(args.h0) if args.h0 is not None else None
    params = FamilyParams(
        family=family,
        n=args.n,
        lam=args.lambda_,
        mu=args.mu,
        theta=args.theta,
        h0=h0,
    )
    zeta = construct_family(params)
    _, optional, _, marker = FAMILIES[family]
    structure = None
    if marker is not None and (args.theta is not None or "theta" not in optional):
        structure = StructureInfo(kind=marker, theta=args.theta)
    save_instance(Instance(zeta=zeta, structure=structure), args.output)
    print(f"wrote {args.output}")
    return 0


# The report of each file command, from (args, instance, tol).
_FILE_REPORTS = {
    "check": lambda a, inst, tol: build_check_report(inst, tol, a.file),
    "bound": lambda a, inst, tol: build_bound_report(inst, BoundMode(a.mode), tol, a.file),
    "nullspace": lambda a, inst, tol: build_nullspace_report(inst, tol, a.file),
    "report": lambda a, inst, tol: build_instance_report(inst, tol, a.file),
}


def _cmd_file(args: argparse.Namespace, tol: float) -> int:
    """check, bound, nullspace and report: load the file, print its report."""
    doc, code = _FILE_REPORTS[args.command](args, load_instance(args.file), tol)
    sys.stdout.write(render_report(doc, getattr(args, "format", "text")))
    return code


def _cmd_lemma(args: argparse.Namespace, tol: float) -> int:
    if not math.isfinite(args.sum):
        raise CurvlikeError(f"--sum must be finite, got {args.sum!r}")
    if abs(args.sum) > LEMMA_MAX_SUM:
        raise CurvlikeError(f"--sum must be within +-{LEMMA_MAX_SUM:g}, got {args.sum!r}")
    point = _parse_floats(args.values) if args.values is not None else None
    if point is not None and not np.isfinite(point).all():
        raise CurvlikeError(f"--values must be finite, got {args.values!r}")
    doc, code = build_lemma_report(Objective(args.which), args.n, args.sum, point, tol)
    sys.stdout.write(render_report(doc, "text"))
    return code


def _ambient_from_args(args: argparse.Namespace) -> AmbientModel | None:
    if args.ambient is None:
        if args.c is not None or args.theta is not None:
            raise CurvlikeError("--c/--theta require --ambient")
        return None
    c = args.c if args.c is not None else 0.0
    return AmbientModel(kind=AmbientKind(args.ambient), c=c, theta=args.theta)


def _cmd_sample(args: argparse.Namespace, tol: float) -> int:
    if not 0 <= args.seed < 2**64:
        raise CurvlikeError(f"seed must be an unsigned 64-bit integer, got {args.seed}")
    ambient = _ambient_from_args(args)
    doc, code = run_sample(
        n=args.n,
        bundle_dim=args.bundle,
        count=args.count,
        seed=args.seed,
        family=args.family,
        ambient=ambient,
        tol=tol,
    )
    sys.stdout.write(render_report(doc, "json"))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlike",
        description=(
            "Curvature-like tensors from bundle-valued symmetric forms: "
            "Chen-Ricci bounds, equality classification, and instance reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family and write it to a file")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--lambda", dest="lambda_", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--h0", type=str, default=None, help="comma-separated bundle vector")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="symmetry and Gauss-residual gate for a file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_file)

    p = sub.add_parser("bound", help="evaluate one Ricci bound on a file")
    p.add_argument("file")
    p.add_argument("--mode", required=True, choices=[m.value for m in BoundMode])
    p.set_defaults(func=_cmd_file)

    p = sub.add_parser("lemma", help="closed-form quadratic maxima vs the oracle")
    p.add_argument("--which", required=True, choices=[o.value for o in Objective])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--sum", required=True, type=float)
    p.add_argument("--values", type=str, default=None, help="comma-separated point")
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("sample", help="seeded sampling campaign with bound checks")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--bundle", required=True, type=int)
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--family", required=True, choices=["general", "symmetric"])
    p.add_argument("--ambient", choices=[k.value for k in AmbientKind], default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("nullspace", help="orthonormal basis of the relative null space")
    p.add_argument("file")
    p.set_defaults(func=_cmd_file)

    p = sub.add_parser("report", help="full diagnostic report for a file")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_file)

    return parser


# Built once: parsing does not change the parser.  Rebuilding it took about
# as long as a whole 150-instance n = 3 campaign (1.5 ms), and each discarded
# parser is cyclic garbage that raises peak memory until a full collection.
_PARSER = build_parser()
_COMMANDS = next(a for a in _PARSER._actions if a.dest == "command").choices


def parse(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, by handing ``argv[1:]`` straight to the
    subparser ``argv[0]`` names; leftovers and an ``argv[0]`` that names no
    command go through the full parser, so usage errors read as there."""
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else list(argv))
    try:
        tol = _tolerance()
        return args.func(args, tol)
    except CurvlikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
