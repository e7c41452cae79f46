"""Instance file schema, validated load/save, and a deterministic JSON writer.

The standard json encoder cannot pin float formatting, so serialization is
done by a small recursive writer: dictionary keys keep insertion order and
every float is written with 17 significant digits, which round-trips binary64
exactly.  Identical data therefore always produces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ambient_models import AmbientKind, AmbientModel
from .errors import CurvlikeError, InvalidParams, ParseError, ValidationError
from .tensor_core import (
    MAX_BUNDLE_DIM,
    MAX_TANGENT_DIM,
    BundleValuedForm,
)

SCHEMA_VERSION = 1

STRUCTURE_KINDS = ("slant", "c_totally_real")


@dataclass(frozen=True)
class StructureInfo:
    """Submanifold structure marker carried by an instance file."""

    kind: str
    theta: float | None = None


@dataclass(frozen=True)
class Instance:
    """A validated instance: the form plus optional ambient/structure context."""

    zeta: BundleValuedForm
    ambient: AmbientModel | None = None
    structure: StructureInfo | None = None


def format_float(x: float) -> str:
    """Full 17-significant-digit decimal form; always a JSON float."""
    if not math.isfinite(x):
        raise ValidationError(f"non-finite number {x!r} cannot be serialized")
    s = f"{x:.17g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _write(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for idx, (key, item) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _write(item, out, indent + 1)
            out.append(",\n" if idx < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        scalars = all(
            not isinstance(item, (dict, list, tuple, np.ndarray)) for item in items
        )
        if scalars:
            out.append("[")
            for idx, item in enumerate(items):
                _write(item, out, indent)
                if idx < len(items) - 1:
                    out.append(", ")
            out.append("]")
        else:
            out.append("[\n")
            for idx, item in enumerate(items):
                out.append(pad + "  ")
                _write(item, out, indent + 1)
                out.append(",\n" if idx < len(items) - 1 else "\n")
            out.append(pad + "]")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def dump_json(value) -> str:
    """Deterministic JSON text for a nested dict/list/scalar structure."""
    out: list[str] = []
    _write(value, out, 0)
    out.append("\n")
    return "".join(out)


def ambient_to_dict(model: AmbientModel) -> dict:
    """Schema form {kind, c[, theta]} of an ambient model."""
    doc: dict = {"kind": model.kind.value, "c": model.c}
    if model.theta is not None:
        doc["theta"] = model.theta
    return doc


def structure_to_dict(structure: StructureInfo) -> dict:
    """Schema form {kind[, theta]} of a structure marker."""
    doc: dict = {"kind": structure.kind}
    if structure.theta is not None:
        doc["theta"] = structure.theta
    return doc


def instance_to_dict(instance: Instance) -> dict:
    doc: dict = {
        "version": SCHEMA_VERSION,
        "n": instance.zeta.n,
        "bundle_dim": instance.zeta.m_prime,
        "zeta": instance.zeta.components.tolist(),
    }
    if instance.ambient is not None:
        doc["ambient"] = ambient_to_dict(instance.ambient)
    if instance.structure is not None:
        doc["structure"] = structure_to_dict(instance.structure)
    return doc


def _require_int(doc: dict, field: str, low: int, high: int) -> int:
    if field not in doc:
        raise ValidationError(f"field '{field}' is required")
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"field '{field}' must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValidationError(
            f"field '{field}' must lie in {low}..{high}, got {value}"
        )
    return value


def _parse_ambient(raw) -> AmbientModel:
    if not isinstance(raw, dict):
        raise ValidationError("field 'ambient' must be an object")
    allowed = {"kind", "c", "theta"}
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"field 'ambient.{key}' is not recognized")
    kind_raw = raw.get("kind")
    kinds = {k.value: k for k in AmbientKind}
    if kind_raw not in kinds:
        raise ValidationError(
            f"field 'ambient.kind' must be one of {sorted(kinds)}, got {kind_raw!r}"
        )
    c = raw.get("c")
    if not isinstance(c, (int, float)) or isinstance(c, bool):
        raise ValidationError(f"field 'ambient.c' must be a number, got {c!r}")
    theta = raw.get("theta")
    if theta is not None and (not isinstance(theta, (int, float)) or isinstance(theta, bool)):
        raise ValidationError(f"field 'ambient.theta' must be a number, got {theta!r}")
    try:
        return AmbientModel(
            kind=kinds[kind_raw],
            c=float(c),
            theta=None if theta is None else float(theta),
        )
    except InvalidParams as exc:
        raise ValidationError(f"field 'ambient': {exc}") from exc


def _parse_structure(raw, n: int) -> StructureInfo:
    if not isinstance(raw, dict):
        raise ValidationError("field 'structure' must be an object")
    allowed = {"kind", "theta"}
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"field 'structure.{key}' is not recognized")
    kind = raw.get("kind")
    if kind not in STRUCTURE_KINDS:
        raise ValidationError(
            f"field 'structure.kind' must be one of {list(STRUCTURE_KINDS)}, got {kind!r}"
        )
    theta = raw.get("theta")
    if kind == "c_totally_real":
        if theta is not None:
            raise ValidationError("field 'structure.theta' is not valid for c_totally_real")
        return StructureInfo(kind=kind)
    if theta is None:
        raise ValidationError("field 'structure.theta' is required for slant structures")
    if not isinstance(theta, (int, float)) or isinstance(theta, bool):
        raise ValidationError(f"field 'structure.theta' must be a number, got {theta!r}")
    theta = float(theta)
    if not 0.0 < theta <= math.pi / 2:
        raise ValidationError(
            f"field 'structure.theta' must lie in (0, pi/2], got {theta!r}"
        )
    if theta < math.pi / 2 - 1e-12 and n % 2 != 0:
        raise ValidationError(
            f"field 'structure.theta': proper slant requires even n, got n = {n}"
        )
    return StructureInfo(kind=kind, theta=theta)


def instance_from_dict(doc) -> Instance:
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    allowed = {"version", "n", "bundle_dim", "zeta", "ambient", "structure"}
    for key in doc:
        if key not in allowed:
            raise ValidationError(f"field '{key}' is not recognized")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"field 'version' must be {SCHEMA_VERSION}, got {version!r}"
        )
    n = _require_int(doc, "n", 1, MAX_TANGENT_DIM)
    bundle_dim = _require_int(doc, "bundle_dim", 1, MAX_BUNDLE_DIM)
    if "zeta" not in doc:
        raise ValidationError("field 'zeta' is required")
    try:
        zeta_arr = np.asarray(doc["zeta"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"field 'zeta' is not a numeric array: {exc}") from exc
    if zeta_arr.shape != (bundle_dim, n, n):
        raise ValidationError(
            f"field 'zeta' must have shape ({bundle_dim}, {n}, {n}), "
            f"got {zeta_arr.shape}"
        )
    try:
        zeta = BundleValuedForm(zeta_arr)
    except CurvlikeError as exc:
        raise ValidationError(f"field 'zeta': {exc}") from exc

    ambient = None
    if doc.get("ambient") is not None:
        ambient = _parse_ambient(doc["ambient"])
        if n < 2:
            raise ValidationError(
                f"field 'ambient': ambient models need n >= 2, got n = {n}"
            )
    structure = None
    if doc.get("structure") is not None:
        structure = _parse_structure(doc["structure"], n)
    if (
        ambient is not None
        and structure is not None
        and ambient.theta is not None
        and structure.theta is not None
        and abs(ambient.theta - structure.theta) > 1e-12
    ):
        raise ValidationError(
            f"field 'structure.theta' = {structure.theta!r} conflicts with "
            f"'ambient.theta' = {ambient.theta!r}"
        )
    return Instance(zeta=zeta, ambient=ambient, structure=structure)


def loads_instance(text: str, source: str = "<string>") -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return instance_from_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def load_instance(path) -> Instance:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    return loads_instance(text, source=str(p))


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(dump_json(instance_to_dict(instance)))


def instance_sha256(instance: Instance) -> str:
    """Hash of the canonical serialized bytes; stable across load/save cycles."""
    return hashlib.sha256(
        dump_json(instance_to_dict(instance)).encode("utf-8")
    ).hexdigest()
