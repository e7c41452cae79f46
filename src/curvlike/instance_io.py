"""Instance file schema, validated load/save, and a deterministic JSON writer.

The standard json encoder cannot pin float formatting, so serialization is
done by a small recursive writer: dictionary keys keep insertion order and
every float is written with 17 significant digits, which round-trips binary64
exactly.  Identical data therefore always produces identical bytes.

Float arrays (ζ's components, report vectors and frames) are passed to the
writer as ndarrays and go through one array emitter, :func:`format_floats`.
A 1-D array of at most :data:`SHORT_ROW` floats (a report's directions,
traces and frame rows) is joined float by float, since a row that short does
not repay the array pass.  Any other array is formatted in that pass: it
checks finiteness once, builds the whole nested layout as one ``%``
template with a format code per element, and fills it from
``arr.ravel().tolist()`` in a single ``%`` call.  The text is the same as
formatting each float on its own with ``%.17g`` and appending ``.0`` when the
result reads as an integer.  A non-integral float never needs the ``.0``,
because 17 digits round-trip, so its ``%.17g`` text cannot read as an integer.
An integral float below 1e17 is written by ``%.17g`` as its exact digits, which
is what ``%.1f`` gives minus the ``.0`` (``-0.0`` included).  From 1e17 up,
``%.17g`` uses an exponent and needs no suffix.  So the emitter picks ``%.1f``
for the integral values below 1e17 and ``%.17g`` for all others, and every
saved instance and report stays byte-identical to the one-float-at-a-time
writer that the tests keep as their oracle.  Scalars and dictionary keys are
dispatched on their exact type first.  Each str key is quoted once per
process, through a bounded cache: an ASCII identifier as it is, any other
key through ``json.dumps``.

:func:`instance_sha256` hashes the header text and ζ's binary64 bytes, not
ζ's text: on a general (16, 32) form, formatting takes about 3.7 ms and
hashing about 0.05 ms (timeit minima, 2-core x86_64, October 2026).

Instance text is parsed by ``orjson``: a general (16, 32) file takes 0.35 ms
against 2.2 ms with the standard ``json`` decoder (timeit minima, 2-core
x86_64, October 2026).  orjson rounds every number, integers beyond 64 bits
included, to the nearest binary64 as ``float()`` does, so ζ comes out bit for
bit as the standard decoder gives it; ``tests/test_json_decoder.py`` checks this.
orjson refuses ``NaN``, ``Infinity``, a byte order mark and any number
beyond binary64, all of which the standard decoder reads.  A refusal,
orjson's or the schema's, is worded by reading the text again with the
standard decoder and validating that document, so every message reads as it
did with the standard decoder alone; a text orjson refuses is never loaded.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .ambient_models import AmbientKind, AmbientModel, build_slant_structure, ricci_offset
from .errors import CurvlikeError, ValidationError
from .tensor_core import BundleValuedForm, check_bundle_dim, check_tangent_dim

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


# Integral floats below this magnitude are written by "%.17g" as their exact
# integer digits, with no exponent; "%.1f" writes the same digits plus ".0".
_FIXED_LIMIT = 1e17

# The longest row that :func:`format_floats` joins float by float: the array
# pass has a fixed cost that a short row does not repay.  Timeit minima on a
# 2-core x86_64 host, array pass against float by float: 12.8 against 3.6 us
# at 2 floats, 17.3 against 12.7 us at 16 and 23.1 against 24.0 us at 32.
SHORT_ROW = 24


def _non_finite(x: float) -> ValidationError:
    return ValidationError(f"non-finite number {x!r} cannot be serialized")


def format_float(x: float) -> str:
    """Full 17-significant-digit decimal form; always a JSON float.

    The one-value case of :func:`format_floats`, by the same rule.
    """
    if not math.isfinite(x):
        raise _non_finite(x)
    return ("%.1f" if abs(x) < _FIXED_LIMIT and x == int(x) else "%.17g") % x


def format_floats(values: np.ndarray, indent: int = 0) -> str:
    """JSON text of a float array of one or more axes, in the writer's nested
    layout.

    A row of at most :data:`SHORT_ROW` floats is joined float by float with
    :func:`format_float`.  Any other array is formatted in a single pass: the
    layout (bracket and newline, two-space pads, ``", "`` between the numbers
    of a row) is built as one ``%`` template, with one format code per
    element, and filled from ``values.ravel().tolist()``.  Finiteness is
    checked once for the array; the error names the first non-finite value
    in row-major order, as the float-by-float join does.
    """
    flat = values.ravel().astype(float, copy=False)
    if values.ndim == 1 and len(flat) <= SHORT_ROW:
        return "[" + ", ".join(map(format_float, flat.tolist())) + "]"
    finite = np.isfinite(flat)
    if not finite.all():
        raise _non_finite(float(flat[finite.argmin()]))
    width = values.shape[-1]
    count = math.prod(values.shape[:-1])
    layout = _layout(values.shape[:-1], indent)
    # The rule writes "%.1f" for the integral values below 1e17.
    fixed = (np.abs(flat) < _FIXED_LIMIT) & (np.trunc(flat) == flat)
    if fixed.all() or not fixed.any():  # one code for every element
        rows = [", ".join(["%.1f" if fixed.any() else "%.17g"] * width)] * count
    else:
        codes = np.where(fixed, "%.1f", "%.17g").reshape(count, width)
        rows = [", ".join(row) for row in codes.tolist()]
    return (layout % tuple(rows)) % tuple(flat.tolist())


def _layout(shape: tuple[int, ...], indent: int) -> str:
    """Layout of an array with leading axes ``shape``: one ``%s`` per
    last-axis row, in row-major order."""
    if not shape:
        return "[%s]"
    if shape[0] == 0:
        return "[]"
    pad = "  " * indent
    item = pad + "  " + _layout(shape[1:], indent + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + pad + "]"


def format_scalar(value) -> str:
    """JSON text of a bool, integer, float, string or None, numpy's included."""
    kind = type(value)
    if kind is float:
        return format_float(value)
    if kind is str:
        return json.dumps(value)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


# The types the writers format with :func:`format_scalar` at a glance.
SCALAR_TYPES = frozenset({float, str, int, bool, type(None)})


def is_float_array(value) -> bool:
    """Whether the writers emit ``value`` through :func:`format_floats`."""
    return isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim > 0


def is_scalar(value) -> bool:
    """Whether the writers print ``value`` on its own, not as a container."""
    return not isinstance(value, (dict, list, tuple, np.ndarray))


@lru_cache(maxsize=1024)
def _key_text(key: str) -> str:
    """``"key": `` for a dictionary key, quoted once per process: an ASCII
    identifier as it is, any other key through ``json.dumps``.  Only str keys
    are cached, so keys that compare equal across types (1 and True) never
    share an entry."""
    quoted = f'"{key}"' if key.isascii() and key.isidentifier() else json.dumps(key)
    return quoted + ": "


def _write(value, parts: list[str], indent: int) -> None:
    if type(value) in SCALAR_TYPES:
        parts.append(format_scalar(value))
        return
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        parts.append("{\n")
        lead, last = pad + "  ", len(value) - 1
        for idx, (key, item) in enumerate(value.items()):
            parts.append(lead + _key_text(key if type(key) is str else str(key)))
            _write(item, parts, indent + 1)
            parts.append(",\n" if idx < last else "\n")
        parts.append(pad + "}")
    elif is_float_array(value):
        parts.append(format_floats(value, indent))
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            parts.append("[]")
            return
        if all(map(is_scalar, items)):
            parts.append("[" + ", ".join(map(format_scalar, items)) + "]")
        else:
            parts.append("[\n")
            for idx, item in enumerate(items):
                parts.append(pad + "  ")
                _write(item, parts, indent + 1)
                parts.append(",\n" if idx < len(items) - 1 else "\n")
            parts.append(pad + "]")
    else:
        parts.append(format_scalar(value))


def dump_json(value) -> str:
    """Deterministic JSON text for a nested dict/list/scalar structure."""
    parts: list[str] = []
    _write(value, parts, 0)
    parts.append("\n")
    return "".join(parts)


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
        "zeta": instance.zeta.components,
    }
    if instance.ambient is not None:
        doc["ambient"] = ambient_to_dict(instance.ambient)
    if instance.structure is not None:
        doc["structure"] = structure_to_dict(instance.structure)
    return doc


def _require_int(doc: dict, field: str, range_owner) -> int:
    if field not in doc:
        raise ValidationError(f"field '{field}' is required")
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"field '{field}' must be an integer, got {value!r}")
    try:
        return range_owner(value)
    except ValidationError as exc:
        raise ValidationError(f"field '{field}': {exc}") from exc


def _object(raw, allowed: set[str], field: str = "") -> dict:
    """``raw`` checked to be a JSON object whose keys all lie in ``allowed``;
    ``field`` names it, and is empty for the instance document itself."""
    if not isinstance(raw, dict):
        raise ValidationError(
            f"field '{field}' must be an object"
            if field
            else "instance document must be a JSON object"
        )
    for key in raw:
        if key not in allowed:
            name = f"{field}.{key}" if field else key
            raise ValidationError(f"field '{name}' is not recognized")
    return raw


def _number(value, field: str) -> float:
    """``value`` as a float; a refusal shows it through ``reprlib``, so a
    deeply nested list is cut short instead of overflowing the stack."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"field '{field}' must be a number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"field '{field}' is an integer too large for binary64") from exc


def _require_numbers(zeta, scan: bool = True) -> None:
    """Refuse the first component of ``zeta`` that :func:`_number` refuses,
    when ``zeta`` nests three lists deep; with ``scan``, one type scan passes
    a form of JSON numbers.  A ``zeta`` of another nesting is left to the
    shape check."""
    if type(zeta) is not list or not set(map(type, zeta)) <= {list}:
        return
    rows = list(chain.from_iterable(zeta))
    if not set(map(type, rows)) <= {list}:
        return
    if scan and set(map(type, chain.from_iterable(rows))) <= {int, float}:
        return
    for r, slot in enumerate(zeta):
        for i, row in enumerate(slot):
            for j, value in enumerate(row):
                _number(value, f"zeta[{r}][{i}][{j}]")


def _parse_ambient(raw, n: int) -> AmbientModel:
    raw = _object(raw, {"kind", "c", "theta"}, "ambient")
    kind_raw = raw.get("kind")
    kinds = {k.value: k for k in AmbientKind}
    if kind_raw not in kinds:
        raise ValidationError(
            f"field 'ambient.kind' must be one of {sorted(kinds)}, got {kind_raw!r}"
        )
    c = _number(raw.get("c"), "ambient.c")
    theta = raw.get("theta")
    theta = None if theta is None else _number(theta, "ambient.theta")
    try:
        model = AmbientModel(kind=kinds[kind_raw], c=c, theta=theta)
        ricci_offset(model, n)
    except ValidationError as exc:
        raise ValidationError(f"field 'ambient': {exc}") from exc
    return model


def _parse_structure(raw, n: int) -> StructureInfo:
    raw = _object(raw, {"kind", "theta"}, "structure")
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
    theta = _number(theta, "structure.theta")
    try:
        build_slant_structure(n, theta)
    except ValidationError as exc:
        raise ValidationError(f"field 'structure.theta': {exc}") from exc
    return StructureInfo(kind=kind, theta=theta)


def instance_from_dict(doc) -> Instance:
    allowed = {"version", "n", "bundle_dim", "zeta", "ambient", "structure"}
    doc = _object(doc, allowed)
    version = doc.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(
            f"field 'version' must be {SCHEMA_VERSION}, got {version!r}"
        )
    n = _require_int(doc, "n", check_tangent_dim)
    bundle_dim = _require_int(doc, "bundle_dim", check_bundle_dim)
    if "zeta" not in doc:
        raise ValidationError("field 'zeta' is required")
    _require_numbers(doc["zeta"])
    try:
        zeta_arr = np.asarray(doc["zeta"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, OverflowError):
            _require_numbers(doc["zeta"], scan=False)  # names the integer
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
        ambient = _parse_ambient(doc["ambient"], n)
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


def _refusal(exc: Exception, source: str) -> ValidationError:
    if isinstance(exc, json.JSONDecodeError):
        return ValidationError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}")
    return ValidationError(f"{source}: {exc}")


def loads_instance(text: str, source: str = "<string>") -> Instance:
    """The validated instance in ``text``, parsed by orjson.  A refused text
    is read again by the standard decoder, whose refusal or validation error
    is the message; orjson's refusal stands where that re-read words none."""
    try:
        return instance_from_dict(orjson.loads(text))
    except (orjson.JSONDecodeError, ValidationError) as exc:
        refused = exc
    try:
        instance_from_dict(json.loads(text))
    except (json.JSONDecodeError, ValidationError) as exc:
        raise _refusal(exc, source) from exc
    except (ValueError, RecursionError):
        pass  # an integer over the int-to-str digit limit, or deep nesting
    raise _refusal(refused, source) from refused


def load_instance(path) -> Instance:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{p}: not valid UTF-8: {exc.reason} at byte {exc.start}"
        ) from exc
    return loads_instance(text, source=str(p))


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(dump_json(instance_to_dict(instance)))


def instance_sha256(instance: Instance) -> str:
    """SHA-256 of the canonical text of the instance document without
    ``zeta``, then ζ's components as little-endian binary64 in C order
    ``[r][i][j]``.  The header fixes the shape, so the stream decodes one way.
    The writer's 17 digits round-trip binary64, so the hash is stable across
    load/save cycles, and it keeps ``-0.0`` apart from ``0.0``."""
    header = instance_to_dict(instance)
    components = header.pop("zeta")
    digest = hashlib.sha256(dump_json(header).encode("utf-8"))
    digest.update(np.ascontiguousarray(components, dtype="<f8").tobytes())
    return digest.hexdigest()
