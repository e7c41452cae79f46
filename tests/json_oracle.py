"""Reference writers: the one-float-at-a-time recursive JSON writer that the
array emitter in :mod:`curvlike.instance_io` replaced, and the text renderer
as :mod:`curvlike.reporting` wrote it before its walker dispatched on exact
types.

Both walk ``tolist()``-style nested lists and format every float on its own
with ``%.17g`` (plus ``.0`` when the text would read as an integer).  The
tests use them as the independent oracles the library's writers must match
byte for byte.
"""

from __future__ import annotations

import json
import math

import numpy as np

from curvlike.errors import ValidationError


def reference_format_float(x: float) -> str:
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
    else:
        out.append(reference_format_scalar(value))


def reference_format_scalar(value) -> str:
    """JSON text of a bool, integer, float, string or None."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return reference_format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def reference_dump_json(value) -> str:
    """Deterministic JSON text for a nested dict/list/scalar structure."""
    out: list[str] = []
    _write(value, out, 0)
    out.append("\n")
    return "".join(out)


def _is_scalar(value) -> bool:
    return not isinstance(value, (dict, list, tuple, np.ndarray))


def _scalar_text(value) -> str:
    return value if isinstance(value, str) else reference_format_scalar(value)


def _inline(value) -> str | None:
    """One-line text of a scalar or a flat list; None for a value that nests."""
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


def reference_render_text(doc: dict) -> str:
    """Line-oriented rendering of a report made of ``tolist()`` lists."""
    lines: list[str] = []
    _render(doc, 0, lines)
    return "\n".join(lines) + "\n"
