"""Reference JSON writer: the one-float-at-a-time recursive writer that the
array emitter in :mod:`curvlike.instance_io` replaced.

It walks ``tolist()``-style nested lists and formats every float on its own
with ``%.17g`` (plus ``.0`` when the text would read as an integer).  The
tests use it as the independent oracle the library's writer must match byte
for byte.
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
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(reference_format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def reference_dump_json(value) -> str:
    """Deterministic JSON text for a nested dict/list/scalar structure."""
    out: list[str] = []
    _write(value, out, 0)
    out.append("\n")
    return "".join(out)
