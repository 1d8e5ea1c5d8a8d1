"""Canonical JSON with stable key order and fixed float formatting.

Reports and digests must be byte-identical across runs and window sizes,
so floats are rendered with 17 significant digits (enough for an
exact float64 round-trip) and keys are always sorted.
"""

from __future__ import annotations

import hashlib
import json
import math


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot enter a canonical report")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def dumps_canonical(obj) -> str:
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj, parts: list) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(_format_float(obj))
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if i:
                parts.append(",")
            parts.append(_quote(key))
            parts.append(":")
            _write(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _write(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_quote = json.JSONEncoder(ensure_ascii=False).encode  # escapes only '"', '\\' and below 0x20


def digest(obj) -> str:
    """Stable 16-hex-digit digest of a JSON-ready object."""
    return hashlib.sha256(dumps_canonical(obj).encode("utf-8")).hexdigest()[:16]
