"""Deterministic JSON and CSV formatting helpers.

All emitted floats use 17 significant digits so repeated runs on equal
inputs are byte-identical; complex numbers travel as [re, im] pairs.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import ParseError

__all__ = [
    "format_float",
    "complex_pair",
    "parse_complex",
    "parse_real",
    "parse_int",
    "parse_entries",
    "dumps_canonical",
]


def format_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def parse_real(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def parse_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where} must be an integer, got {value!r}")
    return value


def parse_complex(value: Any, where: str) -> complex:
    """Accept a plain number or an [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(parse_real(value[0], where), parse_real(value[1], where))
    raise ParseError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def parse_entries(values: list, field: str, where: str) -> np.ndarray:
    """A matrix row or vector off the wire: ``parse_real`` entries as a float
    array in the ``"real"`` field, else ``parse_complex`` ones as complex."""
    if field == "real":
        return np.array([parse_real(v, where) for v in values], dtype=float)
    return np.array([parse_complex(v, where) for v in values], dtype=complex)


def _encode(obj: Any):
    if obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, float):
        yield format_float(obj)
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ", "
            yield from _encode(item)
        yield "]"
    elif isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError(f"non-string JSON key {key!r}")
            if i:
                yield ", "
            yield json.dumps(key)
            yield ": "
            yield from _encode(value)
        yield "}"
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj: Any) -> str:
    """Serialize with fixed float formatting and insertion-ordered keys."""
    return "".join(_encode(obj)) + "\n"
