"""Argument checks shared by every public entry point and the CLI config schema.

Each check returns the value it accepts and otherwise raises a ValueError that names the
argument, so a bad argument is told apart from thin kernel mass (``InsufficientLocalData``).
Numpy numbers pass like Python ones; bools and strings do not, so none runs as the number it
casts to. This module imports nothing from the package.
"""

from __future__ import annotations

import math
import numbers
from typing import List, Optional

import numpy as np


def _real(value) -> bool:
    """A real number: numpy numbers pass, bools and strings do not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _number(name: str, value):
    """``value``, if it is a real number that is not NaN; +-inf pass."""
    if not (_real(value) and not math.isnan(value)):
        raise ValueError(f"{name} must not be NaN and must be a real number, got {value!r}")
    return value


def _finite(name: str, value):
    """``value``, if it is a finite real number."""
    if not (_real(value) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return value


def _positive_finite(name: str, value, lo: float = 0.0, hi: float = math.inf):
    """``value``, if it is a real number in (lo, hi), by default a positive finite one."""
    if not (_real(value) and lo < value < hi):
        span = "" if (lo, hi) == (0.0, math.inf) else f" in ({lo:.3g}, {hi:.3g})"
        raise ValueError(f"{name} must be a positive finite number{span}, got {value!r}")
    return value


def _level(name: str, value):
    """``value``, if it is a real number in (0, 1)."""
    if not (_real(value) and 0 < value < 1):
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def _integer(name: str, value, least: Optional[int] = None):
    """``value``, if it is an integer (numpy integers pass; bools, floats and strings do not) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or least is not None and value < least:
        raise ValueError(f"{name} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")
    return value


def _as_reals(y, what: str) -> np.ndarray:
    """``y`` as a float array, if every entry is a finite integer or real number: a string, a bool or None is not."""
    if not (isinstance(y, np.ndarray) and y.dtype.kind in "iuf"):
        for v in np.asarray(y, dtype=object).ravel():
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{what} must hold real numbers, got {v!r}")
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"{what} contains non-finite values")
    return y


def _triples(name: str, value):
    """``value``, if it is a nonempty list or tuple of (a, b, c) triples of callables."""
    if not (isinstance(value, (list, tuple)) and value and all(
            isinstance(t, (list, tuple)) and len(t) == 3 and all(map(callable, t)) for t in value)):
        raise ValueError(f"{name} must be a nonempty list of (a, b, c) triples of callables, got {value!r}")
    return value


# kinds of value, each a check ``kind(key, value)`` that returns the value
def _instance(cls, what: str):
    def kind(key: str, value):
        if not isinstance(value, cls):
            raise ValueError(f"{key} must be {what}, got {value!r}")
        return value
    return kind


_object = _instance(dict, "a JSON object")


def _one_of(names: List[str]):
    def kind(key: str, value):
        if value not in names:
            raise ValueError(f"unknown {key} {value!r}, expected one of {names}")
        return value
    return kind


def _nonempty_list(item):
    def kind(key: str, value):
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"{key} must be a nonempty list, got {value!r}")
        for v in value:
            item(key, v)
        return value
    return kind
