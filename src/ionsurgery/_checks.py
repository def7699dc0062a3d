"""The package's two number rules, `as_int` for every count, index and seed
and `as_real` for every real parameter, and the one rule for the JSON
objects its loaders read.  Each rule rejects a value with a ValueError whose
message starts with the field's name, which the CLI maps to a flag."""
from __future__ import annotations

import math

import numpy as np

# the intervals `as_real` knows, and how its message names each
INTERVALS = {"[0,1]": "lie in [0,1]", "(0,1]": "lie in (0,1]",
             "(0,1)": "lie in (0,1)", "positive": "be positive and finite"}


def as_int(name: str, v, lo: int | None = None) -> int:
    """v as a plain int, at least `lo` if given: Python and NumPy integers
    pass, bools and the rest raise ValueError naming `name`.  A plain int is
    returned as it is."""
    if type(v) is not int:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        v = int(v)
    if lo is not None and v < lo:
        bound = "be non-negative" if lo == 0 else f"be at least {lo}"
        raise ValueError(f"{name} must {bound}, got {v}")
    return v


def as_real(name: str, v, interval: str) -> float:
    """v as a plain float inside `interval`, one of the `INTERVALS` keys;
    "positive" is (0, inf).  Python and NumPy integers and floats pass; bools,
    other types, NaN, the infinities and ints past float range raise
    ValueError naming `name`.  A plain float is returned as it is."""
    if type(v) is float:
        x = v
    elif isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {v!r}")
    else:
        try:
            x = float(v)
        except OverflowError:  # an int past float range
            x = math.inf
    if interval == "[0,1]":
        ok = 0 <= x <= 1
    elif interval == "(0,1]":
        ok = 0 < x <= 1
    elif interval == "(0,1)":
        ok = 0 < x < 1
    else:  # an unknown interval fails, and raises KeyError below
        ok = interval == "positive" and 0 < x < math.inf
    if not ok:  # also NaN, which fails every comparison
        raise ValueError(f"{name} must {INTERVALS[interval]}, got {v!r}")
    return x


def check_object(obj, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")


def check_keys(obj: dict, known, what: str, optional=frozenset()) -> None:
    """obj is a JSON object holding no key outside `known`, and every key of
    `known` not in `optional`."""
    check_object(obj, what)
    extra = set(obj) - set(known)
    if extra:
        raise ValueError(f"unknown {what} keys: {sorted(extra)}")
    missing = set(known) - set(optional) - set(obj)
    if missing:
        raise ValueError(f"missing {what} keys: {sorted(missing)}")
