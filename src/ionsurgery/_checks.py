"""The package's six field rules, `as_int` for every count, index and seed,
`as_real` for every real parameter, `as_flag` for every flag, `as_choice` for
every word field, `as_text` for every label and `as_record` for every record
argument, and the rules for the JSON objects and lists its loaders read.
Each rule rejects a value with a ValueError whose message starts with the
field's name, which the CLI maps to a flag."""
from __future__ import annotations

import math

import numpy as np

# the intervals `as_real` knows, and how its message names each
INTERVALS = {"[0,1]": "lie in [0,1]", "(0,1]": "lie in (0,1]",
             "(0,1)": "lie in (0,1)", "positive": "be positive and finite"}


def as_int(name: str, v, lo: int | None = None, hi: int | None = None) -> int:
    """v as a plain int, at least `lo` if given, and in lo..hi if `hi` is:
    Python and NumPy integers pass, bools and the rest raise ValueError naming
    `name`.  A plain int is returned as it is."""
    if type(v) is not int:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        v = int(v)
    if hi is not None and not lo <= v <= hi:
        raise ValueError(f"{name} must be {lo}..{hi}, got {v}")
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


def as_flag(name: str, v) -> bool:
    """v as a plain bool: True, False and NumPy bools pass; anything else,
    also 0, 1 and text, raises ValueError naming `name`."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    raise ValueError(f"{name} must be True or False, got {v!r}")


def as_choice(name: str, v, words) -> str:
    """v as a plain str, one of `words`; anything else raises ValueError naming `name`."""
    if isinstance(v, str) and v in words:
        return str(v)
    raise ValueError(f"{name} must be one of {', '.join(words)}, got {v!r}")


def as_text(name: str, v) -> str:
    """v as a plain str; anything else raises ValueError naming `name`."""
    if isinstance(v, str):
        return str(v)
    raise ValueError(f"{name} must be a string, got {v!r}")


def as_record(name: str, v, cls):
    """v itself if it is a `cls`; anything else raises ValueError naming `name`."""
    if isinstance(v, cls):
        return v
    raise ValueError(f"{name} must be a {cls.__name__}, got {v!r}")


def as_list(name: str, v) -> list:
    """v itself if it is a list, as a JSON array loads; anything else raises
    ValueError naming `name`."""
    if isinstance(v, list):
        return v
    raise ValueError(f"{name} must be a list, got {v!r}")


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
