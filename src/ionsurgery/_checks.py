"""The one integer rule of every count, index and seed the package accepts,
and the one rule for the JSON objects its loaders read."""
from __future__ import annotations

import numpy as np


def as_int(name: str, v) -> int:
    """v as a plain int: Python and NumPy integers pass, bools and the rest
    raise ValueError naming `name`.  A plain int is returned as it is."""
    if type(v) is int:
        return v
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


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
