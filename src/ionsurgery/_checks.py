"""The one integer rule of every count, index and seed the package accepts."""
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
