"""Record the Monte Carlo collection outputs as SHA-256 digests for the snapshot test.

Usage, from the root of a checkout whose Monte Carlo draws are trusted:

    PYTHONPATH=src python3 tests/record_collection_snapshot.py \
        > tests/data/collection_snapshot.json

Each case stores its inputs and either the SHA-256 of an int64 output array
(`simulate_collection` counts, `_trial_thresholds`) or the returned value
(`empirical_min_attempts`, `empirical_attempts_bracket`).  Every array case
runs CHUNK + 100 trials, so it crosses the boundary between the first two
Philox chunks.  The coupling probabilities straddle 1/3, where NumPy's
geometric sampler switches method, and include p = 1e-300, whose first
successes saturate at the int64 maximum.
"""
from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from ionsurgery import (
    TrialConfig,
    empirical_attempts_bracket,
    empirical_min_attempts,
    simulate_collection,
)
from ionsurgery.collection import CHUNK, _trial_thresholds

TRIALS = CHUNK + 100
P_GRID = (1e-300, 2.18e-4, 0.05, 0.2, 0.3333, 1 / 3, 0.34, 0.5, 1.0)
N_GRID = (1, 9, 45, 1000)
ATTEMPTS = (0, 1, 10, 20000)
# (n_ions, p_entangle, k_star, p_ls, trials, seed) for the empirical solvers
EMPIRICAL = (
    (45, 2.18e-4, 45, 0.999, TRIALS, 7),
    (45, 2.18e-4, 10, 0.5, 4000, 8),
    (9, 0.05, 5, 0.9, TRIALS, 9),
    (9, 0.5, 9, 0.99, 3000, 10),
    (1000, 0.2, 500, 0.5, 2000, 11),
    (100, 1 / 3, 50, 0.999, 5000, 12),
    (1, 1.0, 1, 0.999, 100, 13),
    (45, 1e-300, 45, 0.5, 200, 14),
)


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()


def output(case: dict):
    """Recompute one case's recorded output from its inputs."""
    p = float.fromhex(case["p"])
    if case["kind"] == "counts":
        cfg = TrialConfig(case["n"], p, case["attempts"], TRIALS, case["seed"])
        return digest(simulate_collection(cfg).counts)
    if case["kind"] == "thresholds":
        return digest(_trial_thresholds(case["n"], p, case["k_star"], TRIALS, case["seed"]))
    args = (case["n"], p, case["k_star"], case["p_ls"], case["trials"], case["seed"])
    if case["kind"] == "min_attempts":
        return empirical_min_attempts(*args)
    return list(empirical_attempts_bracket(*args))


def cases():
    seed = 0
    for p in P_GRID:
        for n in N_GRID:
            for a in ATTEMPTS:
                seed += 1
                yield {"kind": "counts", "p": p.hex(), "n": n, "attempts": a, "seed": seed}
            for k in sorted({1, (n + 1) // 2, n}):
                seed += 1
                yield {"kind": "thresholds", "p": p.hex(), "n": n, "k_star": k, "seed": seed}
    for n, p, k, p_ls, trials, seed in EMPIRICAL:
        for kind in ("min_attempts", "bracket"):
            yield {"kind": kind, "p": p.hex(), "n": n, "k_star": k, "p_ls": p_ls,
                   "trials": trials, "seed": seed}


def main() -> None:
    records = [{**case, "output": output(case)} for case in cases()]
    # one case per line
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    main()
