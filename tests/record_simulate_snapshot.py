"""Record `purify.simulate` outputs as exact hex floats for the snapshot test.

Usage, from the root of a checkout whose simulator is trusted:

    PYTHONPATH=src python3 tests/record_simulate_snapshot.py \
        > tests/data/simulate_snapshot.json

Each case stores the circuit as JSON, the input and noise names, and the
outputs: F, p, the real parts of the four diagonal entries of the output
state (`float.hex`) and the SHA-256 of the whole output state.  The circuits
are the three frozen GA circuits, BBPSSW and DEJMPS on both inputs under both
noise presets, then 120 seeded mutated GA genomes at n=3 and n=4 (random
X/Y/Z bases and both accept relations) under three noise levels.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from ionsurgery import (
    DEVICE_NOISE,
    IDEAL_NOISE,
    BellDiagonalState,
    NoiseModel,
    bbpssw_circuit,
    dejmps_circuit,
    load_circuit,
    simulate,
    stephenson_pair,
)
from ionsurgery.ga import _genome_to_circuit, _mutate, _random_genome

REPO = Path(__file__).resolve().parents[1]
SEED = 20241018
N_RANDOM = 120

INPUTS = {
    "measured": stephenson_pair(rotated=True),
    "werner_0.94": BellDiagonalState(0.94, 1 / 3, 1 / 3, 1 / 3),
}
NOISES = {
    "device": DEVICE_NOISE,
    "ideal": IDEAL_NOISE,
    # strong enough that record bitflips and depolarizing move every digit
    "heavy": NoiseModel(2e-3, 1e-2, 5e-3),
}


def outputs(circuit, input_name: str, noise_name: str) -> dict:
    out = simulate(circuit, INPUTS[input_name], NOISES[noise_name])
    entries = out.output_state.entries
    return {
        "F": float(out.output_fidelity).hex(),
        "p": float(out.success_probability).hex(),
        "diag": [float(v).hex() for v in entries.diagonal().real],
        "state_sha256": hashlib.sha256(np.ascontiguousarray(entries).tobytes()).hexdigest(),
    }


def cases():
    named = [(f"ga_{k}to1", load_circuit(REPO / "circuits" / f"ga_{k}to1.json"))
             for k in (3, 4, 5)]
    named += [("bbpssw", bbpssw_circuit()), ("dejmps", dejmps_circuit())]
    for name, circ in named:
        for input_name in INPUTS:
            for noise_name in ("device", "ideal"):
                yield name, circ, input_name, noise_name
    rng = np.random.default_rng(SEED)
    for i in range(N_RANDOM):
        n_pairs = 3 if i % 2 == 0 else 4
        g = _random_genome(rng, n_pairs, 24)
        for _ in range(3):
            g = _mutate(g, rng, n_pairs, 24, 0.3)
        yield (f"random_{i:03d}", _genome_to_circuit(g, n_pairs),
               list(INPUTS)[(i // 2) % 2], list(NOISES)[i % 3])


def main() -> None:
    records = []
    for name, circ, input_name, noise_name in cases():
        records.append({"name": name, "circuit": circ.to_dict(), "input": input_name,
                        "noise": noise_name,
                        **outputs(circ, input_name, noise_name)})
    # one case per line
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    main()
