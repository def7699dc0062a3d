"""Record `purify.simulate` outputs as exact hex floats for the snapshot test.

Usage, from the root of a checkout whose simulator is trusted:

    PYTHONPATH=src python3 tests/record_simulate_snapshot.py \
        > tests/data/simulate_snapshot.json

Each case stores the circuit as JSON, the input and noise names, and the
outputs: F, p, the real parts of the four diagonal entries of the output
state (`float.hex`) and the SHA-256 of the whole output state.  The circuits
are the three frozen GA circuits, BBPSSW and DEJMPS on both inputs under both
noise presets, then 120 seeded mutated GA genomes at n=3 and n=4 (random
X/Y/Z bases and both accept relations) under three noise levels, then three
interleaved circuits on both inputs under the device and heavy noise.  The
interleaved circuits measure before their last gate, so a gate runs on more
than one branch, and leave some ancilla qubits unmeasured, so the output is
traced down from more than the output pair.
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
    AcceptRule,
    BellDiagonalState,
    Measure,
    NoiseModel,
    PurificationCircuit,
    SingleQubitClifford,
    TwoQubitGate,
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


def interleaved_circuits():
    # a pair-1 rule completes first; the second round's gates run on both
    # surviving branches
    yield "two_rounds_3to1", PurificationCircuit(3, (
        TwoQubitGate("cnot", "A", 0, 1),
        TwoQubitGate("cnot", "B", 0, 1),
        Measure(1, "A", "Z", "a1"),
        Measure(1, "B", "Z", "b1"),
        SingleQubitClifford(0, "A", 5),
        TwoQubitGate("cnot", "A", 0, 2),
        TwoQubitGate("cz", "B", 2, 0),
        Measure(2, "A", "X", "a2"),
        Measure(2, "B", "X", "b2"),
    ), (AcceptRule("a1", "b1", "coincident"), AcceptRule("a2", "b2", "anticoincident")))
    # gates between the two halves of a rule act on four unpruned branches;
    # pair 2 is never measured, so the output is traced down from 4 qubits
    yield "open_ancilla_3to1", PurificationCircuit(3, (
        TwoQubitGate("cz", "A", 1, 2),
        TwoQubitGate("cnot", "A", 0, 1),
        Measure(1, "A", "Y", "a1"),
        TwoQubitGate("cnot", "B", 0, 1),
        SingleQubitClifford(2, "B", 17),
        TwoQubitGate("cnot", "B", 2, 0),
        Measure(1, "B", "Y", "b1"),
    ), (AcceptRule("a1", "b1", "anticoincident"),))
    # an unruled record, gates on two and four branches, and pair 3's B qubit
    # left unmeasured
    yield "mixed_4to1", PurificationCircuit(4, (
        TwoQubitGate("cnot", "A", 1, 2),
        TwoQubitGate("cnot", "B", 1, 2),
        Measure(2, "A", "X", "a2"),
        TwoQubitGate("cz", "A", 0, 3),
        Measure(3, "A", "Z", "a3"),
        TwoQubitGate("cnot", "B", 0, 1),
        SingleQubitClifford(1, "A", 11),
        TwoQubitGate("cnot", "A", 0, 1),
        Measure(2, "B", "X", "b2"),
        Measure(1, "A", "Z", "a1"),
        Measure(1, "B", "Z", "b1"),
    ), (AcceptRule("a2", "b2", "coincident"), AcceptRule("a1", "b1", "coincident")))


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
        g = _random_genome(rng, n_pairs)
        for _ in range(3):
            g = _mutate(g, rng, n_pairs, 0.3)
        yield (f"random_{i:03d}", _genome_to_circuit(g, n_pairs),
               list(INPUTS)[(i // 2) % 2], list(NOISES)[i % 3])
    for name, circ in interleaved_circuits():
        for input_name in INPUTS:
            for noise_name in ("device", "heavy"):
                yield name, circ, input_name, noise_name


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
