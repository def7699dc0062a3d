"""Record `purify.simulate` outputs on interleaved circuits for their pin test.

Usage, from the root of a checkout whose simulator is trusted:

    PYTHONPATH=src python3 tests/record_interleaved_pins.py \
        > tests/data/interleaved_pins.json

Every case in `simulate_snapshot.json` measures only after its last gate.
These circuits do not: a gate follows a measurement, so it runs on more
than one branch, and some ancilla qubits stay unmeasured, so the output is
traced down from more than the output pair.  Each runs on both snapshot
inputs under the device and heavy noise models; the outputs are those of
`record_simulate_snapshot.outputs`.
"""
from __future__ import annotations

import json
import sys

from ionsurgery import AcceptRule, Measure, PurificationCircuit, SingleQubitClifford, TwoQubitGate
from record_simulate_snapshot import INPUTS, outputs

NOISE_NAMES = ("device", "heavy")


def circuits():
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
    for name, circ in circuits():
        for input_name in INPUTS:
            for noise_name in NOISE_NAMES:
                yield name, circ, input_name, noise_name


def main() -> None:
    records = [{"name": name, "circuit": circ.to_dict(), "input": input_name,
                "noise": noise_name, **outputs(circ, input_name, noise_name)}
               for name, circ, input_name, noise_name in cases()]
    # one case per line
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    main()
