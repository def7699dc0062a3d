"""Laws any correct simulator keeps, whatever its state representation.

Each law maps a random measurement-terminal GA genome, and its input pair,
to another circuit and input that must give the same success probability p
and, where p >= MIN_SUCCESS, the same output fidelity F, to 1e-12:

- relabelling the ancilla pairs 1..n-1;
- swapping sides A and B in every op, with the two qubits of the input pair;
- prepending U on A and its conjugate partner on B to a pair of a Werner
  input, without noise (U (x) conj(U) leaves a Werner state unchanged);
- swapping two adjacent gates on disjoint qubits, whose gate noise acts on
  the gate's own qubits only.  This holds in exact arithmetic, but the
  rounding of the two orders differs, so it too is a tolerance check.
"""
from dataclasses import replace

import numpy as np
import pytest

from ionsurgery import (
    CLIFFORD_CONJUGATE_PARTNER,
    DEVICE_NOISE,
    IDEAL_NOISE,
    BellDiagonalState,
    DensityMatrix,
    PurificationCircuit,
    SingleQubitClifford,
    simulate,
)
from ionsurgery.ga import MIN_SUCCESS, _genome_to_circuit, _random_genome, resolve_input

TOL = 1e-12
WERNER = BellDiagonalState(0.94, 1 / 3, 1 / 3, 1 / 3).to_density_matrix()
MEASURED = resolve_input("stephenson")
PAIR_FIELDS = ("pair", "control_pair", "target_pair")
# (pairs per circuit, random genomes per law); an n=5 simulate takes up to ~0.2 s
SIZES = [(2, 16), (3, 16), (4, 12), pytest.param(5, 4, marks=pytest.mark.slow)]


def random_circuits(n: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng, [_genome_to_circuit(_random_genome(rng, n), n) for _ in range(count)]


def relabel(circ: PurificationCircuit, pair=None, side=None) -> PurificationCircuit:
    """circ with every op's pair indices mapped through `pair` and sides through `side`."""
    ops = []
    for op in circ.ops:
        fields = {k: pair[v] for k, v in vars(op).items() if pair and k in PAIR_FIELDS}
        ops.append(replace(op, side=side[op.side] if side else op.side, **fields))
    return PurificationCircuit(circ.n_pairs, tuple(ops), circ.accept)


def assert_same_outcome(a, b) -> bool:
    """True when F was compared too."""
    assert abs(a.success_probability - b.success_probability) <= TOL
    if a.success_probability < MIN_SUCCESS:
        return False
    assert abs(a.output_fidelity - b.output_fidelity) <= TOL
    return True


@pytest.mark.parametrize("n, count", SIZES)
def test_relabelling_the_ancilla_pairs_keeps_the_outcome(n, count):
    rng, circuits = random_circuits(n, count, seed=100 + n)
    compared = 0
    for circ in circuits:
        pair = [0, *(int(p) for p in rng.permutation(np.arange(1, n)))]
        moved = relabel(circ, pair=pair)
        for inp in (WERNER, MEASURED):
            compared += assert_same_outcome(simulate(circ, inp, DEVICE_NOISE),
                                            simulate(moved, inp, DEVICE_NOISE))
    assert compared


@pytest.mark.parametrize("n, count", SIZES)
def test_swapping_the_sides_and_the_input_qubits_keeps_the_outcome(n, count):
    _, circuits = random_circuits(n, count, seed=200 + n)
    compared = 0
    for circ in circuits:
        swapped = relabel(circ, side={"A": "B", "B": "A"})
        for inp in (WERNER, MEASURED):
            # the pair's qubits are (A, B); a SWAP conjugation exchanges them
            flipped = inp.entries.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            compared += assert_same_outcome(
                simulate(circ, inp, DEVICE_NOISE),
                simulate(swapped, DensityMatrix(2, flipped), DEVICE_NOISE))
    assert compared


@pytest.mark.parametrize("n, count", SIZES)
def test_a_conjugate_clifford_pair_before_a_werner_input_keeps_the_outcome(n, count):
    rng, circuits = random_circuits(n, count, seed=300 + n)
    compared = 0
    for circ in circuits:
        u, p = int(rng.integers(24)), int(rng.integers(n))
        twirl = (SingleQubitClifford(p, "A", u),
                 SingleQubitClifford(p, "B", CLIFFORD_CONJUGATE_PARTNER[u]))
        twirled = PurificationCircuit(n, twirl + circ.ops, circ.accept)
        compared += assert_same_outcome(simulate(circ, WERNER, IDEAL_NOISE),
                                        simulate(twirled, WERNER, IDEAL_NOISE))
    assert compared


def gate_qubits(op) -> set:
    """The (pair, side) qubits a gate acts on; its noise acts on no other."""
    return {(v, op.side) for k, v in vars(op).items() if k in PAIR_FIELDS}


@pytest.mark.parametrize("n, count", SIZES)
def test_swapping_adjacent_gates_on_disjoint_qubits_keeps_the_outcome(n, count):
    rng, circuits = random_circuits(n, count, seed=400 + n)
    compared = 0
    for circ in circuits:
        ops = list(circ.ops)
        gates = [op for op in ops if op.kind != "measure"]  # measurements come last
        spots = [i for i in range(len(gates) - 1)
                 if not gate_qubits(ops[i]) & gate_qubits(ops[i + 1])]
        if not spots:
            continue
        i = spots[int(rng.integers(len(spots)))]
        ops[i], ops[i + 1] = ops[i + 1], ops[i]
        swapped = PurificationCircuit(n, tuple(ops), circ.accept)
        for inp in (WERNER, MEASURED):
            compared += assert_same_outcome(simulate(circ, inp, DEVICE_NOISE),
                                            simulate(swapped, inp, DEVICE_NOISE))
    assert compared
