"""Exact F and p of a purification circuit, by backward Pauli propagation.

Every gate of a `PurificationCircuit` is a Clifford followed by depolarizing
noise, the inputs are products of 2-qubit pairs, and no gate acts on a
measured qubit, so every measurement can be deferred to the end.  A record r
of a Pauli P measurement, flipped with probability p_meas, is the operator
(I + (1 - 2 p_meas) (-1)^r P) / 2.  Summed over the accepted records, the
unnormalized output pair sigma then has

    Tr(sigma R) = 2^-L sum_S a(S) (1 - 2 p_meas)^|S| Tr(rho P_S R),

where L is the number of records, a is the Walsh transform of the accept
indicator over the records, P_S is the product of the measured Paulis in S
and rho is the state after every gate.  Each Tr(rho Q) is pulled back
through the gates, last first: the depolarizing noise after a gate on k
qubits scales Q by 1 - lam, lam = p d^2/(d^2 - 1) with d = 2^k, where Q is
not the identity on those qubits, and the gate maps Q to the signed Pauli
string U^dag Q U.  It ends as a product of the input pairs' Pauli
coefficients.

Every input entry and noise probability is a float, which is a binary
fraction, so in `fractions.Fraction` the result is the exact F and p of the
circuit on those floats.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from ionsurgery import Measure, TwoQubitGate, clifford_unitary, resolve_input

PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1, -1]))  # I, X, Y, Z: a local Pauli is its index here
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])  # control 1st
CZ = np.diag([1, 1, 1, -1])


def _strings(k: int) -> list:
    """The 4^k Pauli strings on k qubits; string j has digit j // 4^(k-1-i) on qubit i."""
    return [functools.reduce(np.kron, (PAULIS[d] for d in digits), np.eye(1))
            for digits in itertools.product(range(4), repeat=k)]


def _images(u: np.ndarray) -> tuple:
    """(j, sign) per Pauli string P on u's qubits, with U^dag P U = sign * string j."""
    strings = _strings(int(np.log2(len(u))))
    table = []
    for p in strings:
        v = u.conj().T @ p @ u
        coeffs = [np.trace(q @ v) / len(u) for q in strings]
        j = int(np.argmax(np.abs(coeffs)))
        sign = round(coeffs[j].real)
        assert abs(coeffs[j] - sign) < 1e-9 and abs(sign) == 1
        table.append((j, sign))
    return tuple(table)


TWO_QUBIT = {"cnot": _images(CNOT), "cz": _images(CZ)}
ONE_QUBIT = [_images(clifford_unitary(i)) for i in range(24)]


def pair_coefficients(entries) -> list:
    """Tr((P_A (x) P_B) rho) exactly for each local pair (a, b), at 4 a + b."""
    rho = [[(Fraction(z.real), Fraction(z.imag)) for z in map(complex, row)]
           for row in np.asarray(entries)]
    out = []
    for m in _strings(2):
        re = im = Fraction(0)
        for j, k in itertools.product(range(4), repeat=2):
            c = complex(m[j, k])  # 0, +-1 or +-1j
            r, i = rho[k][j]
            re += int(c.real) * r - int(c.imag) * i
            im += int(c.real) * i + int(c.imag) * r
        assert im == 0, "input pair is not exactly Hermitian"
        out.append(re)
    return out


def _walsh(circuit, labels: list) -> list:
    """a(S) = sum over record patterns r of accept(r) (-1)^|r & S|, for every
    subset S of the records; bit j of r and S stands for labels[j]."""
    bit = {label: j for j, label in enumerate(labels)}
    a = []
    for r in range(2 ** len(labels)):
        flips = [(r >> bit[x.label_i] ^ r >> bit[x.label_j]) & 1 for x in circuit.accept]
        a.append(int(all(f == (x.relation == "anticoincident")
                         for f, x in zip(flips, circuit.accept))))
    h = 1
    while h < len(a):
        for i in range(0, len(a), 2 * h):
            for j in range(i, i + h):
                a[j], a[j + h] = a[j] + a[j + h], a[j] - a[j + h]
        h *= 2
    return a


def _pull_back(string: list, gates: list) -> tuple:
    """(sign, noise hits of 1- and 2-qubit gates, input-side string) of a Pauli string."""
    s = list(string)
    sign, hits = 1, [0, 0]
    for qubits, table in reversed(gates):
        local = 0
        for q in qubits:
            local = 4 * local + s[q]
        if local:  # the noise after the gate, undone first
            hits[len(qubits) - 1] += 1
        j, g = table[local]
        sign *= g
        for q in reversed(qubits):
            s[q], j = j % 4, j // 4
    return sign, hits, s


def exact_outcome(circuit, inputs, noise) -> tuple:
    """(F, p) of `simulate(circuit, inputs, noise)` as exact Fractions.

    `inputs` is one input spec for every pair or a list of n_pairs of them;
    F is 0 where p is 0, as `simulate` reports it.
    """
    n = circuit.n_pairs
    specs = inputs if isinstance(inputs, list) else [inputs] * n
    coeffs = [pair_coefficients(resolve_input(x).entries) for x in specs]
    gates, measured = [], []  # measured: (qubit, local Pauli, record label)
    for op in circuit.ops:
        off = 0 if op.side == "A" else n
        if isinstance(op, Measure):
            measured.append((off + op.pair, "IXYZ".index(op.basis), op.record_label))
        elif isinstance(op, TwoQubitGate):
            gates.append(((off + op.control_pair, off + op.target_pair),
                          TWO_QUBIT[op.kind]))
        else:
            gates.append(((off + op.pair,), ONE_QUBIT[op.index]))
    walsh = _walsh(circuit, [label for *_, label in measured])
    keep = (1 - Fraction(noise.p1) * 4 / 3, 1 - Fraction(noise.p2) * 16 / 15)
    flip = 1 - 2 * Fraction(noise.p_meas)
    trace = {}
    for a, b in ((0, 0), (1, 1), (2, 2), (3, 3)):  # II, XX, YY, ZZ on pair 0
        total = Fraction(0)
        for subset, w in enumerate(walsh):
            if not w:
                continue
            string = [0] * (2 * n)
            string[0], string[n] = a, b
            for j, (q, pauli, _) in enumerate(measured):
                if subset >> j & 1:
                    string[q] = pauli
            sign, hits, s = _pull_back(string, gates)
            term = Fraction(w * sign) * flip ** bin(subset).count("1")
            term *= keep[0] ** hits[0] * keep[1] ** hits[1]
            for i in range(n):
                term *= coeffs[i][4 * s[i] + s[n + i]]
            total += term
        trace[a] = total / 2 ** len(measured)
    p = trace[0]
    if p == 0:
        return Fraction(0), p
    # <phi+| R |phi+> is +1 for II, XX and ZZ, and -1 for YY
    return (trace[0] + trace[1] - trace[2] + trace[3]) / 4 / p, p
