"""n->1 entanglement-purification circuits and their exact noisy simulation.

A circuit acts on n Bell pairs shared between sides A and B.  Pair i occupies
qubit i on side A and qubit n+i on side B of the joint 2n-qubit state.  The
measurement branches are followed exactly; measured qubits are traced out
eagerly so later branches stay small, and a branch is dropped as soon as a
completed accept rule rejects it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .quantum import (
    CLIFFORD_INDEX,
    BellDiagonalState,
    DensityMatrix,
    NoiseModel,
    _apply_unitary_raw,
    _cnot_raw,
    _cz_raw,
    _depolarize_raw,
    _measure_raw,
    _partial_trace_raw,
    _permute_raw,
    _project_raw,  # noqa: F401  unused here, but perfbench/spans.py wraps it by this name
    clifford_unitary,
    fidelity_to_bell,
)

SIDES = ("A", "B")
BASES = ("X", "Y", "Z")
RELATIONS = ("coincident", "anticoincident")
MIN_PAIRS = 2
MAX_PAIRS = 5

# the keys circuit JSON allows, per object
_CIRCUIT_KEYS = {"n_pairs", "ops", "accept"}
_OP_KEYS = {
    "cnot": {"kind", "side", "control_pair", "target_pair"},
    "cz": {"kind", "side", "control_pair", "target_pair"},
    "clifford": {"kind", "side", "pair", "index"},
    "measure": {"kind", "side", "pair", "basis", "record_label"},
}
_ACCEPT_KEYS = {"label_i", "label_j", "relation"}


# ---------------------------------------------------------------------------
# circuit description

@dataclass(frozen=True)
class TwoQubitGate:
    kind: str  # "cnot" | "cz"
    side: str
    control_pair: int
    target_pair: int


@dataclass(frozen=True)
class SingleQubitClifford:
    pair: int
    side: str
    index: int  # canonical Clifford index 0..23


@dataclass(frozen=True)
class Measure:
    pair: int
    side: str
    basis: str  # "X" | "Y" | "Z"
    record_label: str


@dataclass(frozen=True)
class AcceptRule:
    label_i: str
    label_j: str
    relation: str  # "coincident" | "anticoincident"


@dataclass(frozen=True)
class PurificationCircuit:
    """Gate/measurement program over n Bell pairs with an accept predicate.

    Pair 0 is the output pair; it is never measured.
    """

    n_pairs: int
    ops: tuple
    accept: tuple

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "accept", tuple(self.accept))
        self._check()

    def _check(self):
        if not (MIN_PAIRS <= self.n_pairs <= MAX_PAIRS):
            raise ValueError(f"n_pairs must be {MIN_PAIRS}..{MAX_PAIRS}")
        measured = set()
        labels = {}
        for op in self.ops:
            if isinstance(op, TwoQubitGate):
                if op.kind not in ("cnot", "cz"):
                    raise ValueError(f"unknown two-qubit gate {op.kind!r}")
                if op.side not in SIDES:
                    raise ValueError("side must be A or B")
                if op.control_pair == op.target_pair:
                    raise ValueError("control and target pairs must differ")
                for p in (op.control_pair, op.target_pair):
                    if not (0 <= p < self.n_pairs):
                        raise ValueError("pair index out of range")
                    if (p, op.side) in measured:
                        raise ValueError("gate on an already-measured qubit")
            elif isinstance(op, SingleQubitClifford):
                if op.side not in SIDES:
                    raise ValueError("side must be A or B")
                if not (0 <= op.pair < self.n_pairs):
                    raise ValueError("pair index out of range")
                if not (0 <= op.index < 24):
                    raise ValueError("clifford index must be 0..23")
                if (op.pair, op.side) in measured:
                    raise ValueError("gate on an already-measured qubit")
            elif isinstance(op, Measure):
                if op.side not in SIDES:
                    raise ValueError("side must be A or B")
                if op.basis not in BASES:
                    raise ValueError("basis must be X, Y or Z")
                if op.pair == 0:
                    raise ValueError("pair 0 is the output and is never measured")
                if not (0 <= op.pair < self.n_pairs):
                    raise ValueError("pair index out of range")
                if (op.pair, op.side) in measured:
                    raise ValueError("qubit measured twice")
                if op.record_label in labels:
                    raise ValueError(f"duplicate record label {op.record_label!r}")
                measured.add((op.pair, op.side))
                labels[op.record_label] = op
            else:
                raise TypeError(f"unknown instruction {op!r}")
        for rule in self.accept:
            if rule.relation not in RELATIONS:
                raise ValueError("relation must be coincident or anticoincident")
            for lab in (rule.label_i, rule.label_j):
                if lab not in labels:
                    raise ValueError(f"accept references unknown label {lab!r}")

    # -- JSON interchange ---------------------------------------------------

    def to_dict(self) -> dict:
        ops = []
        for op in self.ops:
            if isinstance(op, TwoQubitGate):
                ops.append({"kind": op.kind, "side": op.side,
                            "control_pair": op.control_pair,
                            "target_pair": op.target_pair})
            elif isinstance(op, SingleQubitClifford):
                ops.append({"kind": "clifford", "side": op.side,
                            "pair": op.pair, "index": op.index})
            else:
                ops.append({"kind": "measure", "side": op.side, "pair": op.pair,
                            "basis": op.basis, "record_label": op.record_label})
        accept = [{"label_i": r.label_i, "label_j": r.label_j,
                   "relation": r.relation} for r in self.accept]
        return {"n_pairs": self.n_pairs, "ops": ops, "accept": accept}

    @classmethod
    def from_dict(cls, d: dict) -> "PurificationCircuit":
        _check_keys(d, _CIRCUIT_KEYS, "circuit", optional={"accept"})
        ops = []
        for o in _list_field(d, "ops"):
            _check_object(o, "op")
            kind = o.get("kind")
            if not isinstance(kind, str) or kind not in _OP_KEYS:
                raise ValueError(f"unknown op kind {kind!r}")
            _check_keys(o, _OP_KEYS[kind], f"{kind} op")
            if kind == "clifford":
                ops.append(SingleQubitClifford(_int_field(o, "pair"), o["side"],
                                               _int_field(o, "index")))
            elif kind == "measure":
                ops.append(Measure(_int_field(o, "pair"), o["side"], o["basis"],
                                   _str_field(o, "record_label")))
            else:
                ops.append(TwoQubitGate(kind, o["side"], _int_field(o, "control_pair"),
                                        _int_field(o, "target_pair")))
        accept = []
        for a in _list_field(d, "accept", []):
            _check_keys(a, _ACCEPT_KEYS, "accept rule")
            accept.append(AcceptRule(_str_field(a, "label_i"), _str_field(a, "label_j"),
                                     a["relation"]))
        return cls(_int_field(d, "n_pairs"), tuple(ops), tuple(accept))

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PurificationCircuit":
        return cls.from_dict(json.loads(text))


def _check_object(obj, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")


def _check_keys(obj: dict, known: set, what: str, optional=frozenset()) -> None:
    _check_object(obj, what)
    extra = set(obj) - known
    if extra:
        raise ValueError(f"unknown {what} keys: {sorted(extra)}")
    missing = known - optional - set(obj)
    if missing:
        raise ValueError(f"missing {what} keys: {sorted(missing)}")


def _int_field(obj: dict, key: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return v


def _str_field(obj: dict, key: str) -> str:
    v = obj[key]
    if not isinstance(v, str):
        raise ValueError(f"{key} must be a string, got {v!r}")
    return v


def _list_field(obj: dict, key: str, default=None) -> list:
    v = obj.get(key, default)
    if not isinstance(v, list):
        raise ValueError(f"{key} must be a list, got {v!r}")
    return v


def load_circuit(path) -> PurificationCircuit:
    with open(path) as fh:
        return PurificationCircuit.from_dict(json.load(fh))


def save_circuit(circuit: PurificationCircuit, path) -> None:
    with open(path, "w") as fh:
        fh.write(circuit.to_json())
        fh.write("\n")


@dataclass(frozen=True)
class ProtocolOutcome:
    """Result of simulating a purification protocol."""

    output_fidelity: float
    success_probability: float
    output_state: DensityMatrix


# ---------------------------------------------------------------------------
# simulator

def _as_pair_matrix(state) -> np.ndarray:
    if isinstance(state, BellDiagonalState):
        state = state.to_density_matrix()
    m = state.entries if isinstance(state, DensityMatrix) else np.asarray(state, complex)
    if m.shape != (4, 4):
        raise ValueError("each input must be a 2-qubit state")
    DensityMatrix(2, m).validate()
    return m


def _resolve_inputs(inputs, n_pairs: int) -> list:
    if isinstance(inputs, (DensityMatrix, BellDiagonalState)):
        return [_as_pair_matrix(inputs)] * n_pairs
    seq = list(inputs)
    if len(seq) != n_pairs:
        raise ValueError(f"need {n_pairs} input states, got {len(seq)}")
    return [_as_pair_matrix(s) for s in seq]


def _accepted(rules, rec: dict) -> bool:
    """True when the records in `rec` satisfy every rule in `rules`."""
    for rule in rules:
        same = rec[rule.label_i] == rec[rule.label_j]
        if same != (rule.relation == "coincident"):
            return False
    return True


def simulate(circuit: PurificationCircuit, inputs, noise: NoiseModel) -> ProtocolOutcome:
    """Exact noisy run over the accepted measurement branches, closed-form depolarizing.

    `inputs` is one shared 2-qubit DensityMatrix or a length-n_pairs list;
    each must pass `DensityMatrix.validate` or ValueError is raised.
    Depolarizing noise follows every gate on exactly its qubits (p1 single,
    p2 two-qubit); measurement records pass through a p_meas bitflip.
    Once a measurement writes the last record of an accept rule, every
    branch that breaks the rule is pruned; the survivors are kept apart and
    summed in record order at the end.
    Returns the accept-conditioned pair-0 marginal next to its fidelity and
    the total success probability.
    """
    n_pairs = circuit.n_pairs
    n = 2 * n_pairs
    mats = _resolve_inputs(inputs, n_pairs)

    state = np.array([[1.0 + 0j]])
    for m in mats:
        state = np.kron(state, m)
    # kron order is A0 B0 A1 B1 ...; relabel to A0..A_{n-1} B0..B_{n-1}
    perm = [2 * i for i in range(n_pairs)] + [2 * i + 1 for i in range(n_pairs)]
    state = _permute_raw(state, perm, n)

    alive = list(range(n))  # qubit id -> position alive.index(id)
    branches = [(state, {})]  # unnormalized: trace == path probability
    written = set()  # record labels measured so far
    pending = list(circuit.accept)  # rules still waiting for one of their records

    for op in circuit.ops:
        m = len(alive)
        off = 0 if op.side == "A" else n_pairs
        if isinstance(op, TwoQubitGate):
            pos = [alive.index(off + op.control_pair), alive.index(off + op.target_pair)]
            gate = _cnot_raw if op.kind == "cnot" else _cz_raw
            branches = [(_depolarize_raw(gate(s, *pos, m), noise.p2, pos, m), rec)
                        for s, rec in branches]
        elif isinstance(op, SingleQubitClifford):
            pos = [alive.index(off + op.pair)]
            u = clifford_unitary(op.index)
            branches = [(_depolarize_raw(_apply_unitary_raw(s, u, pos, m),
                                         noise.p1, pos, m), rec)
                        for s, rec in branches]
        else:  # Measure
            q = off + op.pair
            pos = alive.index(q)
            label = op.record_label
            written.add(label)
            done = [r for r in pending if r.label_i in written and r.label_j in written]
            pending = [r for r in pending if r not in done]
            pm = noise.p_meas
            nxt = []
            for s, rec in branches:
                s0, s1 = _measure_raw(s, op.basis, pos, m)
                rec0, rec1 = {**rec, label: 0}, {**rec, label: 1}
                # record bitflip mixes which outcome is written down; a
                # branch that breaks a now-complete accept rule is dropped
                if _accepted(done, rec0):
                    nxt.append(((1 - pm) * s0 + pm * s1, rec0))
                if _accepted(done, rec1):
                    nxt.append(((1 - pm) * s1 + pm * s0, rec1))
            branches = nxt
            alive.remove(q)

    m = len(alive)
    out_pos = sorted((alive.index(0), alive.index(n_pairs)))
    total = np.zeros((4, 4), dtype=complex)
    p_succ = 0.0
    for s, _ in branches:
        p_succ += float(np.trace(s).real)
        total += _partial_trace_raw(s, out_pos, m)
    if alive.index(0) > alive.index(n_pairs):  # keep A before B in the marginal
        total = _permute_raw(total, [1, 0], 2)

    if p_succ <= 0.0:
        return ProtocolOutcome(0.0, 0.0, DensityMatrix(2, total))
    out = DensityMatrix(2, total / p_succ)
    return ProtocolOutcome(fidelity_to_bell(out, "phi_plus"), p_succ, out)


# ---------------------------------------------------------------------------
# reference circuits

def bbpssw_circuit() -> PurificationCircuit:
    """2->1 bilateral-CNOT protocol: Z-measure pair 1, accept coincident."""
    ops = (
        TwoQubitGate("cnot", "A", 0, 1),
        TwoQubitGate("cnot", "B", 0, 1),
        Measure(1, "A", "Z", "c1"),
        Measure(1, "B", "Z", "c2"),
    )
    return PurificationCircuit(2, ops, (AcceptRule("c1", "c2", "coincident"),))


def dejmps_circuit() -> PurificationCircuit:
    """2->1 protocol with sqrt(X) frame rotations before the bilateral CNOT."""
    rxm, rxp = CLIFFORD_INDEX["RXM"], CLIFFORD_INDEX["RXP"]
    ops = (
        SingleQubitClifford(0, "A", rxm),
        SingleQubitClifford(1, "A", rxm),
        SingleQubitClifford(0, "B", rxp),
        SingleQubitClifford(1, "B", rxp),
        TwoQubitGate("cnot", "A", 0, 1),
        TwoQubitGate("cnot", "B", 0, 1),
        Measure(1, "A", "Z", "c1"),
        Measure(1, "B", "Z", "c2"),
    )
    return PurificationCircuit(2, ops, (AcceptRule("c1", "c2", "coincident"),))
