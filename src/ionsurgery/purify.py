"""n->1 entanglement-purification circuits and their exact noisy simulation.

A circuit acts on n Bell pairs shared between sides A and B.  Pair i occupies
qubit i on side A and qubit n+i on side B of the joint 2n-qubit state.  The
measurement branches are followed exactly; measured qubits are traced out
eagerly so later branches stay small, and a branch is dropped as soon as a
completed accept rule rejects it.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace

import numpy as np

from ._checks import as_int, check_keys, check_object
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
    stephenson_pair,
)

SIDES = ("A", "B")
BASES = ("X", "Y", "Z")
RELATIONS = ("coincident", "anticoincident")
MIN_PAIRS = 2
MAX_PAIRS = 5


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
    kind = "clifford"  # a class constant, not a field
    pair: int
    side: str
    index: int  # canonical Clifford index 0..23


@dataclass(frozen=True)
class Measure:
    kind = "measure"  # a class constant, not a field
    pair: int
    side: str
    basis: str  # "X" | "Y" | "Z"
    record_label: str


@dataclass(frozen=True)
class AcceptRule:
    label_i: str
    label_j: str
    relation: str  # "coincident" | "anticoincident"


# circuit JSON: op kind -> (op type, its keys after "kind", in output order)
_OPS = {
    "cnot": (TwoQubitGate, ("side", "control_pair", "target_pair")),
    "cz": (TwoQubitGate, ("side", "control_pair", "target_pair")),
    "clifford": (SingleQubitClifford, ("side", "pair", "index")),
    "measure": (Measure, ("side", "pair", "basis", "record_label")),
}
_RULE_KEYS = ("label_i", "label_j", "relation")
# the op fields `_checked_fields` type-checks; `_check` checks the rest by value
_INT_KEYS = frozenset(("control_pair", "target_pair", "pair", "index"))
_STR_KEYS = frozenset(("record_label", "label_i", "label_j"))


@dataclass(frozen=True)
class PurificationCircuit:
    """Gate/measurement program over n Bell pairs with an accept predicate.

    Pair 0 is the output pair; it is never measured.
    """

    n_pairs: int
    ops: tuple
    accept: tuple

    def __post_init__(self):
        object.__setattr__(self, "n_pairs", as_int("n_pairs", self.n_pairs))
        object.__setattr__(self, "ops", _checked_fields(tuple(self.ops)))
        object.__setattr__(self, "accept", _checked_fields(tuple(self.accept)))
        self._check()

    def _check(self):
        if not (MIN_PAIRS <= self.n_pairs <= MAX_PAIRS):
            raise ValueError(f"n_pairs must be {MIN_PAIRS}..{MAX_PAIRS}")
        measured = set()
        labels = set()
        for op in self.ops:
            reuse = "gate on an already-measured qubit"
            if isinstance(op, TwoQubitGate):
                if op.kind not in ("cnot", "cz"):
                    raise ValueError(f"unknown two-qubit gate {op.kind!r}")
                if op.control_pair == op.target_pair:
                    raise ValueError("control and target pairs must differ")
                pairs = (op.control_pair, op.target_pair)
            elif isinstance(op, SingleQubitClifford):
                if not (0 <= op.index < 24):
                    raise ValueError("clifford index must be 0..23")
                pairs = (op.pair,)
            elif isinstance(op, Measure):
                if op.basis not in BASES:
                    raise ValueError("basis must be X, Y or Z")
                if op.pair == 0:
                    raise ValueError("pair 0 is the output and is never measured")
                if op.record_label in labels:
                    raise ValueError(f"duplicate record label {op.record_label!r}")
                labels.add(op.record_label)
                pairs, reuse = (op.pair,), "qubit measured twice"
            else:
                raise TypeError(f"unknown instruction {op!r}")
            # the side is checked first: `measured` hashes it
            if op.side not in SIDES:
                raise ValueError("side must be A or B")
            for p in pairs:
                if not (0 <= p < self.n_pairs):
                    raise ValueError("pair index out of range")
                if (p, op.side) in measured:
                    raise ValueError(reuse)
            if isinstance(op, Measure):
                measured.add((op.pair, op.side))
        for rule in self.accept:
            if rule.relation not in RELATIONS:
                raise ValueError("relation must be coincident or anticoincident")
            for lab in (rule.label_i, rule.label_j):
                if lab not in labels:
                    raise ValueError(f"accept references unknown label {lab!r}")

    # -- JSON interchange ---------------------------------------------------

    def to_dict(self) -> dict:
        ops = [{"kind": op.kind, **{k: getattr(op, k) for k in _OPS[op.kind][1]}}
               for op in self.ops]
        accept = [{k: getattr(r, k) for k in _RULE_KEYS} for r in self.accept]
        return {"n_pairs": self.n_pairs, "ops": ops, "accept": accept}

    @classmethod
    def from_dict(cls, d: dict) -> "PurificationCircuit":
        check_keys(d, ("n_pairs", "ops", "accept"), "circuit", optional={"accept"})
        ops = []
        for o in _list_field(d, "ops"):
            check_object(o, "op")
            kind = o.get("kind")
            if not isinstance(kind, str) or kind not in _OPS:
                raise ValueError(f"unknown op kind {kind!r}")
            op_type, keys = _OPS[kind]
            check_keys(o, ("kind", *keys), f"{kind} op")
            fields = {k: o[k] for k in keys}
            ops.append(op_type(kind, **fields) if op_type is TwoQubitGate
                       else op_type(**fields))
        accept = []
        for a in _list_field(d, "accept", []):
            check_keys(a, _RULE_KEYS, "accept rule")
            accept.append(AcceptRule(**{k: a[k] for k in _RULE_KEYS}))
        return cls(d["n_pairs"], tuple(ops), tuple(accept))

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PurificationCircuit":
        return cls.from_dict(json.loads(text))


def _checked_fields(objs: tuple) -> tuple:
    """objs, with every pair index and Clifford index a plain int (`as_int`)
    and every label checked to be a string.  An object, and the tuple, are
    copied only when a field changes: a search builds many circuits, and
    fresh tuples for each fragment its heap."""
    for i, obj in enumerate(objs):
        # an object without fields is no op; _check rejects it by type
        for key, v in getattr(obj, "__dict__", {}).items():
            if key in _INT_KEYS and type(v) is not int:
                obj = replace(obj, **{key: as_int(key, v)})
            elif key in _STR_KEYS and not isinstance(v, str):
                raise ValueError(f"{key} must be a string, got {v!r}")
        if obj is not objs[i]:
            objs = (*objs[:i], obj, *objs[i + 1:])
    return objs


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

def resolve_input(spec) -> DensityMatrix:
    """One input pair: 'stephenson' (the rotated measured pair), the text
    'werner:F' (fidelity F, the rest split evenly over the three other Bell
    states) or 'belldiag:F,px,pz,py', a BellDiagonalState, a 2-qubit
    DensityMatrix or its 4x4 entries."""
    if isinstance(spec, str):
        if spec == "stephenson":
            return stephenson_pair(rotated=True)
        name, colon, values = spec.partition(":")
        if not colon or name not in ("werner", "belldiag"):
            raise ValueError(f"unknown input spec {spec!r}")
        try:
            if name == "werner":
                third = 1.0 / 3.0
                spec = BellDiagonalState(float(values), third, third, third)
            else:
                f, px, pz, py = (float(v) for v in values.split(","))
                spec = BellDiagonalState(f, px, pz, py)
        except ValueError as exc:
            raise ValueError(f"malformed input spec {spec!r}: {exc}") from None
    if isinstance(spec, BellDiagonalState):
        return spec.to_density_matrix()
    if not isinstance(spec, DensityMatrix):
        if np.ndim(spec) != 2:
            raise TypeError("input spec must be 'stephenson', a BellDiagonalState, "
                            "a 2-qubit DensityMatrix or its 4x4 entries")
        return DensityMatrix(2, spec)
    if spec.num_qubits != 2:
        raise ValueError("input state must be a 2-qubit state")
    return spec


def _pair_inputs(inputs, n_pairs: int) -> list:
    """The 4x4 entries of each pair: one input spec for all, or n_pairs of them."""
    if isinstance(inputs, (str, BellDiagonalState, DensityMatrix)) or (
            isinstance(inputs, np.ndarray) and inputs.ndim == 2):
        return [resolve_input(inputs).entries] * n_pairs
    seq = list(inputs)
    if len(seq) != n_pairs:
        raise ValueError(f"need {n_pairs} input states, got {len(seq)}")
    return [resolve_input(s).entries for s in seq]


@functools.lru_cache(maxsize=1)
def _joint_state(*pair_bytes: bytes) -> np.ndarray:
    """Read-only 2n-qubit product of the complex128 4x4 pair inputs, by their bytes.

    Each distinct input passes `DensityMatrix.validate` here, once per input
    set; an invalid one raises, and a call that raises is never cached.  A
    search simulates many circuits on the same inputs, so the last joint
    state is kept; a kernel that wrote into it in place would raise.
    """
    pairs = {raw: DensityMatrix(2, np.frombuffer(raw, dtype=complex).reshape(4, 4))
             .validate().entries for raw in dict.fromkeys(pair_bytes)}
    n_pairs = len(pair_bytes)
    state = np.array([[1.0 + 0j]])
    for raw in pair_bytes:
        state = np.kron(state, pairs[raw])
    # kron order is A0 B0 A1 B1 ...; relabel to A0..A_{n-1} B0..B_{n-1}
    perm = [2 * i for i in range(n_pairs)] + [2 * i + 1 for i in range(n_pairs)]
    state = _permute_raw(state, perm, 2 * n_pairs)
    state.setflags(write=False)
    return state


def _record_bitflip(outcomes: np.ndarray, pm: float) -> np.ndarray:
    """The branches after a measurement whose record flips with probability pm.

    `outcomes` is `_measure_raw`'s (2, B, d, d) stack.  Returns a fresh
    (2B, d, d) stack in which row 2b, outcome 0 written down, is
    (1 - pm) * s0 + pm * s1 of branch b, and row 2b + 1 is
    (1 - pm) * s1 + pm * s0, bit for bit.  Three in-place ops make it, and
    the pm * products overwrite `outcomes`.
    """
    shape = outcomes.shape[2:]
    mixed = np.empty((outcomes.shape[1], 2, *shape), dtype=complex)
    np.multiply(1 - pm, outcomes.swapaxes(0, 1), out=mixed)
    np.multiply(pm, outcomes, out=outcomes)
    np.add(mixed, outcomes[::-1].swapaxes(0, 1), out=mixed)
    return mixed.reshape(-1, *shape)


def simulate(circuit: PurificationCircuit, inputs, noise: NoiseModel) -> ProtocolOutcome:
    """Exact noisy run over the accepted measurement branches, closed-form depolarizing.

    `inputs` is one input spec shared by every pair, as `resolve_input`
    takes, or a length-n_pairs list of them; each state must pass
    `DensityMatrix.validate` or ValueError is raised.
    Depolarizing noise follows every gate on exactly its qubits (p1 single,
    p2 two-qubit); measurement records pass through a p_meas bitflip.
    Once a measurement writes the last record of an accept rule, every
    branch that breaks the rule is pruned.  The branches are one stack in
    record order, each with its records as a bitmask: a measurement is one
    `_measure_raw` call on all of them and one `_record_bitflip` of its
    outcome stack, a gate runs in place on each, and the survivors are
    reduced by one `_partial_trace_raw` call and one trace on the whole
    stack, then summed in branch order.
    Returns the accept-conditioned pair-0 marginal next to its fidelity and
    the total success probability.
    """
    n_pairs = circuit.n_pairs
    n = 2 * n_pairs
    mats = _pair_inputs(inputs, n_pairs)
    state = _joint_state(*(m.tobytes() for m in mats))

    alive = list(range(n))  # qubit id -> position alive.index(id)
    # the branches: a writable copy stacked in record order, unnormalized
    # (trace == path probability); bit bits[label] of records[i] is the
    # outcome that row i wrote down for that label
    branches, records = state.copy()[None], [0]
    bits = {}
    pending = list(circuit.accept)  # rules still waiting for one of their records
    # the two-pass gate kernels' scratch at the current width; it belongs to
    # this call, and a measurement, the only op that changes the width, frees it
    work = None

    for op in circuit.ops:
        m = len(alive)
        off = 0 if op.side == "A" else n_pairs
        if isinstance(op, Measure):
            work = None
            q = off + op.pair
            pos = alive.index(q)
            bit = bits[op.record_label] = len(bits)
            done = [r for r in pending if r.label_i in bits and r.label_j in bits]
            pending = [r for r in pending if r not in done]
            outcomes = _measure_raw(branches, op.basis, pos, m)
            branches = _record_bitflip(outcomes, noise.p_meas)
            records = [rec | b << bit for rec in records for b in (0, 1)]
            if done:
                # a row that breaks a now-complete accept rule is dropped
                rules = [(bits[r.label_i], bits[r.label_j], r.relation != "coincident")
                         for r in done]
                keep = [i for i, rec in enumerate(records)
                        if all((rec >> bi ^ rec >> bj) & 1 == odd for bi, bj, odd in rules)]
                if len(keep) < len(records):
                    branches = branches[keep]
                    records = [records[i] for i in keep]
            alive.remove(q)
            continue
        if isinstance(op, TwoQubitGate):
            pos = [alive.index(off + op.control_pair), alive.index(off + op.target_pair)]
            gate = _cnot_raw if op.kind == "cnot" else _cz_raw
            args, p = pos, noise.p2
        else:
            pos = [alive.index(off + op.pair)]
            gate, args, p = _apply_unitary_raw, (clifford_unitary(op.index), *pos), noise.p1
        for s in branches:  # the gate and its noise run in place on each row
            if gate is _cz_raw:
                gate(s, *args, m, out=s)
            else:
                if work is None:
                    work = np.empty((2, *s.shape), dtype=complex)
                gate(s, *args, m, out=s, work=work)
            _depolarize_raw(s, p, pos, m, out=s)

    # alive only loses entries, so A0 still precedes B0
    m = len(alive)
    reduced = _partial_trace_raw(branches, [alive.index(0), alive.index(n_pairs)], m)
    total = np.zeros((4, 4), dtype=complex)
    p_succ = 0.0
    for red, trace in zip(reduced, np.trace(branches, axis1=1, axis2=2).real.tolist()):
        p_succ += trace
        total += red

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
