"""Exact dense density-matrix substrate for few-qubit purification circuits.

Convention: computational basis |q0 q1 ... q_{n-1}> with q0 the MOST
significant bit, row-major entries, complex128 throughout.  All operations
are pure functions; DensityMatrix instances are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 10  # 2 * 5 pairs; joint states of the largest supported circuits

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
# measured input data may carry small negative eigenvalues
PSD_TOL = -1e-7

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)

_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
_AXES = "XYZ"

BELL_KINDS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
_BELL_VECTORS = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class DensityMatrix:
    """Exact mixed state of 1..MAX_QUBITS qubits."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        dim = 2 ** self.num_qubits
        if not (1 <= self.num_qubits <= MAX_QUBITS):
            raise ValueError(f"num_qubits must be 1..{MAX_QUBITS}")
        if arr.shape != (dim, dim):
            raise ValueError(f"entries must be {dim}x{dim} for {self.num_qubits} qubits")

    def validate(self, check_psd: bool = True) -> "DensityMatrix":
        """Check finiteness, Hermiticity, unit trace and (optionally) positivity."""
        a = self.entries
        if not np.isfinite(a).all():
            raise ValueError("entries must be finite")
        if np.abs(a - a.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("not Hermitian within 1e-10")
        if abs(np.trace(a) - 1) > TRACE_TOL:
            raise ValueError("trace differs from 1 by more than 1e-9")
        if check_psd:
            lo = float(np.linalg.eigvalsh(a)[0])
            if lo < PSD_TOL:
                raise ValueError(f"minimum eigenvalue {lo:.3e} below tolerance")
        return self

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)


@dataclass(frozen=True)
class BellDiagonalState:
    """Bell-diagonal weights: f on phi+, remainder split px:psi+, pz:phi-, py:psi-."""

    f: float
    px: float
    pz: float
    py: float

    def __post_init__(self):
        for v in (self.f, self.px, self.pz, self.py):
            if not (0 <= v <= 1):
                raise ValueError("weights must lie in [0,1]")
        if abs(self.px + self.py + self.pz - 1) > 1e-12:
            raise ValueError("px + py + pz must equal 1")

    def weights(self) -> dict:
        """Absolute weights on the four Bell projectors."""
        r = 1 - self.f
        return {"phi_plus": self.f, "psi_plus": r * self.px,
                "phi_minus": r * self.pz, "psi_minus": r * self.py}

    def to_density_matrix(self) -> DensityMatrix:
        rho = np.zeros((4, 4), dtype=complex)
        for kind, w in self.weights().items():
            v = _BELL_VECTORS[kind]
            rho += w * np.outer(v, v.conj())
        return DensityMatrix(2, rho)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing circuit noise: p1 per 1q gate, p2 per 2q gate, p_meas per record."""

    p1: float = 0.0
    p2: float = 0.0
    p_meas: float = 0.0

    def __post_init__(self):
        for v in (self.p1, self.p2, self.p_meas):
            if not (0 <= v <= 1):
                raise ValueError("noise probabilities must lie in [0,1]")


IDEAL_NOISE = NoiseModel(0.0, 0.0, 0.0)
# trapped-ion device defaults: 1e-5 per 1q gate, 5e-5 per 2q gate, 1e-5 per record
DEVICE_NOISE = NoiseModel(1e-5, 5e-5, 1e-5)


# ---------------------------------------------------------------------------
# raw ndarray kernels (shared with the circuit simulator's hot loop)

def _apply_unitary_raw(rho: np.ndarray, u: np.ndarray, targets: list, n: int) -> np.ndarray:
    """U rho U^dag with U acting on `targets` of an n-qubit array."""
    k = len(targets)
    t = rho.reshape((2,) * (2 * n))
    ut = u.reshape((2,) * (2 * k))
    t = np.tensordot(ut, t, axes=(list(range(k, 2 * k)), targets))
    t = np.moveaxis(t, range(k), targets)
    bra = [n + q for q in targets]
    t = np.tensordot(np.conj(ut), t, axes=(list(range(k, 2 * k)), bra))
    t = np.moveaxis(t, range(k), bra)
    return np.ascontiguousarray(t.reshape(2 ** n, 2 ** n))


def _permute_raw(rho: np.ndarray, perm: list, n: int) -> np.ndarray:
    """Relabel qubits: new position i holds old qubit perm[i]."""
    t = rho.reshape((2,) * (2 * n))
    axes = list(perm) + [n + q for q in perm]
    return np.ascontiguousarray(t.transpose(axes).reshape(2 ** n, 2 ** n))


def _partial_trace_raw(rho: np.ndarray, keep: list, n: int) -> np.ndarray:
    """Reduce to `keep` (order preserved), tracing out the rest."""
    drop = [q for q in range(n) if q not in keep]
    t = rho.reshape((2,) * (2 * n))
    for q in sorted(drop, reverse=True):
        t = np.trace(t, axis1=q, axis2=t.ndim // 2 + q)
    m = len(keep)
    # axes now follow the original relative order of kept qubits
    order = np.argsort(np.argsort(keep))
    t = t.reshape((2,) * (2 * m))
    t = t.transpose(list(order) + [m + int(i) for i in order])
    return np.ascontiguousarray(t.reshape(2 ** m, 2 ** m))


def _depolarize_raw(rho: np.ndarray, p: float, targets: list, n: int) -> np.ndarray:
    """Uniform mixture over non-identity Paulis on targets, weight p.

    Closed form: the full 4^k-term Pauli average equals replacement by the
    maximally mixed state on the targets, so the 3- or 15-term non-identity
    mixture is (1-lam) rho + lam * (Tr_t rho (x) I/2^k) with
    lam = p * d^2/(d^2-1), d = 2^k.
    """
    if p == 0.0:
        return rho
    k = len(targets)
    dim = 2 ** k
    keep = [q for q in range(n) if q not in targets]
    if keep:
        red = _partial_trace_raw(rho, keep, n)
    else:
        red = np.array([[np.trace(rho)]], dtype=complex)
    mixed = np.kron(red, np.eye(dim, dtype=complex) / dim)
    # back from [keep..., targets...] layout to original qubit positions
    cur = keep + list(targets)
    inv = [cur.index(q) for q in range(n)]
    mixed = _permute_raw(mixed, inv, n)
    lam = p * dim * dim / (dim * dim - 1)
    return (1 - lam) * rho + lam * mixed


def _basis_projectors(basis: str):
    if basis not in _AXES:
        raise ValueError("basis must be one of X, Y, Z")
    sigma = _PAULIS[_AXES.index(basis)]
    return (I2 + sigma) / 2, (I2 - sigma) / 2


def _project_raw(rho: np.ndarray, proj: np.ndarray, target: int, n: int) -> np.ndarray:
    """P rho P for a single-qubit projector (unnormalized)."""
    return _apply_unitary_raw(rho, proj, [target], n)


# ---------------------------------------------------------------------------
# single-qubit Clifford table

def _pauli_image(u: np.ndarray, p: np.ndarray):
    v = u @ p @ u.conj().T
    for axis, q in enumerate(_PAULIS):
        c = np.trace(q @ v) / 2
        if abs(c.imag) < 1e-9 and abs(abs(c.real) - 1) < 1e-9:
            return axis, 1 if c.real > 0 else -1
    raise ValueError("not a Clifford unitary")


def _action_key(u: np.ndarray):
    xa, xs = _pauli_image(u, PAULI_X)
    za, zs = _pauli_image(u, PAULI_Z)
    # axis order X,Y,Z and sign order +,- give the canonical index
    return (xa, -xs, za, -zs)


def _phase_normalize(u: np.ndarray) -> np.ndarray:
    flat = u.ravel()
    k = int(np.argmax(np.abs(flat) > 1e-9))
    return u * (np.conj(flat[k]) / np.abs(flat[k]))


def _build_clifford_table():
    seen = {}
    frontier = [I2]
    while frontier:
        u = frontier.pop()
        key = _action_key(u)
        if key in seen:
            continue
        seen[key] = _phase_normalize(u)
        for g in (HADAMARD, S_GATE):
            frontier.append(g @ u)
    assert len(seen) == 24
    table = [seen[k] for k in sorted(seen)]
    for u in table:
        u.setflags(write=False)
    return tuple(table)


CLIFFORD_UNITARIES = _build_clifford_table()


def clifford_unitary(index: int) -> np.ndarray:
    """The canonical single-qubit Clifford with the given index (0..23).

    Indexing is lexicographic in the adjoint action (image of X, image of Z)
    with axis order X,Y,Z and sign order +,-.
    """
    if not (0 <= index < 24):
        raise ValueError("Clifford index must be 0..23")
    return CLIFFORD_UNITARIES[index]


def clifford_index(u: np.ndarray) -> int:
    """Index of a single-qubit Clifford unitary, ignoring global phase."""
    key = _action_key(np.asarray(u, dtype=complex))
    for i, c in enumerate(CLIFFORD_UNITARIES):
        if _action_key(c) == key:
            return i
    raise ValueError("unitary not in the Clifford table")


# named entry points into the table
CLIFFORD_INDEX = {
    "I": clifford_index(I2),
    "X": clifford_index(PAULI_X),
    "Y": clifford_index(PAULI_Y),
    "Z": clifford_index(PAULI_Z),
    "H": clifford_index(HADAMARD),
    "S": clifford_index(S_GATE),
    "SDG": clifford_index(S_GATE.conj().T),
    # sqrt(X) rotations exp(-+ i pi/4 X); the DEJMPS pair of rotations
    "RXP": clifford_index((I2 + 1j * PAULI_X) / np.sqrt(2)),
    "RXM": clifford_index((I2 - 1j * PAULI_X) / np.sqrt(2)),
}

# conjugate partner: index c* with U_{c*} ~ conj(U_c); applying (U, conj U)
# on the two sides of a pair leaves phi+ invariant
CLIFFORD_CONJUGATE_PARTNER = tuple(
    clifford_index(np.conj(u)) for u in CLIFFORD_UNITARIES
)

_NAMED_GATES = {
    "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z,
    "H": HADAMARD, "S": S_GATE, "CNOT": CNOT, "CZ": CZ,
}


# ---------------------------------------------------------------------------
# constructors

def bell_state(kind: str) -> DensityMatrix:
    """Rank-1 projector onto the named Bell state."""
    if kind not in _BELL_VECTORS:
        raise ValueError(f"kind must be one of {BELL_KINDS}")
    v = _BELL_VECTORS[kind]
    return DensityMatrix(2, np.outer(v, v.conj()))


def bell_diagonal(f: float, px: float, pz: float, py: float) -> DensityMatrix:
    """Density matrix of BellDiagonalState(f, px, pz, py)."""
    return BellDiagonalState(f, px, pz, py).to_density_matrix()


# Measured ion-ion entangled pair from a two-node trapped-ion network
# experiment, transcribed to full precision.  Unrotated form is diagonally
# dominant on |01>,|10>; the rotated form concentrates weight on phi+.
_STEPHENSON_RAW = np.array([
    [0.01, -0.00487616 + 0.00349614j, 0.0135924 + 0.00634402j, 0.00374015 - 0.00331833j],
    [-0.00487616 - 0.00349614j, 0.569, 0.0542638 + 0.440672j, -0.012985 - 0.0292471j],
    [0.0135924 - 0.00634402j, 0.0542638 - 0.440672j, 0.416, -0.0225074 - 0.00473484j],
    [0.00374015 + 0.00331833j, -0.012985 + 0.0292471j, -0.0225074 + 0.00473484j, 0.005],
], dtype=complex)

_STEPHENSON_ROTATED = np.array([
    [0.569, -0.00487616 - 0.00349614j, -0.0292471 + 0.012985j, 0.440672 - 0.0542638j],
    [-0.00487616 + 0.00349614j, 0.01, -0.00331833 - 0.00374015j, 0.00634402 - 0.0135924j],
    [-0.0292471 - 0.012985j, -0.00331833 + 0.00374015j, 0.005, -0.0225074 + 0.00473484j],
    [0.440672 + 0.0542638j, 0.00634402 + 0.0135924j, -0.0225074 - 0.00473484j, 0.416],
], dtype=complex)


def stephenson_pair(rotated: bool = True) -> DensityMatrix:
    """The experimentally measured communication-pair state, verbatim.

    rotated=True applies the published local single-qubit frame change that
    moves the dominant weight onto phi+ (fidelity 0.933172); rotated=False
    is the state as measured.
    """
    m = _STEPHENSON_ROTATED if rotated else _STEPHENSON_RAW
    return DensityMatrix(2, m)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; a's qubits become the most significant block."""
    n = a.num_qubits + b.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"combined size {n} exceeds {MAX_QUBITS} qubits")
    return DensityMatrix(n, np.kron(a.entries, b.entries))


# ---------------------------------------------------------------------------
# operations

def _resolve_gate(gate) -> np.ndarray:
    if isinstance(gate, str):
        try:
            return _NAMED_GATES[gate]
        except KeyError:
            raise ValueError(f"unknown gate name {gate!r}") from None
    if isinstance(gate, (int, np.integer)):
        return clifford_unitary(int(gate))
    u = np.asarray(gate, dtype=complex)
    if u.shape not in ((2, 2), (4, 4)):
        raise ValueError("gate must be a 2x2 or 4x4 unitary")
    return u


def apply_gate(state: DensityMatrix, gate, targets) -> DensityMatrix:
    """U rho U^dag for a named gate, Clifford index, or explicit unitary."""
    targets = [int(t) for t in (targets if hasattr(targets, "__len__") else [targets])]
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    if any(not (0 <= t < state.num_qubits) for t in targets):
        raise ValueError("target index out of range")
    u = _resolve_gate(gate)
    if u.shape[0] != 2 ** len(targets):
        raise ValueError("gate dimension does not match number of targets")
    out = _apply_unitary_raw(state.entries, u, targets, state.num_qubits)
    return DensityMatrix(state.num_qubits, out)


def depolarize(state: DensityMatrix, targets, p: float) -> DensityMatrix:
    """(1-p) rho + p * uniform non-identity-Pauli mixture on targets."""
    if not (0 <= p <= 1):
        raise ValueError("p must lie in [0,1]")
    targets = [int(t) for t in (targets if hasattr(targets, "__len__") else [targets])]
    if len(targets) not in (1, 2) or len(set(targets)) != len(targets):
        raise ValueError("targets must be 1 or 2 distinct qubits")
    if any(not (0 <= t < state.num_qubits) for t in targets):
        raise ValueError("target index out of range")
    out = _depolarize_raw(state.entries, p, targets, state.num_qubits)
    return DensityMatrix(state.num_qubits, out)


def measure_branches(state: DensityMatrix, qubit: int, basis: str, p_meas: float = 0.0):
    """Both branches of a projective X/Y/Z measurement with record bitflips.

    Returns [(prob0, state0), (prob1, state1)].  Branch b's probability and
    post-state mix the true outcomes as (1-p_meas) P(b) + p_meas P(not b);
    the measured qubit is left in place, projected, for the caller to trace
    out.  A zero-probability branch carries an unnormalized (zero) state.
    """
    if not (0 <= p_meas <= 1):
        raise ValueError("p_meas must lie in [0,1]")
    if not (0 <= qubit < state.num_qubits):
        raise ValueError("qubit index out of range")
    n = state.num_qubits
    p_up, p_dn = _basis_projectors(basis)
    s0 = _project_raw(state.entries, p_up, qubit, n)
    s1 = _project_raw(state.entries, p_dn, qubit, n)
    b0 = (1 - p_meas) * s0 + p_meas * s1
    b1 = (1 - p_meas) * s1 + p_meas * s0
    out = []
    for b in (b0, b1):
        pr = float(np.trace(b).real)
        if pr > 1e-15:
            out.append((pr, DensityMatrix(n, b / pr)))
        else:
            out.append((0.0, DensityMatrix(n, b)))
    return out


def partial_trace(state: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on `keep` (sorted qubit indices)."""
    keep = [int(q) for q in keep]
    if not keep:
        raise ValueError("keep must be non-empty")
    if keep != sorted(set(keep)):
        raise ValueError("keep must be sorted and distinct")
    if any(not (0 <= q < state.num_qubits) for q in keep):
        raise ValueError("keep index out of range")
    out = _partial_trace_raw(state.entries, keep, state.num_qubits)
    return DensityMatrix(len(keep), out)


def fidelity_to_bell(state: DensityMatrix, kind: str = "phi_plus") -> float:
    """<bell| rho |bell> for a 2-qubit state."""
    if state.num_qubits != 2:
        raise ValueError("fidelity_to_bell needs a 2-qubit state")
    if kind not in _BELL_VECTORS:
        raise ValueError(f"kind must be one of {BELL_KINDS}")
    v = _BELL_VECTORS[kind]
    return float((v.conj() @ state.entries @ v).real)


def twirl(state: DensityMatrix) -> BellDiagonalState:
    """Bell-diagonal reduction: the four Bell-basis diagonal weights.

    Preserves the phi+ fidelity exactly (f equals fidelity_to_bell).
    """
    if state.num_qubits != 2:
        raise ValueError("twirl needs a 2-qubit state")
    w = {k: fidelity_to_bell(state, k) for k in BELL_KINDS}
    f = w["phi_plus"]
    # clamp the tiny negative weights that marginally-PSD measured data allows
    wx = max(w["psi_plus"], 0.0)
    wz = max(w["phi_minus"], 0.0)
    wy = max(w["psi_minus"], 0.0)
    rest = wx + wy + wz
    if rest <= 0:
        return BellDiagonalState(f, 1 / 3, 1 / 3, 1 / 3)
    return BellDiagonalState(f, wx / rest, wz / rest, wy / rest)
