"""Exact dense density-matrix substrate for few-qubit purification circuits.

Convention: computational basis |q0 q1 ... q_{n-1}> with q0 the MOST
significant bit, row-major entries, complex128 throughout.  The `_raw`
kernels are pure functions on bare ndarrays and are what `purify.simulate`
runs on; DensityMatrix instances are immutable after construction.
"""
from __future__ import annotations

import functools
import itertools
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
    lam = p * d^2/(d^2-1), d = 2^k.  The second term is nonzero only on the
    2^k blocks where the targets' ket and bra bits agree, so it is added into
    those blocks of (1-lam) rho instead of being built at full size.
    """
    if p == 0.0:
        return rho
    k = len(targets)
    dim = 2 ** k
    lam = p * dim * dim / (dim * dim - 1)
    if k == n:
        red = np.trace(rho)
    else:
        red = rho.reshape((2,) * (2 * n))
        for q in sorted(targets, reverse=True):
            red = np.trace(red, axis1=q, axis2=red.ndim // 2 + q)
    out = (1 - lam) * rho
    blocks = out.reshape((2,) * (2 * n))
    mixed = lam * (red / dim)
    for bits in itertools.product((0, 1), repeat=k):
        idx = [slice(None)] * (2 * n)
        for q, b in zip(targets, bits):
            idx[q] = idx[n + q] = b
        blocks[tuple(idx)] += mixed
    return out


def _project_raw(rho: np.ndarray, proj: np.ndarray, target: int, n: int) -> np.ndarray:
    """P rho P for a single-qubit projector (unnormalized).

    The simulator measures with `_measure_raw`; this is the reference it is
    tested against.
    """
    return _apply_unitary_raw(rho, proj, [target], n)


def _measure_raw(rho: np.ndarray, basis: str, q: int, n: int):
    """Both unnormalized outcome branches of an X/Y/Z measurement of qubit q.

    Returns (s0, s1), the +1 and -1 branches with q traced out.  Each is
    read off the four (ket_q, bra_q) blocks tab of rho, through the same
    addition tree as projecting with `_project_raw` and then tracing q out
    with `_partial_trace_raw`, so the two agree bit for bit.
    """
    lo, hi = 2 ** q, 2 ** (n - 1 - q)
    t = rho.reshape(lo, 2, hi, lo, 2, hi)

    def block(a, b):
        return t[:, a, :, :, b, :]

    if basis == "Z":
        s0, s1 = block(0, 0).copy(), block(1, 1).copy()
    else:
        t00, t01, t10, t11 = block(0, 0), block(0, 1), block(1, 0), block(1, 1)
        if basis == "X":
            s0 = .5 * ((t00 + t10) + (t01 + t11))
            s1 = .5 * ((t00 - t10) - (t01 - t11))
        elif basis == "Y":
            s0 = .5 * ((t00 - 1j * t10) + 1j * (t01 - 1j * t11))
            s1 = .5 * ((t00 + 1j * t10) - 1j * (t01 + 1j * t11))
        else:
            raise ValueError("basis must be one of X, Y, Z")
    d = lo * hi
    return s0.reshape(d, d), s1.reshape(d, d)


@functools.lru_cache(maxsize=None)
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    perm = idx ^ (((idx >> (n - 1 - control)) & 1) << (n - 1 - target))
    perm.setflags(write=False)
    return perm


@functools.lru_cache(maxsize=None)
def _cz_signs(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    both = (idx >> (n - 1 - control)) & (idx >> (n - 1 - target)) & 1
    signs = 1.0 - 2.0 * both
    signs.setflags(write=False)
    return signs


def _cnot_raw(rho: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    """CNOT rho CNOT as a row and column permutation.

    Equal bit for bit to `_apply_unitary_raw(rho, CNOT, [control, target], n)`:
    that contraction only multiplies by 0 and 1.
    """
    perm = _cnot_perm(n, control, target)
    return rho[perm[:, None], perm[None, :]]


def _cz_raw(rho: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    """CZ rho CZ as an outer +-1 sign mask; bitwise equal to `_apply_unitary_raw`."""
    signs = _cz_signs(n, control, target)
    return rho * np.multiply.outer(signs, signs)


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
    keys = sorted(seen)
    for u in seen.values():
        u.setflags(write=False)
    return tuple(seen[k] for k in keys), {k: i for i, k in enumerate(keys)}


CLIFFORD_UNITARIES, _CLIFFORD_INDEX_BY_KEY = _build_clifford_table()


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
    index = _CLIFFORD_INDEX_BY_KEY.get(_action_key(np.asarray(u, dtype=complex)))
    if index is None:
        raise ValueError("unitary not in the Clifford table")
    return index


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


# ---------------------------------------------------------------------------
# Bell states, the measured pair and fidelity

def bell_state(kind: str) -> DensityMatrix:
    """Rank-1 projector onto the named Bell state."""
    if kind not in _BELL_VECTORS:
        raise ValueError(f"kind must be one of {BELL_KINDS}")
    v = _BELL_VECTORS[kind]
    return DensityMatrix(2, np.outer(v, v.conj()))


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


def fidelity_to_bell(state: DensityMatrix, kind: str = "phi_plus") -> float:
    """<bell| rho |bell> for a 2-qubit state."""
    if state.num_qubits != 2:
        raise ValueError("fidelity_to_bell needs a 2-qubit state")
    if kind not in _BELL_VECTORS:
        raise ValueError(f"kind must be one of {BELL_KINDS}")
    v = _BELL_VECTORS[kind]
    return float((v.conj() @ state.entries @ v).real)
