"""Exact dense density-matrix substrate for few-qubit purification circuits.

Convention: computational basis |q0 q1 ... q_{n-1}> with q0 the MOST
significant bit, row-major entries, complex128 throughout.  The `_raw`
kernels are functions on bare ndarrays and are what `purify.simulate` runs
on; DensityMatrix instances are immutable after construction.

The gate and depolarizing kernels follow NumPy's `out=` idiom.  With
`out=None` they allocate their result; otherwise they write it into `out`,
a C-contiguous complex128 array of rho's shape, and return it.  `out` may be
rho itself: each kernel has read all of rho that it needs before it writes
`out`.  The two-pass kernels `_apply_unitary_raw` and `_cnot_raw` also take
`work`, a C-contiguous complex128 array of shape (2, *rho.shape) that they
overwrite with their intermediates; it may not share memory with rho or
`out`, and is allocated when None.  Every path gives the same bits as the
allocating call, and none writes into rho unless it is `out`.

`_depolarize_raw` takes one or two distinct target qubits, as the simulator
asks after each gate, or every qubit; any other target set raises
ValueError.  `_measure_raw` and `_partial_trace_raw` also take a stack
(*batch, 2^n, 2^n) and treat each matrix as a call on it alone would, bit
for bit.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._checks import as_choice, as_flag, as_int, as_real, as_record

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
BASES = ("X", "Y", "Z")  # the measurement bases, one per Pauli

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
        object.__setattr__(self, "num_qubits",
                           as_int("num_qubits", self.num_qubits, 1, MAX_QUBITS))
        dim = 2 ** self.num_qubits
        try:  # text, None and ragged rows fail as a wrong shape does
            arr = np.array(self.entries, dtype=complex, order="C")
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.shape != (dim, dim):
            raise ValueError(f"entries must be {dim}x{dim} for {self.num_qubits} qubits")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def validate(self) -> "DensityMatrix":
        """Check finiteness, Hermiticity, unit trace and positivity."""
        a = self.entries
        if not np.isfinite(a).all():
            raise ValueError("entries must be finite")
        if np.abs(a - a.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("not Hermitian within 1e-10")
        if abs(np.trace(a) - 1) > TRACE_TOL:
            raise ValueError("trace differs from 1 by more than 1e-9")
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
        for name in ("f", "px", "pz", "py"):
            object.__setattr__(self, name, as_real(name, getattr(self, name), "[0,1]"))
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
        for name in ("p1", "p2", "p_meas"):
            object.__setattr__(self, name, as_real(name, getattr(self, name), "[0,1]"))


IDEAL_NOISE = NoiseModel(0.0, 0.0, 0.0)
# trapped-ion device defaults: 1e-5 per 1q gate, 5e-5 per 2q gate, 1e-5 per record
DEVICE_NOISE = NoiseModel(1e-5, 5e-5, 1e-5)


# ---------------------------------------------------------------------------
# raw ndarray kernels (shared with the circuit simulator's hot loop)

def _apply_unitary_raw(rho: np.ndarray, u: np.ndarray, target: int, n: int,
                       out=None, work=None) -> np.ndarray:
    """U rho U^dag with the 2x2 U acting on qubit `target` of an n-qubit array.

    Makes the two `np.dot(u, (2, N))` calls that contracting with
    `np.tensordot` makes, on the same contiguous operands, so the result is
    the same bit for bit; the operands are built from (lo, 2, hi) views of
    each side instead of 2n-axis transposes.  Each operand goes to work[0]
    and each product to work[1].
    """
    lo, hi = 2 ** target, 2 ** (n - 1 - target)
    dim = 2 * lo * hi
    if work is None:
        work = np.empty((2, dim, dim), dtype=complex)
    ops, t = work[0].reshape(2, -1), work[1].reshape(2, -1)
    # ket: t[a, (l, h, bra)] = sum_k u[a, k] rho[(l, k, h), bra]
    ket = rho.reshape(lo, 2, hi * dim).transpose(1, 0, 2)
    if lo == 1:
        ket = ket.reshape(2, -1)  # a contiguous view of rho
    else:
        np.copyto(ops.reshape(ket.shape), ket)
        ket = ops
    np.dot(u, ket, out=t)
    # bra: bring the target's bra bit b of t[a, l, h, lb, b, hb] to the front
    np.copyto(ops.reshape(2, lo, 2, hi, lo, hi),
              t.reshape(2, lo, hi, lo, 2, hi).transpose(4, 1, 0, 2, 3, 5))
    np.dot(np.conj(u), ops, out=t)
    # t[b, l, a, h, lb, hb] -> rows (l, a, h), columns (lb, b, hb)
    if out is None:
        out = np.empty((dim, dim), dtype=complex)
    np.copyto(out.reshape(lo, 2, hi, lo, 2, hi),
              t.reshape(2, lo, 2, hi, lo, hi).transpose(1, 2, 3, 4, 0, 5))
    return out


def _permute_raw(rho: np.ndarray, perm: list, n: int) -> np.ndarray:
    """Relabel qubits: new position i holds old qubit perm[i]."""
    t = rho.reshape((2,) * (2 * n))
    axes = list(perm) + [n + q for q in perm]
    return np.ascontiguousarray(t.transpose(axes).reshape(2 ** n, 2 ** n))


def _partial_trace_raw(rho: np.ndarray, keep: list, n: int) -> np.ndarray:
    """Reduce to `keep` (order preserved), tracing out the rest.

    On a stack (*batch, 2^n, 2^n), as `_measure_raw` takes, the result is a
    stack (*batch, 2^m, 2^m) and each matrix is reduced bit for bit as a
    call on it alone would reduce it: the batch axes lead every step.
    """
    batch = rho.shape[:-2]
    if list(keep) == list(range(n)):
        return rho.copy()
    drop = [q for q in range(n) if q not in keep]
    b = len(batch)
    t = rho.reshape(batch + (2,) * (2 * n))
    for q in sorted(drop, reverse=True):
        t = np.trace(t, axis1=b + q, axis2=b + (t.ndim - b) // 2 + q)
    m = len(keep)
    # axes now follow the original relative order of kept qubits
    order = np.argsort(np.argsort(keep))
    t = t.transpose([*range(b)] + [b + int(i) for i in order]
                    + [b + m + int(i) for i in order])
    return np.ascontiguousarray(t.reshape(*batch, 2 ** m, 2 ** m))


def _depolarize_raw(rho: np.ndarray, p: float, targets: list, n: int,
                    out=None) -> np.ndarray:
    """Uniform mixture over non-identity Paulis on targets, weight p.

    `targets` are one or two distinct qubits, as after every gate of the
    simulator, or every qubit; any other set raises ValueError.
    Closed form: the full 4^k-term Pauli average equals replacement by the
    maximally mixed state on the targets, so the 3- or 15-term non-identity
    mixture is (1-lam) rho + lam * (Tr_t rho (x) I/2^k) with
    lam = p * d^2/(d^2-1), d = 2^k.  The second term is nonzero only on the
    2^k blocks where the targets' ket and bra bits agree, so it is added into
    those blocks of (1-lam) rho instead of being built at full size.  The
    reduced state is the pairwise sum of those blocks, (b0 + b1) for one
    target and (b00 + b01) + (b10 + b11) for two, into fresh arrays that are
    scaled in place before rho is scaled into `out`.  With p == 0 and
    `out=None`, rho itself is returned.
    """
    shape, diag = _depolarize_plan(tuple(targets), n)
    if p == 0.0:
        if out is None:
            return rho
        np.copyto(out, rho)
        return out
    k = len(targets)
    dim = 2 ** k
    lam = p * dim * dim / (dim * dim - 1)
    if k == n:
        mixed = lam * (np.trace(rho) / dim)
    else:
        # trace the highest target first, as nested np.trace calls do
        view = rho.reshape(shape)
        mixed = view[diag[0]] + view[diag[1]]
        if k == 2:
            np.add(mixed, view[diag[2]] + view[diag[3]], out=mixed)
        # a sum of at least two blocks, so a fresh array: scale it in place
        np.true_divide(mixed, dim, out=mixed)
        np.multiply(lam, mixed, out=mixed)
    out = np.multiply(1 - lam, rho, out=out)
    blocks = out.reshape(shape)
    for idx in diag:
        # not `blocks[idx] += mixed`, which also copies the block onto itself
        block = blocks[idx]
        np.add(block, mixed, out=block)
    return out


@functools.lru_cache(maxsize=None)
def _depolarize_plan(targets: tuple, n: int):
    """Shape splitting each side of an n-qubit rho around the sorted targets,
    (l, 2, m, 2, h) for two, and the index of every block whose ket and bra
    target bits agree, the lowest target's bit varying slowest.  Raises
    ValueError unless the targets are one or two distinct qubits of the n,
    or all n."""
    qs = sorted(targets)
    if not (len(qs) in (1, 2) or len(qs) == n) or len(set(qs)) < len(qs) \
            or not all(0 <= q < n for q in qs):
        raise ValueError(f"depolarizing targets {list(targets)} on {n} qubits: "
                         "need one or two distinct qubits, or every qubit")
    side = []
    prev = -1
    for q in qs:
        side += [2 ** (q - prev - 1), 2]
        prev = q
    side.append(2 ** (n - 1 - prev))
    diag = []
    for bits in itertools.product((0, 1), repeat=len(qs)):
        half = [slice(None)] * len(side)
        half[1::2] = bits
        diag.append(tuple(half + half))
    return tuple(side + side), tuple(diag)


def _project_raw(rho: np.ndarray, proj: np.ndarray, target: int, n: int) -> np.ndarray:
    """P rho P for a single-qubit projector (unnormalized).

    The simulator measures with `_measure_raw`; this is the reference it is
    tested against.
    """
    return _apply_unitary_raw(rho, proj, target, n)


def _measure_raw(rho: np.ndarray, basis: str, q: int, n: int) -> np.ndarray:
    """Both unnormalized outcome branches of an X/Y/Z measurement of qubit q.

    Returns one array (2, *batch, d, d), d = 2^(n-1): the +1 branch, then
    the -1 branch, each with q traced out, so `s0, s1 = _measure_raw(...)`
    reads them.  Each is read off the four (ket_q, bra_q) blocks tab of rho,
    through the same addition tree as projecting with `_project_raw` and
    then tracing q out with `_partial_trace_raw`, so the two agree bit for
    bit.  Every step of the tree writes through `out=` views, into the
    result or one scratch array, on views of at most six axes, and acts on
    both bra bits or both outcomes at once; the Y basis forms each of its
    `1j * t10` and `1j * t11` products once for both outcomes.  On a stack
    (*batch, 2^n, 2^n), each matrix is measured alone.
    """
    as_choice("basis", basis, BASES)
    lo, hi = 2 ** q, 2 ** (n - 1 - q)
    d = lo * hi
    out = np.empty((2, *rho.shape[:-2], d, d), dtype=complex)
    if basis == "Z":
        # rows (batch, l), ket bit, h; columns l', bra bit, h'
        t = rho.reshape(-1, 2, hi, lo, 2, hi)
        s0, s1 = out.reshape(2, -1, hi, lo, hi)
        np.copyto(s0, t[:, 0, :, :, 0])
        np.copyto(s1, t[:, 1, :, :, 1])
        return out
    # the rows of each ket bit a: ka[(batch, l), (h, column)], so that the
    # bra bit b of a column picks block tab
    rows = rho.reshape(-1, 2, hi * 2 * d)
    k0, k1 = rows[:, 0], rows[:, 1]
    pair = np.empty((2, *k0.shape), dtype=complex)
    # pair[k][(batch, l, h), l', b, h']
    halves = pair.reshape(2, -1, lo, 2, hi)
    if basis == "X":
        # s0 = .5 * ((t00 + t10) + (t01 + t11))
        # s1 = .5 * ((t00 - t10) - (t01 - t11))
        np.add(k0, k1, out=pair[0])
        np.subtract(k0, k1, out=pair[1])
    else:
        # s0 = .5 * ((t00 - 1j * t10) + 1j * (t01 - 1j * t11))
        # s1 = .5 * ((t00 + 1j * t10) - 1j * (t01 + 1j * t11))
        # the 1j * t1b products go into the result's memory until s0 and s1 do
        i1 = np.multiply(1j, k1, out=out.reshape(k1.shape))
        np.subtract(k0, i1, out=pair[0])
        np.add(k0, i1, out=pair[1])
        bra1 = halves[:, :, :, 1]
        np.multiply(1j, bra1, out=bra1)
    s0, s1 = out.reshape(2, -1, lo, hi)
    np.add(halves[0, :, :, 0], halves[0, :, :, 1], out=s0)
    np.subtract(halves[1, :, :, 0], halves[1, :, :, 1], out=s1)
    np.multiply(.5, out, out=out)
    return out


@functools.lru_cache(maxsize=None)
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    perm = idx ^ (((idx >> (n - 1 - control)) & 1) << (n - 1 - target))
    perm.setflags(write=False)
    return perm


@functools.lru_cache(maxsize=None)
def _cz_plan(n: int, control: int, target: int):
    """Shape splitting rho's rows around the two qubits, (l, 2, m, 2, h, 2^n),
    and the rows of the outer sign mask that it broadcasts against, indexed
    by the two qubits' row bits: the column signs, negated when both are 1.
    They are stored complex, so no product casts them."""
    a, b = sorted((control, target))
    idx = np.arange(2 ** n)
    signs = 1.0 - 2.0 * ((idx >> (n - 1 - a)) & (idx >> (n - 1 - b)) & 1)
    rows = np.empty((2, 1, 2, 1, 2 ** n), dtype=complex)
    rows[...] = signs
    # negate before the cast: -(1+0j) would carry a -0.0 imaginary part
    rows[1, 0, 1, 0] = -signs
    rows.setflags(write=False)
    return (2 ** a, 2, 2 ** (b - a - 1), 2, 2 ** (n - 1 - b), 2 ** n), rows


def _cnot_raw(rho: np.ndarray, control: int, target: int, n: int,
              out=None, work=None) -> np.ndarray:
    """CNOT rho CNOT as a row and column permutation, the rows into work[0].

    Equal bit for bit to contracting with the 4x4 CNOT: that contraction
    only multiplies by 0 and 1.
    """
    perm = _cnot_perm(n, control, target)
    # every index is in range: "clip" only skips the check, and with it the
    # extra copy that take makes into an `out` under mode="raise"
    rows = rho.take(perm, 0, out=None if work is None else work[0], mode="clip")
    return rows.take(perm, 1, out=out, mode="clip")


def _cz_raw(rho: np.ndarray, control: int, target: int, n: int, out=None) -> np.ndarray:
    """CZ rho CZ: each entry times the +-1 sign of its row times that of its column.

    Each row is multiplied by its cached row of the outer sign mask, so every
    entry meets the same complex product, by +-1 + 0j, as in
    `rho * np.multiply.outer(signs, signs)`, which casts its float mask; the
    bits agree, the sign of a zero included, and no full-size mask is built.
    """
    shape, rows = _cz_plan(n, control, target)
    if out is None:
        out = np.empty(rho.shape, dtype=complex)
    np.multiply(rho.reshape(shape), rows, out=out.reshape(shape))
    return out


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
    return CLIFFORD_UNITARIES[as_int("index", index, 0, 23)]


def clifford_index(u: np.ndarray) -> int:
    """Index of a single-qubit Clifford unitary, ignoring global phase."""
    try:  # text, a wrong shape and a non-Clifford all miss the table
        u = np.asarray(u, dtype=complex)
        index = _CLIFFORD_INDEX_BY_KEY.get(_action_key(u)) if u.shape == (2, 2) else None
    except (TypeError, ValueError):
        index = None
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
    v = _BELL_VECTORS[as_choice("kind", kind, BELL_KINDS)]
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
    m = _STEPHENSON_ROTATED if as_flag("rotated", rotated) else _STEPHENSON_RAW
    return DensityMatrix(2, m)


def fidelity_to_bell(state: DensityMatrix, kind: str = "phi_plus") -> float:
    """<bell| rho |bell> for a 2-qubit state."""
    if as_record("state", state, DensityMatrix).num_qubits != 2:
        raise ValueError("fidelity_to_bell needs a 2-qubit state")
    v = _BELL_VECTORS[as_choice("kind", kind, BELL_KINDS)]
    return float((v.conj() @ state.entries @ v).real)
