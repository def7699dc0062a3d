"""Density-matrix core: states, raw kernels, the Clifford table."""

import itertools
import re

import numpy as np
import pytest

import ionsurgery as isg
from ionsurgery import DensityMatrix
from ionsurgery import quantum as Q

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def tensordot_unitary(rho, u, targets, n):
    """U rho U^dag for a k-qubit U on `targets`, contracted with np.tensordot.

    The general contraction the simulator's kernels replace: the oracle of
    the one-target `_apply_unitary_raw` and of `_cnot_raw` and `_cz_raw`.
    """
    k = len(targets)
    t = rho.reshape((2,) * (2 * n))
    ut = u.reshape((2,) * (2 * k))
    t = np.tensordot(ut, t, axes=(list(range(k, 2 * k)), targets))
    t = np.moveaxis(t, range(k), targets)
    bra = [n + q for q in targets]
    t = np.tensordot(np.conj(ut), t, axes=(list(range(k, 2 * k)), bra))
    t = np.moveaxis(t, range(k), bra)
    return np.ascontiguousarray(t.reshape(2 ** n, 2 ** n))


def random_state(rng, n):
    dim = 2 ** n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(n, rho / np.trace(rho))


# ---------------------------------------------------------------------------
# domain types

def test_density_matrix_shape_and_bounds():
    with pytest.raises(ValueError):
        DensityMatrix(2, np.eye(2))  # wrong dim for 2 qubits
    with pytest.raises(ValueError):
        DensityMatrix(0, np.eye(1))
    with pytest.raises(ValueError):
        DensityMatrix(isg.MAX_QUBITS + 1, np.eye(2 ** (isg.MAX_QUBITS + 1)))
    big = DensityMatrix(isg.MAX_QUBITS,
                        np.eye(2 ** isg.MAX_QUBITS) / 2 ** isg.MAX_QUBITS)
    assert big.num_qubits == isg.MAX_QUBITS


def test_density_matrix_validate():
    ok = isg.bell_state("phi_plus").validate()
    assert ok.num_qubits == 2
    bad_h = DensityMatrix(1, np.array([[0.5, 1e-3], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        bad_h.validate()
    bad_t = DensityMatrix(1, np.eye(2))
    with pytest.raises(ValueError):
        bad_t.validate()
    bad_p = DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        bad_p.validate()
    # marginally negative eigenvalues within tolerance are accepted
    eps = 1e-9
    near = DensityMatrix(1, np.diag([1 + eps, -eps]).astype(complex))
    near.validate()
    # NaN passes the Hermiticity and trace comparisons, so it is caught first
    bad_nan = DensityMatrix(1, np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="finite"):
        bad_nan.validate()


def test_entries_are_frozen():
    rho = isg.bell_state("phi_plus")
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 9.0


def test_bell_states_orthonormal():
    kinds = isg.quantum.BELL_KINDS
    for i, ki in enumerate(kinds):
        for kj in kinds:
            f = isg.fidelity_to_bell(isg.bell_state(ki), kj)
            assert f == pytest.approx(1.0 if ki == kj else 0.0, abs=1e-14)
    with pytest.raises(ValueError):
        isg.bell_state("phi")


def test_bell_diagonal_fidelity_by_construction():
    rho = isg.BellDiagonalState(0.94, 1 / 3, 1 / 3, 1 / 3).to_density_matrix()
    assert isg.fidelity_to_bell(rho) == pytest.approx(0.94, abs=1e-14)
    s = isg.BellDiagonalState(0.9, 0.5, 0.25, 0.25)
    w = s.weights()
    assert w["phi_plus"] == pytest.approx(0.9)
    assert w["psi_plus"] == pytest.approx(0.05)
    assert w["phi_minus"] == pytest.approx(0.025)
    assert w["psi_minus"] == pytest.approx(0.025)
    with pytest.raises(ValueError):
        isg.BellDiagonalState(0.9, 0.5, 0.5, 0.5)  # relative parts must sum to 1
    with pytest.raises(ValueError):
        isg.BellDiagonalState(1.2, 1 / 3, 1 / 3, 1 / 3)


def test_noise_model_presets():
    assert (isg.IDEAL_NOISE.p1, isg.IDEAL_NOISE.p2, isg.IDEAL_NOISE.p_meas) == (0, 0, 0)
    assert (isg.DEVICE_NOISE.p1, isg.DEVICE_NOISE.p2, isg.DEVICE_NOISE.p_meas) == (
        1e-5, 5e-5, 1e-5)
    with pytest.raises(ValueError):
        isg.NoiseModel(p1=1.5)


# ---------------------------------------------------------------------------
# gates

def test_qubit_zero_is_most_significant():
    zero2 = np.diag([1, 0, 0, 0]).astype(complex)
    flipped = Q._apply_unitary_raw(zero2, X, 0, 2)
    assert flipped[2, 2] == pytest.approx(1.0)  # |10>
    flipped = Q._apply_unitary_raw(zero2, X, 1, 2)
    assert flipped[1, 1] == pytest.approx(1.0)  # |01>


def test_cnot_convention_control_first():
    ten = np.diag([0, 0, 1, 0]).astype(complex)  # |10>
    out = tensordot_unitary(ten, Q.CNOT, [0, 1], 2)
    assert out[3, 3] == pytest.approx(1.0)  # |11>
    out = tensordot_unitary(ten, Q.CNOT, [1, 0], 2)  # control |0> does nothing
    assert out[2, 2] == pytest.approx(1.0)


def test_unitarity_preserves_trace_and_spectrum():
    rng = np.random.default_rng(11)
    rho = random_state(rng, 3)
    out = Q._apply_unitary_raw(Q._cnot_raw(rho.entries, 0, 2, 3), Q.S_GATE, 1, 3)
    assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvalsh(out)),
                       np.sort(np.linalg.eigvalsh(rho.entries)), atol=1e-10)


# ---------------------------------------------------------------------------
# Clifford table

def test_clifford_table_has_24_distinct_actions():
    keys = set()
    for i in range(24):
        u = isg.clifford_unitary(i)
        assert np.allclose(u @ u.conj().T, I2, atol=1e-12)
        keys.add(isg.clifford_index(u))
    assert keys == set(range(24))


def test_clifford_closure_and_index_lookup():
    for i in range(24):
        for j in range(24):
            prod = isg.clifford_unitary(i) @ isg.clifford_unitary(j)
            assert 0 <= isg.clifford_index(prod) < 24
    with pytest.raises(ValueError):
        isg.clifford_index(np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ValueError):
        isg.clifford_unitary(24)


def test_named_clifford_indices_are_stable():
    assert isg.CLIFFORD_INDEX == {
        "I": 2, "X": 3, "Y": 7, "Z": 6, "H": 16, "S": 10, "SDG": 14,
        "RXP": 0, "RXM": 1,
    }
    for name, mat in (("I", I2), ("X", X), ("Y", Y), ("Z", Z)):
        assert isg.clifford_index(mat) == isg.CLIFFORD_INDEX[name]


def test_conjugate_partner_preserves_phi_plus():
    bell = isg.bell_state("phi_plus").entries
    for i in range(24):
        j = isg.CLIFFORD_CONJUGATE_PARTNER[i]
        u = np.kron(isg.clifford_unitary(i), isg.clifford_unitary(j))
        out = u @ bell @ u.conj().T
        assert np.trace(out @ bell).real == pytest.approx(1.0, abs=1e-12)
    assert isg.CLIFFORD_CONJUGATE_PARTNER[isg.CLIFFORD_INDEX["RXM"]] == \
        isg.CLIFFORD_INDEX["RXP"]


# ---------------------------------------------------------------------------
# channels and measurement

def test_depolarize_matches_single_qubit_kraus():
    rng = np.random.default_rng(7)
    rho = random_state(rng, 3).entries
    p = 0.3
    out = Q._depolarize_raw(rho, p, [1], 3)
    want = (1 - p) * rho
    for sig in (X, Y, Z):
        want = want + (p / 3) * Q._apply_unitary_raw(rho, sig, 1, 3)
    assert np.abs(out - want).max() < 1e-14


def test_depolarize_matches_two_qubit_kraus():
    rng = np.random.default_rng(8)
    rho = random_state(rng, 3).entries
    p = 0.2
    out = Q._depolarize_raw(rho, p, [0, 2], 3)
    want = (1 - p) * rho
    paulis = (I2, X, Y, Z)
    for a in range(4):
        for b in range(4):
            if a == b == 0:
                continue
            u = np.kron(paulis[a], paulis[b])
            want = want + (p / 15) * tensordot_unitary(rho, u, [0, 2], 3)
    assert np.abs(out - want).max() < 1e-14


def test_depolarize_edges():
    rng = np.random.default_rng(9)
    rho = random_state(rng, 2).entries
    same = Q._depolarize_raw(rho, 0.0, [0], 2)
    assert np.array_equal(same, rho)
    # p=1 is the uniform non-identity Pauli mixture: with lam = p*16/15 the
    # closed form reads (1-lam) rho + lam (I/4 around the traced targets)
    out = Q._depolarize_raw(rho, 1.0, [0, 1], 2)
    lam = 16 / 15
    want = (1 - lam) * rho + lam * np.eye(4) / 4
    assert np.abs(out - want).max() < 1e-14


def test_depolarize_fixed_point_is_maximally_mixed():
    mixed = np.eye(4, dtype=complex) / 4
    for targets in ([0], [1], [0, 1]):
        out = Q._depolarize_raw(mixed, 0.37, targets, 2)
        assert np.abs(out - mixed).max() < 1e-15


def record_branches(rho, q, basis, n, p_meas=0.0):
    """The two record branches of measuring qubit q, as `simulate` forms them:
    `_measure_raw`'s outcomes mixed by a p_meas record bitflip."""
    s0, s1 = Q._measure_raw(rho, basis, q, n)
    return (1 - p_meas) * s0 + p_meas * s1, (1 - p_meas) * s1 + p_meas * s0


def ket_state(*kets):
    """Product of single-qubit kets, as a density matrix."""
    v = np.array([1.0 + 0j])
    for k in kets:
        v = np.kron(v, np.asarray(k, dtype=complex))
    return np.outer(v, v.conj())


# qubit 1 witnesses the post-measurement state of the measured qubit 0:
# phi+ is |+>|0> after a CNOT that copies qubit 0 onto qubit 1 in Z
def test_depolarize_rejects_targets_other_than_one_two_or_all():
    # the simulator asks for one or two distinct qubits; every qubit is the
    # closed form's other supported case, and anything else raises, p = 0 too
    rho = random_state(np.random.default_rng(10), 4).entries
    for targets in ([], [0, 1, 2], [3, 1, 0], [2, 2], [0, 4], [-1]):
        for p in (0.0, 0.2):
            with pytest.raises(ValueError, match=re.escape(str(targets))):
                Q._depolarize_raw(rho, p, targets, 4)
    every = Q._depolarize_raw(rho, 0.2, [0, 1, 2, 3], 4)
    assert np.abs(every - kron_depolarize(rho, 0.2, [0, 1, 2, 3], 4)).max() < 1e-15


def test_measure_branches_z_on_plus():
    s0, s1 = record_branches(isg.bell_state("phi_plus").entries, 0, "Z", 2)
    assert np.trace(s0).real == pytest.approx(0.5)
    assert np.trace(s1).real == pytest.approx(0.5)
    assert (s0 / np.trace(s0))[0, 0] == pytest.approx(1.0)
    assert (s1 / np.trace(s1))[1, 1] == pytest.approx(1.0)


def test_measure_branches_x_on_plus_gives_zero_branch():
    plus = np.array([1, 1]) / np.sqrt(2)
    s0, s1 = record_branches(ket_state(plus, [1, 0]), 0, "X", 2)
    assert np.trace(s0).real == pytest.approx(1.0)
    assert np.abs(s1).max() < 1e-12  # unnormalized zero branch


def test_measure_branches_record_bitflip():
    zero = ket_state([1, 0], [1, 0])  # qubit 1 copies qubit 0 in Z
    s0, s1 = record_branches(zero, 0, "Z", 2, p_meas=0.1)
    assert np.trace(s0).real == pytest.approx(0.9)
    assert np.trace(s1).real == pytest.approx(0.1)
    # the flipped record still carries the projected-on-0 state
    assert (s1 / np.trace(s1))[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Q._measure_raw(zero, "Q", 0, 2)


def test_measure_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(21)
    rho = random_state(rng, 2).entries
    for basis in ("X", "Y", "Z"):
        s0, s1 = record_branches(rho, 1, basis, 2, p_meas=0.2)
        assert (np.trace(s0) + np.trace(s1)).real == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# simulator kernels: bit-for-bit equal to the generic contractions they replace

def random_psd(rng, n):
    return random_state(rng, n).entries


def kron_depolarize(rho, p, targets, n):
    """The depolarizing closed form built at full size: kron, then permute back."""
    if p == 0.0:
        return rho
    k = len(targets)
    dim = 2 ** k
    keep = [q for q in range(n) if q not in targets]
    if keep:
        red = Q._partial_trace_raw(rho, keep, n)
    else:
        red = np.array([[np.trace(rho)]], dtype=complex)
    mixed = np.kron(red, np.eye(dim, dtype=complex) / dim)
    cur = keep + list(targets)
    mixed = Q._permute_raw(mixed, [cur.index(q) for q in range(n)], n)
    lam = p * dim * dim / (dim * dim - 1)
    return (1 - lam) * rho + lam * mixed


def basis_projectors(basis):
    """The +1 and -1 eigenprojectors of X, Y or Z."""
    sigma = {"X": X, "Y": Y, "Z": Z}[basis]
    return (I2 + sigma) / 2, (I2 - sigma) / 2


def check_kernels(rho, n, pairs, qubits):
    for c, t in pairs:
        assert np.array_equal(Q._cnot_raw(rho, c, t, n),
                              tensordot_unitary(rho, Q.CNOT, [c, t], n))
        assert np.array_equal(Q._cz_raw(rho, c, t, n),
                              tensordot_unitary(rho, Q.CZ, [c, t], n))
        for p in (5e-5, 0.3):
            assert np.array_equal(Q._depolarize_raw(rho, p, [c, t], n),
                                  kron_depolarize(rho, p, [c, t], n))
    for q in qubits:
        assert np.array_equal(Q._depolarize_raw(rho, 1e-5, [q], n),
                              kron_depolarize(rho, 1e-5, [q], n))
        keep = [i for i in range(n) if i != q]
        for basis in "XYZ":
            got = Q._measure_raw(rho, basis, q, n)
            for s, proj in zip(got, basis_projectors(basis)):
                want = Q._partial_trace_raw(Q._project_raw(rho, proj, q, n), keep, n)
                assert np.array_equal(s, want)


@pytest.mark.parametrize("n", range(2, 10))
def test_fast_kernels_are_bitwise_equal(n):
    rng = np.random.default_rng(100 + n)
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    check_kernels(random_psd(rng, n), n, pairs, range(n))


def signed_zeros(rng, shape):
    z = np.empty(shape, dtype=complex)
    z.real = rng.choice([0.0, -0.0], size=shape)
    z.imag = rng.choice([0.0, -0.0], size=shape)
    return z


@pytest.mark.parametrize("n", range(2, 7))
def test_measuring_a_stack_gives_each_matrix_its_own_bits(n):
    # `simulate` measures every branch in one call on a (B, d, d) stack;
    # compared as uint64, so the sign of a zero counts
    rng = np.random.default_rng(300 + n)
    rho = random_psd(rng, n)
    sparse = np.where(rng.random(rho.shape) < 0.5, rho, signed_zeros(rng, rho.shape))
    stack = np.stack([rho, sparse, random_psd(rng, n)])
    for q in range(n):
        for basis in "XYZ":
            got = Q._measure_raw(stack, basis, q, n)
            for b, one in enumerate(stack):
                for s, want in zip(got, Q._measure_raw(one, basis, q, n)):
                    assert s.shape == (3, *want.shape)
                    assert np.array_equal(np.ascontiguousarray(s[b]).view(np.uint64),
                                          np.ascontiguousarray(want).view(np.uint64))


def test_fast_kernels_are_bitwise_equal_at_ten_qubits():
    rng = np.random.default_rng(110)
    rho = random_psd(rng, 10)
    check_kernels(rho, 10, [(7, 2)], [0, 9])
    # every depolarizing plan of the widest state the simulator builds
    for c in range(10):
        for t in range(10):
            if c != t:
                assert np.array_equal(Q._depolarize_raw(rho, 5e-5, [c, t], 10),
                                      kron_depolarize(rho, 5e-5, [c, t], 10))


def with_signed_zeros(rng, rho):
    """rho with a third of its real and of its imaginary parts set to +0.0 or -0.0."""
    out = rho.copy()
    for part in (out.real, out.imag):
        hit = rng.random(part.shape) < 1 / 3
        part[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return out


def same_bits(a, b):
    """Equal bit patterns: equal entries with equal sign bits, +0.0 is not -0.0."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", range(2, 7))
def test_record_bitflip_is_the_two_mixes_bit_for_bit(n):
    # `simulate`'s in-place mix of a measurement's outcome stack against the
    # two expressions it replaces, compared as uint64
    from ionsurgery.purify import _record_bitflip

    rng = np.random.default_rng(700 + n)
    d = 2 ** (n - 1)
    for branches in range(1, 5):
        shape = (2, branches, d, d)
        outcomes = with_signed_zeros(rng, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        s0, s1 = outcomes
        for pm in (0.0, 1e-5, 0.3):
            want = np.empty((2 * branches, d, d), dtype=complex)
            want[0::2] = (1 - pm) * s0 + pm * s1
            want[1::2] = (1 - pm) * s1 + pm * s0
            assert same_bits(_record_bitflip(outcomes.copy(), pm), want), (branches, pm)
            if pm == 0.0:
                # the products turn some -0.0 into +0.0: returning the
                # outcomes unmixed at pm = 0 would not give these bits
                assert not same_bits(np.stack([s0, s1], axis=1).reshape(want.shape), want)


@pytest.mark.parametrize("n", [*range(1, 9), *(pytest.param(n, marks=pytest.mark.slow)
                                               for n in (9, 10))])
def test_one_target_kernel_matches_tensordot(n):
    # the simulator's only dense gate: every Clifford of the table at every
    # position, bit for bit and sign for sign against the general contraction
    rng = np.random.default_rng(200 + n)
    rho = with_signed_zeros(rng, random_psd(rng, n))
    for q in range(n):
        for u in Q.CLIFFORD_UNITARIES:
            got = Q._apply_unitary_raw(rho, u, q, n)
            assert got.flags.c_contiguous
            assert same_bits(got, tensordot_unitary(rho, u, [q], n))


# ---------------------------------------------------------------------------
# out= and in-place paths: the bits of the allocating call

def buffered_calls(kernel, rho, args, two_pass, out, work, mine):
    """`kernel` on rho through each out= path: into `out` from rho and from
    `mine`, a writable copy of rho that must come back unchanged, then in
    place on `mine`.  `out` and `work` are refilled with NaN before each
    call, so that a read before a write shows."""
    def call(src, dst):
        extra = {}
        if two_pass:
            work.fill(np.nan)
            extra["work"] = work
        return kernel(src, *args, out=dst, **extra)

    out.fill(np.nan)
    yield call(rho, out)
    np.copyto(mine, rho)
    out.fill(np.nan)
    yield call(mine, out)
    assert same_bits(mine, rho)
    yield call(mine, mine)


@pytest.mark.parametrize("n", [*range(1, 9), *(pytest.param(n, marks=pytest.mark.slow)
                                               for n in (9, 10))])
def test_buffered_kernels_match_the_allocating_call_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    rho = with_signed_zeros(rng, random_psd(rng, n))
    rho.setflags(write=False)  # read-only, as the simulator's joint state is
    before = rho.copy()
    proj = (I2 + Z) / 2  # `_project_raw` runs the one-target kernel on projectors
    calls = []
    for q in range(n):
        calls += [(Q._apply_unitary_raw, (u, q, n), True) for u in (Q.HADAMARD, Q.S_GATE, proj)]
        calls += [(Q._depolarize_raw, (p, [q], n), False) for p in (0.0, 1e-5, 0.3)]
    for c in range(n):
        for t in range(n):
            if c != t:
                calls += [(Q._cnot_raw, (c, t, n), True), (Q._cz_raw, (c, t, n), False),
                          (Q._depolarize_raw, (5e-5, [c, t], n), False)]
    out, work, mine = np.empty_like(rho), np.empty((2, *rho.shape), complex), rho.copy()
    for kernel, args, two_pass in calls:
        want = kernel(rho, *args)
        for got in buffered_calls(kernel, rho, args, two_pass, out, work, mine):
            assert same_bits(got, want), (kernel.__name__, args)
    assert same_bits(rho, before)


@pytest.mark.parametrize("n", range(2, 9))
def test_cz_matches_the_outer_sign_mask_bit_for_bit(n):
    # the mask it no longer builds: float +-1 entries that the product casts
    # to +-1 + 0j, which can flip the sign of a zero in rho
    rng = np.random.default_rng(400 + n)
    rho = with_signed_zeros(rng, random_psd(rng, n))
    idx = np.arange(2 ** n)
    for c in range(n):
        for t in range(n):
            if c != t:
                signs = 1.0 - 2.0 * ((idx >> (n - 1 - c)) & (idx >> (n - 1 - t)) & 1)
                assert same_bits(Q._cz_raw(rho, c, t, n),
                                 rho * np.multiply.outer(signs, signs))


# ---------------------------------------------------------------------------
# partial trace and fidelity

def test_partial_trace_recovers_product_factors():
    rng = np.random.default_rng(13)
    a, b = random_state(rng, 1).entries, random_state(rng, 2).entries
    joint = np.kron(a, b)
    assert np.abs(Q._partial_trace_raw(joint, [0], 3) - a).max() < 1e-14
    assert np.abs(Q._partial_trace_raw(joint, [1, 2], 3) - b).max() < 1e-14


def test_partial_trace_keeping_every_qubit_is_a_copy():
    rho = random_state(np.random.default_rng(14), 3).entries
    out = Q._partial_trace_raw(rho, [0, 1, 2], 3)
    assert np.array_equal(out, rho) and not np.shares_memory(out, rho)
    assert np.array_equal(Q._partial_trace_raw(rho, [2, 0, 1], 3),
                          Q._permute_raw(rho, [2, 0, 1], 3))


@pytest.mark.parametrize("n", range(2, 7))
def test_partial_trace_of_a_stack_gives_each_matrix_its_own_bits(n):
    # `simulate` reduces every surviving branch in one call, and reads their
    # probabilities with one trace of the stack; compared as uint64
    rng = np.random.default_rng(600 + n)
    stack = np.stack([with_signed_zeros(rng, random_psd(rng, n)) for _ in range(3)])
    for m in range(n + 1):
        for keep in itertools.combinations(range(n), m):
            for order in (list(keep), list(keep)[::-1]):
                got = Q._partial_trace_raw(stack, order, n)
                assert got.shape == (3, 2 ** m, 2 ** m) and got.flags.c_contiguous
                for b, one in enumerate(stack):
                    assert same_bits(got[b], Q._partial_trace_raw(one, order, n))
    traces = np.trace(stack, axis1=1, axis2=2)
    assert [t.tobytes() for t in traces] == [np.trace(one).tobytes() for one in stack]
    assert Q._partial_trace_raw(stack[:0], [0], n).shape == (0, 2, 2)


def test_partial_trace_of_bell_is_maximally_mixed():
    half = Q._partial_trace_raw(isg.bell_state("psi_minus").entries, [1], 2)
    assert np.abs(half - I2 / 2).max() < 1e-14


def test_fidelity_requires_two_qubits():
    with pytest.raises(ValueError):
        isg.fidelity_to_bell(DensityMatrix(1, I2 / 2))


# ---------------------------------------------------------------------------
# transcribed communication-pair data

def test_stephenson_entries_verbatim():
    raw = isg.stephenson_pair(rotated=False).entries
    rot = isg.stephenson_pair(rotated=True).entries
    assert raw[1, 1] == 0.569 and raw[2, 2] == 0.416
    assert raw[0, 1] == -0.00487616 + 0.00349614j
    assert raw[0, 2] == 0.0135924 + 0.00634402j
    assert rot[0, 0] == 0.569 and rot[3, 3] == 0.416
    assert rot[3, 0] == 0.440672 + 0.0542638j
    assert rot[2, 3] == -0.0225074 + 0.00473484j


def test_stephenson_is_a_valid_state():
    for rotated in (False, True):
        rho = isg.stephenson_pair(rotated=rotated)
        rho.validate()
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.entries).min() == pytest.approx(
            0.00044268052730602, abs=1e-12)


def test_stephenson_fidelities():
    assert isg.fidelity_to_bell(isg.stephenson_pair(rotated=False)) == \
        pytest.approx(0.01124015, abs=1e-10)
    assert isg.fidelity_to_bell(isg.stephenson_pair(rotated=True)) == \
        pytest.approx(0.933172, abs=1e-10)


def test_twirl_preserves_bell_weights():
    # the Bell twirl of a pair is the Bell-diagonal state of its four
    # Bell-basis weights; build it from fidelity_to_bell and check both sides
    rho = isg.stephenson_pair(rotated=True)
    w = {k: isg.fidelity_to_bell(rho, k) for k in Q.BELL_KINDS}
    assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)
    r = 1 - w["phi_plus"]
    t = isg.BellDiagonalState(w["phi_plus"], w["psi_plus"] / r,
                              w["phi_minus"] / r, w["psi_minus"] / r)
    assert t.f == pytest.approx(isg.fidelity_to_bell(rho), abs=1e-15)
    tw = t.weights()
    assert tw["phi_plus"] == pytest.approx(0.933172, abs=1e-9)
    assert tw["psi_plus"] == pytest.approx(0.004182, abs=1e-6)
    assert tw["phi_minus"] == pytest.approx(0.051828, abs=1e-6)
    assert tw["psi_minus"] == pytest.approx(0.010818, abs=1e-6)
    dm = t.to_density_matrix()
    for k in Q.BELL_KINDS:
        assert isg.fidelity_to_bell(dm, k) == pytest.approx(w[k], abs=1e-14)


def test_stephenson_frame_change_is_s_tensor_x():
    raw = isg.stephenson_pair(rotated=False).entries
    rot = isg.stephenson_pair(rotated=True).entries
    s = isg.clifford_unitary(isg.CLIFFORD_INDEX["S"])
    u = np.kron(s, X)
    assert np.abs(u @ raw @ u.conj().T - rot).max() == 0.0
