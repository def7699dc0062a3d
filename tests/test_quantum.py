"""Density-matrix core: states, gates, channels, the Clifford table."""

import numpy as np
import pytest

import ionsurgery as isg
from ionsurgery import DensityMatrix

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


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
    for check_psd in (True, False):
        with pytest.raises(ValueError, match="finite"):
            bad_nan.validate(check_psd=check_psd)


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
    rho = isg.bell_diagonal(0.94, 1 / 3, 1 / 3, 1 / 3)
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
    zero2 = DensityMatrix(2, np.diag([1, 0, 0, 0]).astype(complex))
    flipped = isg.apply_gate(zero2, "X", 0)
    assert flipped.entries[2, 2] == pytest.approx(1.0)  # |10>
    flipped = isg.apply_gate(zero2, "X", 1)
    assert flipped.entries[1, 1] == pytest.approx(1.0)  # |01>


def test_apply_gate_accepts_name_index_and_matrix():
    rng = np.random.default_rng(3)
    rho = random_state(rng, 2)
    by_name = isg.apply_gate(rho, "H", 1)
    by_index = isg.apply_gate(rho, isg.CLIFFORD_INDEX["H"], 1)
    by_matrix = isg.apply_gate(rho, (X + Z) / np.sqrt(2), 1)
    assert np.allclose(by_name.entries, by_index.entries, atol=1e-14)
    assert np.allclose(by_name.entries, by_matrix.entries, atol=1e-14)


def test_apply_gate_rejects_bad_targets():
    rho = isg.bell_state("phi_plus")
    with pytest.raises(ValueError):
        isg.apply_gate(rho, "X", 2)
    with pytest.raises(ValueError):
        isg.apply_gate(rho, "CNOT", [0, 0])
    with pytest.raises(ValueError):
        isg.apply_gate(rho, "CNOT", [0])
    with pytest.raises(ValueError):
        isg.apply_gate(rho, "NOPE", 0)


def test_cnot_convention_control_first():
    ten = DensityMatrix(2, np.diag([0, 0, 1, 0]).astype(complex))  # |10>
    out = isg.apply_gate(ten, "CNOT", [0, 1])
    assert out.entries[3, 3] == pytest.approx(1.0)  # |11>
    out = isg.apply_gate(ten, "CNOT", [1, 0])  # control |0> does nothing
    assert out.entries[2, 2] == pytest.approx(1.0)


def test_unitarity_preserves_trace_and_spectrum():
    rng = np.random.default_rng(11)
    rho = random_state(rng, 3)
    out = isg.apply_gate(isg.apply_gate(rho, "CNOT", [0, 2]), "S", 1)
    assert np.trace(out.entries) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvalsh(out.entries)),
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
    rho = random_state(rng, 3)
    p = 0.3
    out = isg.depolarize(rho, 1, p)
    want = (1 - p) * rho.entries
    for sig in (X, Y, Z):
        flip = isg.apply_gate(rho, sig, 1)
        want = want + (p / 3) * flip.entries
    assert np.abs(out.entries - want).max() < 1e-14


def test_depolarize_matches_two_qubit_kraus():
    rng = np.random.default_rng(8)
    rho = random_state(rng, 3)
    p = 0.2
    out = isg.depolarize(rho, [0, 2], p)
    want = (1 - p) * rho.entries
    paulis = (I2, X, Y, Z)
    for a in range(4):
        for b in range(4):
            if a == b == 0:
                continue
            u = np.kron(paulis[a], paulis[b])
            flip = isg.apply_gate(rho, u, [0, 2])
            want = want + (p / 15) * flip.entries
    assert np.abs(out.entries - want).max() < 1e-14


def test_depolarize_edges():
    rng = np.random.default_rng(9)
    rho = random_state(rng, 2)
    same = isg.depolarize(rho, 0, 0.0)
    assert np.array_equal(same.entries, rho.entries)
    # p=1 is the uniform non-identity Pauli mixture: with lam = p*16/15 the
    # closed form reads (1-lam) rho + lam (I/4 around the traced targets)
    out = isg.depolarize(rho, [0, 1], 1.0)
    lam = 16 / 15
    want = (1 - lam) * rho.entries + lam * np.eye(4) / 4
    assert np.abs(out.entries - want).max() < 1e-14
    with pytest.raises(ValueError):
        isg.depolarize(rho, [0, 1], 1.5)
    with pytest.raises(ValueError):
        isg.depolarize(rho, [0, 0], 0.1)


def test_depolarize_fixed_point_is_maximally_mixed():
    n = 2
    mixed = DensityMatrix(n, np.eye(4, dtype=complex) / 4)
    for targets in (0, 1, [0, 1]):
        out = isg.depolarize(mixed, targets, 0.37)
        assert np.abs(out.entries - mixed.entries).max() < 1e-15


def test_measure_branches_z_on_plus():
    plus = DensityMatrix(1, np.full((2, 2), 0.5, dtype=complex))
    (p0, s0), (p1, s1) = isg.measure_branches(plus, 0, "Z")
    assert p0 == pytest.approx(0.5) and p1 == pytest.approx(0.5)
    assert s0.entries[0, 0] == pytest.approx(1.0)
    assert s1.entries[1, 1] == pytest.approx(1.0)


def test_measure_branches_x_on_plus_gives_zero_branch():
    plus = DensityMatrix(1, np.full((2, 2), 0.5, dtype=complex))
    (p0, s0), (p1, s1) = isg.measure_branches(plus, 0, "X")
    assert p0 == pytest.approx(1.0)
    assert p1 == 0.0
    assert np.abs(s1.entries).max() < 1e-12  # unnormalized zero branch


def test_measure_branches_record_bitflip():
    zero = DensityMatrix(1, np.diag([1, 0]).astype(complex))
    (p0, _), (p1, s1) = isg.measure_branches(zero, 0, "Z", p_meas=0.1)
    assert p0 == pytest.approx(0.9)
    assert p1 == pytest.approx(0.1)
    # the flipped record still carries the projected-on-0 state
    assert s1.entries[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        isg.measure_branches(zero, 0, "Q")
    with pytest.raises(ValueError):
        isg.measure_branches(zero, 1, "Z")


def test_measure_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(21)
    rho = random_state(rng, 2)
    for basis in ("X", "Y", "Z"):
        (p0, _), (p1, _) = isg.measure_branches(rho, 1, basis, p_meas=0.2)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# partial trace, tensor, fidelity, twirl

def test_partial_trace_recovers_product_factors():
    rng = np.random.default_rng(13)
    a, b = random_state(rng, 1), random_state(rng, 2)
    joint = isg.tensor(a, b)
    assert joint.num_qubits == 3
    got_a = isg.partial_trace(joint, [0])
    got_b = isg.partial_trace(joint, [1, 2])
    assert np.abs(got_a.entries - a.entries).max() < 1e-14
    assert np.abs(got_b.entries - b.entries).max() < 1e-14


def test_partial_trace_requires_sorted_distinct_keep():
    rng = np.random.default_rng(14)
    joint = isg.tensor(random_state(rng, 1), random_state(rng, 2))
    with pytest.raises(ValueError):
        isg.partial_trace(joint, [1, 0])
    with pytest.raises(ValueError):
        isg.partial_trace(joint, [1, 1])
    with pytest.raises(ValueError):
        isg.partial_trace(joint, [])


def test_partial_trace_of_bell_is_maximally_mixed():
    bell = isg.bell_state("psi_minus")
    half = isg.partial_trace(bell, [1])
    assert np.abs(half.entries - I2 / 2).max() < 1e-14


def test_tensor_size_cap():
    mixed = DensityMatrix(isg.MAX_QUBITS - 1,
                          np.eye(2 ** (isg.MAX_QUBITS - 1)) / 2 ** (isg.MAX_QUBITS - 1))
    one = DensityMatrix(1, I2 / 2)
    assert isg.tensor(mixed, one).num_qubits == isg.MAX_QUBITS
    with pytest.raises(ValueError):
        isg.tensor(isg.tensor(mixed, one), one)


def test_fidelity_requires_two_qubits():
    with pytest.raises(ValueError):
        isg.fidelity_to_bell(DensityMatrix(1, I2 / 2))


def test_twirl_preserves_bell_weights():
    rho = isg.stephenson_pair(rotated=True)
    t = isg.twirl(rho)
    assert t.f == pytest.approx(isg.fidelity_to_bell(rho), abs=1e-15)
    w = t.weights()
    assert w["phi_plus"] == pytest.approx(0.933172, abs=1e-9)
    assert w["psi_plus"] == pytest.approx(0.004182, abs=1e-6)
    assert w["phi_minus"] == pytest.approx(0.051828, abs=1e-6)
    assert w["psi_minus"] == pytest.approx(0.010818, abs=1e-6)


def test_twirl_fixes_bell_diagonal_states():
    s = isg.BellDiagonalState(0.7, 0.5, 0.3, 0.2)
    t = isg.twirl(s.to_density_matrix())
    for k, v in s.weights().items():
        assert t.weights()[k] == pytest.approx(v, abs=1e-14)


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


def test_stephenson_frame_change_is_s_tensor_x():
    raw = isg.stephenson_pair(rotated=False).entries
    rot = isg.stephenson_pair(rotated=True).entries
    s = isg.clifford_unitary(isg.CLIFFORD_INDEX["S"])
    u = np.kron(s, X)
    assert np.abs(u @ raw @ u.conj().T - rot).max() == 0.0
