"""Purification circuits: validation, JSON round-trips, exact protocol algebra."""

import json
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest

import ionsurgery as isg
from ionsurgery import (
    AcceptRule,
    Measure,
    PurificationCircuit,
    SingleQubitClifford,
    TwoQubitGate,
)
from conftest import CIRCUITS, bell_abs, random_bell_weights


def two_pair_circuit(ops, accept):
    return PurificationCircuit(n_pairs=2, ops=tuple(ops), accept=tuple(accept))


# ---------------------------------------------------------------------------
# structural validation

def test_pair_count_bounds():
    with pytest.raises(ValueError):
        PurificationCircuit(n_pairs=1, ops=(), accept=())
    with pytest.raises(ValueError):
        PurificationCircuit(n_pairs=6, ops=(), accept=())
    assert PurificationCircuit(n_pairs=5, ops=(), accept=()).n_pairs == 5


def test_output_pair_is_never_measured():
    ops = [Measure(pair=0, side="A", basis="Z", record_label="c1")]
    with pytest.raises(ValueError):
        two_pair_circuit(ops, [])


def test_no_gates_after_measurement():
    ops = [
        Measure(pair=1, side="A", basis="Z", record_label="c1"),
        TwoQubitGate(kind="cnot", side="A", control_pair=0, target_pair=1),
    ]
    with pytest.raises(ValueError):
        two_pair_circuit(ops, [])
    ops = [
        Measure(pair=1, side="B", basis="Z", record_label="c1"),
        SingleQubitClifford(pair=1, side="B", index=3),
    ]
    with pytest.raises(ValueError):
        two_pair_circuit(ops, [])


def test_duplicate_record_labels_rejected():
    ops = [
        Measure(pair=1, side="A", basis="Z", record_label="c1"),
        Measure(pair=1, side="B", basis="Z", record_label="c1"),
    ]
    with pytest.raises(ValueError):
        two_pair_circuit(ops, [])


def test_accept_rules_must_reference_real_labels():
    ops = [
        Measure(pair=1, side="A", basis="Z", record_label="c1"),
        Measure(pair=1, side="B", basis="Z", record_label="c2"),
    ]
    with pytest.raises(ValueError):
        two_pair_circuit(ops, [AcceptRule("c1", "nope", "coincident")])
    with pytest.raises(ValueError):
        two_pair_circuit(ops, [AcceptRule("c1", "c2", "equalish")])
    ok = two_pair_circuit(ops, [AcceptRule("c1", "c2", "anticoincident")])
    assert ok.accept[0].relation == "anticoincident"


def test_gate_and_measure_field_validation():
    # ops are plain records; the circuit constructor is the validator
    bad_ops = [
        TwoQubitGate(kind="swap", side="A", control_pair=0, target_pair=1),
        TwoQubitGate(kind="cnot", side="C", control_pair=0, target_pair=1),
        TwoQubitGate(kind="cnot", side="A", control_pair=1, target_pair=1),
        TwoQubitGate(kind="cnot", side="A", control_pair=0, target_pair=2),
        SingleQubitClifford(pair=0, side="A", index=24),
        SingleQubitClifford(pair=0, side="A", index=-1),
        Measure(pair=1, side="A", basis="W", record_label="c1"),
    ]
    for op in bad_ops:
        with pytest.raises(ValueError):
            two_pair_circuit([op], [])


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip_builtin_circuits():
    for circ in (isg.bbpssw_circuit(), isg.dejmps_circuit()):
        again = PurificationCircuit.from_json(circ.to_json())
        assert again == circ


def test_file_round_trip(tmp_path):
    path = tmp_path / "c.json"
    isg.save_circuit(isg.dejmps_circuit(), path)
    loaded = isg.load_circuit(path)
    assert loaded == isg.dejmps_circuit()
    raw = json.loads(path.read_text())
    assert set(raw) == {"n_pairs", "ops", "accept"}
    kinds = [op["kind"] for op in raw["ops"]]
    assert kinds.count("measure") == 2


def test_from_dict_rejects_unknown_kind():
    raw = json.loads(isg.bbpssw_circuit().to_json())
    raw["ops"][0]["kind"] = "toffoli"
    with pytest.raises(ValueError):
        PurificationCircuit.from_dict(raw)


@pytest.mark.parametrize("edit", [
    lambda raw: raw.update(comment="x"),
    lambda raw: raw["ops"][0].update(pair=1),
    lambda raw: raw["ops"][2].update(index=3),
    lambda raw: raw["accept"][0].update(weight=1),
    lambda raw: raw.update(n_pairs=2.0),
    lambda raw: raw["ops"][0].update(target_pair=1.5),
    lambda raw: raw["ops"][2].update(pair="1"),
    lambda raw: raw["ops"][3].update(pair=True),
])
def test_from_dict_rejects_unknown_keys_and_non_integer_fields(edit):
    raw = json.loads(isg.bbpssw_circuit().to_json())
    edit(raw)
    with pytest.raises(ValueError):
        PurificationCircuit.from_dict(raw)


# ---------------------------------------------------------------------------
# exact protocol algebra

def test_bbpssw_closed_form_on_werner():
    rho = bell_abs(0.94, 0.02, 0.02, 0.02)
    out = isg.simulate(isg.bbpssw_circuit(), rho, isg.IDEAL_NOISE)
    assert out.success_probability == pytest.approx(0.9232, abs=1e-12)
    assert out.output_fidelity == pytest.approx(0.884 / 0.9232, abs=1e-12)


def test_bbpssw_recurrence_on_random_pairs():
    rng = np.random.default_rng(205)
    worst = 0.0
    for a, b, c, d in random_bell_weights(rng, 100):
        w2 = random_bell_weights(rng, 1)[0]
        a2, b2, c2, d2 = w2
        out = isg.simulate(isg.bbpssw_circuit(),
                           [bell_abs(a, b, c, d), bell_abs(a2, b2, c2, d2)],
                           isg.IDEAL_NOISE)
        n = (a + d) * (a2 + d2) + (b + c) * (b2 + c2)
        f = (a * a2 + d * d2) / n
        worst = max(worst, abs(out.success_probability - n),
                    abs(out.output_fidelity - f))
    assert worst < 1e-9


def test_dejmps_recurrence_on_random_pairs():
    rng = np.random.default_rng(206)
    worst = 0.0
    for a, b, c, d in random_bell_weights(rng, 100):
        w2 = random_bell_weights(rng, 1)[0]
        a2, b2, c2, d2 = w2
        out = isg.simulate(isg.dejmps_circuit(),
                           [bell_abs(a, b, c, d), bell_abs(a2, b2, c2, d2)],
                           isg.IDEAL_NOISE)
        n = (a + c) * (a2 + c2) + (b + d) * (b2 + d2)
        f = (a * a2 + c * c2) / n
        worst = max(worst, abs(out.success_probability - n),
                    abs(out.output_fidelity - f))
    assert worst < 1e-9


def test_dejmps_beats_bbpssw_on_asymmetric_states():
    rho = bell_abs(0.7, 0.05, 0.05, 0.2)
    de = isg.simulate(isg.dejmps_circuit(), rho, isg.IDEAL_NOISE)
    bb = isg.simulate(isg.bbpssw_circuit(), rho, isg.IDEAL_NOISE)
    assert de.output_fidelity > bb.output_fidelity


def test_empty_circuit_passes_input_through():
    for n_pairs in (2, 3):
        circ = PurificationCircuit(n_pairs=n_pairs, ops=(), accept=())
        out = isg.simulate(circ, isg.stephenson_pair(rotated=True), isg.IDEAL_NOISE)
        assert out.success_probability == pytest.approx(1.0, abs=1e-12)
        assert out.output_fidelity == pytest.approx(0.933172, abs=1e-9)


def test_branch_probabilities_are_normalized():
    rho = isg.stephenson_pair(rotated=True)
    for base in (isg.bbpssw_circuit(), isg.dejmps_circuit()):
        keep_all = replace(base, accept=())
        out = isg.simulate(keep_all, rho, isg.DEVICE_NOISE)
        assert out.success_probability == pytest.approx(1.0, abs=1e-9)
        # accept + reject partition the branch space
        acc = isg.simulate(base, rho, isg.DEVICE_NOISE)
        flipped = replace(base, accept=(replace(base.accept[0],
                                                relation="anticoincident"),))
        rej = isg.simulate(flipped, rho, isg.DEVICE_NOISE)
        assert acc.success_probability + rej.success_probability == \
            pytest.approx(1.0, abs=1e-9)


def test_zero_success_outcome_is_flagged_not_crashed():
    base = isg.bbpssw_circuit()
    impossible = replace(base, accept=(
        AcceptRule("c1", "c2", "coincident"),
        AcceptRule("c1", "c2", "anticoincident"),
    ))
    out = isg.simulate(impossible, isg.bell_state("phi_plus"), isg.IDEAL_NOISE)
    assert out.success_probability == 0.0
    assert out.output_fidelity == 0.0
    # every branch is rejected before the second pair is measured
    ops = [Measure(1, "A", "Z", "a1"), Measure(1, "B", "Z", "b1"),
           Measure(2, "A", "X", "a2"), Measure(2, "B", "X", "b2")]
    rules = [AcceptRule("a1", "a1", "anticoincident"), AcceptRule("a2", "b2", "coincident")]
    early = PurificationCircuit(n_pairs=3, ops=tuple(ops), accept=tuple(rules))
    out = isg.simulate(early, isg.bell_state("phi_plus"), isg.DEVICE_NOISE)
    assert (out.output_fidelity, out.success_probability) == (0.0, 0.0)


def test_noise_lowers_fidelity():
    rho = isg.stephenson_pair(rotated=True)
    clean = isg.simulate(isg.dejmps_circuit(), rho, isg.IDEAL_NOISE)
    noisy = isg.simulate(isg.dejmps_circuit(), rho, isg.DEVICE_NOISE)
    assert noisy.output_fidelity < clean.output_fidelity
    heavy = isg.simulate(isg.dejmps_circuit(), rho,
                         isg.NoiseModel(p1=0.01, p2=0.05, p_meas=0.01))
    assert heavy.output_fidelity < noisy.output_fidelity


def test_input_list_length_must_match():
    with pytest.raises(ValueError):
        isg.simulate(isg.bbpssw_circuit(),
                     [isg.stephenson_pair()], isg.IDEAL_NOISE)
    with pytest.raises(ValueError):
        isg.simulate(isg.bbpssw_circuit(),
                     [isg.bell_state("phi_plus")] * 3, isg.IDEAL_NOISE)


@pytest.mark.parametrize("entries", [
    2 * np.eye(4) / 4,                          # trace 2
    np.full((4, 4), np.nan),
    np.diag([1.5, -0.5, 0.0, 0.0]),             # unit trace, not PSD
    np.array(isg.bell_state("phi_plus").entries) + 1e-3j * np.triu(np.ones((4, 4)), 1),
])
def test_simulate_rejects_non_physical_inputs(entries):
    rho = isg.DensityMatrix(2, entries)
    with pytest.raises(ValueError):
        isg.simulate(isg.bbpssw_circuit(), rho, isg.IDEAL_NOISE)
    with pytest.raises(ValueError):
        isg.simulate(isg.bbpssw_circuit(), [isg.bell_state("phi_plus"), entries],
                     isg.IDEAL_NOISE)


def test_accepts_bell_diagonal_state_directly():
    s = isg.BellDiagonalState(0.94, 1 / 3, 1 / 3, 1 / 3)
    out1 = isg.simulate(isg.bbpssw_circuit(), s, isg.IDEAL_NOISE)
    out2 = isg.simulate(isg.bbpssw_circuit(), s.to_density_matrix(),
                        isg.IDEAL_NOISE)
    assert out1.success_probability == pytest.approx(out2.success_probability,
                                                     abs=1e-15)


def test_outcome_state_is_the_accepted_pair_marginal():
    rho = bell_abs(0.94, 0.02, 0.02, 0.02)
    out = isg.simulate(isg.bbpssw_circuit(), rho, isg.IDEAL_NOISE)
    assert out.output_state.num_qubits == 2
    assert isg.fidelity_to_bell(out.output_state) == pytest.approx(
        out.output_fidelity, abs=1e-12)
    out.output_state.validate()


def test_identity_protocol_on_perfect_input():
    circ = PurificationCircuit(n_pairs=2, ops=(), accept=())
    out = isg.simulate(circ, isg.bell_state("phi_plus"), isg.IDEAL_NOISE)
    assert out.success_probability == pytest.approx(1.0, abs=1e-12)
    assert out.output_fidelity == pytest.approx(1.0, abs=1e-12)


def test_fixture_fidelity_is_monotone_in_gate_noise(fixture_circuit_path):
    fx = isg.load_circuit(fixture_circuit_path)
    rho = isg.stephenson_pair(rotated=True)
    fids = [isg.simulate(fx, rho, isg.NoiseModel(1e-5, float(p2), 1e-5)).output_fidelity
            for p2 in np.linspace(0.0, 1e-3, 10)]
    for a, b in zip(fids, fids[1:]):
        assert b <= a + 1e-15


def test_fixture_noise_floor_on_perfect_inputs(fixture_circuit_path):
    fx = isg.load_circuit(fixture_circuit_path)
    out = isg.simulate(fx, isg.bell_state("phi_plus"), isg.DEVICE_NOISE)
    assert out.output_fidelity >= 1 - 20 * (1e-5 + 5e-5 + 1e-5)


# ---------------------------------------------------------------------------
# pinned outputs and branch pruning

def test_simulate_matches_pinned_snapshot_bit_for_bit():
    # recorded by tests/record_simulate_snapshot.py before the simulator's
    # fast kernels and branch pruning; every output must match exactly
    from record_simulate_snapshot import outputs

    records = json.loads((Path(__file__).parent / "data" / "simulate_snapshot.json").read_text())
    assert len(records) == 140
    mismatched = []
    for rec in records:
        got = outputs(PurificationCircuit.from_dict(rec["circuit"]), rec["input"], rec["noise"])
        if any(got[k] != rec[k] for k in got):
            mismatched.append(rec["name"])
    assert mismatched == []


def test_rejected_branches_are_pruned_as_soon_as_a_rule_completes(monkeypatch):
    from ionsurgery import purify

    calls = []
    measure = purify._measure_raw

    def counting(rho, basis, q, n):
        calls.append(n)
        return measure(rho, basis, q, n)

    monkeypatch.setattr(purify, "_measure_raw", counting)
    circ = isg.load_circuit(CIRCUITS / "ga_4to1.json")
    out = isg.simulate(circ, isg.stephenson_pair(rotated=True), isg.DEVICE_NOISE)
    # A then B of pairs 1, 2, 3 on 8, 7, ... qubits: each B record completes
    # that pair's rule and halves the branches, so 21 measurements, not 63
    assert calls == [8] + [7] * 2 + [6] * 2 + [5] * 4 + [4] * 4 + [3] * 8
    assert 0 < out.success_probability < 1

