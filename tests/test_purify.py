"""Purification circuits: validation, JSON round-trips, exact protocol algebra."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
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
    # the constructor type-checks the count, as from_dict does
    for bad in (2.0, True, "2"):
        with pytest.raises(ValueError, match="n_pairs must be an integer"):
            PurificationCircuit(n_pairs=bad, ops=(), accept=())


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
        # pair indices and Clifford indices are ints, not floats or bools;
        # record labels are strings
        TwoQubitGate(kind="cnot", side="A", control_pair=True, target_pair=0),
        TwoQubitGate(kind="cz", side="B", control_pair=0, target_pair=1.0),
        SingleQubitClifford(pair=0, side="A", index=1.5),
        SingleQubitClifford(pair=0, side="A", index=True),
        SingleQubitClifford(pair="0", side="A", index=3),
        Measure(pair=1.0, side="A", basis="Z", record_label="c1"),
        Measure(pair=1, side="A", basis="Z", record_label=1),
        Measure(pair=1, side="A", basis="Z", record_label=["c1"]),
    ]
    for op in bad_ops:
        with pytest.raises(ValueError):
            two_pair_circuit([op], [])
    measured = [Measure(pair=1, side="A", basis="Z", record_label="c1"),
                Measure(pair=1, side="B", basis="Z", record_label="c2")]
    for bad in (None, 1, ["c1"]):
        with pytest.raises(ValueError, match="label_i must be a string"):
            two_pair_circuit(measured, [AcceptRule(bad, "c2", "coincident")])


def test_numpy_integer_fields_are_stored_as_ints():
    # counts and indices follow the package's one integer rule: NumPy
    # integers pass and are stored as int, so the JSON stays plain
    i64, i32 = np.int64, np.int32
    ops = [SingleQubitClifford(i64(0), "A", i32(1)),
           TwoQubitGate("cnot", "A", i64(0), i32(1)),
           TwoQubitGate("cnot", "B", 0, 1),
           Measure(i64(1), "A", "Z", "c1"), Measure(1, "B", "Z", "c2")]
    accept = (AcceptRule("c1", "c2", "coincident"),)
    circ = PurificationCircuit(i64(2), tuple(ops), accept)
    plain = PurificationCircuit(2, (SingleQubitClifford(0, "A", 1), *isg.bbpssw_circuit().ops),
                                accept)
    assert circ.to_json() == plain.to_json()
    fields = [circ.n_pairs, *(v for op in circ.ops for v in vars(op).values())]
    assert all(type(v) in (int, str) for v in fields)
    assert circ.ops[2] is ops[2]  # an op with plain fields is kept as it is


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


@pytest.mark.parametrize("path", sorted(CIRCUITS.glob("*.json")), ids=lambda p: p.name)
def test_frozen_circuits_resave_byte_for_byte(tmp_path, path):
    # between them the files hold every op kind, so this pins each kind's key order
    isg.save_circuit(isg.load_circuit(path), tmp_path / "c.json")
    assert (tmp_path / "c.json").read_bytes() == path.read_bytes()


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
    # malformed shapes: non-objects, non-lists, non-string kinds and labels
    lambda raw: raw.update(ops=[1]),
    lambda raw: raw.update(ops="ab"),
    lambda raw: raw.update(ops=None),
    lambda raw: raw.update(accept=[3]),
    lambda raw: [],
    lambda raw: raw["ops"][0].update(kind=["cnot"]),
    lambda raw: raw["ops"][2].update(record_label=None),
    lambda raw: raw["ops"][2].update(record_label=1),
    lambda raw: raw["accept"][0].update(label_i=None),
    lambda raw: raw.update(accept={}),
    # missing keys
    lambda raw: raw.__delitem__("ops"),
    lambda raw: raw["ops"][0].__delitem__("kind"),
    lambda raw: raw["ops"][0].__delitem__("side"),
    lambda raw: raw["accept"][0].__delitem__("label_j"),
])
def test_from_dict_rejects_unknown_keys_and_non_integer_fields(edit):
    raw = json.loads(isg.bbpssw_circuit().to_json())
    doc = edit(raw)  # None for an in-place edit, else a replacement document
    with pytest.raises(ValueError):
        PurificationCircuit.from_dict(raw if doc is None else doc)


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


def test_simulate_takes_the_input_specs_search_takes():
    # one rule for an input pair: a name, a DensityMatrix or its entries, alone
    # or one per pair, give the bits of the measured pair itself
    circ = isg.load_circuit(CIRCUITS / "ga_3to1.json")
    rho = isg.stephenson_pair()
    want = fingerprint(isg.simulate(circ, rho, isg.DEVICE_NOISE))
    for spec in ("stephenson", rho.entries,
                 ["stephenson", rho, rho.entries.tolist()]):
        assert fingerprint(isg.simulate(circ, spec, isg.DEVICE_NOISE)) == want
    with pytest.raises(ValueError, match="unknown input spec 'werner'"):
        isg.simulate(circ, "werner", isg.DEVICE_NOISE)
    with pytest.raises(TypeError):
        isg.simulate(circ, [0.94] * 3, isg.DEVICE_NOISE)


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

SNAPSHOT = Path(__file__).parent / "data" / "simulate_snapshot.json"


def test_simulate_matches_pinned_snapshot_bit_for_bit():
    # recorded by tests/record_simulate_snapshot.py: the first 140 cases before
    # the simulator's fast kernels and branch pruning, the 12 interleaved ones
    # before the branches were held as one stack; every output must match exactly
    from record_simulate_snapshot import outputs

    records = json.loads(SNAPSHOT.read_text())
    assert len(records) == 152
    mismatched = []
    for rec in records:
        got = outputs(PurificationCircuit.from_dict(rec["circuit"]), rec["input"], rec["noise"])
        if any(got[k] != rec[k] for k in got):
            mismatched.append(rec["name"])
    assert mismatched == []


def test_snapshot_recorder_yields_the_stored_cases():
    # no simulation: this pins the recorder's cases, and so the
    # _random_genome/_mutate streams behind its 120 random circuits
    from record_simulate_snapshot import cases

    records = json.loads(SNAPSHOT.read_text())
    got = [(name, circ.to_dict(), inp, noise) for name, circ, inp, noise in cases()]
    assert got == [(r["name"], r["circuit"], r["input"], r["noise"]) for r in records]


FRESH_SIMULATE = """
import sys
import ionsurgery as isg
inputs = {"measured": isg.stephenson_pair(),
          "werner": isg.BellDiagonalState(0.9, 1 / 3, 1 / 3, 1 / 3)}
out = isg.simulate(isg.load_circuit(sys.argv[1]), inputs[sys.argv[2]], isg.DEVICE_NOISE)
print(out.output_fidelity.hex(), out.success_probability.hex(),
      out.output_state.entries.tobytes().hex())
"""


def test_joint_state_cache_serves_the_inputs_of_each_call(fixture_circuit_path):
    # simulate keeps the last joint input state; every call, hit or miss,
    # must give the bits of a fresh process that never had a cached state
    from ionsurgery import purify

    inputs = {"measured": isg.stephenson_pair(),
              "werner": isg.BellDiagonalState(0.9, 1 / 3, 1 / 3, 1 / 3)}
    env = {**os.environ, "PYTHONPATH": str(Path(isg.__file__).parents[1])}
    fresh = {name: subprocess.run(
        [sys.executable, "-c", FRESH_SIMULATE, str(fixture_circuit_path), name],
        capture_output=True, text=True, check=True, env=env).stdout.split()
        for name in inputs}
    circuit = isg.load_circuit(fixture_circuit_path)
    purify._joint_state.cache_clear()
    for name in ("measured", "werner", "measured", "measured"):
        out = isg.simulate(circuit, inputs[name], isg.DEVICE_NOISE)
        assert [out.output_fidelity.hex(), out.success_probability.hex(),
                out.output_state.entries.tobytes().hex()] == fresh[name]
    state = purify._joint_state(*[inputs["measured"].entries.tobytes()] * circuit.n_pairs)
    assert purify._joint_state.cache_info()[:2] == (2, 3)  # hits, misses
    assert not state.flags.writeable
    with pytest.raises(ValueError):
        state[0, 0] = 0


def test_inputs_are_validated_once_per_input_set_and_a_bad_one_on_every_call(
        monkeypatch, fixture_circuit_path):
    from ionsurgery import purify

    checked = []
    validate = isg.DensityMatrix.validate

    def counting(self):
        checked.append(self.entries.tobytes())
        return validate(self)

    monkeypatch.setattr(isg.DensityMatrix, "validate", counting)
    circuit = isg.load_circuit(fixture_circuit_path)
    good = isg.stephenson_pair()
    bad = isg.DensityMatrix(2, np.diag([1.5, -0.5, 0.0, 0.0]))  # unit trace, not PSD
    purify._joint_state.cache_clear()
    outs = []
    for inp in (good, bad, good, bad, good):
        if inp is bad:
            with pytest.raises(ValueError, match="eigenvalue"):
                isg.simulate(circuit, inp, isg.DEVICE_NOISE)
        else:
            out = isg.simulate(circuit, inp, isg.DEVICE_NOISE)
            outs.append((out.output_fidelity.hex(), out.success_probability.hex(),
                         out.output_state.entries.tobytes()))
    assert outs[1:] == outs[:1] * 2
    # the good input is checked once, on the call that builds its joint
    # state; the bad one is never cached, so it is checked on every call
    g, b = good.entries.tobytes(), bad.entries.tobytes()
    assert checked == [g, b, b]


def test_rejected_branches_are_pruned_as_soon_as_a_rule_completes(monkeypatch):
    from ionsurgery import purify

    calls = []
    measure = purify._measure_raw

    def counting(rho, basis, q, n):
        calls.append((n, len(rho)))
        return measure(rho, basis, q, n)

    monkeypatch.setattr(purify, "_measure_raw", counting)
    circ = isg.load_circuit(CIRCUITS / "ga_4to1.json")
    out = isg.simulate(circ, isg.stephenson_pair(rotated=True), isg.DEVICE_NOISE)
    # (width, branches) of each call: one call per measurement, on every
    # branch.  A then B of pairs 1, 2, 3 on 8, 7, ... qubits: each B record
    # completes that pair's rule and halves the branches, so 21 branch
    # measurements in all, not 63
    assert calls == [(8, 1), (7, 2), (6, 2), (5, 4), (4, 4), (3, 8)]
    assert 0 < out.success_probability < 1


# ---------------------------------------------------------------------------
# the hot loop's memory: pages reused across calls, nothing shared between them

def warm_simulate(name: str):
    circuit = isg.load_circuit(CIRCUITS / f"{name}.json")

    def run():
        return isg.simulate(circuit, isg.stephenson_pair(), isg.DEVICE_NOISE)

    run()  # builds and caches the joint input state
    return run


def test_warm_calls_fault_in_no_fresh_pages():
    resource = pytest.importorskip("resource")
    run = warm_simulate("ga_4to1")
    run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        run()
    # with every kernel allocating its result, ten calls took ~13,000
    # (x86-64 Linux, glibc 2.36, NumPy 2.4)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


# tracemalloc peak of one warm call with every kernel allocating its result
ALLOCATING_PEAK_MIB = {"ga_4to1": 3.25, "ga_5to1": 52.25}


@pytest.mark.parametrize("name", ["ga_4to1", pytest.param("ga_5to1", marks=pytest.mark.slow)])
def test_peak_memory_of_a_call_stays_within_five_percent(name):
    run = warm_simulate(name)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * ALLOCATING_PEAK_MIB[name] * 2 ** 20


def fingerprint(out):
    return (out.output_fidelity.hex(), out.success_probability.hex(),
            hashlib.sha256(out.output_state.entries.tobytes()).hexdigest())


def test_concurrent_calls_give_the_serial_bytes():
    # simulate's work arrays belong to the call: two threads, each running
    # both circuits in the opposite order, overlap at equal and unequal widths
    runs = [warm_simulate(name) for name in ("ga_3to1", "ga_4to1")]
    serial = [fingerprint(run()) for run in runs]
    start = threading.Barrier(2, timeout=60)
    got = [[], []]

    def worker(i):
        for _ in range(20):
            start.wait()
            for j in (i, 1 - i):
                got[i].append(fingerprint(runs[j]()))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [serial * 20, serial[::-1] * 20]
