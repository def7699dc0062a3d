"""Genetic circuit search: config, operators, determinism, benchmark sweep."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import ionsurgery as isg
from ionsurgery import (
    AcceptRule,
    GaConfig,
    Measure,
    PurificationCircuit,
    SingleQubitClifford,
    TwoQubitGate,
)
from ionsurgery import ga
from ionsurgery.ga import (
    CROSSOVER_RATE,
    ELITE_FRACTION,
    MAX_OPS,
    MIN_SUCCESS,
    MUTATION_RATE,
    _crossover,
    _genome_to_circuit,
    _mutate,
    _random_genome,
)


def test_config_defaults():
    cfg = GaConfig()
    assert dataclasses.astuple(cfg) == (100, 150, 3, 0)
    assert (MUTATION_RATE, CROSSOVER_RATE, MAX_OPS, ELITE_FRACTION) == (0.1, 0.7, 24, 0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError):
        GaConfig(n_pairs=2)
    with pytest.raises(ValueError):
        GaConfig(n_pairs=6)
    with pytest.raises(ValueError):
        GaConfig(generations=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        GaConfig(seed=-1)
    # counts are integers: NumPy integers pass, bools and floats do not
    assert GaConfig(population_size=np.int64(4), seed=np.int32(3)).population_size == 4
    for field in ("population_size", "generations", "n_pairs", "seed"):
        for bad in (3.0, 3.5, True, "3"):
            with pytest.raises(ValueError):
                GaConfig(**{field: bad})


def test_resolve_input_variants():
    a = isg.resolve_input("stephenson")
    assert isg.fidelity_to_bell(a) == pytest.approx(0.933172, abs=1e-9)
    bd = isg.BellDiagonalState(0.94, 1 / 3, 1 / 3, 1 / 3)
    b = isg.resolve_input(bd)
    assert np.allclose(b.entries, bd.to_density_matrix().entries)
    dm = isg.bell_state("phi_plus")
    assert isg.resolve_input(dm) is dm
    with pytest.raises(ValueError):
        isg.resolve_input("werner")
    with pytest.raises(ValueError):
        isg.resolve_input(isg.DensityMatrix(4, np.kron(dm.entries, dm.entries)))
    with pytest.raises(ValueError, match="^input spec must be "):
        isg.resolve_input(0.94)


def test_fitness_gates_low_success():
    # mutually exclusive accept rules make success probability 0 < MIN_SUCCESS
    base = isg.bbpssw_circuit()
    impossible = dataclasses.replace(base, accept=(
        isg.AcceptRule("c1", "c2", "coincident"),
        isg.AcceptRule("c1", "c2", "anticoincident"),
    ))
    assert isg.fitness(impossible, isg.bell_state("phi_plus"),
                       isg.IDEAL_NOISE) == 0.0
    good = isg.fitness(base, isg.stephenson_pair(rotated=True),
                       isg.IDEAL_NOISE)
    assert good > 0.9
    assert 0 < MIN_SUCCESS < 1


def test_smallest_search_contract():
    cfg = GaConfig(population_size=2, generations=1, seed=7)
    ranked = isg.search(cfg, "stephenson", isg.IDEAL_NOISE)
    assert len(ranked) == 2
    assert ranked[0].fitness >= ranked[1].fitness
    for r in ranked:
        assert isinstance(r.circuit, PurificationCircuit)
        assert r.circuit.n_pairs == 3
        assert r.outcome.output_state.num_qubits == 2
        if r.fitness > 0:
            assert r.fitness == pytest.approx(r.outcome.output_fidelity)


def test_search_is_bitwise_deterministic():
    cfg = GaConfig(population_size=6, generations=3, seed=42)
    a = isg.search(cfg, "stephenson", isg.DEVICE_NOISE)
    b = isg.search(cfg, "stephenson", isg.DEVICE_NOISE)
    assert [r.circuit.to_json() for r in a] == [r.circuit.to_json() for r in b]
    assert [r.fitness for r in a] == [r.fitness for r in b]
    assert [r.outcome.success_probability for r in a] == \
        [r.outcome.success_probability for r in b]


@pytest.mark.parametrize("archive, sha256", [
    (False, "b45335ebe1380d081495fc972a9023b37f12c366e4f1e8f363649b980275d711"),
    (True, "c3c7ca7d1e3fae1b0e7dcfb9e8793fd84556b6f1636fe6803b311d747be1a722"),
], ids=["final", "archive"])
def test_seeded_search_matches_pinned_digest(archive, sha256):
    # pins every GA output bit across commits: the ranked circuits, their
    # order, fitness and success probability (the final population repeats
    # some genomes, so cache hits are ranked too)
    cfg = GaConfig(population_size=12, generations=5, seed=2)
    ranked = isg.search(cfg, "stephenson", isg.DEVICE_NOISE, archive=archive)
    rows = [[r.circuit.to_json(), r.fitness.hex(), r.outcome.success_probability.hex()]
            for r in ranked]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == sha256


def test_archive_pools_all_distinct_circuits():
    cfg = GaConfig(population_size=6, generations=3, seed=5)
    final = isg.search(cfg, "stephenson", isg.IDEAL_NOISE)
    pool = isg.search(cfg, "stephenson", isg.IDEAL_NOISE, archive=True)
    assert len(final) == 6
    assert len(pool) >= len(final)
    fits = [r.fitness for r in pool]
    assert fits == sorted(fits, reverse=True)
    # every distinct pooled circuit appears once
    keys = [r.circuit.to_json() for r in pool]
    assert len(keys) == len(set(keys))
    # the final population's best is in the pool
    assert final[0].circuit.to_json() in keys


def test_variation_operators_always_yield_valid_circuits():
    rng = np.random.default_rng(99)
    for n_pairs in (3, 4, 5):
        genomes = [_random_genome(rng, n_pairs) for _ in range(20)]
        for _ in range(200):
            g = genomes[int(rng.integers(len(genomes)))]
            mutated = _mutate(g, rng, n_pairs, 0.5)
            other = genomes[int(rng.integers(len(genomes)))]
            crossed = _crossover(g, other, rng, n_pairs)
            for child in (mutated, crossed):
                circ = _genome_to_circuit(child, n_pairs)  # validates
                assert len(child.gates) <= MAX_OPS
                assert circ.n_pairs == n_pairs
                # measurement-terminal: every sacrificial pair measured on
                # both sides and tied by exactly one accept rule
                assert len(circ.accept) == n_pairs - 1


def fresh_circuit(g, n_pairs):
    """The circuit of genome g, every op and rule made anew."""
    ops = [TwoQubitGate(*item) if item[0] in ("cnot", "cz")
           else SingleQubitClifford(item[2], item[1], item[3]) for item in g.gates]
    accept = []
    for pair, relation in zip(range(1, n_pairs), g.relations):
        labels = (f"c{pair}", f"c{pair + n_pairs}")
        for side, basis, label in zip("AB", g.bases[2 * pair - 2:2 * pair], labels):
            ops.append(Measure(pair, side, basis, label))
        accept.append(AcceptRule(*labels, relation))
    return PurificationCircuit(n_pairs, tuple(ops), tuple(accept))


def test_genomes_share_op_records_and_build_the_fresh_circuit():
    rng = np.random.default_rng(31)
    for n_pairs in (3, 4, 5):
        genomes = [_mutate(_random_genome(rng, n_pairs), rng, n_pairs, 0.3)
                   for _ in range(40)]
        first = {}  # gate record or (pair, side, basis) -> the op it became first
        shared = 0
        for g in genomes:
            circ = _genome_to_circuit(g, n_pairs)
            fresh = fresh_circuit(g, n_pairs)
            assert circ == fresh and circ.to_dict() == fresh.to_dict()
            keys = [*g.gates, *((op.pair, op.side, op.basis)
                                for op in circ.ops[len(g.gates):])]
            for key, op in zip(keys, circ.ops):
                shared += key in first
                assert first.setdefault(key, op) is op
        assert shared > 100  # records recur across genomes, so the sharing is tested


def test_circuits_of_shared_ops_are_still_checked():
    wide = _genome_to_circuit(ga._Genome((("cnot", "A", 3, 4),), ("Z",) * 8,
                                         ("coincident",) * 4), 5)
    with pytest.raises(ValueError, match="pair index out of range"):
        PurificationCircuit(3, wide.ops[:1], ())
    circ = _genome_to_circuit(ga._Genome((("cz", "B", 1, 2),), ("X",) * 4,
                                         ("anticoincident",) * 2), 3)
    gate, measure = circ.ops[0], circ.ops[2]  # cz on pairs 1, 2 of side B; (1, B)
    assert (measure.pair, measure.side) == (1, "B")
    with pytest.raises(ValueError, match="gate on an already-measured qubit"):
        PurificationCircuit(3, (measure, gate), ())


def test_op_caches_never_outgrow_their_domains():
    caches = (ga._gate_op, ga._measure_op, ga._accept_rule)
    for cache in caches:
        cache.cache_clear()
    cfg = GaConfig(population_size=30, generations=12, seed=1)
    ranked = isg.search(cfg, "stephenson", isg.IDEAL_NOISE, archive=True)
    n = cfg.n_pairs
    # two-qubit kinds x sides x ordered pairs, plus sides x pairs x Cliffords;
    # then ancilla pairs x sides x bases, and ancilla pairs x relations
    domains = (2 * 2 * n * (n - 1) + 2 * n * 24, (n - 1) * 2 * 3, (n - 1) * 2)
    sizes = [cache.cache_info().currsize for cache in caches]
    assert all(0 < size <= domain for size, domain in zip(sizes, domains)), sizes
    # far more ops were built than records made
    assert sum(len(r.circuit.ops) for r in ranked) > 4 * sum(domains)


def test_benchmark_sweep_identity_row():
    empty = PurificationCircuit(n_pairs=3, ops=(), accept=())
    rows = isg.benchmark_sweep([empty], isg.DEVICE_NOISE)
    assert len(rows) == 1
    row = rows[0]
    assert row.n_pairs == 3
    assert row.success_probability == pytest.approx(1.0, abs=1e-12)
    assert row.output_fidelity == pytest.approx(0.933172, abs=1e-4)


def test_benchmark_sweep_preserves_order_and_rejects_empty():
    empty3 = PurificationCircuit(n_pairs=3, ops=(), accept=())
    rows = isg.benchmark_sweep([empty3, isg.bbpssw_circuit()],
                               isg.IDEAL_NOISE)
    assert [r.n_pairs for r in rows] == [3, 2]
    with pytest.raises(ValueError):
        isg.benchmark_sweep([], isg.IDEAL_NOISE)


@pytest.mark.slow
def test_short_search_already_purifies():
    cfg = GaConfig(population_size=30, generations=20, seed=1)
    ranked = isg.search(cfg, "stephenson", isg.DEVICE_NOISE)
    best = ranked[0]
    assert best.fitness >= 0.985
    assert best.outcome.success_probability >= MIN_SUCCESS
    # search output is serializable as interchange JSON
    again = PurificationCircuit.from_json(best.circuit.to_json())
    out = isg.simulate(again, isg.stephenson_pair(rotated=True),
                       isg.DEVICE_NOISE)
    assert out.output_fidelity == pytest.approx(best.outcome.output_fidelity,
                                                abs=1e-12)
