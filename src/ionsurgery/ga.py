"""Genetic search for high-yield n->1 purification circuits under noise.

Genomes are measurement-terminal: gates act anywhere, then every ancilla
pair is measured on both sides and accepted on a per-pair coincidence
relation.  Insertions are biased toward bilateral two-qubit gates and
conjugate Clifford pairs (U on A with conj(U) on B leaves phi+ invariant),
which is where useful purification structure lives.

A genome is an immutable `_Genome(gates, bases, relations)` of tuples, so
it is its own cache key.  `gates` holds (kind, side, pair, pair-or-index)
records, at most MAX_OPS; `bases` holds one basis per ancilla pair and side,
ordered (1, A), (1, B), (2, A), ...; `relations` holds one accept relation
per ancilla pair 1..n-1.  The search evaluates each distinct genome once.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import as_int
from .purify import (
    BASES,
    RELATIONS,
    SIDES,
    AcceptRule,
    Measure,
    PurificationCircuit,
    ProtocolOutcome,
    SingleQubitClifford,
    TwoQubitGate,
    resolve_input,
    simulate,
)
from .quantum import CLIFFORD_CONJUGATE_PARTNER, NoiseModel, stephenson_pair

MIN_SUCCESS = 0.01  # circuits succeeding less often than this score zero
MUTATION_RATE = 0.1  # per-site; sites = gates + bases + relations
CROSSOVER_RATE = 0.7
MAX_OPS = 24  # gates per genome
ELITE_FRACTION = 0.1


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 100
    generations: int = 150
    n_pairs: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, lo in (("population_size", 2), ("generations", 1), ("n_pairs", None),
                         ("seed", 0)):
            object.__setattr__(self, name, as_int(name, getattr(self, name), lo))
        if self.n_pairs not in (3, 4, 5):
            raise ValueError("n_pairs must be 3, 4 or 5")


@dataclass(frozen=True)
class RankedCircuit:
    circuit: PurificationCircuit
    fitness: float
    outcome: ProtocolOutcome


def _score(out: ProtocolOutcome) -> float:
    return out.output_fidelity if out.success_probability >= MIN_SUCCESS else 0.0


def fitness(circuit: PurificationCircuit, inputs, noise: NoiseModel) -> float:
    """Output fidelity, zeroed when the accept rate is below MIN_SUCCESS."""
    return _score(simulate(circuit, inputs, noise))


# ---------------------------------------------------------------------------
# genome

class _Genome(NamedTuple):
    gates: tuple
    bases: tuple
    relations: tuple


def _record_label(pair: int, side: str, n_pairs: int) -> str:
    # qubit numbering q0..q_{2n-1} with side A first, as in the circuit layout
    return f"c{pair + (0 if side == 'A' else n_pairs)}"


# Op records are frozen, so every circuit built from genomes shares them:
# each cache below makes one record per key, and its key ranges over a small
# fixed domain (kinds, sides, pairs, bases, Clifford indices), never over
# genomes.  `PurificationCircuit` still checks every circuit they join.

@functools.lru_cache(maxsize=None)
def _gate_op(item: tuple):
    """The op of a gate record (kind, side, pair, pair-or-index)."""
    if item[0] in ("cnot", "cz"):
        return TwoQubitGate(*item)
    return SingleQubitClifford(item[2], item[1], item[3])


@functools.lru_cache(maxsize=None)
def _measure_op(pair: int, side: str, basis: str, n_pairs: int) -> Measure:
    return Measure(pair, side, basis, _record_label(pair, side, n_pairs))


@functools.lru_cache(maxsize=None)
def _accept_rule(pair: int, relation: str, n_pairs: int) -> AcceptRule:
    return AcceptRule(_record_label(pair, "A", n_pairs),
                      _record_label(pair, "B", n_pairs), relation)


def _genome_to_circuit(g: _Genome, n_pairs: int) -> PurificationCircuit:
    ops = [_gate_op(item) for item in g.gates]
    accept = []
    for pair, relation in zip(range(1, n_pairs), g.relations):
        for side, basis in zip(SIDES, g.bases[2 * pair - 2:2 * pair]):
            ops.append(_measure_op(pair, side, basis, n_pairs))
        accept.append(_accept_rule(pair, relation, n_pairs))
    return PurificationCircuit(n_pairs, tuple(ops), tuple(accept))


def _random_motif(rng, n_pairs: int) -> tuple:
    r = rng.random()
    i = int(rng.integers(n_pairs))
    j = int(rng.integers(n_pairs - 1))
    j = j if j < i else j + 1
    if r < 0.40:
        return ("cnot", "A", i, j), ("cnot", "B", i, j)
    if r < 0.55:
        return ("cz", "A", i, j), ("cz", "B", i, j)
    if r < 0.85:
        c = int(rng.integers(24))
        return (("clifford", "A", i, c),
                ("clifford", "B", i, CLIFFORD_CONJUGATE_PARTNER[c]))
    side = SIDES[int(rng.integers(2))]
    k = rng.random()
    if k < 0.4:
        return (("cnot", side, i, j),)
    if k < 0.6:
        return (("cz", side, i, j),)
    return (("clifford", side, i, int(rng.integers(24))),)


def _random_genome(rng, n_pairs: int) -> _Genome:
    gates = ()
    for _ in range(int(rng.integers(1, 6))):
        gates += _random_motif(rng, n_pairs)
    bases = tuple(BASES[int(rng.integers(3))] for _ in range(2 * (n_pairs - 1)))
    relations = tuple(RELATIONS[int(rng.integers(2))] for _ in range(n_pairs - 1))
    return _Genome(gates[:MAX_OPS], bases, relations)


def _put(t: tuple, k: int, v) -> tuple:
    return t[:k] + (v,) + t[k + 1:]


def _mutate_once(g: _Genome, rng, n_pairs: int) -> _Genome:
    gates = g.gates
    r = rng.random()
    if r < 0.35:  # insert a motif
        pos = int(rng.integers(len(gates) + 1))
        gates = gates[:pos] + _random_motif(rng, n_pairs) + gates[pos:]
        return g._replace(gates=gates[:MAX_OPS])
    if r < 0.55 and gates:  # delete
        k = int(rng.integers(len(gates)))
        return g._replace(gates=gates[:k] + gates[k + 1:])
    if r < 0.70 and gates:  # redraw one gate in place
        # the gate is drawn before its site: seeded searches depend on the order
        gate = _random_motif(rng, n_pairs)[0]
        return g._replace(gates=_put(gates, int(rng.integers(len(gates))), gate))
    p = int(rng.integers(1, n_pairs))
    if r < 0.90:  # redraw a measurement basis
        k = 2 * (p - 1) + int(rng.integers(2))
        return g._replace(bases=_put(g.bases, k, BASES[int(rng.integers(3))]))
    # toggle an accept relation
    flipped = RELATIONS[1 - RELATIONS.index(g.relations[p - 1])]
    return g._replace(relations=_put(g.relations, p - 1, flipped))


def _mutate(g: _Genome, rng, n_pairs: int, rate: float) -> _Genome:
    # rate is per-site: one Bernoulli(rate) trial per mutable locus, so the
    # number of events scales with genome length (gates + bases + relations,
    # +1 for the length locus itself)
    n_sites = len(g.gates) + len(g.bases) + len(g.relations) + 1
    for _ in range(int(rng.binomial(n_sites, rate))):
        g = _mutate_once(g, rng, n_pairs)
    return g


def _crossover(g1: _Genome, g2: _Genome, rng, n_pairs: int) -> _Genome:
    i = int(rng.integers(len(g1.gates) + 1))
    j = int(rng.integers(len(g2.gates) + 1))
    gates = (g1.gates[:i] + g2.gates[j:])[:MAX_OPS]
    bases, relations = [], []
    for p in range(n_pairs - 1):
        relations.append((g1 if rng.random() < 0.5 else g2).relations[p])
        for k in (2 * p, 2 * p + 1):
            bases.append((g1 if rng.random() < 0.5 else g2).bases[k])
    return _Genome(gates, tuple(bases), tuple(relations))


# ---------------------------------------------------------------------------
# search

def search(config: GaConfig, input_spec, noise: NoiseModel,
           archive: bool = False) -> list:
    """Evolve circuits; return RankedCircuits in descending fitness.

    Deterministic for a fixed config (bitwise-identical reruns).  By default
    the final population is returned; archive=True instead ranks every
    distinct circuit evaluated during the whole run, which is the candidate
    pool that downstream benchmarking draws from.  Ties keep population
    order, or first-evaluation order in the archive.
    """
    rho = resolve_input(input_spec)
    rng = np.random.default_rng(config.seed)
    n_pairs = config.n_pairs
    pop = [_random_genome(rng, n_pairs) for _ in range(config.population_size)]

    cache = {}  # genome -> RankedCircuit, in first-evaluation order

    def evaluate(g: _Genome) -> RankedCircuit:
        hit = cache.get(g)
        if hit is None:
            circ = _genome_to_circuit(g, n_pairs)
            out = simulate(circ, rho, noise)
            hit = cache[g] = RankedCircuit(circ, _score(out), out)
        return hit

    n_elite = max(1, int(round(ELITE_FRACTION * config.population_size)))
    for _ in range(config.generations):
        scored = sorted(((evaluate(g).fitness, i, g) for i, g in enumerate(pop)),
                        key=lambda t: (-t[0], t[1]))

        def tournament():  # the best of three draws sits first in `scored`
            return scored[min(int(rng.integers(config.population_size))
                              for _ in range(3))][2]

        nxt = [g for _, _, g in scored[:n_elite]]
        while len(nxt) < config.population_size:
            if rng.random() < CROSSOVER_RATE:
                child = _crossover(tournament(), tournament(), rng, n_pairs)
            else:
                child = tournament()
            nxt.append(_mutate(child, rng, n_pairs, MUTATION_RATE))
        pop = nxt

    final = [evaluate(g) for g in pop]  # also caches the last generation
    return sorted(cache.values() if archive else final, key=lambda r: -r.fitness)


@dataclass(frozen=True)
class BenchmarkRow:
    n_pairs: int
    success_probability: float
    output_fidelity: float


def benchmark_sweep(candidates, noise: NoiseModel) -> list:
    """Re-simulate candidate circuits on rotated measured-pair inputs.

    Returns one BenchmarkRow per candidate, in input order; this is the
    scatter data the candidate-pool quality plots are built from.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    rho = stephenson_pair(rotated=True)
    rows = []
    for circ in candidates:
        out = simulate(circ, rho, noise)
        rows.append(BenchmarkRow(circ.n_pairs, out.success_probability,
                                 out.output_fidelity))
    return rows
