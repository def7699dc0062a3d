"""Acceptance gate: one test per published target this library reproduces.

Each test prints one pass/fail line under `pytest -v`.  Two checks fail by
design and are kept failing rather than weakened:

* test_measured_pair_rotation_identity_as_stated - the (I (x) XZ) sandwich
  quoted next to the ion-photon dataset does not map the raw matrix to the
  rotated one (the relation that does is the (S (x) X) sandwich, to machine
  precision).  The stated form is asserted verbatim.
* test_search_werner_fitness_floor - the 0.985 best-of-5-seeds fitness target
  for f=0.94 Bell-diagonal inputs sits above the plateau the search reaches
  (~0.9765 for every seed).  The stated threshold is asserted verbatim.
"""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import ionsurgery as isg
from ionsurgery import (
    DeviceParams,
    GaConfig,
    SurgeryQuery,
    TrialConfig,
    attempts_required,
    binomial_tail_geq,
    default_device,
    empirical_attempts_bracket,
    max_rate,
    min_ions,
    multiplexing_k,
    p_onepair,
    pairs_required,
    simulate_collection,
    sweep_coupling,
)
from conftest import CIRCUITS, random_bell_weights, bell_abs

DEV = default_device()


def test_multiplexing_constant():
    """K = 5 purification circuits at p = 0.819, P_pair = 0.999; < 1 ms."""
    t0 = time.perf_counter()
    k = multiplexing_k(0.819, 0.999)
    dt = time.perf_counter() - t0
    assert k == 5
    assert dt < 1e-3


def test_pair_demand_and_sweep_plateaus():
    """N_LS = 45/90/135 at d = 3/6/9; strict-mode plateaus 46/91/136; grid < 1 s."""
    assert [pairs_required(d, 3, 5) for d in (3, 6, 9)] == [45, 90, 135]
    grid = [float(v) for v in np.geomspace(1e-4, 1.0, 50)]
    t0 = time.perf_counter()
    rows = list(sweep_coupling([3, 6, 9], [1e-3, 1e-4, 1e-5], grid, DEV,
                               paper_compat=True))
    dt = time.perf_counter() - t0
    assert dt < 1.0
    plateau = {d: min(r[3] for r in rows if r[0] == d and r[4])
               for d in (3, 6, 9)}
    assert plateau == {3: 46, 6: 91, 9: 136}


def test_ion_budget_text_anchors():
    """d=9 needs <= 1000 ions at T = 1 ms, >= 40000 at 10 us; decade ratio 8-12."""
    at = {t: min_ions(SurgeryQuery(distance=9, cycle_time_s=t), DEV).answer
          for t in (1e-3, 1e-4, 1e-5)}
    assert at[1e-3] <= 1000
    assert at[1e-5] >= 40_000
    assert 8 <= at[1e-4] / at[1e-3] <= 12
    assert 8 <= at[1e-5] / at[1e-4] <= 12


def test_rate_anchors_and_feasibility_boundary():
    """100/1000/10000 ions give ~100 Hz / ~1 kHz / ~10 kHz; d >= 7 starves 100 ions."""
    for ions, d, anchor in ((100, 5, 100.0), (1000, 9, 1000.0),
                            (10_000, 9, 10_000.0)):
        r = max_rate(SurgeryQuery(distance=d, n_ions=ions), DEV)
        assert r.feasible
        assert anchor / 3 <= r.rate_hz <= anchor * 3
    for d in (7, 8, 9):
        r = max_rate(SurgeryQuery(distance=d, n_ions=100), DEV)
        assert not r.feasible and r.rate_hz == 0.0

    # coupling needed to run d = 9 with 200 ions, for each cycle-time regime
    def crossing(t):
        lo, hi = 1e-6, 1.0
        def enough(pc):
            q = SurgeryQuery(distance=9, cycle_time_s=t)
            res = min_ions(q, replace(DEV, p_entangle=pc))
            return res.feasible and res.answer <= 200
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if enough(mid) else (mid, hi)
        return hi

    for t, anchor in ((1e-3, 1.5e-3), (1e-4, 1.5e-2), (1e-5, 1.5e-1)):
        c = crossing(t)
        assert 0.5 * anchor <= c <= 1.5 * anchor


def test_purification_fixture_and_closed_forms():
    """Frozen 3-to-1 circuit hits (F, p) = (0.9904, 0.819); recurrences to 1e-9."""
    fixture = isg.load_circuit(CIRCUITS / "ga_3to1.json")
    t0 = time.perf_counter()
    out = isg.simulate(fixture, isg.stephenson_pair(rotated=True),
                       isg.DEVICE_NOISE)
    dt = time.perf_counter() - t0
    assert dt < 0.1
    assert out.output_fidelity == pytest.approx(0.9904, abs=1e-3)
    assert out.success_probability == pytest.approx(0.819, abs=5e-3)

    # noiseless closed forms on 100 random Bell-diagonal input pairs
    rng = np.random.default_rng(77)
    worst = 0.0
    for w1, w2 in zip(random_bell_weights(rng, 100),
                      random_bell_weights(rng, 100)):
        a1, b1, c1, d1 = w1
        a2, b2, c2, d2 = w2
        inputs = [bell_abs(*w1), bell_abs(*w2)]
        bb = isg.simulate(isg.bbpssw_circuit(), inputs, isg.IDEAL_NOISE)
        n = (a1 + d1) * (a2 + d2) + (b1 + c1) * (b2 + c2)
        worst = max(worst, abs(bb.success_probability - n),
                    abs(bb.output_fidelity - (a1 * a2 + d1 * d2) / n))
        de = isg.simulate(isg.dejmps_circuit(), inputs, isg.IDEAL_NOISE)
        n = (a1 + c1) * (a2 + c2) + (b1 + d1) * (b2 + d2)
        worst = max(worst, abs(de.success_probability - n),
                    abs(de.output_fidelity - (a1 * a2 + c1 * c2) / n))
    assert worst < 1e-9

    # branch probabilities over each full measurement tree sum to one
    for circ in (isg.bbpssw_circuit(), isg.dejmps_circuit(), fixture):
        total = isg.simulate(replace(circ, accept=()),
                             isg.stephenson_pair(rotated=True),
                             isg.DEVICE_NOISE).success_probability
        assert total == pytest.approx(1.0, abs=1e-9)


def test_measured_pair_data_invariants():
    """Rotated ion-photon pair: phi+ fidelity 0.933172; valid density matrix."""
    rot = isg.stephenson_pair(rotated=True)
    assert isg.fidelity_to_bell(rot) == pytest.approx(0.933172, abs=1e-5)
    for rho in (isg.stephenson_pair(rotated=False), rot):
        rho.validate()
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-3)
        assert np.allclose(rho.entries, rho.entries.conj().T)


def test_measured_pair_rotation_identity_as_stated():
    """The stated raw-to-rotated transform (I (x) XZ) reproduces the rotated
    matrix entrywise to 1e-12.

    This fails: that operator does not relate the two matrices (the actual
    relation is conjugation by S (x) X, exact to 0).  Kept asserting the
    stated form instead of the repaired one.
    """
    raw = isg.stephenson_pair(rotated=False).entries
    rot = isg.stephenson_pair(rotated=True).entries
    xz = np.array([[0, 1], [1, 0]]) @ np.array([[1, 0], [0, -1]])
    u = np.kron(np.eye(2), xz)
    assert np.max(np.abs(u @ raw @ u.conj().T - rot)) < 1e-12


def test_binomial_tail_oracle():
    """Tail matches exact rational enumeration (n <= 30) and a big-integer
    evaluation at (n=1000, p=0.196, k=135)."""
    worst = 0.0
    for p in (0.1, 0.5, 0.93):
        pf = Fraction(p).limit_denominator(10 ** 15)
        for n in (1, 7, 19, 30):
            tail = Fraction(0)
            exact = {n + 1: Fraction(0)}
            for k in range(n, -1, -1):
                tail += math.comb(n, k) * pf ** k * (1 - pf) ** (n - k)
                exact[k] = tail
            for k in range(n + 2):
                worst = max(worst, abs(binomial_tail_geq(n, p, k)
                                       - float(exact[k])))
    assert worst < 1e-9
    # 0.196 = 49/250 exactly; single big-integer sum, one division
    num = sum(math.comb(1000, i) * 49 ** i * 201 ** (1000 - i)
              for i in range(135, 1001))
    exact_tail = float(Fraction(num, 250 ** 1000))
    assert abs(binomial_tail_geq(1000, 0.196, 135) - exact_tail) < 1e-12


def test_monte_carlo_cross_validation():
    """9-point smoke grid at 1e5 trials: tails within 3 standard errors and
    the empirical bracket contains the analytic attempt minimum; < 60 s."""
    grid = [
        (45, 2.18e-4, 20000), (45, 2.18e-4, 49142), (100, 2.18e-4, 1000),
        (100, 1e-3, 500), (135, 1e-3, 2000), (200, 1e-2, 100),
        (500, 2.18e-4, 5000), (1000, 2.18e-4, 1000), (50, 0.5, 5),
    ]
    seed = 2024
    t0 = time.perf_counter()
    for i, (n, pc, a) in enumerate(grid):
        res = simulate_collection(TrialConfig(n, pc, a, 100_000, seed + i))
        p1 = p_onepair(pc, a)
        mean = n * p1
        ks = sorted({max(1, int(mean / 2)), max(1, round(mean)),
                     min(n, math.ceil(1.5 * mean))})
        for k in ks:
            ana = binomial_tail_geq(n, p1, k)
            se = max(math.sqrt(ana * (1 - ana) / 100_000), 1e-12)
            assert abs(res.empirical_tail_geq(k) - ana) < 3 * se
    analytic = attempts_required(45, 2.18e-4, 45, 0.999)
    lo, hi = empirical_attempts_bracket(45, 2.18e-4, 45, 0.999, 100_000,
                                        seed + len(grid))
    assert lo <= analytic <= hi
    assert time.perf_counter() - t0 < 60.0


def test_search_trend_and_determinism():
    """Shipped best-per-n circuits have non-increasing success probability
    from n=3 to n=5; fixed-seed searches are bitwise reproducible."""
    circuits = [isg.load_circuit(CIRCUITS / name)
                for name in ("ga_3to1.json", "ga_4to1.json", "ga_5to1.json")]
    rows = isg.benchmark_sweep(circuits, isg.DEVICE_NOISE)
    assert [r.n_pairs for r in rows] == [3, 4, 5]
    probs = [r.success_probability for r in rows]
    assert probs[0] >= probs[1] >= probs[2]

    cfg = GaConfig(population_size=6, generations=3, seed=11)
    a = isg.search(cfg, "stephenson", isg.DEVICE_NOISE)
    b = isg.search(cfg, "stephenson", isg.DEVICE_NOISE)
    assert [r.circuit.to_json() for r in a] == [r.circuit.to_json() for r in b]
    assert [r.fitness for r in a] == [r.fitness for r in b]


@pytest.mark.slow
def test_search_werner_fitness_floor():
    """Best-of-5-seeds search (pop 100, gens 150) on f=0.94 Bell-diagonal
    inputs under device noise reaches fitness >= 0.985; each seed < 10 min.

    This fails: every seed plateaus near 0.9765, short of the 0.985 target.
    Kept asserting the stated threshold instead of the reachable one.
    """
    best = 0.0
    state = isg.BellDiagonalState(0.94, 1 / 3, 1 / 3, 1 / 3)
    for seed in range(1, 6):
        cfg = GaConfig(population_size=100, generations=150, seed=seed)
        t0 = time.perf_counter()
        ranked = isg.search(cfg, state, isg.DEVICE_NOISE)
        assert time.perf_counter() - t0 < 600.0
        best = max(best, ranked[0].fitness)
    assert best >= 0.985
