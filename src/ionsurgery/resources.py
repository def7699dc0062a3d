"""Analytic communication-ion budgets for fault-tolerant lattice surgery.

The model: a surgery between two surface-code patches of distance d needs
N_LS = d * N_p * K fresh purified pairs per syndrome extraction cycle, where
K multiplexes purification circuits so at least one succeeds with confidence
P_pair.  Within one cycle of T seconds a device pulsing at R Hz makes
A = floor(T*R) entanglement attempts per communication ion, each succeeding
with probability p_c, so one ion holds a pair with P_onepair = 1-(1-p_c)^A.
The two integer solvers invert the binomial tail over the ion count or the
attempt budget.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources as importlib_resources

import numpy as np
from scipy.special import betainc


def _check_int(name: str, v) -> None:
    """Counts are Python or NumPy integers; bools and floats are rejected."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class DeviceParams:
    """Hardware and confidence constants of one modular trapped-ion device."""

    pulse_rate_hz: float = 1e6          # R
    p_entangle: float = 2.18e-4         # p_c per attempt
    p_purify: float = 0.819             # p, purification success probability
    pairs_per_circuit: int = 3          # N_p raw pairs consumed per circuit
    p_pair_confidence: float = 0.999    # P_pair
    p_ls_confidence: float = 0.999      # P_LS
    f_ideal: float = 0.99               # pair fidelity target

    def __post_init__(self):
        if not (math.isfinite(self.pulse_rate_hz) and self.pulse_rate_hz > 0):
            raise ValueError("pulse_rate_hz must be positive and finite")
        for name in ("p_entangle", "p_purify", "p_pair_confidence", "p_ls_confidence",
                     "f_ideal"):
            v = getattr(self, name)
            if not (0 < v <= 1):
                raise ValueError(f"{name} must lie in (0,1]")
        _check_int("pairs_per_circuit", self.pairs_per_circuit)
        if self.pairs_per_circuit < 2:
            raise ValueError("pairs_per_circuit must be at least 2")


@dataclass(frozen=True)
class SurgeryQuery:
    """One solver question: fix the cycle time or fix the ion budget."""

    distance: int
    cycle_time_s: float | None = None
    n_ions: int | None = None
    paper_compat: bool = False

    def __post_init__(self):
        _check_int("distance", self.distance)
        if self.distance < 1:
            raise ValueError("distance must be at least 1")
        if (self.cycle_time_s is None) == (self.n_ions is None):
            raise ValueError("set exactly one of cycle_time_s and n_ions")
        if self.cycle_time_s is not None and not (
                math.isfinite(self.cycle_time_s) and self.cycle_time_s > 0):
            raise ValueError("cycle_time_s must be positive and finite")
        if self.n_ions is not None:
            _check_int("n_ions", self.n_ions)
            if self.n_ions < 1:
                raise ValueError("n_ions must be at least 1")


@dataclass(frozen=True)
class EstimateResult:
    """Solver output; `feasible` mirrors the 0.0 cells of infeasible queries."""

    k_multiplex: int
    n_ls: int
    attempts_budget: int
    answer: int
    rate_hz: float
    feasible: bool
    distance: int

    @property
    def full_surgery_rate_hz(self) -> float:
        """Rate of complete d-round surgeries, if cycles must serialize."""
        return self.rate_hz / self.distance


def multiplexing_k(p_purify: float, p_pair_confidence: float) -> int:
    """Smallest K with 1-(1-p)^K >= P_pair, evaluated in log space."""
    if p_purify <= 0:
        raise ValueError("p_purify must be positive for multiplexing to terminate")
    if not (0 < p_pair_confidence < 1):
        raise ValueError("p_pair_confidence must lie in (0,1)")
    if p_purify >= 1:
        return 1
    k = max(1, math.ceil(math.log1p(-p_pair_confidence) / math.log1p(-p_purify)))
    # integer verification against floating-point edge cases
    while -math.expm1(k * math.log1p(-p_purify)) < p_pair_confidence:
        k += 1
    while k > 1 and -math.expm1((k - 1) * math.log1p(-p_purify)) >= p_pair_confidence:
        k -= 1
    return k


def pairs_required(distance: int, pairs_per_circuit: int, k_multiplex: int) -> int:
    """N_LS = d * N_p * K raw-pair demand of one surgery cycle."""
    if min(distance, pairs_per_circuit, k_multiplex) < 1:
        raise ValueError("all factors must be at least 1")
    return distance * pairs_per_circuit * k_multiplex


def p_onepair(p_entangle: float, attempts: int) -> float:
    """1 - (1-p_c)^A, numerically stable for tiny p_c."""
    if attempts < 0:
        raise ValueError("attempts must be nonnegative")
    if attempts == 0 or p_entangle <= 0:
        return 0.0
    if p_entangle >= 1:
        return 1.0
    return -math.expm1(attempts * math.log1p(-p_entangle))


def binomial_tail_geq(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p), via the regularized incomplete beta."""
    if not (0 <= k <= n + 1):
        raise ValueError("k must lie in 0..n+1")
    if not (0 <= p <= 1):
        raise ValueError("p must lie in [0,1]")
    if k == 0:
        return 1.0
    if k == n + 1:
        return 0.0
    # P(X >= k) = I_p(k, n-k+1)
    return float(betainc(k, n - k + 1, p))


def _threshold(n_ls: int, paper_compat: bool) -> int:
    # the published sweeps use a strict inequality, costing one extra pair
    return n_ls + 1 if paper_compat else n_ls


# largest probe of the integer search; doubling past it would leave int64
SEARCH_LIMIT = 2 ** 62


def _search_min(pred, lo) -> np.ndarray:
    """Per cell, the smallest integer >= lo[i] satisfying a monotone predicate.

    pred(m, cells) tests probe m[j] of cell cells[j] and returns a bool array.
    All cells advance in lockstep, and each sees the probes of a scalar
    search: lo, then doubling from max(lo, 1), then bisection.  So every
    answer is the scalar answer, also where a floating-point predicate is not
    perfectly monotone.  Raises ValueError when a cell fails at SEARCH_LIMIT.
    """
    lo = np.array(lo, dtype=np.int64)
    found = pred(lo, np.arange(lo.size))
    # a failed lo >= 1 is also the first doubling probe, so start at 2 lo
    hi = np.where(found, lo, np.maximum(2 * lo, 1))
    grow = np.flatnonzero(~found)
    while grow.size:
        grow = grow[~pred(hi[grow], grow)]
        if grow.size and hi[grow].max() >= SEARCH_LIMIT:
            raise ValueError("no solution up to 2**62")
        lo[grow] = hi[grow]
        hi[grow] *= 2
    split = np.flatnonzero(hi - lo > 1)
    while split.size:
        mid = lo[split] + (hi[split] - lo[split]) // 2
        ok = pred(mid, split)
        hi[split[ok]] = mid[ok]
        lo[split[~ok]] = mid[~ok]
        split = split[hi[split] - lo[split] > 1]
    return hi


def _ions_needed(k_star: np.ndarray, p1: np.ndarray, target: float) -> np.ndarray:
    """Per cell, the fewest ions m >= k_star with P(X >= k_star | m, p1) >= target."""
    # P(X >= k) = I_p1(k, m-k+1), the ufunc behind binomial_tail_geq
    return _search_min(
        lambda m, i: betainc(k_star[i], m - k_star[i] + 1, p1[i]) >= target, k_star)


def min_ions(query: SurgeryQuery, device: DeviceParams) -> EstimateResult:
    """Fewest communication ions that fill the pair demand within one cycle."""
    if query.cycle_time_s is None:
        raise ValueError("min_ions needs a cycle_time_s query")
    k = multiplexing_k(device.p_purify, device.p_pair_confidence)
    n_ls = pairs_required(query.distance, device.pairs_per_circuit, k)
    k_star = _threshold(n_ls, query.paper_compat)
    budget = int(math.floor(query.cycle_time_s * device.pulse_rate_hz))
    p1 = p_onepair(device.p_entangle, budget)
    if p1 <= 0:
        return EstimateResult(k, n_ls, budget, 0, 0.0, False, query.distance)
    n = int(_ions_needed(np.array([k_star]), np.array([p1]), device.p_ls_confidence)[0])
    return EstimateResult(k, n_ls, budget, n, device.pulse_rate_hz / budget,
                          True, query.distance)


def attempts_required(n_ions: int, p_entangle: float, k_star: int,
                      p_ls: float) -> int:
    """Smallest attempt budget A with P(X >= k_star | n_ions, A) >= p_ls."""
    if not 0 < p_entangle <= 1:
        raise ValueError("p_entangle must be in (0, 1]")
    if not 0 < p_ls <= 1:
        raise ValueError("p_ls must be in (0, 1]")
    if k_star < 1:
        return 0
    if k_star > n_ions:
        raise ValueError("infeasible: k_star exceeds n_ions")

    def pred(attempts, _cells):
        return np.array([binomial_tail_geq(n_ions, p_onepair(p_entangle, int(a)), k_star)
                         >= p_ls for a in attempts])

    return int(_search_min(pred, [1])[0])


def max_rate(query: SurgeryQuery, device: DeviceParams) -> EstimateResult:
    """Highest sustainable cycle rate R / A_min for a fixed ion budget.

    A_min is the fewest per-ion attempts that fill the pair demand; the query
    is infeasible when the ion budget is below k*.
    """
    if query.n_ions is None:
        raise ValueError("max_rate needs an n_ions query")
    k = multiplexing_k(device.p_purify, device.p_pair_confidence)
    n_ls = pairs_required(query.distance, device.pairs_per_circuit, k)
    k_star = _threshold(n_ls, query.paper_compat)
    if query.n_ions < k_star:
        return EstimateResult(k, n_ls, 0, 0, 0.0, False, query.distance)
    a_min = attempts_required(query.n_ions, device.p_entangle, k_star,
                              device.p_ls_confidence)
    return EstimateResult(k, n_ls, a_min, a_min, device.pulse_rate_hz / a_min,
                          True, query.distance)


def sweep_coupling(distances, cycle_times_s, p_c_grid, device: DeviceParams,
                   paper_compat: bool = False) -> list:
    """min_ions over the (d, T, p_c) grid; rows (d, T, p_c, min_ions, feasible).

    Every feasible cell is solved in one lockstep search; each row equals the
    min_ions answer for its cell.
    """
    distances = list(distances)
    cycle_times_s = list(cycle_times_s)
    p_c_grid = list(p_c_grid)
    if not (distances and cycle_times_s and p_c_grid):
        raise ValueError("grids must be non-empty")
    for d in distances:  # the queries min_ions would get check d and T
        for t in cycle_times_s:
            SurgeryQuery(distance=d, cycle_time_s=t, paper_compat=paper_compat)
    if not all(0 < pc <= 1 for pc in p_c_grid):
        raise ValueError("p_entangle must lie in (0,1]")
    k = multiplexing_k(device.p_purify, device.p_pair_confidence)
    k_star = np.repeat([_threshold(pairs_required(d, device.pairs_per_circuit, k),
                                   paper_compat) for d in distances],
                       len(cycle_times_s) * len(p_c_grid))
    budgets = [int(math.floor(t * device.pulse_rate_hz)) for t in cycle_times_s]
    p1 = np.tile([p_onepair(pc, b) for b in budgets for pc in p_c_grid], len(distances))
    feasible = p1 > 0
    answers = np.zeros(p1.size, dtype=np.int64)
    answers[feasible] = _ions_needed(k_star[feasible], p1[feasible],
                                     device.p_ls_confidence)
    cells = itertools.product(distances, cycle_times_s, p_c_grid)
    return [(d, t, pc, int(n), bool(ok))
            for (d, t, pc), n, ok in zip(cells, answers, feasible)]


# device JSON key -> DeviceParams field
_DEVICE_KEYS = {"R": "pulse_rate_hz", "p_c": "p_entangle", "p": "p_purify",
                "N_p": "pairs_per_circuit", "P_pair": "p_pair_confidence",
                "P_LS": "p_ls_confidence", "F_ideal": "f_ideal"}


def load_device(path) -> DeviceParams:
    """Device JSON with short constant names R, p_c, p, N_p, P_pair, P_LS, F_ideal."""
    with open(path) as fh:
        raw = json.load(fh)
    return device_from_dict(raw)


def device_from_dict(raw: dict) -> DeviceParams:
    """Device from short-name keys; omitted keys take the packaged defaults."""
    if not isinstance(raw, dict):
        raise ValueError(f"device must be a JSON object, got {raw!r}")
    extra = set(raw) - set(_DEVICE_KEYS)
    if extra:
        raise ValueError(f"unknown device keys: {sorted(extra)}")
    ref = importlib_resources.files("ionsurgery").joinpath("data/device_default.json")
    with ref.open() as fh:
        merged = {**json.load(fh), **raw}
    return DeviceParams(**{field: _device_value(key, merged[key])
                           for key, field in _DEVICE_KEYS.items()})


def _device_value(key: str, v):
    """Every float field must be a finite JSON number; DeviceParams checks N_p."""
    if key == "N_p":
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{key} must be a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # NaN, infinities, ints past float range
        raise ValueError(f"{key} must be finite, got {v!r}")
    return float(v)


def device_to_dict(device: DeviceParams) -> dict:
    return {key: getattr(device, field) for key, field in _DEVICE_KEYS.items()}


def default_device() -> DeviceParams:
    """The packaged reference device constants."""
    return device_from_dict({})
