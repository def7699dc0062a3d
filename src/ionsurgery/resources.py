"""Analytic communication-ion budgets for fault-tolerant lattice surgery.

The model: a surgery between two surface-code patches of distance d needs
N_LS = d * N_p * K fresh purified pairs per syndrome extraction cycle, where
K multiplexes purification circuits so at least one succeeds with confidence
P_pair.  Within one cycle of T seconds a device pulsing at R Hz makes
A = floor(T*R) entanglement attempts per communication ion, each succeeding
with probability p_c, so one ion holds a pair with P_onepair = 1-(1-p_c)^A.
The two integer solvers invert the binomial tail over the ion count or the
attempt budget.  `_tail` evaluates that tail with NumPy alone, to about
1e-15: Loader's saddle-point form of the first term, then the sum of term
ratios from the side of the mean where they shrink.
"""
from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._checks import as_flag, as_int, as_real, as_record, check_keys


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
        # p_pair_confidence takes multiplexing_k's domain
        for name, interval in (("pulse_rate_hz", "positive"), ("p_entangle", "(0,1]"),
                               ("p_purify", "(0,1]"), ("p_pair_confidence", "(0,1)"),
                               ("p_ls_confidence", "(0,1]"), ("f_ideal", "(0,1]")):
            object.__setattr__(self, name, as_real(name, getattr(self, name), interval))
        object.__setattr__(self, "pairs_per_circuit",
                           as_int("pairs_per_circuit", self.pairs_per_circuit, 2))


@dataclass(frozen=True)
class SurgeryQuery:
    """One solver question: fix the cycle time or fix the ion budget."""

    distance: int
    cycle_time_s: float | None = None
    n_ions: int | None = None
    paper_compat: bool = False

    def __post_init__(self):
        object.__setattr__(self, "distance", as_int("distance", self.distance, 1))
        object.__setattr__(self, "paper_compat", as_flag("paper_compat", self.paper_compat))
        if (self.cycle_time_s is None) == (self.n_ions is None):
            raise ValueError("set exactly one of cycle_time_s and n_ions")
        if self.cycle_time_s is not None:
            object.__setattr__(self, "cycle_time_s",
                               as_real("cycle_time_s", self.cycle_time_s, "positive"))
        else:
            object.__setattr__(self, "n_ions", as_int("n_ions", self.n_ions, 1))


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
    p_purify = as_real("p_purify", p_purify, "(0,1]")
    p_pair_confidence = as_real("p_pair_confidence", p_pair_confidence, "(0,1)")
    if p_purify == 1:
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
    distance = as_int("distance", distance, 1)
    pairs_per_circuit = as_int("pairs_per_circuit", pairs_per_circuit, 1)
    k_multiplex = as_int("k_multiplex", k_multiplex, 1)
    return distance * pairs_per_circuit * k_multiplex


def p_onepair(p_entangle: float, attempts: int) -> float:
    """1 - (1-p_c)^A, numerically stable for tiny p_c."""
    attempts = as_int("attempts", attempts, 0)
    p_entangle = as_real("p_entangle", p_entangle, "[0,1]")
    if attempts == 0 or p_entangle == 0:
        return 0.0
    if p_entangle >= 1:
        return 1.0
    return -math.expm1(attempts * math.log1p(-p_entangle))


def binomial_tail_geq(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p), to about 1e-15 (see `_tail`)."""
    n, k = as_int("n", n, 0), as_int("k", k)
    if not (0 <= k <= n + 1):
        raise ValueError("k must lie in 0..n+1")
    p = as_real("p", p, "[0,1]")
    if k == 0:
        return 1.0
    if k == n + 1:
        return 0.0
    return float(_tail(k, n, p)[0])


# Loader's stirlerr(m) = log(m!) - log(sqrt(2 pi m) (m / e)^m) for m = 1..15.
# At m = 0 it is -log(2 pi) / 2, so that the first term at x = n, whose log
# counts n - x as 1, is p^n exactly.
_STIRLERR = (
    -0.9189385332046728, 0.08106146679532726, 0.0413406959554093,
    0.02767792568499834, 0.020790672103765093, 0.016644691189821193,
    0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475,
    0.005554733551962801)
_BLOCK = 8192        # cells per pass of the solvers and of `_tail`
_CHUNK = 4096        # terms per summing step over all cells; each takes 8, 16, 32, ... of them
_STOP = 2.0 ** -60   # a term below this share of its sum ends the sum
_MARGIN = 1e-12      # relative margin by which a bound must clear a target
# floor of (x - m)/m in `_bd0`: it moves only x = 0, where bd0 is m, off log1p(-1)
_LOG1P_FLOOR = 2.0 ** -53 - 1


def _tail(k, n, p, target=None):
    """P(X >= k) for X ~ Binomial(n, p), per cell of 1-d or scalar k, n, p
    with 1 <= k <= n; with `target`, whether that probability is >= target.

    P(X >= k) = 1 - P(n - X >= n - k + 1), so each cell sums the side whose
    first term lies beyond the mean: the upper tail itself when k > n p,
    else the lower one from k - 1 down, subtracted from 1.  The first term
    is Loader's saddle-point form of the pmf, as R's dbinom evaluates it
    (C. Loader, "Fast and accurate computation of binomial probabilities",
    2000), with a relative error of a few ulps of k - n p.  Each next term
    is the last times the ratio of neighbours, and the sum stops at a term
    below 2**-60 of it: past the mean each ratio is below the one before,
    so the rest is below that term times r / (1 - r), r the next ratio.
    Where p < 1/2, q = 1 - p is rounded, and every ratio carries the same
    relative error e / q, e = (1 - q) - p exactly: term i carries it i
    times, so the sum subtracts that drift times sum(i t_i).  The result is
    within about 1e-15 of the exact tail at the ion counts the solvers
    probe; the tests bound it by 1e-13 up to n = 1e8.

    With `target`, a cell stops as soon as its partial sum plus that bound
    on the rest puts the tail on one side of target by a relative margin
    of 1e-12, far above the rounding error: the answer is the comparison
    the full sum would give.  One cell is summed term by term in floats;
    more go through NumPy in blocks of `_BLOCK` cells and steps of a few
    terms each, so no temporary grows with the grid.
    """
    k, n = np.asarray(k).reshape(-1), np.asarray(n).reshape(-1)
    p = np.asarray(p, dtype=float).reshape(-1)
    if k.size == 1:
        return np.array([_tail_one(float(k[0]), float(n[0]), float(p[0]), target)])
    out = np.empty(k.size, dtype=float if target is None else bool)
    for lo in range(0, k.size, _BLOCK):
        cut = slice(lo, lo + _BLOCK)
        out[cut] = _tail_cells(k[cut], n[cut], p[cut], target)
    return out


def _band(target) -> tuple:
    """((lo, hi) for a sum that is the tail, (lo, hi) for one that the tail
    subtracts from 1): a sum >= hi, or below lo with the bound on the rest
    added, decides `target`.  NaN, which decides nothing, without a target."""
    if target is None:
        return (math.nan, math.nan), (math.nan, math.nan)
    lo, hi = target * (1 - _MARGIN), target * (1 + _MARGIN)
    return (lo, hi), (1 - hi, 1 - lo)


def _settled(t, s, r, lo, hi):
    """Per cell, whether a sum s with last term t and next ratio r is done:
    t is at most 2**-60 of s, s is at least hi, or s plus the bound
    t r / (1 - r) on the rest is below lo, with (lo, hi) from `_band`."""
    return (t <= _STOP * s) | (s >= hi) | (s + t * r / (1 - r) < lo)


def _tail_one(k: float, n: float, p: float, target):
    """`_tail` of one cell, in floats: the terms one by one."""
    up = k > n * p
    q = 1 - p
    x, u, w = (k, p, q) if up else (n - k + 1, q, p)
    if u == 0:  # p is 0 or 1
        tail = float(not up)
    else:
        y = n - x
        lc = (_stirlerr_one(n) - _stirlerr_one(x) - _stirlerr_one(y)
              - _bd0_one(x, n * u) - _bd0_one(y, n * w))
        t = s = math.exp(lc - 0.5 * math.log(2 * math.pi * x * max(y, 1) / n))
        lo, hi = _band(target)[not up]
        decide = target is not None
        a, b = n - x, x + 1  # the next term is t a u / (b w); then a - 1, b + 1
        i = moment = 0
        while t > _STOP * s:  # `_settled`, inline: a call per term costs a third more
            r = a * u / (b * w)
            if decide and (s >= hi or s + t * r / (1 - r) < lo):
                break
            t *= r
            s += t
            a -= 1
            b += 1
            i += 1
            moment += i * t
        drift = ((1 - q) - p) / q  # see `_tail`
        s -= (drift if up else -drift) * moment
        tail = s if up else 1 - s
    return tail if target is None else tail >= target


def _tail_cells(k, n, p, target):
    """`_tail` of one block of cells, summed in steps of a few terms per cell."""
    n = n.astype(float)
    q = 1 - p
    up = k > n * p
    x = np.where(up, k, n - k + 1)
    u = np.where(up, p, q)
    w = np.where(up, q, p)
    t = _first_terms(x, n, u, w)
    a, b = n - x, x + 1
    (lo_up, hi_up), (lo_down, hi_down) = _band(target)
    lo, hi = np.where(up, lo_up, lo_down), np.where(up, hi_up, hi_down)
    sums, moments = t, np.zeros(k.size)
    cells = np.flatnonzero(~_settled(t, t, a * u / (b * w), lo, hi))
    # one row per quantity of the cells still summing: the next term is
    # t a u / (b w), then a - 1 and b + 1; s is the sum of the terms t_i so
    # far and moment the sum of i t_i
    state = np.stack([row[cells] for row in (u, w, a, b, t, t, moments, lo, hi)])
    done, steps = 0, 4
    while cells.size:
        steps = max(8, min(2 * steps, _CHUNK // cells.size))
        u, w, a, b, t, s, moment, lo, hi = state
        i = np.arange(steps, dtype=float)[:, None]
        terms = (a - i) * u
        den = b + i
        den *= w
        terms /= den
        terms[0] *= t
        for j in range(1, steps):
            terms[j] *= terms[j - 1]
        s += terms.sum(axis=0)
        moment += (i[:, 0] + (done + 1)) @ terms
        t[:] = terms[-1]
        a -= steps
        b += steps
        done += steps
        end = _settled(t, s, a * u / (b * w), lo, hi)
        if np.count_nonzero(end):
            gone, keep = np.flatnonzero(end), np.flatnonzero(~end)
            sums[cells[gone]], moments[cells[gone]] = s[gone], moment[gone]
            state, cells = state.take(keep, axis=1), cells[keep]
    drift = ((1 - q) - p) / np.maximum(q, 0.5)  # see `_tail`; 0 where q <= 1/2
    sums -= np.where(up, drift, -drift) * moments
    tail = np.where(up, sums, 1 - sums)
    return tail if target is None else tail >= target


def _first_terms(x, n, u, w):
    """Loader's saddle-point form of the Binomial(n, u) pmf at x, over float
    arrays with w = 1 - u: `_tail`'s first terms.  0 where u = 0."""
    y = n - x
    lc = _stirlerr(n)
    lc -= _stirlerr(x)
    lc -= _stirlerr(y)
    with np.errstate(divide="ignore"):  # u = 0: bd0 is inf, the term 0
        lc -= _bd0(x, n * u)
        lc -= _bd0(y, n * w)
    lc -= 0.5 * np.log((2 * math.pi) * x * np.maximum(y, 1) / n)
    return np.exp(lc, out=lc)


def _stirling_series(m):
    """stirlerr(m) for m >= 16, floats or arrays: the Stirling series to
    1/m^9, whose next term is below 1.1e-16 there."""
    s = 1 / m
    s2 = s * s
    return ((((s2 / 1188 - 1 / 1680) * s2 + 1 / 1260) * s2 - 1 / 360) * s2 + 1 / 12) * s


def _stirlerr(m):
    """stirlerr, elementwise over an array of integer-valued m >= 0."""
    out = _stirling_series(np.maximum(m, 16.0))
    small = np.flatnonzero(m < 16)
    if small.size:
        out[small] = np.take(_STIRLERR, m[small].astype(np.intp))
    return out


def _stirlerr_one(m: float) -> float:
    return _STIRLERR[int(m)] if m < 16 else _stirling_series(m)


def _bd0(x, m):
    """x log(x/m) + m - x, elementwise: Loader's deviance term of `_tail`'s
    first term.  Near x = m it is the series in v = (x - m)/(x + m), which
    keeps its error to a few ulps of the result; elsewhere
    x log1p((x - m)/m) - (x - m), whose error of a few ulps of x - m is at
    most ~100 ulps of the result when |v| >= 0.01.
    """
    d = x - m
    out = x * np.log1p(np.maximum(d / m, _LOG1P_FLOOR))
    out -= d
    v = d / (x + m)
    near = np.flatnonzero(np.abs(v) < 0.01)
    if near.size:
        out[near] = _bd0_series(x[near], d[near], v[near])
    return out


def _bd0_one(x: float, m: float) -> float:
    """`_bd0` of one pair of floats."""
    d = x - m
    v = d / (x + m)
    if abs(v) < 0.01:
        return _bd0_series(x, d, v)
    return x * math.log1p(max(d / m, _LOG1P_FLOOR)) - d


def _bd0_series(x, d, v):
    # d v + 2 x (v^3/3 + v^5/5 + v^7/7 + v^9/9): the next term is below
    # 1e-18 of the sum when |v| < 0.01
    w = v * v
    return d * v + 2 * x * v * w * (((w / 9 + 1 / 7) * w + 1 / 5) * w + 1 / 3)


def _demand(distance: int, device: DeviceParams, paper_compat: bool) -> tuple:
    """(K, N_LS, k*): circuits per pair, raw pairs per cycle, pairs the ions must hold."""
    k = multiplexing_k(device.p_purify, device.p_pair_confidence)
    n_ls = pairs_required(distance, device.pairs_per_circuit, k)
    # the published sweeps use a strict inequality, costing one extra pair
    return k, n_ls, n_ls + 1 if paper_compat else n_ls


# largest probe of the integer search; doubling past it would leave int64
SEARCH_LIMIT = 2 ** 62


def _search_min(pred, lo, *cols) -> np.ndarray:
    """Per cell, the smallest integer >= lo[i] satisfying a monotone predicate.

    pred(m, *rows) tests probe m[j] of the cell whose entries of the per-cell
    arrays `cols` are rows[.][j].
    All cells advance in lockstep, and each sees the probes of a scalar
    search: lo, then doubling from max(lo, 1), then bisection.  So every
    answer is the scalar answer, also where a floating-point predicate is not
    perfectly monotone.  Raises ValueError when a cell fails at SEARCH_LIMIT.

    The cells still searching keep their bounds and rows in compact arrays,
    which are gathered again only when some cell finishes: on a one-cell
    call a probe costs a few small ufuncs and no gather or scatter.
    """
    lo = np.array(lo, dtype=np.int64)
    found = pred(lo, *cols)
    # a failed lo >= 1 is also the first doubling probe, so start at 2 lo
    hi = np.where(found, lo, np.maximum(2 * lo, 1))
    cells = np.flatnonzero(~found)
    a, b, rows = lo[cells], hi[cells], [c[cells] for c in cols]
    while cells.size:
        ok = pred(b, *rows)
        if np.count_nonzero(ok):
            lo[cells[ok]], hi[cells[ok]] = a[ok], b[ok]
            fail = ~ok
            cells, a, b = cells[fail], a[fail], b[fail]
            rows = [r[fail] for r in rows]
        if np.count_nonzero(b >= SEARCH_LIMIT):
            raise ValueError("no solution up to 2**62")
        a, b = b, b + b
    cells = np.flatnonzero(hi - lo > 1)
    a, b, rows = lo[cells], hi[cells], [c[cells] for c in cols]
    while cells.size:
        mid = (a + b) // 2
        ok = pred(mid, *rows)
        b[ok] = mid[ok]
        fail = ~ok
        a[fail] = mid[fail]
        shut = b - a <= 1
        if np.count_nonzero(shut):
            hi[cells[shut]] = b[shut]
            keep = ~shut
            cells, a, b = cells[keep], a[keep], b[keep]
            rows = [r[keep] for r in rows]
    return hi


def _ions_needed(k_star: np.ndarray, p1: np.ndarray, target: float) -> np.ndarray:
    """Per cell, the fewest ions m >= k_star with P(X >= k_star | m, p1) >= target."""
    return _search_min(lambda m, k, p: _tail(k, m, p, target), k_star, k_star, p1)


def min_ions(query: SurgeryQuery, device: DeviceParams) -> EstimateResult:
    """Fewest communication ions that fill the pair demand within one cycle."""
    as_record("query", query, SurgeryQuery)
    as_record("device", device, DeviceParams)
    if query.cycle_time_s is None:
        raise ValueError("min_ions needs a cycle_time_s query")
    k, n_ls, k_star = _demand(query.distance, device, query.paper_compat)
    budget = int(math.floor(query.cycle_time_s * device.pulse_rate_hz))
    p1 = p_onepair(device.p_entangle, budget)
    if p1 <= 0:
        return EstimateResult(k, n_ls, budget, 0, 0.0, False, query.distance)
    try:
        n = int(_ions_needed(np.array([k_star]), np.array([p1]),
                             device.p_ls_confidence)[0])
    except ValueError as exc:  # only a vanishing p_entangle exhausts the search
        raise ValueError(f"p_entangle {device.p_entangle!r} is too small: {exc}") from None
    return EstimateResult(k, n_ls, budget, n, device.pulse_rate_hz / budget,
                          True, query.distance)


def attempts_required(n_ions: int, p_entangle: float, k_star: int,
                      p_ls: float) -> int:
    """Smallest attempt budget A with P(X >= k_star | n_ions, A) >= p_ls."""
    n_ions, k_star = as_int("n_ions", n_ions, 0), as_int("k_star", k_star)
    p_entangle = as_real("p_entangle", p_entangle, "(0,1]")
    p_ls = as_real("p_ls", p_ls, "(0,1]")
    if k_star < 1:
        return 0
    if k_star > n_ions:
        raise ValueError("infeasible: k_star exceeds n_ions")

    def pred(attempts):
        return np.array([binomial_tail_geq(n_ions, p_onepair(p_entangle, int(a)), k_star)
                         >= p_ls for a in attempts])

    try:
        return int(_search_min(pred, [1])[0])
    except ValueError as exc:  # only a vanishing p_entangle exhausts the search
        raise ValueError(f"p_entangle {p_entangle!r} is too small: {exc}") from None


def max_rate(query: SurgeryQuery, device: DeviceParams) -> EstimateResult:
    """Highest sustainable cycle rate R / A_min for a fixed ion budget.

    A_min is the fewest per-ion attempts that fill the pair demand; the query
    is infeasible when the ion budget is below k*.
    """
    as_record("query", query, SurgeryQuery)
    as_record("device", device, DeviceParams)
    if query.n_ions is None:
        raise ValueError("max_rate needs an n_ions query")
    k, n_ls, k_star = _demand(query.distance, device, query.paper_compat)
    if query.n_ions < k_star:
        return EstimateResult(k, n_ls, 0, 0, 0.0, False, query.distance)
    a_min = attempts_required(query.n_ions, device.p_entangle, k_star,
                              device.p_ls_confidence)
    return EstimateResult(k, n_ls, a_min, a_min, device.pulse_rate_hz / a_min,
                          True, query.distance)


def sweep_coupling(distances, cycle_times_s, p_c_grid, device: DeviceParams,
                   paper_compat: bool = False) -> Iterator[tuple]:
    """min_ions over the (d, T, p_c) grid, as an iterator of rows
    (d, T, p_c, min_ions, feasible) in grid order; use list() to keep them.

    Every feasible cell is solved before this returns, by lockstep searches
    over blocks of `_BLOCK` cells, so every ValueError comes before the first
    row; each row equals the min_ions answer for its cell, and the rows are
    built as they are read.
    """
    as_record("device", device, DeviceParams)
    grids = {"distances": list(distances), "cycle_times_s": list(cycle_times_s),
             "p_c_grid": list(p_c_grid)}
    for name, grid in grids.items():
        if not grid:
            raise ValueError(f"{name} must be non-empty")
    distances, cycle_times_s, p_c_grid = grids.values()
    for d in distances:  # the queries min_ions would get check d, T and paper_compat
        for t in cycle_times_s:
            SurgeryQuery(distance=d, cycle_time_s=t, paper_compat=paper_compat)
    for pc in p_c_grid:  # the rows keep the values as given
        as_real("p_c_grid value", pc, "(0,1]")
    k_star = np.array([_demand(d, device, paper_compat)[2] for d in distances])
    budgets = [int(math.floor(t * device.pulse_rate_hz)) for t in cycle_times_s]
    p1 = np.array([p_onepair(pc, b) for b in budgets for pc in p_c_grid])
    answers = np.zeros(k_star.size * p1.size, dtype=np.int64)
    try:
        for lo in range(0, answers.size, _BLOCK):
            block = np.arange(lo, min(lo + _BLOCK, answers.size))
            block = block[p1[block % p1.size] > 0]
            answers[block] = _ions_needed(k_star[block // p1.size], p1[block % p1.size],
                                          device.p_ls_confidence)
    except ValueError as exc:  # the smallest p_c fails first
        raise ValueError(f"p_c_grid value {min(p_c_grid)!r} is too small: {exc}") from None
    cells = itertools.product(distances, cycle_times_s, p_c_grid)
    return ((d, t, pc, int(n), bool(ok))
            for (d, t, pc), n, ok in zip(cells, answers, itertools.cycle(p1 > 0)))


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
    """Device from short-name keys; omitted keys take DeviceParams' defaults."""
    check_keys(raw, _DEVICE_KEYS, "device", optional=_DEVICE_KEYS)
    merged = {**device_to_dict(DeviceParams()), **raw}
    try:
        return DeviceParams(**{field: merged[key] for key, field in _DEVICE_KEYS.items()})
    except ValueError as exc:  # DeviceParams names a field; name the file key
        field, rest = str(exc).split(" ", 1)
        key = next(k for k, f in _DEVICE_KEYS.items() if f == field)
        raise ValueError(f"{key} {rest}") from None


def device_to_dict(device: DeviceParams) -> dict:
    as_record("device", device, DeviceParams)
    return {key: getattr(device, field) for key, field in _DEVICE_KEYS.items()}


def default_device() -> DeviceParams:
    """The reference device constants: DeviceParams' defaults."""
    return DeviceParams()
