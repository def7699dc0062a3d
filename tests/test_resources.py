"""Resource model: multiplexing, binomial tails, ion/attempt solvers, devices."""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ionsurgery import (
    DeviceParams,
    EstimateResult,
    SurgeryQuery,
    attempts_required,
    binomial_tail_geq,
    default_device,
    device_from_dict,
    device_to_dict,
    load_device,
    max_rate,
    min_ions,
    multiplexing_k,
    p_onepair,
    pairs_required,
    resources,
    sweep_coupling,
)

DEV = default_device()


# ---------------------------------------------------------------------------
# device parameters

def test_default_device_constants():
    assert DEV.pulse_rate_hz == 1e6
    assert DEV.p_entangle == 2.18e-4
    assert DEV.p_purify == 0.819
    assert DEV.pairs_per_circuit == 3
    assert DEV.p_pair_confidence == 0.999
    assert DEV.p_ls_confidence == 0.999
    assert DEV.f_ideal == 0.99


def test_device_dict_round_trip(tmp_path):
    d = device_to_dict(DEV)
    assert set(d) == {"R", "p_c", "p", "N_p", "P_pair", "P_LS", "F_ideal"}
    assert device_from_dict(d) == DEV
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(d))
    assert load_device(path) == DEV
    # missing keys fall back to the packaged defaults
    assert device_from_dict({"p_c": 0.5}) == replace(DEV, p_entangle=0.5)
    assert device_from_dict({"R": 2000000}) == replace(DEV, pulse_rate_hz=2e6)
    with pytest.raises(ValueError):
        device_from_dict({"p_c": 0.5, "bogus": 1})
    # a rejected value is named by its key, not by its DeviceParams field
    with pytest.raises(ValueError, match=r"^p_c must lie in \(0,1\]"):
        device_from_dict({"p_c": 0})


@pytest.mark.parametrize("raw", [{"N_p": 3.5}, {"N_p": 3.0}, {"N_p": "3"},
                                 {"N_p": True}, {"R": math.inf}, {"R": math.nan},
                                 # every float field takes only a finite JSON number
                                 {"p_c": True}, {"R": "1e6"}, {"p": None},
                                 {"P_pair": [0.999]}, {"P_LS": math.nan},
                                 {"F_ideal": -math.inf}, {"R": 10 ** 400},
                                 # a device file holds one JSON object
                                 [], 3, None, "x"])
def test_device_from_dict_rejects_non_integer_counts_and_non_finite_rates(raw):
    with pytest.raises(ValueError):
        device_from_dict(raw)


def test_device_validation():
    with pytest.raises(ValueError):
        DeviceParams(pulse_rate_hz=0)
    for rate in (math.inf, math.nan):
        with pytest.raises(ValueError):
            DeviceParams(pulse_rate_hz=rate)
    with pytest.raises(ValueError):
        DeviceParams(p_entangle=0.0)
    with pytest.raises(ValueError):
        DeviceParams(p_purify=1.5)
    # P_pair = 1 needs infinitely many circuits: multiplexing_k rejects it
    with pytest.raises(ValueError, match=r"p_pair_confidence must lie in \(0,1\)"):
        DeviceParams(p_pair_confidence=1.0)
    with pytest.raises(ValueError):
        DeviceParams(pairs_per_circuit=1)
    for count in (2.5, 3.0, True):
        with pytest.raises(ValueError):
            DeviceParams(pairs_per_circuit=count)
    assert DeviceParams(pairs_per_circuit=np.int64(3)) == DEV


def test_query_validation():
    with pytest.raises(ValueError):
        SurgeryQuery(distance=0, cycle_time_s=1e-3)
    with pytest.raises(ValueError):
        SurgeryQuery(distance=3)
    with pytest.raises(ValueError):
        SurgeryQuery(distance=3, cycle_time_s=1e-3, n_ions=100)
    for t in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            SurgeryQuery(distance=3, cycle_time_s=t)
    with pytest.raises(ValueError):
        SurgeryQuery(distance=3, n_ions=0)
    # counts are integers: NumPy integers pass, bools and floats do not
    for d in (3.5, 3.0, True):
        with pytest.raises(ValueError):
            SurgeryQuery(distance=d, cycle_time_s=1e-3)
    for n in (100.5, 100.0, True):
        with pytest.raises(ValueError):
            SurgeryQuery(distance=3, n_ions=n)
    assert SurgeryQuery(distance=np.int64(3), n_ions=np.int32(100)).n_ions == 100


# ---------------------------------------------------------------------------
# multiplexing and pair demand

def test_multiplexing_k_reference_point():
    # the log-space first guess is already the answer, so neither correction
    # loop takes a step: the fast path, checked without a wall-clock bound
    assert math.ceil(math.log1p(-0.999) / math.log1p(-0.819)) == 5
    assert multiplexing_k(0.819, 0.999) == 5


def test_multiplexing_k_is_the_minimal_k():
    for p in (0.1, 0.33, 0.819, 0.95):
        for conf in (0.9, 0.99, 0.999, 0.9999):
            k = multiplexing_k(p, conf)
            assert 1 - (1 - p) ** k >= conf
            if k > 1:
                assert 1 - (1 - p) ** (k - 1) < conf


def test_multiplexing_k_edges():
    assert multiplexing_k(1.0, 0.999) == 1
    assert multiplexing_k(0.999999, 0.5) == 1
    with pytest.raises(ValueError):
        multiplexing_k(0.0, 0.999)
    with pytest.raises(ValueError):
        multiplexing_k(0.819, 1.0)
    with pytest.raises(ValueError):
        multiplexing_k(0.819, 0.0)


def test_pairs_required_scaling():
    assert pairs_required(3, 3, 5) == 45
    assert pairs_required(6, 3, 5) == 90
    assert pairs_required(9, 3, 5) == 135
    assert pairs_required(1, 2, 1) == 2
    with pytest.raises(ValueError):
        pairs_required(0, 3, 5)
    # a fractional distance used to give 15.0
    for args, field in (((2.5, 3, 2), "distance"), ((3, 3.0, 2), "pairs_per_circuit"),
                        ((3, 3, True), "k_multiplex")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            pairs_required(*args)
    assert pairs_required(np.int64(3), 3, np.int64(5)) == 45


# ---------------------------------------------------------------------------
# success probabilities

def test_p_onepair_reference_and_edges():
    assert p_onepair(2.18e-4, 1000) == pytest.approx(0.19589366851253276,
                                                     abs=1e-15)
    assert p_onepair(0.5, 0) == 0.0
    assert p_onepair(0.0, 100) == 0.0
    assert p_onepair(1.0, 1) == 1.0
    # stable for tiny p: 1-(1-p)^A ~= A*p
    assert p_onepair(1e-12, 10) == pytest.approx(1e-11, rel=1e-9)
    with pytest.raises(ValueError):
        p_onepair(0.5, -1)
    # these used to give a number, or nan
    with pytest.raises(ValueError, match="^attempts must be an integer"):
        p_onepair(0.1, 2.5)
    for p in (float("nan"), -0.1, 1.5):
        with pytest.raises(ValueError, match=r"^p_entangle must lie in \[0,1\]"):
            p_onepair(p, 5)
    assert p_onepair(0.5, np.int64(2)) == 0.75


def test_binomial_tail_against_exact_rationals():
    worst = 0.0
    for p in (0.1, 0.196, 0.5, 0.93):
        pf = Fraction(p).limit_denominator(10 ** 15)
        for n in range(1, 31):
            # exact suffix sums by descending k
            tail = Fraction(0)
            exact = {n + 1: Fraction(0)}
            for k in range(n, -1, -1):
                tail += math.comb(n, k) * pf ** k * (1 - pf) ** (n - k)
                exact[k] = tail
            for k in range(0, n + 2):
                got = binomial_tail_geq(n, p, k)
                worst = max(worst, abs(got - float(exact[k])))
    assert worst < 1e-9


def test_binomial_tail_edges():
    assert binomial_tail_geq(10, 0.3, 0) == 1.0
    assert binomial_tail_geq(10, 0.3, 11) == 0.0
    assert binomial_tail_geq(1000, 0.196, 135) == pytest.approx(
        0.9999998465112125, abs=1e-12)
    with pytest.raises(ValueError):
        binomial_tail_geq(10, 0.3, 12)
    with pytest.raises(ValueError):
        binomial_tail_geq(10, 1.3, 2)
    # fractional counts used to give numbers, here and in attempts_required
    with pytest.raises(ValueError, match="^n must be an integer"):
        binomial_tail_geq(10.5, 0.5, 3)
    with pytest.raises(ValueError, match="^k must be an integer"):
        binomial_tail_geq(10, 0.5, 3.0)
    with pytest.raises(ValueError, match="^n_ions must be an integer"):
        attempts_required(10.5, 0.5, 5, 0.9)
    with pytest.raises(ValueError, match="^k_star must be an integer"):
        attempts_required(10, 0.5, 5.0, 0.9)
    assert binomial_tail_geq(np.int64(10), 0.3, np.int64(3)) == binomial_tail_geq(10, 0.3, 3)
    # a negative count used to pass through the k == 0 shortcut as 1.0
    for n, k in ((-1, 0), (-1, 1), (-5, 0)):
        with pytest.raises(ValueError, match="^n must be non-negative"):
            binomial_tail_geq(n, 0.5, k)
    assert binomial_tail_geq(0, 0.5, 0) == 1.0
    assert binomial_tail_geq(0, 0.5, 1) == 0.0


def test_stirlerr_table_and_series():
    # log(m!) - log(sqrt(2 pi m) (m/e)^m); the table at m = 0 holds -log(2 pi)/2
    for m in range(1, 40):
        want = math.lgamma(m + 1) - (m + 0.5) * math.log(m) + m - 0.5 * math.log(2 * math.pi)
        assert resources._stirlerr_one(m) == pytest.approx(want, abs=1e-13)  # lgamma: ~1e-14
    try:
        import mpmath
    except ImportError:
        pass
    else:
        with mpmath.workdps(40):
            for m in range(1, 40):
                want = (mpmath.loggamma(m + 1) - (m + 0.5) * mpmath.log(m) + m
                        - mpmath.log(2 * mpmath.pi) / 2)
                # the table to its last digit; the series to its truncation
                assert abs(resources._stirlerr_one(m) - want) < (1e-17 if m < 16 else 1.1e-16)
    assert resources._STIRLERR[0] == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-15)
    m = np.arange(40.0)
    assert resources._stirlerr(m).tolist() == [resources._stirlerr_one(v) for v in m]


def _tail_grid():
    """(k, n, p) arrays: n from 1 to 1e8, p from 0 to 1, and k across 1..n,
    within 50 of n p, and 0.75 and 3 standard deviations either side of it
    (where the first term's error, a few ulps of k - n p, is largest)."""
    cells = []
    for n in (1, 2, 5, 15, 16, 17, 100, 1000, 10 ** 4, 250_000, 10 ** 6, 10 ** 8):
        for p in (0.0, 1e-9, 1e-6, 1e-4, 0.01, 0.196, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6, 1.0):
            sd = math.sqrt(n * p * (1 - p))
            ks = {1, n // 4, n // 2, 3 * n // 4, n}
            ks |= {round(n * p) + j for j in (-50, -5, -1, 0, 1, 5, 50)}
            ks |= {round(n * p + z * sd) for z in (-3, -0.75, 0.75, 3)}
            cells += [(k, n, p) for k in sorted(ks) if 1 <= k <= n]
    k, n, p = zip(*cells)
    return np.array(k), np.array(n), np.array(p)


def _tails_by_mpmath(n: int, p: float, ks) -> dict:
    """{k: P(X >= k)} for X ~ Binomial(n, p), summed at 40 digits.  The k on
    one side of the mean are taken outermost first: each tail is summed from
    its first term beyond the mean outward, to 1e-25 of the sum, or until it
    meets the terms of the k taken before it, whose sum it then adds.  So
    close k share one run of terms, and far ones such as n/4 and 3n/4 keep
    their own short tails."""
    import mpmath

    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        q = 1 - p
        if p in (0, 1):
            return dict.fromkeys(ks, p)
        out = {}
        end, beyond = n, 0  # the last term to sum, and the sum of those past it
        for k in sorted((k for k in ks if k > n * p), reverse=True):
            j = k
            t = s = mpmath.binomial(n, j) * p ** j * q ** (n - j)
            while j < end and t > s * 1e-25:
                t *= (n - j) * p / ((j + 1) * q)
                j += 1
                s += t
            out[k] = s = s + beyond if j == end else s
            end, beyond = k - 1, s
        end, beyond = 0, 0  # the same, downward from k - 1, for 1 - P(X < k)
        for k in sorted(k for k in ks if k <= n * p):
            j = k - 1
            t = s = mpmath.binomial(n, j) * p ** j * q ** (n - j)
            while j > end and t > s * 1e-25:
                t *= j * q / ((n - j + 1) * p)
                j -= 1
                s += t
            s = s + beyond if j == end else s
            out[k] = 1 - s
            end, beyond = k, s
        return out


@pytest.fixture(scope="module")
def grid_tails():
    """The grid's cells and their tails by `_tail` and one by one."""
    k, n, p = _tail_grid()
    vector = resources._tail(k, n, p)
    one_by_one = np.array([binomial_tail_geq(int(n_), float(p_), int(k_))
                           for k_, n_, p_ in zip(k, n, p)])
    return k, n, p, vector, one_by_one


def test_binomial_tail_matches_betainc_on_a_wide_grid(grid_tails):
    # SciPy is a test oracle only; its own error reaches 1.3e-12 on this grid
    betainc = pytest.importorskip("scipy.special").betainc
    k, n, p, vector, one_by_one = grid_tails
    want = betainc(k, n - k + 1, p)
    assert np.abs(vector - want).max() < 2e-12
    assert np.abs(one_by_one - want).max() < 2e-12


@pytest.mark.slow
def test_binomial_tail_matches_40_digit_mpmath_on_a_wide_grid(grid_tails):
    mpmath = pytest.importorskip("mpmath")
    k, n, p, vector, one_by_one = grid_tails
    cells = list(zip(k.tolist(), n.tolist(), p.tolist()))
    ks = {}
    for k_, n_, p_ in cells:
        ks.setdefault((n_, p_), []).append(k_)
    tails = {(k_, n_, p_): tail for (n_, p_), group in ks.items()
             for k_, tail in _tails_by_mpmath(n_, p_, group).items()}
    assert len(tails) == len(cells)
    worst = 0
    with mpmath.workdps(40):
        for (k_, n_, p_), v, o in zip(cells, vector, one_by_one):
            want = tails[k_, n_, p_]
            if n_ <= 1000:  # where mpmath's betainc converges, the sum is it
                assert abs(want - mpmath.betainc(k_, n_ - k_ + 1, 0, p_,
                                                 regularized=True)) < 1e-25
            worst = max(worst, abs(v - want), abs(o - want))
    assert worst < 1e-13


RECIPE_ARGV = (
    ["min-ions", "--distance", "3..13", "--paradigm", "all"],
    ["rate", "--distance", "3..13", "--ions", "100,1000,10000"],
    ["sweep", "--distances", "3,6,9", "--cycle-times-us", "1000,100,10", "--pc-from",
     "1e-4", "--pc-to", "1", "--points", "40", "--paper-compat"],
)


def test_tail_decisions_match_betainc_on_every_recipe_probe(monkeypatch, capsys):
    # every probe of the docs/repro.md min-ions and rate recipes and of a
    # sweep: the solver's decision tail >= P_LS is betainc's, and the early
    # stop of a probe with a target decides as the full sum does
    betainc = pytest.importorskip("scipy.special").betainc
    from ionsurgery import cli

    probes, tail = [], resources._tail

    def record(k, n, p, target=None):
        probes.append((*np.broadcast_arrays(k, n, p), target))
        return tail(k, n, p, target)

    monkeypatch.setattr(resources, "_tail", record)
    counts = []
    for argv in RECIPE_ARGV:
        assert cli.main(argv) == 0
        counts.append(sum(c[0].size for c in probes) - sum(counts))
    monkeypatch.undo()
    capsys.readouterr()
    assert counts == [647, 472, 3786]  # the probes of the betainc solvers
    target = DEV.p_ls_confidence
    assert {t for *_, t in probes} == {None, target}  # rate probes carry no target
    k, n, p = (np.concatenate([np.ravel(c[i]) for c in probes]) for i in range(3))
    full = resources._tail(k, n, p)
    decided = full >= target
    assert (decided == (betainc(k, n - k + 1, p) >= target)).all()
    assert (resources._tail(k, n, p, target) == decided).all()
    one_by_one = [resources._tail(*cell, target)[0] for cell in zip(k, n, p)]
    assert one_by_one == decided.tolist()


# ---------------------------------------------------------------------------
# ion-count solver

def test_min_ions_reference_points():
    for t, want, want_compat in ((1e-3, 867, 872), (1e-4, 8038, 8090),
                                 (1e-5, 79770, 80290)):
        r = min_ions(SurgeryQuery(distance=9, cycle_time_s=t), DEV)
        rc = min_ions(SurgeryQuery(distance=9, cycle_time_s=t,
                                   paper_compat=True), DEV)
        assert (r.answer, rc.answer) == (want, want_compat)
        assert r.k_multiplex == 5 and r.n_ls == 135
        assert r.feasible and rc.feasible
    # demand scaling between operating points stays within the narrow band
    # seen across the published sweeps (same T, d 9 vs T/10)
    assert 8 <= 8038 / 867 <= 12


def test_min_ions_saturates_at_pair_demand():
    # with an enormous attempt budget every ion succeeds, so the answer
    # bottoms out at exactly the per-cycle pair demand (one extra in the
    # strict-threshold compatibility mode)
    for d, n_ls in ((3, 45), (6, 90), (9, 135)):
        r = min_ions(SurgeryQuery(distance=d, cycle_time_s=10.0), DEV)
        rc = min_ions(SurgeryQuery(distance=d, cycle_time_s=10.0,
                                   paper_compat=True), DEV)
        assert r.answer == n_ls
        assert rc.answer == n_ls + 1


def test_min_ions_perfect_coupling():
    r = min_ions(SurgeryQuery(distance=1, cycle_time_s=1e-3),
                 DeviceParams(p_entangle=1.0))
    assert r.answer == 15
    assert r.feasible


def test_min_ions_monotonicity():
    answers_t = [min_ions(SurgeryQuery(distance=9, cycle_time_s=t), DEV).answer
                 for t in (1e-5, 3e-5, 1e-4, 3e-4, 1e-3)]
    assert answers_t == sorted(answers_t, reverse=True)
    answers_d = [min_ions(SurgeryQuery(distance=d, cycle_time_s=1e-4), DEV).answer
                 for d in (3, 5, 7, 9, 11)]
    assert answers_d == sorted(answers_d)


def test_min_ions_zero_budget_is_infeasible():
    r = min_ions(SurgeryQuery(distance=3, cycle_time_s=1e-7), DEV)
    assert not r.feasible
    assert r.answer == 0 and r.rate_hz == 0.0


def test_min_ions_requires_cycle_time_query():
    with pytest.raises(ValueError):
        min_ions(SurgeryQuery(distance=3, n_ions=100), DEV)
    with pytest.raises(ValueError):
        max_rate(SurgeryQuery(distance=3, cycle_time_s=1e-3), DEV)


# ---------------------------------------------------------------------------
# attempt/rate solver

def test_min_attempts_reference_point():
    r = max_rate(SurgeryQuery(distance=3, n_ions=45), DEV)
    assert r.answer == 49142
    assert r.rate_hz == pytest.approx(20.34919213707216, rel=1e-12)
    assert r.full_surgery_rate_hz == pytest.approx(r.rate_hz / 3, rel=1e-12)


def test_max_rate_reference_points():
    for ions, d, rate in ((100, 5, 110.52166224580017),
                          (1000, 9, 1168.2242990654206),
                          (10000, 9, 12345.67901234568)):
        r = max_rate(SurgeryQuery(distance=d, n_ions=ions), DEV)
        assert r.feasible
        assert r.rate_hz == pytest.approx(rate, rel=1e-12)
        assert r.rate_hz == pytest.approx(DEV.pulse_rate_hz / r.answer,
                                          rel=1e-15)


def test_max_rate_infeasible_when_ions_below_demand():
    # 100 ions cannot supply 105 pairs in one cycle at any attempt budget
    r = max_rate(SurgeryQuery(distance=7, n_ions=100), DEV)
    assert not r.feasible
    assert r.rate_hz == 0.0 and r.answer == 0


def test_max_rate_single_attempt_at_perfect_coupling():
    r = max_rate(SurgeryQuery(distance=3, n_ions=45),
                 DeviceParams(p_entangle=1.0))
    assert r.answer == 1
    assert r.rate_hz == 1e6


def test_attempts_required_edges():
    assert attempts_required(50, 0.5, 0, 0.999) == 0
    assert attempts_required(45, 1.0, 45, 0.999) == 1
    assert attempts_required(5, 0.5, 5, 1.0) >= 1
    with pytest.raises(ValueError):
        attempts_required(10, 0.5, 11, 0.999)
    with pytest.raises(ValueError):
        attempts_required(10, 0.0, 5, 0.999)
    # p_ls outside (0, 1] used to double until an OverflowError
    for p_ls in (1.5, 0.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            attempts_required(10, 0.5, 5, p_ls)
        with pytest.raises(ValueError):
            attempts_required(50, 0.5, 0, p_ls)
    # a negative ion count used to pass through the k_star < 1 shortcut as 0
    for n_ions, k_star in ((-3, 0), (-3, 1), (-1, -1)):
        with pytest.raises(ValueError, match="^n_ions must be non-negative"):
            attempts_required(n_ions, 0.5, k_star, 0.9)
    assert attempts_required(0, 0.5, 0, 0.9) == 0


def test_attempts_required_stops_at_the_search_limit():
    # about 1e300 attempts would be needed: a ValueError, not an OverflowError
    with pytest.raises(ValueError, match="2\\*\\*62"):
        attempts_required(45, 1e-300, 45, 0.999)


def test_attempts_required_is_minimal():
    a = attempts_required(1000, 2.18e-4, 135, 0.999)
    p_at = lambda att: binomial_tail_geq(1000, p_onepair(2.18e-4, att), 135)
    assert p_at(a) >= 0.999
    assert p_at(a - 1) < 0.999


# ---------------------------------------------------------------------------
# coupling sweep

def test_sweep_structure_and_monotonicity():
    pcs = list(np.geomspace(1e-4, 1e-1, 30))
    rows = list(sweep_coupling([3, 5, 9], [1e-4, 1e-3], pcs, DEV))
    assert len(rows) == 3 * 2 * 30
    for d, t, pc, answer, feasible in rows:
        assert feasible and answer >= pairs_required(d, 3, 5)
    # within one (d, T) block the answer never grows as coupling improves
    for i in range(0, len(rows), 30):
        block = [r[3] for r in rows[i:i + 30]]
        assert block == sorted(block, reverse=True)


def test_sweep_solves_every_cell_before_it_returns_an_iterator(monkeypatch):
    from ionsurgery import resources

    tail, calls = resources._tail, []
    monkeypatch.setattr(resources, "_tail", lambda *a: calls.append(a) or tail(*a))
    grid = ([3, 9], [1e-3, 1e-7], [1e-3, 1.0])
    rows = sweep_coupling(*grid, DEV)
    solved = len(calls)
    assert solved and iter(rows) is rows
    got = list(rows)
    assert len(calls) == solved and list(rows) == []  # read once, solve nothing
    want = []
    for d, t, pc in itertools.product(*grid):
        res = min_ions(SurgeryQuery(d, cycle_time_s=t), replace(DEV, p_entangle=pc))
        want.append((d, t, pc, res.answer, res.feasible))
    assert got == want


def test_sweep_compat_changes_only_the_answer():
    pcs = [1e-3, 1e-2]
    plain = list(sweep_coupling([3], [1e-3], pcs, DEV))
    compat = list(sweep_coupling([3], [1e-3], pcs, DEV, paper_compat=True))
    for a, b in zip(plain, compat):
        assert a[:3] == b[:3] and a[4] == b[4]
        assert b[3] >= a[3]


def _scan_min(pred, start: int) -> int:
    """Brute-force oracle: the first integer >= start satisfying pred."""
    m = start
    while not pred(m):
        m += 1
    return m


SMALL_DEVICES = (DEV, replace(DEV, p_purify=1.0, pairs_per_circuit=2))


@pytest.mark.parametrize("paper_compat", [False, True])
@pytest.mark.parametrize("device", SMALL_DEVICES, ids=["default", "k1"])
def test_sweep_matches_a_linear_scan(device, paper_compat):
    # 1e-7 s is a zero-attempt budget: those cells are infeasible
    distances, times, pcs = [1, 2, 3], [1e-7, 2e-6, 3e-5], [0.01, 0.1, 0.5, 1.0]
    rows = list(sweep_coupling(distances, times, pcs, device, paper_compat=paper_compat))
    k = multiplexing_k(device.p_purify, device.p_pair_confidence)
    want = []
    for d in distances:
        k_star = pairs_required(d, device.pairs_per_circuit, k) + paper_compat
        for t in times:
            for pc in pcs:
                p1 = p_onepair(pc, math.floor(t * device.pulse_rate_hz))
                n = 0 if p1 == 0 else _scan_min(
                    lambda m: binomial_tail_geq(m, p1, k_star) >= device.p_ls_confidence,
                    k_star)
                want.append((d, t, pc, n, p1 > 0))
    assert rows == want
    assert sum(not r[4] for r in rows) == len(distances) * len(pcs)
    for d, t, pc, n, _ in rows:
        res = min_ions(SurgeryQuery(d, cycle_time_s=t, paper_compat=paper_compat),
                       replace(device, p_entangle=pc))
        assert (res.answer, res.feasible) == (n, n > 0)


def _tail_geq_by_sum(m: int, p: float, k: int) -> float:
    """P(X >= k), X ~ Binomial(m, p), as 1 - the lower-tail sum: no betainc."""
    if k > m:
        return 0.0
    if p == 1:  # log1p(-1) is a domain error
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    return 1 - math.fsum(
        math.exp(math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
                 + j * lp + (m - j) * lq)
        for j in range(k))


@pytest.mark.parametrize("paper_compat", [False, True])
def test_sweep_answers_meet_the_target_by_an_independent_tail(paper_compat):
    # every answer m is the first ion count whose tail reaches P_LS, checked
    # with a lower-tail sum that shares no code with the solver's betainc
    distances, times = range(3, 10), [1e-3, 1e-4, 1e-5]
    rows = list(sweep_coupling(distances, times, np.geomspace(1e-4, 1, 40).tolist(),
                               DEV, paper_compat=paper_compat))
    k = multiplexing_k(DEV.p_purify, DEV.p_pair_confidence)
    assert len(rows) == 7 * 3 * 40 and all(r[4] for r in rows)
    for d, t, pc, m, _ in rows:
        k_star = pairs_required(d, DEV.pairs_per_circuit, k) + paper_compat
        p1 = p_onepair(pc, math.floor(t * DEV.pulse_rate_hz))
        assert _tail_geq_by_sum(m, p1, k_star) >= DEV.p_ls_confidence
        assert _tail_geq_by_sum(m - 1, p1, k_star) < DEV.p_ls_confidence


@pytest.mark.parametrize("p_ls", [0.5, 0.9, 0.999])
def test_attempts_required_matches_a_linear_scan(p_ls):
    for n in (1, 5, 20):
        for k_star in sorted({1, n // 2 + 1, n}):
            for pc in (0.05, 0.3, 1.0):
                want = _scan_min(
                    lambda a: binomial_tail_geq(n, p_onepair(pc, a), k_star) >= p_ls, 1)
                assert attempts_required(n, pc, k_star, p_ls) == want


def _scalar_search_min(pred, lo: int) -> int:
    """The scalar doubling + bisection search that the lockstep solver repeats."""
    if pred(lo):
        return lo
    hi = max(lo, 1)
    while not pred(hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_lockstep_search_repeats_the_scalar_probes():
    # non-monotone predicates: only the same probe sequence gives the same answers
    from ionsurgery.resources import _search_min

    rng = np.random.default_rng(3)
    table = rng.random((200, 1024)) < np.linspace(0.02, 0.9, 1024)
    table[:, 512:] = True  # every doubling stops below 1024
    lo = rng.integers(0, 40, size=200)
    got = _search_min(lambda m, cells: table[cells, m], lo, np.arange(200))
    want = [_scalar_search_min(lambda m: table[i, m], int(lo[i])) for i in range(200)]
    assert got.tolist() == want
    # per-cell arrays reach the predicate row-aligned with the probes
    rows = rng.permutation(200)
    got = _search_min(lambda m, r: table[r, m], lo[rows], rows)
    assert got.tolist() == [want[i] for i in rows]


def test_lockstep_search_stops_at_its_limit():
    from ionsurgery.resources import SEARCH_LIMIT, _search_min

    top = _search_min(lambda m, _: m >= SEARCH_LIMIT, [1], np.arange(1))
    assert top.tolist() == [SEARCH_LIMIT]
    with pytest.raises(ValueError):
        _search_min(lambda m, _: m > SEARCH_LIMIT, [1], np.arange(1))


def test_attempts_required_names_p_entangle_when_the_search_runs_out():
    # a vanishing p_c leaves P_onepair below the target at every probe up to
    # the search limit; the message starts with the field so the CLI names --pc
    with pytest.raises(ValueError, match=r"^p_entangle 1e-21 is too small"):
        attempts_required(100, 1e-21, 10, 0.999)


def test_ion_searches_name_the_coupling_when_they_run_out():
    # the messages start with the field, so the CLI names --pc and --pc-from/--pc-to
    weak = replace(DEV, p_entangle=1e-300)
    with pytest.raises(ValueError, match=r"^p_entangle 1e-300 is too small: no solution"):
        min_ions(SurgeryQuery(distance=3, cycle_time_s=1e-3), weak)
    with pytest.raises(ValueError, match=r"^p_c_grid value 1e-300 is too small: no solution"):
        sweep_coupling([3], [1e-3], [1e-300, 0.5], DEV)


def test_sweep_rejects_bad_cells():
    for args in (([0], [1e-3], [1e-3]), ([3], [float("nan")], [1e-3]),
                 ([3], [1e-3], [0.0]), ([3], [1e-3], [1.5]), ([3], [1e-3], [float("nan")])):
        with pytest.raises(ValueError):
            sweep_coupling(*args, DEV)


def test_sweep_rejects_empty_grids():
    # the message starts with the name of the empty grid
    with pytest.raises(ValueError, match="^distances must be non-empty$"):
        sweep_coupling([], [1e-3], [1e-3], DEV)
    with pytest.raises(ValueError, match="^cycle_times_s must be non-empty$"):
        sweep_coupling([3], [], [1e-3], DEV)
    with pytest.raises(ValueError, match="^p_c_grid must be non-empty$"):
        sweep_coupling([3], [1e-3], [], DEV)
