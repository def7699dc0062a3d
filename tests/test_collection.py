"""Monte Carlo collection oracle: determinism, analytic agreement, brackets."""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ionsurgery import (
    TrialConfig,
    attempts_required,
    binomial_tail_geq,
    collection_report,
    empirical_attempts_bracket,
    empirical_min_attempts,
    p_onepair,
    simulate_collection,
    wilson_interval,
)
from ionsurgery.collection import CHUNK, Z99


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(n_ions=0, p_entangle=0.5, attempts=1, trials=10, seed=0)
    with pytest.raises(ValueError):
        TrialConfig(n_ions=5, p_entangle=1.5, attempts=1, trials=10, seed=0)
    with pytest.raises(ValueError):
        TrialConfig(n_ions=5, p_entangle=0.5, attempts=-1, trials=10, seed=0)
    with pytest.raises(ValueError):
        TrialConfig(n_ions=5, p_entangle=0.5, attempts=1, trials=0, seed=0)
    with pytest.raises(ValueError):
        TrialConfig(n_ions=5, p_entangle=float("nan"), attempts=1, trials=10, seed=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        TrialConfig(n_ions=5, p_entangle=0.5, attempts=1, trials=10, seed=-1)


@pytest.mark.parametrize("field", ["n_ions", "attempts", "trials", "seed"])
@pytest.mark.parametrize("value", [True, 2.5, 3.0, "3", None])
def test_config_counts_must_be_integers(field, value):
    # attempts=2.5 used to run silently, n_ions=True to fail inside NumPy
    kwargs = dict(n_ions=5, p_entangle=0.5, attempts=1, trials=10, seed=0)
    with pytest.raises(ValueError, match=field):
        TrialConfig(**{**kwargs, field: value})
    TrialConfig(**{**kwargs, field: np.int64(3)})


def test_certain_coupling_fills_every_ion():
    r = simulate_collection(TrialConfig(17, 1.0, 1, 500, 3))
    assert np.all(r.counts == 17)
    assert r.empirical_tail_geq(17) == 1.0
    assert r.empirical_tail_geq(18) == 0.0


def test_rounds_saturate_at_the_int64_maximum():
    # NumPy clamps a first success past 2**63 to the int64 maximum, so a
    # budget of that size counts every ion even at p = 1e-300
    r = simulate_collection(TrialConfig(5, 1e-300, 2 ** 63 - 1, 4, 0))
    assert np.all(r.counts == 5)
    assert np.all(simulate_collection(TrialConfig(5, 1e-300, 2 ** 62, 4, 0)).counts == 0)


def test_draw_cutoff_splits_draws_exactly_at_the_budget():
    # a draw at the cutoff lands in round <= A and the next double above it
    # does not; A * scale alone misses by an ulp in about one case in ten
    from ionsurgery.collection import _draw_cutoff, _rounds

    rng = np.random.default_rng(4)
    for _ in range(2000):
        p = float(10 ** rng.uniform(-6, np.log10(1 / 3)))
        scale = -np.log1p(-p) if rng.random() < 0.9 else 1.0
        budget = int(rng.integers(1, 10 ** 6))
        x = _draw_cutoff(budget, scale)
        r_at, r_above = _rounds(np.array([x, np.nextafter(x, np.inf)]), scale)
        assert r_at <= budget < r_above


def test_zero_coupling_or_budget_collects_nothing():
    for cfg in (TrialConfig(17, 0.0, 100, 200, 3),
                TrialConfig(17, 0.3, 0, 200, 3)):
        r = simulate_collection(cfg)
        assert np.all(r.counts == 0)
        assert r.mean == 0.0


def test_counts_stay_in_range_and_are_frozen():
    r = simulate_collection(TrialConfig(9, 0.2, 10, 1000, 21))
    assert r.counts.min() >= 0 and r.counts.max() <= 9
    with pytest.raises(ValueError):
        r.counts[0] = 5


def test_seed_determinism():
    cfg = TrialConfig(40, 0.05, 30, 5000, 1234)
    a = simulate_collection(cfg)
    b = simulate_collection(cfg)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_collection(TrialConfig(40, 0.05, 30, 5000, 1235))
    assert not np.array_equal(a.counts, c.counts)


def test_trial_streams_do_not_depend_on_batch_size():
    # trial i draws from the i-th split stream, so extending the run leaves
    # earlier trials untouched even across the internal chunk boundary
    a = simulate_collection(TrialConfig(100, 0.01, 50, CHUNK, 11))
    b = simulate_collection(TrialConfig(100, 0.01, 50, CHUNK + 100, 11))
    assert np.array_equal(a.counts, b.counts[:CHUNK])


def test_mean_matches_binomial_model():
    cfg = TrialConfig(100, 2.18e-4, 1000, 20000, 9)
    r = simulate_collection(cfg)
    p1 = p_onepair(2.18e-4, 1000)
    want = 100 * p1
    se = np.sqrt(100 * p1 * (1 - p1) / cfg.trials)
    assert abs(r.mean - want) < 3 * se


def test_empirical_tails_match_analytic_model():
    # per-ion outcomes are independent Bernoulli(p_onepair), so the analytic
    # binomial tail is exact for the retire-on-success process
    r = simulate_collection(TrialConfig(100, 2.18e-4, 1000, 100_000, 5))
    p1 = p_onepair(2.18e-4, 1000)
    for k in (10, 20, 30):
        ana = binomial_tail_geq(100, p1, k)
        se = max(np.sqrt(ana * (1 - ana) / 100_000), 1e-12)
        assert abs(r.empirical_tail_geq(k) - ana) < 3 * se


def test_empirical_min_attempts_trivial_and_infeasible():
    assert empirical_min_attempts(45, 1.0, 45, 0.999, 1000, 3) == 1
    with pytest.raises(ValueError):
        empirical_min_attempts(10, 0.5, 11, 0.999, 100, 3)
    with pytest.raises(ValueError):
        empirical_min_attempts(10, 0.0, 5, 0.999, 100, 3)
    with pytest.raises(ValueError):
        empirical_min_attempts(10, 0.5, 0, 0.999, 100, 3)


@pytest.mark.parametrize("solver", [empirical_min_attempts, empirical_attempts_bracket])
def test_empirical_solvers_reject_bad_k_star_and_p_ls(solver):
    # a k_star of 0 used to read the maximum through np.partition(..., -1)
    for k_star, p_ls in ((0, 0.9), (-1, 0.9), (11, 0.9), (5, 1.5), (5, 0.0),
                         (5, float("nan"))):
        with pytest.raises(ValueError):
            solver(10, 0.01, k_star, p_ls, 1000, 1)


@pytest.mark.parametrize("solver", [empirical_min_attempts, empirical_attempts_bracket])
def test_empirical_solvers_check_trial_inputs_as_trial_config_does(solver):
    # a NaN p_entangle used to give -2**63, trials=0 a ZeroDivisionError or an
    # IndexError, fractional counts a TypeError, p_entangle=2 and seed=-1
    # NumPy's own errors
    good = (10, 0.5, 5, 0.9, 100, 1)
    for i, value, field in ((1, float("nan"), "p_entangle"), (1, 2.0, "p_entangle"),
                            (4, 0, "trials"), (4, 100.0, "trials"),
                            (0, 10.5, "n_ions"), (5, -1, "seed"), (2, 2.5, "k_star")):
        args = list(good)
        args[i] = value
        with pytest.raises(ValueError, match=f"^{field} must"):
            solver(*args)
    assert solver(*(np.int64(v) if type(v) is int else v for v in good)) == solver(*good)


def test_empirical_min_attempts_is_monotone_in_p_ls():
    vals = [empirical_min_attempts(45, 2.18e-4, 45, q, 4000, 17)
            for q in (0.5, 0.9, 0.99, 0.999)]
    assert vals == sorted(vals)


def test_bracket_contains_analytic_minimum():
    analytic = attempts_required(45, 2.18e-4, 45, 0.999)
    assert analytic == 49142
    lo, hi = empirical_attempts_bracket(45, 2.18e-4, 45, 0.999, 100_000, 7)
    assert (lo, hi) == (48367, 51019)
    assert lo <= analytic <= hi


def test_bracket_upper_end_opens_when_uncertifiable():
    # 100 trials cannot certify a 0.999 frequency at 99% confidence
    lo, hi = empirical_attempts_bracket(45, 2.18e-4, 45, 0.999, 100, 3)
    assert hi is None
    assert lo > 0


def _array_bracket(n_ions, p_entangle, k_star, p_ls, trials, seed):
    """The bracket from every Wilson bound and every trial's round, sorted."""
    from ionsurgery.collection import _trial_thresholds

    lower, upper = _textbook_wilson(np.arange(trials + 1), trials, Z99)
    c_lo = int(np.searchsorted(upper, p_ls, side="left"))
    c_hi = int(np.searchsorted(lower, p_ls, side="left"))
    t = np.sort(_trial_thresholds(n_ions, p_entangle, k_star, trials, seed))
    lo = int(t[min(max(c_lo, 1), trials) - 1])
    return lo, int(t[c_hi - 1]) if 1 <= c_hi <= trials else None


@pytest.mark.parametrize("trials", [1, 2, 3, 10, 99, 100, 101, 1000, 4099])
def test_bracket_reads_two_ranks_as_the_array_path_does(trials):
    # bisect_left repeats np.searchsorted's probes, and only the two order
    # statistics it finds are mapped to rounds; p_ls also takes the values of
    # two bounds, where a search for the right side would differ
    ties = [float(b[trials // 2]) for b in _textbook_wilson(np.arange(trials + 1), trials, Z99)]
    for p_ls in (1e-3, 0.05, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0, *ties):
        if not 0 < p_ls <= 1:
            continue
        for n, p in ((9, 0.05), (4, 0.5)):
            args = (n, p, (n + 1) // 2, p_ls, trials, trials)
            assert empirical_attempts_bracket(*args) == _array_bracket(*args)


def test_wilson_interval_reference_values():
    lo, hi = wilson_interval(50, 100, 1.96)
    assert lo == pytest.approx(0.4038298, abs=1e-6)
    assert hi == pytest.approx(0.5961702, abs=1e-6)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    assert wilson_interval(np.int64(50), np.int64(100), 1.96) == (lo, hi)
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    # these used to give (nan, nan), or numbers for a fractional count
    for successes, trials, field in ((20, 10, "successes"), (-5, 10, "successes"),
                                     (2.5, 10, "successes"), (5, 10.0, "trials"),
                                     (True, 10, "successes")):
        with pytest.raises(ValueError, match=f"^{field} must"):
            wilson_interval(successes, trials)
    # these used to give (nan, nan), and a lower end above the upper one
    for z in (float("nan"), -1.0, 0.0, float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^z must be positive and finite"):
            wilson_interval(50, 100, z)


def _textbook_wilson(successes, trials, z):
    phat = np.asarray(successes) / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return np.maximum(center - half, 0.0), np.minimum(center + half, 1.0)


@pytest.mark.parametrize("trials", [1, 2, 7, 100, 2000, CHUNK + 100, 100_000])
@pytest.mark.parametrize("z", [Z99, 1.96, 1.0])
def test_in_place_wilson_bounds_equal_the_textbook_formula_bit_for_bit(trials, z):
    # the name predates the scalar formula; wilson_interval, at every count,
    # keeps the bits of the textbook formula evaluated over all counts at once
    lower, upper = _textbook_wilson(np.arange(trials + 1), trials, z)
    got = np.array([wilson_interval(k, trials, z) for k in range(trials + 1)])
    assert np.array_equal(got[:, 0].view(np.uint64), lower.view(np.uint64))
    assert np.array_equal(got[:, 1].view(np.uint64), upper.view(np.uint64))


@pytest.mark.parametrize("p", [2.18e-4, 0.5])
@pytest.mark.parametrize("n", [1, 9, 1000])
def test_draws_do_not_depend_on_the_block_size(monkeypatch, n, p):
    from ionsurgery import collection
    from ionsurgery.collection import _trial_thresholds

    def outputs():
        cfg = TrialConfig(n, p, 20, CHUNK + 100, 5)
        return (simulate_collection(cfg).counts.tolist(),
                _trial_thresholds(n, p, (n + 1) // 2, 3000, 6).tolist())

    want = outputs()
    for draws in (1, 7 * n + 3, CHUNK * n + 1):  # one trial, a ragged block, all of a chunk
        monkeypatch.setattr(collection, "BLOCK_DRAWS", draws)
        assert outputs() == want


@pytest.mark.parametrize("n, trials", [(1, 20000), (45, 2000), (1000, 2000), (2 ** 17, 3)])
def test_a_block_holds_at_most_block_draws_unless_one_trial_needs_more(n, trials):
    from ionsurgery.collection import BLOCK_DRAWS, _reduce_draws

    rows = []

    def record(_rows, draws, mask):
        assert mask.shape == draws.shape
        rows.append(draws.shape[0])

    _reduce_draws(n, 2.18e-4, trials, 1, record)
    assert sum(rows) == trials
    assert max(rows) == min(max(BLOCK_DRAWS // n, 1), CHUNK, trials)


@pytest.mark.parametrize("p, attempts", [(2.18e-4, 5000), (0.5, 2)])
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, p, attempts):
    # four chunks, the last one ragged, on 1, 2 and 3 workers: fewer workers
    # than chunks, so some worker runs two streams, each in several blocks
    from ionsurgery import collection
    from ionsurgery.collection import _trial_thresholds

    trials = 3 * CHUNK + 100
    got = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(collection, "_usable_cpus", lambda w=workers: w)
        got.append((simulate_collection(TrialConfig(9, p, attempts, trials, 5)).counts.tobytes(),
                    _trial_thresholds(9, p, 5, trials, 6).tobytes(),
                    empirical_attempts_bracket(9, p, 5, 0.9, trials, 7)))
    assert got[1] == got[0] and got[2] == got[0]


def test_concurrent_calls_give_the_serial_counts(monkeypatch):
    # every buffer and pool belongs to the call: two threads, each running
    # its own config on two workers, overlap calls of different shapes
    from ionsurgery import collection

    monkeypatch.setattr(collection, "_usable_cpus", lambda: 2)
    configs = [TrialConfig(45, 2.18e-4, 20000, 2 * CHUNK + 100, 3),
               TrialConfig(9, 0.5, 2, 3 * CHUNK, 4)]
    serial = [simulate_collection(c).counts.tobytes() for c in configs]
    start = threading.Barrier(2, timeout=60)
    got = [[], []]

    def worker(i):
        for _ in range(5):
            start.wait()
            got[i].append(simulate_collection(configs[i]).counts.tobytes())

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
    assert got == [[serial[0]] * 5, [serial[1]] * 5]


def test_a_worker_exception_reaches_the_caller_and_no_thread_outlives_it(monkeypatch):
    from ionsurgery import collection

    monkeypatch.setattr(collection, "_usable_cpus", lambda: 3)
    caller = threading.current_thread()
    before = threading.active_count()

    def reduce(rows, draws, mask):
        if threading.current_thread() is not caller:
            raise RuntimeError(f"worker failed at trial {rows.start}")

    with pytest.raises(RuntimeError, match="worker failed"):
        collection._reduce_draws(9, 2.18e-4, 3 * CHUNK, 1, reduce)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus, trials", [(None, 4 * CHUNK), (1, 3 * CHUNK), (2, 3 * CHUNK),
                                          (8, 3 * CHUNK), (8, CHUNK)])
def test_a_call_runs_at_most_one_thread_per_cpu_and_chunk(monkeypatch, cpus, trials):
    from ionsurgery import collection

    if cpus is None:  # this host's own count
        cpus = collection._usable_cpus()
    else:
        monkeypatch.setattr(collection, "_usable_cpus", lambda c=cpus: c)
    before = threading.active_count()
    seen = []
    collection._reduce_draws(9, 2.18e-4, trials, 1,
                             lambda rows, draws, mask: seen.append(threading.active_count()))
    assert max(seen) <= before + min(cpus, -(-trials // CHUNK))
    assert threading.active_count() == before


def test_z99_is_the_scipy_normal_quantile():
    from scipy.special import ndtri

    assert Z99 == float(ndtri(0.995))


def test_collection_report_shape_and_determinism():
    cfg = TrialConfig(50, 0.02, 100, 2000, 77)
    rep = collection_report(cfg, [5, 10])
    again = collection_report(cfg, [5, 10])
    assert rep == again
    assert set(rep) == {"n_ions", "p_entangle", "attempts", "trials", "seed",
                        "mean_count", "empirical_tail"}
    assert set(rep["empirical_tail"]) == {"5", "10"}
    r = simulate_collection(cfg)
    assert rep["mean_count"] == r.mean
    assert rep["empirical_tail"]["5"] == r.empirical_tail_geq(5)
    json.dumps(rep)  # JSON-ready
    # a tail's k is a count: 2.5 used to be reported as "2", NaN to read 0.0
    tail = collection_report(cfg, [np.int64(5)])["empirical_tail"]
    assert tail == {"5": rep["empirical_tail"]["5"]}
    for k in (2.5, float("nan"), True, "5"):
        with pytest.raises(ValueError, match="^k must be an integer"):
            collection_report(cfg, [k])
        with pytest.raises(ValueError, match="^k must be an integer"):
            r.empirical_tail_geq(k)


# ---------------------------------------------------------------------------
# pinned draws

def _snapshot_mismatches(select) -> list:
    # recorded by tests/record_collection_snapshot.py on the chunked-geometric
    # draw loop; every count, threshold and empirical solver output must match
    from record_collection_snapshot import output

    records = json.loads((Path(__file__).parent / "data" / "collection_snapshot.json")
                         .read_text())
    assert len(records) == 250
    return [r for r in records if select(r) and output(r) != r["output"]]


def test_draws_match_pinned_snapshot_bit_for_bit():
    assert _snapshot_mismatches(lambda r: r["n"] < 1000) == []


@pytest.mark.slow
def test_draws_match_pinned_snapshot_bit_for_bit_at_1000_ions():
    assert _snapshot_mismatches(lambda r: r["n"] == 1000) == []
