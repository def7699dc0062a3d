"""Monte Carlo oracle for the entanglement-collection statistics.

Each communication ion is pulsed once per round and retires on success, so
an ion's first success lands on a Geometric(p_c) round; a trial's entangled
count after A rounds is the number of ions whose first success came at or
before A.  Trials use split Philox streams, one per CHUNK trials, so results
are independent of chunking or execution order for a fixed seed.

The draws are exactly those of NumPy's `Generator.geometric`.  For p < 1/3 it
maps one standard exponential E to the round ceil(E / c), c = -log1p(-p), so
the exponentials are drawn directly into a reused buffer, a block of whole
trials at a time.  A block holds max(1, BLOCK_DRAWS // n_ions) trials, at most
CHUNK, so the buffer holds at most BLOCK_DRAWS doubles unless one trial alone
needs more; the generator fills it in C order, so the stream does not depend
on the block size.
The chunks run on one worker thread per usable CPU, at most one per chunk,
for the length of one call; NumPy's fills and reductions release the GIL.
Each worker holds one draw buffer and one bool mask of a block's shape, and
runs its chunks' blocks in stream order, writing only their own trials, so
every output has the same bits for any worker count.
A count compares E with the largest double whose round is <= A, and the
k-th success maps the k-th smallest E, since the map is monotone.  For
p >= 1/3 NumPy searches one uniform draw instead, and the same blocked loop
calls `Generator.geometric` itself.

The Wilson intervals use Z99, the 0.995 normal quantile, written as the
literal `scipy.special.ndtri(0.995)` returns so that importing this module
does not load SciPy; a test checks the two stay equal.
`statistics.NormalDist().inv_cdf(0.995)` differs in the last digit, so it
is not used.
"""
from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ._checks import as_int, as_real

CHUNK = 16384      # trials per split Philox stream
BLOCK_DRAWS = 2 ** 16  # draws per block of whole trials (512 KiB of float64)
# NumPy's Generator.geometric inverts one standard exponential E below this p,
# as ceil(-E / log1p(-p)), and searches one uniform draw at or above it
GEOMETRIC_SEARCH_P = 1 / 3
INT64_MAX = int(np.iinfo(np.int64).max)
Z99 = 2.5758293035489004  # ndtri(0.995), two-sided 99% Wilson; see above


@dataclass(frozen=True)
class TrialConfig:
    n_ions: int
    p_entangle: float
    attempts: int
    trials: int
    seed: int

    def __post_init__(self):
        for name, lo in (("n_ions", 1), ("attempts", 0), ("trials", 1), ("seed", 0)):
            object.__setattr__(self, name, as_int(name, getattr(self, name), lo))
        object.__setattr__(self, "p_entangle",
                           as_real("p_entangle", self.p_entangle, "[0,1]"))


@dataclass(frozen=True)
class CollectionResult:
    config: TrialConfig
    counts: np.ndarray  # per-trial entangled-ion counts

    def __post_init__(self):
        arr = np.asarray(self.counts)
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    def empirical_tail_geq(self, k: int) -> float:
        """Empirical P(count >= k)."""
        return float(np.mean(self.counts >= as_int("k", k)))

    @property
    def mean(self) -> float:
        return float(np.mean(self.counts))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw_scale(p_entangle: float) -> float:
    """Scale of the draws x whose first-success round is ceil(x / scale).

    Below GEOMETRIC_SEARCH_P the draws are the standard exponentials behind
    NumPy's geometric inversion; otherwise they are NumPy's geometric draws
    themselves (scale 1).
    """
    return 1.0 if p_entangle >= GEOMETRIC_SEARCH_P else -math.log1p(-p_entangle)


def _reduce_draws(n_ions: int, p_entangle: float, trials: int, seed: int,
                  reduce) -> None:
    """Call reduce(rows, draws, mask) on every block of first-success draws.

    `rows` is the block's trial slice, `draws` its (rows, n_ions) draws in
    the units of `_draw_scale`, and `mask` a bool scratch array of the same
    shape.  Chunk i draws from the i-th split stream, its blocks in stream
    order, at most max(1, BLOCK_DRAWS // n_ions) trials at a time.  The
    chunks run on min(usable CPUs, chunks) workers, the caller's thread as
    worker 0 and the rest in a pool that lives for this call; worker w takes
    chunks w, w + workers, ...  reduce must write only what `rows` owns, so
    the outputs do not depend on the schedule.  An exception in any worker is
    raised here, after every worker has stopped.
    """
    search = p_entangle >= GEOMETRIC_SEARCH_P
    block = min(max(BLOCK_DRAWS // n_ions, 1), CHUNK, trials)
    children = np.random.SeedSequence(seed).spawn(-(-trials // CHUNK))
    workers = min(_usable_cpus(), len(children))
    # every buffer is allocated before any worker starts
    bufs = [(None if search else np.empty((block, n_ions)),
             np.empty((block, n_ions), dtype=bool)) for _ in range(workers)]

    def work(w):
        buf, mask = bufs[w]
        for i in range(w, len(children), workers):
            rng = np.random.Generator(np.random.Philox(children[i]))
            end = min((i + 1) * CHUNK, trials)
            for start in range(i * CHUNK, end, block):
                rows = min(block, end - start)
                if search:
                    draws = rng.geometric(p_entangle, size=(rows, n_ions))
                else:
                    draws = rng.standard_exponential(out=buf[:rows])
                reduce(slice(start, start + rows), draws, mask[:rows])

    if workers == 1:
        work(0)
        return
    # loaded on the first threaded call only
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(work, w) for w in range(1, workers)]
        work(0)
    for future in futures:
        future.result()


def _draw_cutoff(attempts: int, scale: float) -> float:
    """Largest draw x whose first-success round ceil(x / scale) is <= attempts.

    ceil(z) <= A is z <= A for an integer A, and IEEE division is monotone in
    x, so a few ulp steps from A * scale find the exact cutoff.
    """
    attempts = int(attempts)
    if attempts >= INT64_MAX:  # NumPy saturates rounds at INT64_MAX
        return math.inf
    x = attempts * scale
    while x / scale > attempts:
        x = math.nextafter(x, -math.inf)
    while math.nextafter(x, math.inf) / scale <= attempts:
        x = math.nextafter(x, math.inf)
    return x


def _rounds(draws: np.ndarray, scale: float) -> np.ndarray:
    """First-success rounds ceil(draws / scale), saturated at INT64_MAX as NumPy does."""
    z = np.ceil(draws / scale)
    big = z >= 2.0 ** 63
    z[big] = 0.0
    out = z.astype(np.int64)
    out[big] = INT64_MAX
    return out


def simulate_collection(config: TrialConfig) -> CollectionResult:
    """Per-trial entangled counts after `attempts` retire-on-success rounds."""
    counts = np.zeros(config.trials, dtype=np.int64)
    if config.p_entangle > 0 and config.attempts > 0:
        cutoff = _draw_cutoff(config.attempts, _draw_scale(config.p_entangle))

        def count(rows, draws, mask):
            np.less_equal(draws, cutoff, out=mask)
            np.add.reduce(mask, axis=1, dtype=np.int64, out=counts[rows])

        _reduce_draws(config.n_ions, config.p_entangle, config.trials,
                      config.seed, count)
    return CollectionResult(config, counts)


def _kth_success_draws(n_ions: int, p_entangle: float, k_star: int,
                       trials: int, seed: int):
    """(scale, kth): per trial, the draw whose round ceil(kth / scale) brings
    the k_star-th ion success."""
    kth = np.empty(trials)

    def take_kth(rows, draws, _mask):
        # k_star-th order statistic of the draws; the map to rounds is
        # monotone, so it commutes with the order statistic
        draws.partition(k_star - 1, axis=1)
        kth[rows] = draws[:, k_star - 1]

    _reduce_draws(n_ions, p_entangle, trials, seed, take_kth)
    return _draw_scale(p_entangle), kth


def _trial_thresholds(n_ions: int, p_entangle: float, k_star: int,
                      trials: int, seed: int) -> np.ndarray:
    """Per-trial attempt count at which the k_star-th ion success arrives.

    The solvers read it at a few ranks through `_sorted_thresholds`; the
    whole array is the snapshot's pin and the tests' reference.
    """
    scale, kth = _kth_success_draws(n_ions, p_entangle, k_star, trials, seed)
    return _rounds(kth, scale)


def _sorted_thresholds(n_ions: int, p_entangle: float, k_star: int, trials: int,
                       seed: int, ranks) -> list:
    """Entries at the 1-based `ranks` of the sorted `_trial_thresholds`.

    The map from draws to rounds is monotone, so only the draws at those
    ranks are mapped: no per-trial array of rounds is built.
    """
    scale, kth = _kth_success_draws(n_ions, p_entangle, k_star, trials, seed)
    idx = [r - 1 for r in ranks]
    kth.partition(sorted(set(idx)))
    return _rounds(kth[idx], scale).tolist()


def wilson_interval(successes: int, trials: int, z: float = Z99):
    """Wilson score interval (lower, upper) for `successes` of `trials`,
    clipped to [0, 1]."""
    successes, trials = as_int("successes", successes), as_int("trials", trials, 1)
    z = as_real("z", z, "positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in 0..trials, got {successes}")
    zz = z * z
    denom = 1 + zz / trials
    phat = successes / trials
    half = z * math.sqrt(phat * (1 - phat) / trials + zz / (4 * trials * trials)) / denom
    center = (phat + zz / (2 * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _check_solver_inputs(n_ions: int, p_entangle: float, k_star: int, p_ls: float,
                         trials: int, seed: int) -> tuple:
    """(config, k_star): n_ions, trials and seed checked by TrialConfig's
    rule, p_entangle also positive, and k_star as an int."""
    p_entangle = as_real("p_entangle", p_entangle, "(0,1]")
    config = TrialConfig(n_ions, p_entangle, 0, trials, seed)
    k_star = as_int("k_star", k_star, 1)
    if k_star > config.n_ions:
        raise ValueError("infeasible: k_star exceeds n_ions")
    as_real("p_ls", p_ls, "(0,1]")
    return config, k_star


def empirical_min_attempts(n_ions: int, p_entangle: float, k_star: int,
                           p_ls: float, trials: int, seed: int) -> int:
    """Smallest A whose empirical success frequency reaches p_ls.

    The estimate is the p_ls quantile of the per-trial k_star-th-success
    rounds, which makes the empirical frequency exactly monotone in A.
    """
    cfg, k_star = _check_solver_inputs(n_ions, p_entangle, k_star, p_ls, trials, seed)
    need = int(np.ceil(p_ls * cfg.trials))
    need = min(max(need, 1), cfg.trials)
    return _sorted_thresholds(cfg.n_ions, cfg.p_entangle, k_star, cfg.trials,
                              cfg.seed, [need])[0]


def empirical_attempts_bracket(n_ions: int, p_entangle: float, k_star: int,
                               p_ls: float, trials: int, seed: int):
    """99% Wilson bracket (lo, hi) that should contain the analytic minimum.

    lo is the smallest A not confidently below threshold (Wilson upper bound
    reaches p_ls); hi is the smallest A confidently at or above it.  Each
    count is a left bisection over 0..trials, with the probes of
    np.searchsorted(..., side="left") over every count's bound, so also its
    answer where rounding breaks the bound's monotonicity (`key=` needs
    Python 3.10).
    """
    cfg, k_star = _check_solver_inputs(n_ions, p_entangle, k_star, p_ls, trials, seed)
    counts = range(cfg.trials + 1)
    c_lo = bisect_left(counts, p_ls, key=lambda s: wilson_interval(s, cfg.trials)[1])
    c_hi = bisect_left(counts, p_ls, key=lambda s: wilson_interval(s, cfg.trials)[0])
    ranks = [min(max(c_lo, 1), cfg.trials)]
    if 1 <= c_hi <= cfg.trials:
        ranks.append(c_hi)
    t = _sorted_thresholds(cfg.n_ions, cfg.p_entangle, k_star, cfg.trials,
                           cfg.seed, ranks)
    # hi is open when even a perfect sample cannot certify p_ls at this size
    return t[0], t[1] if len(t) > 1 else None


def collection_report(config: TrialConfig, ks) -> dict:
    """JSON-ready summary: mean count and empirical tails at the requested ks."""
    ks = [as_int("k", k) for k in ks]
    result = simulate_collection(config)
    return {
        "n_ions": config.n_ions,
        "p_entangle": config.p_entangle,
        "attempts": config.attempts,
        "trials": config.trials,
        "seed": config.seed,
        "mean_count": result.mean,
        "empirical_tail": {str(k): result.empirical_tail_geq(k) for k in ks},
    }
