"""Monte Carlo oracle for the entanglement-collection statistics.

Each communication ion is pulsed once per round and retires on success, so
an ion's first success lands on a Geometric(p_c) round; a trial's entangled
count after A rounds is the number of ions whose first success came at or
before A.  Trials use split Philox streams, so results are independent of
chunking or execution order for a fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

CHUNK = 16384
Z99 = float(ndtri(0.995))  # two-sided 99% Wilson interval


@dataclass(frozen=True)
class TrialConfig:
    n_ions: int
    p_entangle: float
    attempts: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.n_ions < 1:
            raise ValueError("n_ions must be at least 1")
        if not (0 <= self.p_entangle <= 1):
            raise ValueError("p_entangle must lie in [0,1]")
        if self.attempts < 0:
            raise ValueError("attempts must be nonnegative")


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
        return float(np.mean(self.counts >= k))

    @property
    def mean(self) -> float:
        return float(np.mean(self.counts))


def _first_success_chunks(n_ions: int, p_entangle: float, trials: int, seed: int):
    """Yield (trial slice, first-success rounds) for each Philox chunk in order."""
    children = np.random.SeedSequence(seed).spawn(max(-(-trials // CHUNK), 1))
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.Philox(child))
        rows = slice(i * CHUNK, min((i + 1) * CHUNK, trials))
        yield rows, rng.geometric(p_entangle, size=(rows.stop - rows.start, n_ions))


def simulate_collection(config: TrialConfig) -> CollectionResult:
    """Per-trial entangled counts after `attempts` retire-on-success rounds."""
    out = np.zeros(config.trials, dtype=np.int64)
    if config.p_entangle > 0 and config.attempts > 0:
        for rows, first in _first_success_chunks(config.n_ions, config.p_entangle,
                                                 config.trials, config.seed):
            out[rows] = (first <= config.attempts).sum(axis=1)
    return CollectionResult(config, out)


def _trial_thresholds(n_ions: int, p_entangle: float, k_star: int,
                      trials: int, seed: int) -> np.ndarray:
    """Per-trial attempt count at which the k_star-th ion success arrives."""
    thresholds = np.empty(trials, dtype=np.int64)
    for rows, first in _first_success_chunks(n_ions, p_entangle, trials, seed):
        # k_star-th order statistic of the first-success rounds
        thresholds[rows] = np.partition(first, k_star - 1, axis=1)[:, k_star - 1]
    return thresholds


def _wilson_bounds(successes, trials: int, z: float):
    """Wilson score bounds (lower, upper), clipped to [0, 1]; elementwise."""
    phat = np.asarray(successes) / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return np.maximum(center - half, 0.0), np.minimum(center + half, 1.0)


def wilson_interval(successes: int, trials: int, z: float = Z99):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    lower, upper = _wilson_bounds(successes, trials, z)
    return float(lower), float(upper)


def empirical_min_attempts(n_ions: int, p_entangle: float, k_star: int,
                           p_ls: float, trials: int, seed: int) -> int:
    """Smallest A whose empirical success frequency reaches p_ls.

    The estimate is the p_ls quantile of the per-trial k_star-th-success
    rounds, which makes the empirical frequency exactly monotone in A.
    """
    if k_star > n_ions:
        raise ValueError("infeasible: k_star exceeds n_ions")
    if k_star < 1:
        raise ValueError("k_star must be at least 1")
    if p_entangle <= 0:
        raise ValueError("p_entangle must be positive")
    t = np.sort(_trial_thresholds(n_ions, p_entangle, k_star, trials, seed))
    need = int(np.ceil(p_ls * trials))
    need = min(max(need, 1), trials)
    return int(t[need - 1])


def empirical_attempts_bracket(n_ions: int, p_entangle: float, k_star: int,
                               p_ls: float, trials: int, seed: int):
    """99% Wilson bracket (lo, hi) that should contain the analytic minimum.

    lo is the smallest A not confidently below threshold (Wilson upper bound
    reaches p_ls); hi is the smallest A confidently at or above it.
    """
    if k_star > n_ions:
        raise ValueError("infeasible: k_star exceeds n_ions")
    if p_entangle <= 0:
        raise ValueError("p_entangle must be positive")
    t = np.sort(_trial_thresholds(n_ions, p_entangle, k_star, trials, seed))
    lower, upper = _wilson_bounds(np.arange(trials + 1), trials, Z99)
    c_lo = int(np.searchsorted(upper, p_ls, side="left"))
    c_hi = int(np.searchsorted(lower, p_ls, side="left"))
    lo = int(t[min(max(c_lo, 1), trials) - 1])
    # hi is open when even a perfect sample cannot certify p_ls at this size
    hi = int(t[c_hi - 1]) if 1 <= c_hi <= trials else None
    return lo, hi


def collection_report(config: TrialConfig, ks) -> dict:
    """JSON-ready summary: mean count and empirical tails at the requested ks."""
    result = simulate_collection(config)
    return {
        "n_ions": config.n_ions,
        "p_entangle": config.p_entangle,
        "attempts": config.attempts,
        "trials": config.trials,
        "seed": config.seed,
        "mean_count": result.mean,
        "empirical_tail": {str(int(k)): result.empirical_tail_geq(int(k)) for k in ks},
    }
