"""Spans and counters recorded from outside ionsurgery, and the per-layer metrics.

The tracer replaces, for the length of one traced unit of work, the module
attributes through which one layer calls the next (for example the kernel
names bound in ``ionsurgery.purify``) with wrappers that record a span or a
count, and puts the originals back afterwards.  Spans stay in memory as
tuples ``(name, start, end, parent, run_id, attr)``; `write_spans` writes
them out when the benchmark ends.
"""
from __future__ import annotations

import functools
import gzip
import json
import math
import statistics
import time
from collections import Counter, defaultdict


def _width(args, kwargs) -> int:
    rho = args[0] if args else kwargs["rho"]
    return int(rho.shape[0]).bit_length() - 1


def _n_pairs(args, kwargs) -> int:
    circuit = args[0] if args else kwargs["circuit"]
    return circuit.n_pairs


def _trial_draws(args, kwargs) -> int:
    cfg = args[0] if args else kwargs["config"]
    return cfg.trials * cfg.n_ions


def _bracket_draws(args, kwargs) -> int:
    # empirical_attempts_bracket(n_ions, p_entangle, k_star, p_ls, trials, seed)
    return args[0] * args[4]


# kernel metric name -> name bound in ionsurgery.purify
KERNELS = {"unitary": "_apply_unitary_raw", "depolarize": "_depolarize_raw",
           "project": "_project_raw", "partial_trace": "_partial_trace_raw",
           "permute": "_permute_raw"}

# (module, attribute, span name, attribute recorded on the span or None)
SPANS = (
    ("ionsurgery.ga", "search", "ga.search", None),
    ("ionsurgery.ga", "simulate", "purify.simulate", _n_pairs),
    ("ionsurgery.purify", "simulate", "purify.simulate", _n_pairs),
    *(("ionsurgery.purify", attr, f"quantum.{k}", _width) for k, attr in KERNELS.items()),
    ("ionsurgery.cli", "main", "cli.main", None),
    ("ionsurgery.cli", "min_ions", "resources.min_ions", None),
    ("ionsurgery.cli", "max_rate", "resources.max_rate", None),
    ("ionsurgery.cli", "sweep_coupling", "resources.sweep", None),
    ("ionsurgery.cli", "attempts_required", "resources.attempts_required", None),
    ("ionsurgery.cli", "binomial_tail_geq", "resources.tail", None),
    ("ionsurgery.resources", "min_ions", "resources.min_ions", None),
    ("ionsurgery.cli", "simulate_collection", "collection.simulate", _trial_draws),
    ("ionsurgery.cli", "empirical_attempts_bracket", "collection.bracket",
     _bracket_draws),
)

# Leaf calls too frequent for a span each are only counted.
COUNTS = (
    ("ionsurgery.resources", "binomial_tail_geq", "resources.tail_evals"),
)


class Tracer:
    """Installs span and count wrappers; `absent` lists wrapped names not found."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self.counts = Counter()
        self.absent = sorted({f"{m}.{a}" for m, a, *_ in SPANS + COUNTS
                              if not hasattr(modules[m], a)})
        self._stack = []
        self._patches = []
        self._run_id = None

    def install(self, run_id: int) -> None:
        self._run_id = run_id
        for mod, attr, name, attr_fn in SPANS:
            self._patch(mod, attr, functools.partial(self._span_wrapper, name=name,
                                                     attr_fn=attr_fn))
        for mod, attr, name in COUNTS:
            self._patch(mod, attr, functools.partial(self._count_wrapper, name=name))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)
        self._run_id = None

    def _patch(self, mod: str, attr: str, make) -> None:
        module = self.modules[mod]
        orig = getattr(module, attr, None)
        if orig is None:
            return
        setattr(module, attr, functools.wraps(orig)(make(orig)))
        self._patches.append((module, attr, orig))

    def _span_wrapper(self, orig, name, attr_fn):
        spans, stack, run_id = self.spans, self._stack, self._run_id

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            attr = attr_fn(args, kwargs) if attr_fn else None
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, run_id, attr)
        return wrapper

    def _count_wrapper(self, orig, name):
        counts, key = self.counts, (name, self._run_id)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)
        return wrapper


def write_spans(tracer: Tracer, path) -> None:
    """Gzipped JSON lines, one per span: name, start, end, parent, run id, attribute."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for sid, (name, t0, t1, parent, run_id, attr) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                 "parent": parent, "run": run_id, "attr": attr}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

def _pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def unit_metrics(tracer: Tracer, run_id: int, requested: int) -> dict:
    """Metrics of one traced unit; `requested` is the GA evaluations it asked for."""
    spans = {sid: s for sid, s in enumerate(tracer.spans) if s[4] == run_id}
    counts = tracer.counts
    dur = defaultdict(float)
    calls = Counter()
    child = defaultdict(float)
    for name, t0, t1, parent, _, _ in spans.values():
        dur[name] += t1 - t0
        calls[name] += 1
        if parent is not None:
            child[parent] += t1 - t0

    def self_s(name):
        return sum(s[2] - s[1] - child[sid] for sid, s in spans.items() if s[0] == name)

    m = {}
    if calls["ga.search"]:
        sim = sum(1 for s in spans.values() if s[0] == "purify.simulate"
                  and s[3] is not None and spans[s[3]][0] == "ga.search")
        m["ga.search_s"] = dur["ga.search"]
        m["ga.self_s"] = self_s("ga.search")
        m["ga.simulate_calls"] = sim
        m["ga.useful_ratio"] = sim / requested
        m["ga.evals_per_s"] = sim / dur["ga.search"]
    if calls["purify.simulate"]:
        m["purify.simulate_calls"] = calls["purify.simulate"]
        m["purify.self_s"] = self_s("purify.simulate")
    for k in KERNELS:
        name = f"quantum.{k}"
        if calls[name]:
            m[f"{name}_s"] = dur[name]
            m[f"{name}_calls"] = calls[name]
    widths = Counter(s[5] for s in spans.values() if s[0].startswith("quantum."))
    for w, c in widths.items():
        m[f"quantum.calls.w{w}"] = c
    if widths:
        m["quantum.max_width"] = max(widths)
        m["quantum.state_bytes_computed"] = sum(16 * 4 ** w * c for w, c in widths.items())
    queries = calls["resources.min_ions"] + calls["resources.max_rate"] \
        + calls["resources.attempts_required"]
    if calls["resources.min_ions"]:
        m["resources.min_ions_calls"] = calls["resources.min_ions"]
    if queries:
        m["resources.tail_evals_per_query"] = counts["resources.tail_evals", run_id] / queries
    if calls["resources.sweep"]:
        m["resources.sweep_s"] = dur["resources.sweep"]
    if calls["resources.max_rate"]:
        m["resources.max_rate_s"] = dur["resources.max_rate"]
    if calls["collection.simulate"] or calls["collection.bracket"]:
        draws = sum(s[5] for s in spans.values() if s[0].startswith("collection."))
        busy = dur["collection.simulate"] + dur["collection.bracket"]
        m["collection.simulate_s"] = dur["collection.simulate"]
        m["collection.bracket_s"] = dur["collection.bracket"]
        m["collection.draws"] = draws
        m["collection.draws_per_s"] = draws / busy
    if calls["cli.main"]:
        m["cli.self_s"] = self_s("cli.main")
    return m


def layer_metrics(tracer: Tracer, requested_evals: int) -> dict:
    """Per-layer metrics: per-unit values (median over traced units) and
    percentiles pooled over every span of the traced run."""
    per_unit = [unit_metrics(tracer, run_id, requested_evals)
                for run_id in sorted({s[4] for s in tracer.spans})]
    out = {}
    for name in sorted({k for u in per_unit for k in u}):
        out[name] = statistics.median(u[name] for u in per_unit if name in u)
    sim = [s for s in tracer.spans if s[0] == "purify.simulate"]
    if sim:
        ms = [(s[2] - s[1]) * 1e3 for s in sim]
        out["purify.simulate_ms_p50"] = statistics.median(ms)
        out["purify.simulate_ms_p90"] = _pct(ms, 0.9)
        out["purify.simulate_samples"] = len(ms)
        for n in sorted({s[5] for s in sim}):
            out[f"purify.simulate_ms_p50.n{n}"] = statistics.median(
                (s[2] - s[1]) * 1e3 for s in sim if s[5] == n)
    q = [(s[2] - s[1]) * 1e6 for s in tracer.spans if s[0] == "resources.min_ions"]
    if q:
        out["resources.min_ions_us_p50"] = statistics.median(q)
        out["resources.min_ions_us_p90"] = _pct(q, 0.9)
    return out
