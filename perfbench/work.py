"""The benchmark's workloads: inputs from a seed, one unit of fixed work, its oracle.

Run as a script, this is the process of one workload run: it imports
ionsurgery from the checkout's ``src``, builds the workload's inputs, then
repeats the workload's fixed unit of work for the measuring window, checks
every output against ``refs.json`` and prints one JSON line.  ``run.py``
starts it; see README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ionsurgery  # noqa: E402
from ionsurgery import cli, collection, ga, purify, quantum, resources  # noqa: E402
from ionsurgery.purify import (  # noqa: E402
    AcceptRule,
    Measure,
    PurificationCircuit,
    SingleQubitClifford,
    TwoQubitGate,
)

import spans  # noqa: E402

WORKLOADS = ("search-measured", "search-werner", "purify-wide", "tables-validate")
SIZES = ("full", "tiny")
REFS = BENCH / "refs.json"
FLOAT_TOL = 1e-12
# purify-wide's random circuits come from seed % RANDOM_POOL; refs.json pins
# every batch of the pool, so any --seed has a reference.
RANDOM_POOL = 64

# GA recipes of docs/repro.md (ga_4to1 archive search) and of the Tier-1
# Werner-floor test, with shortened budgets.
SEARCH = {
    "search-measured": dict(n_pairs=4, seed=201, archive=True, input="stephenson",
                            full=(16, 3), tiny=(6, 1)),
    "search-werner": dict(n_pairs=3, seed=1, archive=False, input="werner",
                          full=(30, 12), tiny=(8, 2)),
}
# (random circuits per batch, pairs per random circuit)
RANDOM_BATCH = {"full": (2, 5), "tiny": (1, 3)}
FROZEN = {"full": ("ga_3to1", "ga_4to1", "ga_5to1"), "tiny": ("ga_3to1",)}
SWEEP_POINTS = {"full": 1200, "tiny": 5}
VALIDATE = {
    "full": ["--ions", "45,100,1000", "--attempts", "1000,20000",
             "--trials", "100000", "--seed", "7", "--strict"],
    "tiny": ["--ions", "45", "--attempts", "1000", "--trials", "2000",
             "--seed", "7", "--strict"],
}

# docs/repro.md anchors, checked independently of refs.json:
# op -> ((field, decimals, value), ...)
PURIFY_ANCHORS = {
    "ga_3to1/stephenson/device": (("F", 6, 0.990378), ("p", 6, 0.820863)),
    "bbpssw/werner/none": (("p", 4, 0.9232), ("F", 6, 0.957539)),
}
# op -> CSV rows that must start a line of its stdout
CLI_ANCHORS = {
    "min-ions": ("9,1000,867,",),
    "rate": ("5,100,110.5216622\n", "9,10000,12345.67901\n"),
}


def werner(f: float) -> quantum.BellDiagonalState:
    return quantum.BellDiagonalState(f, 1 / 3, 1 / 3, 1 / 3)


def random_circuit(rng: np.random.Generator, n_pairs: int) -> PurificationCircuit:
    """Measurement-terminal circuit with fixed gate counts, random placement.

    Two bilateral two-qubit motifs, one one-sided two-qubit gate, one
    conjugate Clifford pair and one one-sided Clifford, in random order, then
    every ancilla pair measured in random bases with a random relation.
    Fixed counts keep the cost of a batch nearly independent of the seed.
    """
    def two_pairs():
        i, j = rng.choice(n_pairs, size=2, replace=False)
        return int(i), int(j)

    def side():
        return ("A", "B")[int(rng.integers(2))]

    motifs = []
    for _ in range(2):
        kind = ("cnot", "cz")[int(rng.integers(2))]
        i, j = two_pairs()
        motifs.append([TwoQubitGate(kind, "A", i, j), TwoQubitGate(kind, "B", i, j)])
    i, j = two_pairs()
    motifs.append([TwoQubitGate(("cnot", "cz")[int(rng.integers(2))], side(), i, j)])
    c, p = int(rng.integers(24)), int(rng.integers(n_pairs))
    motifs.append([SingleQubitClifford(p, "A", c),
                   SingleQubitClifford(p, "B", quantum.CLIFFORD_CONJUGATE_PARTNER[c])])
    motifs.append([SingleQubitClifford(int(rng.integers(n_pairs)), side(),
                                       int(rng.integers(24)))])
    ops = [op for k in rng.permutation(len(motifs)) for op in motifs[k]]
    accept = []
    for pair in range(1, n_pairs):
        labels = (f"a{pair}", f"b{pair}")
        for s, label in zip(("A", "B"), labels):
            ops.append(Measure(pair, s, "XYZ"[int(rng.integers(3))], label))
        accept.append(AcceptRule(*labels, ("coincident", "anticoincident")[int(rng.integers(2))]))
    return PurificationCircuit(n_pairs, tuple(ops), tuple(accept))


def circuit_sha(circuit: PurificationCircuit) -> str:
    return hashlib.sha256(json.dumps(circuit.to_dict(), sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads: a set-up function fills Workload.ops; run() does one unit

@dataclass
class Workload:
    name: str
    size: str
    seed: int
    ga_seed: int | None = None
    requested_evals: int = 0  # GA evaluations requested per unit (pop * (gens + 1))
    ops: list = field(default_factory=list)  # (op id, callable returning a dict)

    def run(self) -> list:
        """One unit of fixed work: [(op id, output dict)], errors as {"error": ...}."""
        out = []
        for op_id, fn in self.ops:
            try:
                out.append((op_id, fn()))
            except Exception as exc:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out.append((op_id, {"error": f"{type(exc).__name__}: {exc}"}))
        return out

    def unpinned(self) -> bool:
        """True when --ga-seed moved a search off the seed its references were pinned for."""
        return self.name in SEARCH and self.ga_seed not in (None, SEARCH[self.name]["seed"])

    def pinned(self, refs: dict) -> dict | None:
        """This workload's references: {"ops": {op id: output}, ...}, or None."""
        ref = refs.get(self.size, {}).get(self.name)
        if ref is None or self.name != "purify-wide":
            return ref
        pool = ref["pool"].get(str(self.seed % RANDOM_POOL))
        return None if pool is None else {"ops": {**ref["ops"], **pool}}


def _simulate_op(circuit, inputs, noise):
    def op():
        res = purify.simulate(circuit, inputs, noise)
        return {"F": res.output_fidelity, "p": res.success_probability}
    return op


def _purify_wide(w: Workload) -> None:
    noise = {"device": quantum.DEVICE_NOISE, "none": quantum.IDEAL_NOISE}
    inputs = {"stephenson": ga.resolve_input("stephenson"), "werner": werner(0.94)}
    circuits = {name: purify.load_circuit(ROOT / "circuits" / f"{name}.json")
                for name in FROZEN[w.size]}
    circuits["bbpssw"] = purify.bbpssw_circuit()
    circuits["dejmps"] = purify.dejmps_circuit()
    for name, circ in circuits.items():
        for inp in ("stephenson", "werner"):
            w.ops.append((f"{name}/{inp}/device",
                          _simulate_op(circ, inputs[inp], noise["device"])))
    w.ops.append(("bbpssw/werner/none",
                  _simulate_op(circuits["bbpssw"], inputs["werner"], noise["none"])))
    count, n_pairs = RANDOM_BATCH[w.size]
    rng = np.random.default_rng(w.seed % RANDOM_POOL)
    for k in range(count):
        circ = random_circuit(rng, n_pairs)
        sim = _simulate_op(circ, inputs["stephenson"], noise["device"])
        w.ops.append((f"random{k}/stephenson/device",
                      lambda sim=sim, sha=circuit_sha(circ): {**sim(), "circuit": sha}))


def _search(w: Workload) -> None:
    spec = SEARCH[w.name]
    pop, gens = spec[w.size]
    seed = spec["seed"] if w.ga_seed is None else w.ga_seed
    cfg = ga.GaConfig(population_size=pop, generations=gens,
                      n_pairs=spec["n_pairs"], seed=seed)
    inp = "stephenson" if spec["input"] == "stephenson" else werner(0.94)
    w.requested_evals = pop * (gens + 1)

    def op():
        ranked = ga.search(cfg, inp, quantum.DEVICE_NOISE, archive=spec["archive"])
        best = ranked[0]
        return {"best": json.dumps(best.circuit.to_dict(), sort_keys=True),
                "fitness": best.fitness, "ranked": len(ranked)}
    w.ops.append(("search", op))


def _cli_op(argv, anchors=()):
    def op():
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        text = buf.getvalue()
        lines = text.splitlines(keepends=True)
        return {"rc": rc, "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "last_line": lines[-1].strip() if lines else "",
                "anchors": [a for a in anchors if any(ln.startswith(a) for ln in lines)]}
    return op


def _tables(w: Workload) -> None:
    w.ops += [
        ("min-ions", _cli_op(["min-ions", "--distance", "3..13", "--paradigm", "all"],
                             CLI_ANCHORS["min-ions"])),
        ("rate", _cli_op(["rate", "--distance", "3..13", "--ions", "100,1000,10000"],
                         CLI_ANCHORS["rate"])),
        ("sweep", _cli_op(["sweep", "--distances", "3..13",
                           "--cycle-times-us", "1000,100,10", "--pc-from", "1e-4",
                           "--pc-to", "1", "--points", str(SWEEP_POINTS[w.size]),
                           "--paper-compat"])),
        ("validate", _cli_op(["validate", *VALIDATE[w.size]])),
    ]


SETUP_FNS = {"search-measured": _search, "search-werner": _search,
            "purify-wide": _purify_wide, "tables-validate": _tables}


def build(name: str, size: str = "full", seed: int = 0, ga_seed: int | None = None) -> Workload:
    """Set-up: the workload's inputs, ready to run."""
    w = Workload(name, size, seed, ga_seed)
    SETUP_FNS[name](w)
    return w


# ---------------------------------------------------------------------------
# oracle

def load_refs(path: Path = REFS) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return abs(got - want) <= FLOAT_TOL
    return got == want


def check(w: Workload, outputs: list, refs: dict) -> dict:
    """op id -> list of mismatches against refs.json and the docs anchors.

    An overridden GA seed has no reference; its outputs are checked only for
    repeatability across units (by the caller).
    """
    unpinned = w.unpinned()
    pinned = {"ops": {}} if unpinned else w.pinned(refs)
    errors = {}
    for op_id, got in outputs:
        if "error" in got:
            errors[op_id] = [got["error"]]
            continue
        errs = []
        want = pinned["ops"].get(op_id) if pinned else None
        if want is not None:
            errs += [f"{k}: got {got.get(k)!r}, want {v!r}"
                     for k, v in want.items() if not _same(got.get(k), v)]
        elif not unpinned:
            errs.append(f"no reference for {w.size}/{w.name}/{op_id}")
        for key, decimals, value in PURIFY_ANCHORS.get(op_id, ()):
            if round(got[key], decimals) != value:
                errs.append(f"anchor {key}={value} not met: {got[key]!r}")
        errs += [f"anchor row {a.strip()!r} missing"
                 for a in CLI_ANCHORS.get(op_id, ()) if a not in got["anchors"]]
        if op_id == "validate" and (got["rc"] != 0 or got["last_line"] != "verdict: PASS"):
            errs.append(f"validate: rc={got['rc']} {got['last_line']!r}")
        errors[op_id] = errs
    return errors


def digest(outputs: list) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# the workload process

def _modules() -> dict:
    return {m.__name__: m for m in (ga, purify, quantum, resources, collection, cli)}


def environment() -> dict:
    """Library side of the environment block (run.py adds the machine side)."""
    import scipy

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "ionsurgery": ionsurgery.__file__}


def measure(w: Workload, seconds: float, trace: bool, refs: dict) -> dict:
    """Repeat the unit for the window; with trace, alternate untraced/traced units."""
    tracer = spans.Tracer(_modules()) if trace else None
    pinned = w.pinned(refs) or {}
    units = []
    started = time.perf_counter()
    while True:
        traced = trace and len(units) % 2 == 1
        if traced:
            tracer.install(run_id=len(units))
        try:
            t0 = time.perf_counter()
            outputs = w.run()
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        errors = check(w, outputs, refs)
        if traced and "simulate_calls" in pinned and not w.unpinned():
            got = spans.unit_metrics(tracer, len(units), w.requested_evals).get(
                "ga.simulate_calls")
            if got != pinned["simulate_calls"]:
                errors["search"].append(
                    f"ga.simulate_calls: got {got}, want {pinned['simulate_calls']}")
        units.append({"traced": traced, "wall_s": wall, "digest": digest(outputs),
                      "outputs": outputs, "errors": errors})
        enough = len(units) >= (2 if trace else 1)
        elapsed = time.perf_counter() - started
        if enough and elapsed + statistics.median(u["wall_s"] for u in units) > seconds:
            break
    return {"units": units, "tracer": tracer}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--ga-seed", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    if Path(ionsurgery.__file__).resolve().parent != SRC / "ionsurgery":
        sys.exit(f"ionsurgery imported from {ionsurgery.__file__}, not from {SRC}")

    w = build(args.workload, args.size, args.seed, args.ga_seed)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0
    res = measure(w, args.seconds, bool(args.trace), load_refs())
    units, tracer = res["units"], res["tracer"]
    layers = {}
    if tracer is not None:
        layers = spans.layer_metrics(tracer, w.requested_evals)
        if args.spans_out:
            spans.write_spans(tracer, args.spans_out)
    print(json.dumps({
        "setup_done": setup_done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": [{k: u[k] for k in ("traced", "wall_s", "digest", "errors")} for u in units],
        "layers": layers,
        "absent_names": tracer.absent if tracer else [],
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
