"""Run one workload of the ionsurgery benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh process
(work.py) that imports ionsurgery from the checkout's ``src``, repeats the
workload's fixed unit of work for about S seconds and checks every output.
Untraced runs report the end-to-end metrics; traced runs (--trace 1) report
the per-layer metrics.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment and run details, which are also written under
perfbench/out/.  The exit code is 0 only when every output was correct, and
2, with no result, when the checkout has no ionsurgery sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("search-measured", "search-werner", "purify-wide", "tables-validate")
# fresh processes that only set up, half before and half after the measured
# one, so that they sample different moments; setup_s is the median of all
SETUP_PROBES = 4
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"  # one process, no extra threads
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# modules whose cumulative import time is reported as <module>.import_s
IMPORTED = ("ionsurgery", "ionsurgery.quantum", "ionsurgery.purify", "ionsurgery.ga",
            "ionsurgery.resources", "ionsurgery.collection", "ionsurgery.cli",
            "numpy", "scipy.special", "scipy.stats")
PER_LAYER = {
    "ga.search_s": "s", "ga.self_s": "s", "ga.simulate_calls": "count",
    "ga.useful_ratio": "1", "ga.evals_per_s": "1/s",
    "purify.simulate_calls": "count", "purify.simulate_ms_p50": "ms",
    "purify.simulate_ms_p90": "ms", "purify.simulate_samples": "count",
    "purify.simulate_ms_p50.n3": "ms", "purify.simulate_ms_p50.n4": "ms",
    "purify.simulate_ms_p50.n5": "ms", "purify.self_s": "s",
    **{f"quantum.{k}_{suffix}": unit
       for k in ("unitary", "depolarize", "project", "partial_trace", "permute")
       for suffix, unit in (("s", "s"), ("calls", "count"))},
    **{f"quantum.calls.w{w}": "count" for w in range(2, 11)},
    "quantum.max_width": "qubits", "quantum.state_bytes_computed": "B",
    "resources.min_ions_calls": "count", "resources.min_ions_us_p50": "us",
    "resources.min_ions_us_p90": "us", "resources.tail_evals_per_query": "count",
    "resources.sweep_s": "s", "resources.max_rate_s": "s",
    "collection.simulate_s": "s", "collection.bracket_s": "s",
    "collection.draws": "count", "collection.draws_per_s": "1/s",
    "cli.self_s": "s",
    **{f"{m}.import_s": "s" for m in IMPORTED},
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.overhead_frac": "1",
    "failed_frac": "1",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({k: BLAS_THREADS for k in BLAS_ENV})
    return env


def _run(cmd: list, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=timeout)


def _setup_sample(args) -> float:
    t0 = time.monotonic()
    proc = _run([sys.executable, str(BENCH / "work.py"), *args, "--setup-only"], 60)
    proc.check_returncode()
    return json.loads(proc.stdout.splitlines()[-1])["setup_done"] - t0


def _import_times() -> dict:
    """Cumulative import seconds per module: median of `python -X importtime` runs."""
    samples = {m: [] for m in IMPORTED}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import ionsurgery.cli"], 60)
        proc.check_returncode()
        for line in proc.stderr.splitlines():
            # "import time:   self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"{m}.import_s": statistics.median(v) for m, v in samples.items() if v}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), "status",
                                 "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha or None, "dirty": bool(status.strip()) if sha else None}


def _environment(args, child_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "platform": platform.platform(),
        **child_env,
        "blas_threads": {k: _child_env()[k] for k in BLAS_ENV},
        "git": _git(), "trace": bool(args.trace), "workload": args.workload,
        "seed": args.seed, "ga_seed": args.ga_seed, "size": args.size,
        "seconds": args.seconds,
    }


def _count(units: list) -> tuple:
    """(attempted, failed): one operation per op per unit, plus one
    repeatability check that every unit gave the same outputs."""
    attempted = sum(len(u["errors"]) for u in units) + 1
    failed = sum(1 for u in units for errs in u["errors"].values() if errs)
    failed += len({u["digest"] for u in units}) != 1
    return attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few-second smoke run (self-tests)")
    ap.add_argument("--ga-seed", type=int, default=None,
                    help="override the GA seed of the search workloads (unpinned)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ionsurgery" / "__init__.py").is_file() \
            or not (ROOT / "circuits").is_dir():
        print(f"no ionsurgery sources under {ROOT}: need src/ionsurgery and circuits/",
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    if args.ga_seed is not None:
        common += ["--ga-seed", str(args.ga_seed)]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"

    probes = 0 if args.trace else SETUP_PROBES
    setup = [_setup_sample(common) for _ in range(probes // 2)]
    t0 = time.monotonic()
    try:
        proc = _run([sys.executable, str(BENCH / "work.py"), *common,
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--spans-out", str(OUT / f"{args.workload}-{args.size}.spans.jsonl.gz")],
                    CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        proc = None
    if proc is not None:
        sys.stderr.write(proc.stderr)
    if proc is None or proc.returncode != 0:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    child = json.loads(proc.stdout.splitlines()[-1])
    setup.append(child["setup_done"] - t0)
    setup += [_setup_sample(common) for _ in range(probes - probes // 2)]

    units = child["units"]
    attempted, failed = _count(units)
    plain = [u["wall_s"] for u in units if not u["traced"]]
    if args.trace:
        traced = [u["wall_s"] for u in units if u["traced"]]
        values = {**child["layers"], **_import_times()}
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(plain)
        values["trace.overhead_frac"] = values["trace.overhead_s"] / statistics.median(plain)
        values["failed_frac"] = failed / attempted
        units_of = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(plain),
                  "peak_rss_mb": child["peak_rss_mb"]}
        units_of = END_TO_END
    absent = sorted(set(units_of) - set(values))
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units_of.items()}

    details = {
        "environment": _environment(args, child["environment"]),
        "absent_metrics": absent, "absent_names": child["absent_names"],
        "setup_samples_s": setup,
        "units": [{k: u[k] for k in ("traced", "wall_s", "digest")} for u in units],
        "errors": {f"unit{i}/{op}": errs for i, u in enumerate(units)
                   for op, errs in u["errors"].items() if errs},
    }
    if len({u["digest"] for u in units}) != 1:
        details["errors"]["repeatability"] = ["units gave different outputs"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps({**details, "result": result}, indent=1))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
