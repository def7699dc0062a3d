"""Regenerate refs.json, the benchmark's pinned references, from the current code.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are trusted (references were pinned
on the commit that added the benchmark).  It refuses to write when an
operation raises or a docs/repro.md anchor is not met.
"""
from __future__ import annotations

import json
import os
import sys

from run import BLAS_ENV, BLAS_THREADS

os.environ.update({k: BLAS_THREADS for k in BLAS_ENV})  # before numpy loads

import spans  # noqa: E402
import work  # noqa: E402


def _run(w: work.Workload, keep=lambda op_id: True) -> dict:
    w.ops = [(op_id, fn) for op_id, fn in w.ops if keep(op_id)]
    outputs = w.run()
    bad = {op: errs for op, errs in work.check(w, outputs, {}).items()
           if any(not e.startswith("no reference") for e in errs)}
    if bad:
        sys.exit(f"not pinning {w.size}/{w.name}: {bad}")
    return dict(outputs)


def _search(name: str, size: str) -> dict:
    w = work.build(name, size)
    tracer = spans.Tracer(work._modules())
    tracer.install(run_id=0)
    try:
        ops = _run(w)
    finally:
        tracer.uninstall()
    calls = spans.unit_metrics(tracer, 0, w.requested_evals)["ga.simulate_calls"]
    return {"ops": ops, "simulate_calls": calls}


def main() -> int:
    refs = {}
    for size in work.SIZES:
        r = refs[size] = {}
        for name in ("search-measured", "search-werner"):
            r[name] = _search(name, size)
        r["tables-validate"] = {"ops": _run(work.build("tables-validate", size))}
        fixed = _run(work.build("purify-wide", size, seed=0),
                     lambda op_id: not op_id.startswith("random"))
        pool = {str(seed): _run(work.build("purify-wide", size, seed=seed),
                                lambda op_id: op_id.startswith("random"))
                for seed in range(work.RANDOM_POOL)}
        r["purify-wide"] = {"ops": fixed, "pool": pool}
        print(f"pinned {size}", file=sys.stderr)
    with open(work.REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
