"""Self-tests of the benchmark: python3 -m pytest -q perfbench

Tiny-size smoke runs of every workload, traced/untraced equivalence, the
oracle's handling of a wrong reference, and the contract of the output.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import work

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _bench(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", work.WORKLOADS)
def test_tiny_smoke_run(name):
    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench(ROOT, "--workload", "search-werner", "--seed", "3", "--seconds", "0",
                  "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = _result(proc)
    assert res["correct"]
    assert set(res["metrics"]) == set(run.PER_LAYER)
    details = json.loads(proc.stdout.splitlines()[-2])
    reported = {k for k, m in res["metrics"].items() if k not in details["absent_metrics"]}
    assert {"ga.simulate_calls", "purify.self_s", "quantum.calls.w6"} <= reported
    assert "purify.simulate_ms_p50.n5" in details["absent_metrics"]


@pytest.mark.parametrize("name", work.WORKLOADS)
def test_traced_outputs_equal_untraced_and_wrappers_removed(name):
    w = work.build(name, "tiny", seed=5)
    modules = work._modules()
    before = {(m, a): getattr(modules[m], a) for m, a, *_ in spans.SPANS + spans.COUNTS}
    plain = work.digest(w.run())
    tracer = spans.Tracer(modules)
    tracer.install(run_id=0)
    try:
        traced = work.digest(w.run())
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans and all(s is not None for s in tracer.spans)
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())
    assert spans.layer_metrics(tracer, w.requested_evals or 1)


def test_wrong_reference_counts_as_failure():
    refs = work.load_refs()
    w = work.build("purify-wide", "tiny", seed=5)
    outputs = w.run()
    assert not any(work.check(w, outputs, refs).values())
    bad = copy.deepcopy(refs)
    bad["tiny"]["purify-wide"]["ops"]["dejmps/werner/device"]["F"] += 1e-9
    errors = work.check(w, outputs, bad)
    assert [op for op, errs in errors.items() if errs] == ["dejmps/werner/device"]
    units = [{"errors": errors, "digest": "d"}]
    assert run._count(units) == (len(outputs) + 1, 1)


def test_docs_anchor_checked_without_refs():
    w = work.build("purify-wide", "tiny", seed=5)
    outputs = [(op, {**out, "F": 0.5}) if op == "ga_3to1/stephenson/device" else (op, out)
               for op, out in w.run()]
    errors = work.check(w, outputs, work.load_refs())
    assert any("anchor" in e for e in errors["ga_3to1/stephenson/device"])


def test_missing_layer_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(work.purify, "_permute_raw")
    tracer = spans.Tracer(work._modules())
    assert tracer.absent == ["ionsurgery.purify._permute_raw"]
    tracer.install(run_id=0)
    try:
        outputs = work.build("tables-validate", "tiny").run()
    finally:
        tracer.uninstall()
    assert not any("error" in out for _, out in outputs)
    assert not hasattr(work.purify, "_permute_raw")
    metrics = spans.layer_metrics(tracer, 1)
    assert "cli.self_s" in metrics and "quantum.permute_s" not in metrics


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # purify-wide runs by hand only: see README.md, "Steadiness and cost"
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in work.WORKLOADS if w != "purify-wide"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "purify-wide", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
