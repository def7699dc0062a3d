"""Package surface: the public name list and the cost of importing it."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ionsurgery as isg

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_public_names_resolve_and_are_listed_once():
    assert len(isg.__all__) == len(set(isg.__all__))
    missing = [name for name in isg.__all__ if not hasattr(isg, name)]
    assert missing == []


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs most of a second and tens of MB on import; the
    # package needs no SciPy at all
    code = "import sys, ionsurgery; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(isg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


NO_SCIPY_AFTER_SOLVING = """
import contextlib, io, sys
def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
import ionsurgery as isg
import ionsurgery.cli
print(scipy_modules())
dev = isg.default_device()
isg.min_ions(isg.SurgeryQuery(distance=3, cycle_time_s=1e-3), dev)
isg.max_rate(isg.SurgeryQuery(distance=3, n_ions=100), dev)
isg.attempts_required(45, 2.18e-4, 45, 0.999)
list(isg.sweep_coupling([3, 9], [1e-3, 1e-5], [1e-4, 0.01, 1.0], dev))
isg.binomial_tail_geq(1000, 0.196, 135)
print(scipy_modules())
for argv in (["min-ions", "--distance", "3..5"], ["rate", "--distance", "3", "--ions", "100"],
             ["sweep", "--distances", "3", "--points", "5"],
             ["validate", "--ions", "45", "--attempts", "1000", "--trials", "200"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ionsurgery.cli.main(argv) == 0
print(scipy_modules())
"""


def test_import_loads_no_scipy_until_a_solver_runs():
    # the binomial tail is evaluated with NumPy alone: no solver and no CLI
    # command loads any scipy module (SciPy is a test oracle only)
    env = {**os.environ, "PYTHONPATH": str(Path(isg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_AFTER_SOLVING],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines() == ["[]", "[]", "[]"]


def test_every_name_the_benchmark_traces_resolves():
    # the benchmark's tracer wraps these module attributes; a name that
    # disappears leaves its per-layer metric silently absent
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pairs = [(m, a) for m, a, *_ in spans.SPANS + spans.COUNTS]
    assert pairs
    missing = [f"{m}.{a}" for m, a in pairs
               if not hasattr(importlib.import_module(m), a)]
    assert missing == []


@pytest.mark.parametrize("path", sorted(Path(isg.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # a dead import hides which module a rule lives in; the package's own
    # imports are its public names, and a name the benchmark wraps where it
    # is imported carries "# noqa: F401"
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
                if "# noqa: F401" not in lines[alias.lineno - 1]}
    exempt = set(isg.__all__) if path.name == "__init__.py" else set()
    assert sorted(imported - used - exempt) == []


@pytest.mark.parametrize("path", sorted(Path(isg.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # SciPy is a test dependency only; pyproject.toml lists NumPy alone
    tree = ast.parse(path.read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("make, fields", [
    (lambda i: isg.DeviceParams(pairs_per_circuit=i(3)), ("pairs_per_circuit",)),
    (lambda i: isg.SurgeryQuery(distance=i(3), n_ions=i(100)), ("distance", "n_ions")),
    (lambda i: isg.GaConfig(population_size=i(4), generations=i(2), n_pairs=i(3),
                            seed=i(5)), ("population_size", "generations", "n_pairs", "seed")),
    (lambda i: isg.TrialConfig(n_ions=i(5), p_entangle=0.5, attempts=i(1), trials=i(10),
                               seed=i(0)), ("n_ions", "attempts", "trials", "seed")),
    (lambda i: isg.PurificationCircuit(i(2), (), ()), ("n_pairs",)),
], ids=["device", "query", "ga", "trials", "circuit"])
def test_numpy_integer_counts_are_stored_as_plain_ints(make, fields):
    # one integer rule: NumPy integers pass wherever a count does, as int
    for i in (np.int64, np.int32, np.uint8):
        obj = make(i)
        assert obj == make(int)
        assert [type(getattr(obj, f)) for f in fields] == [int] * len(fields)
