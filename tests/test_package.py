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
    # package needs only scipy.special
    code = "import sys, ionsurgery; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(isg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


SCIPY_ON_FIRST_SOLVE = """
import sys
def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
import ionsurgery
print(scipy_modules())
import ionsurgery.cli
print(scipy_modules())
ionsurgery.min_ions(ionsurgery.SurgeryQuery(distance=3, cycle_time_s=1e-3),
                    ionsurgery.default_device())
print("scipy.special" in sys.modules)
"""


def test_import_loads_no_scipy_until_a_solver_runs():
    # only the binomial solvers need SciPy; they import scipy.special on the
    # first call, so the package and the CLI start without it
    env = {**os.environ, "PYTHONPATH": str(Path(isg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", SCIPY_ON_FIRST_SOLVE],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines() == ["[]", "[]", "True"]


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
