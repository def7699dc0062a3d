"""Package surface: the public name list and the cost of importing it."""

import ast
import functools
import importlib
import importlib.util
import math
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


# the wording of the two number rules in `ionsurgery._checks`
NUMBER_RULE_WORDS = ("must be an integer", "must be a number", "must be non-negative",
                     "must be at least", "must lie in [", "must lie in (",
                     "must be positive")


@pytest.mark.parametrize("path", sorted(Path(isg.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_number_rules_live_in_checks_alone(path):
    # every count and every real parameter is checked by `_checks.as_int` or
    # `_checks.as_real`; a module that words such a check itself has a copy
    if path.name == "_checks.py":
        return
    copies = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                and getattr(node.exc.func, "id", None) == "ValueError":
            text = "".join(part.value for arg in node.exc.args for part in ast.walk(arg)
                           if isinstance(part, ast.Constant) and isinstance(part.value, str))
            copies += [(node.lineno, w) for w in NUMBER_RULE_WORDS if w in text]
    assert copies == []


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


# (constructor, a valid value of each count, each count's lower bound); a
# count without one is checked against a range or a set instead
COUNTS = {
    "device": (isg.DeviceParams, dict(pairs_per_circuit=3), dict(pairs_per_circuit=2)),
    "query": (isg.SurgeryQuery, dict(distance=3, n_ions=100), dict(distance=1, n_ions=1)),
    "ga": (isg.GaConfig, dict(population_size=4, generations=2, n_pairs=3, seed=5),
           dict(population_size=2, generations=1, seed=0)),
    "trials": (functools.partial(isg.TrialConfig, p_entangle=0.5),
               dict(n_ions=5, attempts=1, trials=10, seed=0),
               dict(n_ions=1, attempts=0, trials=1, seed=0)),
    "circuit": (functools.partial(isg.PurificationCircuit, ops=(), accept=()),
                dict(n_pairs=2), {}),
}
# the same for the functions that take a count
COUNT_ARGS = {
    "pairs_required": (isg.pairs_required, dict(distance=3, pairs_per_circuit=3,
                                                k_multiplex=5),
                       dict(distance=1, pairs_per_circuit=1, k_multiplex=1)),
    "p_onepair": (functools.partial(isg.p_onepair, 0.5), dict(attempts=3), dict(attempts=0)),
    "binomial_tail_geq": (functools.partial(isg.binomial_tail_geq, p=0.5, k=0), dict(n=3),
                          dict(n=0)),
    "attempts_required": (functools.partial(isg.attempts_required, p_entangle=0.5,
                                            k_star=0, p_ls=0.9),
                          dict(n_ions=10), dict(n_ions=0)),
    "wilson_interval": (isg.wilson_interval, dict(successes=0, trials=10), dict(trials=1)),
    "empirical_min_attempts": (functools.partial(isg.empirical_min_attempts, 10, 1.0,
                                                 p_ls=0.9, trials=20, seed=0),
                               dict(k_star=5), dict(k_star=1)),
}


@pytest.mark.parametrize("make, counts", [v[:2] for v in COUNTS.values()], ids=list(COUNTS))
def test_numpy_integer_counts_are_stored_as_plain_ints(make, counts):
    # one integer rule: NumPy integers pass wherever a count does, as int
    for i in (np.int64, np.int32, np.uint8):
        obj = make(**{f: i(v) for f, v in counts.items()})
        assert obj == make(**counts)
        assert [type(getattr(obj, f)) for f in counts] == [int] * len(counts)


@pytest.mark.parametrize("make, counts, lows", [*COUNTS.values(), *COUNT_ARGS.values()],
                         ids=[*COUNTS, *COUNT_ARGS])
def test_every_count_has_its_lower_bound(make, counts, lows):
    # one message per bound: "non-negative" for 0, "at least lo" above it
    for field, lo in lows.items():
        make(**{**counts, field: lo})
        words = "non-negative" if lo == 0 else f"at least {lo}"
        with pytest.raises(ValueError, match=f"^{field} must be {words}, got {lo - 1}$"):
            make(**{**counts, field: lo - 1})


# (call of the value, the name its messages start with, a valid value, a value
# outside the interval, the attribute that stores the value or None)
REALS = {
    "R": (lambda v: isg.device_from_dict({"R": v}), "R", 2e6, 0.0, "pulse_rate_hz"),
    **{name: (lambda v, name=name: isg.DeviceParams(**{name: v}), name, good, outside, name)
       for name, good, outside in (("pulse_rate_hz", 2e6, -1.0), ("p_entangle", 1.0, 0.0),
                                   ("p_purify", 1.0, 1.5), ("p_pair_confidence", 0.5, 1.0),
                                   ("p_ls_confidence", 1.0, 0.0), ("f_ideal", 1.0, -0.5))},
    "cycle_time_s": (lambda v: isg.SurgeryQuery(distance=3, cycle_time_s=v), "cycle_time_s",
                     2.0, 0.0, "cycle_time_s"),
    "multiplexing_k.p_purify": (lambda v: isg.multiplexing_k(v, 0.999), "p_purify",
                                1.0, 1.5, None),
    "multiplexing_k.p_pair_confidence": (lambda v: isg.multiplexing_k(0.819, v),
                                         "p_pair_confidence", 0.5, 1.0, None),
    "p_onepair": (lambda v: isg.p_onepair(v, 3), "p_entangle", 1.0, -0.1, None),
    "binomial_tail_geq": (lambda v: isg.binomial_tail_geq(10, v, 3), "p", 1.0, 1.3, None),
    "attempts_required.p_entangle": (lambda v: isg.attempts_required(10, v, 5, 0.9),
                                     "p_entangle", 1.0, 0.0, None),
    "attempts_required.p_ls": (lambda v: isg.attempts_required(10, 0.5, 5, v), "p_ls",
                               1.0, 0.0, None),
    "sweep_coupling": (lambda v: list(isg.sweep_coupling([3], [1e-3], [v], DEVICE)),
                       "p_c_grid value", 1.0, 0.0, None),
    "TrialConfig": (lambda v: isg.TrialConfig(10, v, 1, 1, 1), "p_entangle", 1.0, 1.5,
                    "p_entangle"),
    "wilson_interval": (lambda v: isg.wilson_interval(5, 10, v), "z", 2.0, 0.0, None),
    "empirical_min_attempts.p_entangle": (
        lambda v: isg.empirical_min_attempts(10, v, 5, 0.9, 20, 0), "p_entangle",
        1.0, 0.0, None),
    "empirical_attempts_bracket.p_ls": (
        lambda v: isg.empirical_attempts_bracket(10, 1.0, 5, v, 20, 0), "p_ls",
        1.0, 1.5, None),
    **{name: (lambda v, name=name: isg.NoiseModel(**{name: v}), name, 1.0, 1.5, name)
       for name in ("p1", "p2", "p_meas")},
    # px holds the whole remainder unless another weight is the one set
    **{name: (lambda v, name=name: isg.BellDiagonalState(
        **{"f": 0.9, "px": 1.0 if name == "f" else 0.0, "pz": 0.0, "py": 0.0, name: v}),
        name, 1.0, -0.5, name) for name in ("f", "px", "pz", "py")},
}
DEVICE = isg.DeviceParams()


@pytest.mark.parametrize("call, field, good, outside, attr", REALS.values(), ids=list(REALS))
def test_every_real_parameter_takes_one_rule(call, field, good, outside, attr):
    # bools, text, None, NaN, the infinities, ints past float range and values
    # outside the interval raise ValueError naming the field; NumPy floats and
    # ints pass, and are stored as plain floats.  A None cycle_time_s is unset,
    # which SurgeryQuery's check of the two fields rejects.
    unset = (None,) if field != "cycle_time_s" else ()
    for bad in (True, "0.5", *unset, math.nan, math.inf, -math.inf, 10 ** 400, outside):
        with pytest.raises(ValueError, match=f"^{field} must "):
            call(bad)
    want = call(good)
    for v in (np.float64(good), np.float32(good), *([int(good)] if good % 1 == 0 else [])):
        got = call(v)
        assert got == want
        if attr is not None:
            assert type(getattr(got, attr)) is float
