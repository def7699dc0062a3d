"""Package surface: the public name list and the cost of importing it."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
import typing
from collections.abc import Iterator
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


# the wording of the field rules in `ionsurgery._checks`: the number rules
# `as_int` and `as_real`, the flag rule `as_flag`, the word rule `as_choice`,
# the text rule `as_text`, the record rule `as_record` as it names each record
# class, and the JSON list rule `as_list`
NUMBER_RULE_WORDS = ("must be an integer", "must be a number", "must be non-negative",
                     "must be at least", "must lie in [", "must lie in (",
                     "must be positive", "must be True or False", "must be one of",
                     "must be a string", "must be a list",
                     *(f"must be a {name}" for name in isg.__all__
                       if isinstance(getattr(isg, name), type)))


@pytest.mark.parametrize("path", sorted(Path(isg.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_number_rules_live_in_checks_alone(path):
    # every count, real parameter, flag, word field, text label, record
    # argument and JSON list is checked by `_checks.as_int`, `as_real`,
    # `as_flag`, `as_choice`, `as_text`, `as_record` or `as_list`; a module
    # that words such a check itself has a copy
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


# ---------------------------------------------------------------------------
# every public parameter takes one rule, found from its signature

# the bad values of the rule each annotation names: `as_int`, `as_real`,
# `as_flag`, and `as_choice` or `as_text`; a package record class takes
# `as_record`'s
BAD = {
    int: (True, 1.5, "3", None),
    float: (True, "0.5", None, math.nan, math.inf, -math.inf, 10 ** 400),
    bool: ("false", "no", 0, 1, 1.0, None),
    str: (None, 3, ["A"]),
}
BAD_RECORD = (None, "x", {})


def _rule(annotation) -> tuple:
    """(the type whose rule an annotation names, that rule's bad values), or
    (None, ()) where it names none.  An optional field takes its type's
    rule, and None leaves it unset."""
    args = typing.get_args(annotation)
    if len(args) == 2 and type(None) in args:
        kind, bad = _rule(args[0])
        return kind, tuple(v for v in bad if v is not None)
    if annotation in BAD:
        return annotation, BAD[annotation]
    if isinstance(annotation, type) and annotation.__module__.startswith("ionsurgery."):
        return annotation, BAD_RECORD
    return None, ()


def _public_parameters() -> list:
    """(callable, parameter, annotation) for every parameter of every public
    callable, in `__all__` order."""
    out = []
    for name in isg.__all__:
        obj = getattr(isg, name)
        if callable(obj):
            hints = typing.get_type_hints(obj)
            out += [(name, param, hints.get(param)) for param in inspect.signature(obj).parameters]
    return out


PARAMETERS = _public_parameters()

# the parameters that take no rule, each with the reason
EXEMPT = {
    **{(name, field.name): "a result field: the package fills it from checked inputs"
       for name in ("EstimateResult", "BenchmarkRow", "ProtocolOutcome", "RankedCircuit",
                    "CollectionResult")
       for field in dataclasses.fields(getattr(isg, name))},
    **{(name, "path"): "a file path: opening it names the file it cannot open"
       for name in ("load_circuit", "load_device", "save_circuit")},
}

CIRCUIT = isg.bbpssw_circuit()
DEVICE = isg.DeviceParams()
TRIALS = isg.TrialConfig(n_ions=5, p_entangle=0.5, attempts=3, trials=10, seed=0)
# a valid call of each public callable, by keyword, or of one parameter where
# that one needs the others to differ; a parameter left out takes its default.
# Most counts sit at their lower bound and most reals at a closed end of
# their interval, so the walk tries those values as good ones too.
VALID = {
    "AcceptRule": dict(label_i="c1", label_j="c2", relation="coincident"),
    "BellDiagonalState": dict(f=1.0, px=1.0, pz=0.0, py=0.0),
    "DensityMatrix": dict(num_qubits=2, entries=np.eye(4) / 4),
    "DeviceParams": dict(pulse_rate_hz=2e6, p_entangle=1.0, p_purify=1.0, pairs_per_circuit=2,
                         p_pair_confidence=0.5, p_ls_confidence=1.0, f_ideal=1.0),
    "GaConfig": dict(population_size=2, generations=1, n_pairs=3, seed=0),
    "Measure": dict(pair=1, side="A", basis="Z", record_label="c1"),
    "NoiseModel": dict(p1=1.0, p2=1.0, p_meas=1.0),
    "PurificationCircuit": dict(n_pairs=2, ops=(), accept=()),
    "SingleQubitClifford": dict(pair=0, side="A", index=0),
    "SurgeryQuery": dict(distance=1, cycle_time_s=2.0),
    ("SurgeryQuery", "n_ions"): dict(distance=1, n_ions=1),
    "TrialConfig": dict(n_ions=1, p_entangle=1.0, attempts=0, trials=1, seed=0),
    "TwoQubitGate": dict(kind="cnot", side="A", control_pair=0, target_pair=1),
    "attempts_required": dict(n_ions=0, p_entangle=1.0, k_star=0, p_ls=1.0),
    "bell_state": dict(kind="phi_plus"),
    "benchmark_sweep": dict(candidates=[CIRCUIT], noise=isg.IDEAL_NOISE),
    "binomial_tail_geq": dict(n=0, p=1.0, k=0),
    "clifford_index": dict(u=np.eye(2)),
    "clifford_unitary": dict(index=0),
    "collection_report": dict(config=TRIALS, ks=[1]),
    "device_from_dict": dict(raw={"R": 2e6}),
    "device_to_dict": dict(device=DEVICE),
    "empirical_attempts_bracket": dict(n_ions=10, p_entangle=1.0, k_star=5, p_ls=1.0,
                                       trials=20, seed=0),
    "empirical_min_attempts": dict(n_ions=10, p_entangle=1.0, k_star=1, p_ls=0.9,
                                   trials=20, seed=0),
    "fidelity_to_bell": dict(state=isg.bell_state("phi_plus")),
    "fitness": dict(circuit=CIRCUIT, inputs="werner:0.9", noise=isg.IDEAL_NOISE),
    "max_rate": dict(query=isg.SurgeryQuery(distance=3, n_ions=100), device=DEVICE),
    "min_ions": dict(query=isg.SurgeryQuery(distance=3, cycle_time_s=1e-3), device=DEVICE),
    "multiplexing_k": dict(p_purify=1.0, p_pair_confidence=0.5),
    "p_onepair": dict(p_entangle=1.0, attempts=0),
    "pairs_required": dict(distance=1, pairs_per_circuit=1, k_multiplex=1),
    "resolve_input": dict(spec="werner:0.9"),
    "save_circuit": dict(circuit=CIRCUIT, path=os.devnull),
    "search": dict(config=isg.GaConfig(population_size=4, generations=1, seed=0),
                   input_spec="werner:0.9", noise=isg.DEVICE_NOISE),
    "simulate": dict(circuit=CIRCUIT, inputs="werner:0.9", noise=isg.IDEAL_NOISE),
    "simulate_collection": dict(config=TRIALS),
    "sweep_coupling": dict(distances=[3], cycle_times_s=[1e-3], p_c_grid=[1.0], device=DEVICE),
    "wilson_interval": dict(successes=0, trials=1, z=2.0),
}


def _low(name: str, param: str, lo: int) -> tuple:
    """A count one below its lower bound, with its whole message."""
    words = "non-negative" if lo == 0 else f"at least {lo}"
    return name, param, lo - 1, f"{param} must be {words}, got {lo - 1}"


INPUT_SPEC = "input spec must be 'stephenson', a BellDiagonalState, a 2-qubit"
# the rest of the walk: (callable, parameter, a bad value, the start of its
# message) for each parameter whose annotation names no rule, and for the
# bounds and words that the rules' own bad values do not reach
EXTRA_ROWS = [
    *(_low(*row) for row in (
        ("DeviceParams", "pairs_per_circuit", 2), ("SurgeryQuery", "distance", 1),
        ("SurgeryQuery", "n_ions", 1), ("GaConfig", "population_size", 2),
        ("GaConfig", "generations", 1), ("GaConfig", "seed", 0), ("TrialConfig", "n_ions", 1),
        ("TrialConfig", "attempts", 0), ("TrialConfig", "trials", 1), ("TrialConfig", "seed", 0),
        ("pairs_required", "distance", 1), ("pairs_required", "pairs_per_circuit", 1),
        ("pairs_required", "k_multiplex", 1), ("p_onepair", "attempts", 0),
        ("binomial_tail_geq", "n", 0), ("attempts_required", "n_ions", 0),
        ("wilson_interval", "trials", 1), ("empirical_min_attempts", "k_star", 1),
        ("Measure", "pair", 0), ("SingleQubitClifford", "pair", 0),
        ("TwoQubitGate", "control_pair", 0), ("TwoQubitGate", "target_pair", 0))),
    # a value outside each real's interval
    *((name, param, v, f"{param} must ") for name, param, v in (
        ("DeviceParams", "pulse_rate_hz", -1.0), ("DeviceParams", "p_entangle", 0.0),
        ("DeviceParams", "p_purify", 1.5), ("DeviceParams", "p_pair_confidence", 1.0),
        ("DeviceParams", "p_ls_confidence", 0.0), ("DeviceParams", "f_ideal", -0.5),
        ("SurgeryQuery", "cycle_time_s", 0.0), ("multiplexing_k", "p_purify", 1.5),
        ("multiplexing_k", "p_pair_confidence", 1.0), ("p_onepair", "p_entangle", -0.1),
        ("binomial_tail_geq", "p", 1.3), ("attempts_required", "p_entangle", 0.0),
        ("attempts_required", "p_ls", 0.0), ("TrialConfig", "p_entangle", 1.5),
        ("wilson_interval", "z", 0.0), ("empirical_min_attempts", "p_entangle", 0.0),
        ("empirical_attempts_bracket", "p_ls", 1.5), ("NoiseModel", "p1", 1.5),
        ("NoiseModel", "p2", 1.5), ("NoiseModel", "p_meas", 1.5),
        ("BellDiagonalState", "f", -0.5), ("BellDiagonalState", "px", -0.5),
        ("BellDiagonalState", "pz", -0.5), ("BellDiagonalState", "py", -0.5))),
    # an index outside its range, a count past the one it counts
    ("clifford_unitary", "index", 24, "index must be 0..23, got 24"),
    ("SingleQubitClifford", "index", 24, "index must be 0..23, got 24"),
    ("PurificationCircuit", "n_pairs", 6, "n_pairs must be 2..5, got 6"),
    ("GaConfig", "n_pairs", 2, "n_pairs must be 3..5, got 2"),
    ("DensityMatrix", "num_qubits", 11, "num_qubits must be 1..10, got 11"),
    ("binomial_tail_geq", "k", 2, "k must lie in 0..n+1"),
    ("wilson_interval", "successes", 2, "successes must lie in 0..trials"),
    # a word outside its words
    *((name, param, word, f"{param} must be one of ") for name, param, word in (
        ("AcceptRule", "relation", "sideways"), ("Measure", "side", "C"),
        ("Measure", "basis", "W"), ("SingleQubitClifford", "side", "C"),
        ("TwoQubitGate", "kind", "swap"), ("TwoQubitGate", "side", "C"),
        ("bell_state", "kind", "phi"), ("fidelity_to_bell", "kind", "phi"))),
    # the parameters whose annotation names no rule
    ("DensityMatrix", "entries", "x", "entries must be 4x4 for 2 qubits"),
    ("DensityMatrix", "entries", [[1, 2], [3]], "entries must be 4x4 for 2 qubits"),
    ("DensityMatrix", "entries", np.eye(3), "entries must be 4x4 for 2 qubits"),
    ("PurificationCircuit", "ops", ("x",), "ops must hold op records"),
    ("PurificationCircuit", "accept", ("x",), "accept must hold AcceptRule records"),
    ("clifford_index", "u", "x", "unitary not in the Clifford table"),
    ("clifford_index", "u", np.eye(3), "unitary not in the Clifford table"),
    ("clifford_index", "u", np.diag([1, np.exp(0.25j * np.pi)]),
     "unitary not in the Clifford table"),
    ("resolve_input", "spec", "ghz", "input spec 'ghz' is unknown"),
    ("resolve_input", "spec", "werner:x", "input spec 'werner:x' is malformed"),
    ("resolve_input", "spec", [[1, 2], [3]], INPUT_SPEC),
    ("resolve_input", "spec", [["a"] * 4] * 4, INPUT_SPEC),
    ("resolve_input", "spec", np.eye(3), INPUT_SPEC),
    ("resolve_input", "spec", None, INPUT_SPEC),
    ("resolve_input", "spec", isg.DensityMatrix(1, np.eye(2) / 2),
     "input state must be a 2-qubit state"),
    ("search", "input_spec", "ghz", "input spec 'ghz' is unknown"),
    ("search", "input_spec", np.eye(3), INPUT_SPEC),
    *((name, "inputs", bad, start) for name in ("simulate", "fitness") for bad, start in (
        ("ghz", "input spec 'ghz' is unknown"), ([None, None], INPUT_SPEC),
        (["werner:0.9"] * 3, "inputs must hold 2 input specs, got 3"))),
    ("benchmark_sweep", "candidates", [], "candidates must be non-empty"),
    ("benchmark_sweep", "candidates", ["x"], "candidates must be a PurificationCircuit"),
    ("collection_report", "ks", ["x"], "k must be an integer"),
    ("device_from_dict", "raw", [], "device must be a JSON object"),
    ("device_from_dict", "raw", {"N_p": 1}, "N_p must be at least 2, got 1"),
    *(("device_from_dict", "raw", {"R": v}, "R must ") for v in (*BAD[float], 0.0)),
    ("sweep_coupling", "distances", [], "distances must be non-empty"),
    ("sweep_coupling", "distances", [0], "distance must be at least 1, got 0"),
    ("sweep_coupling", "cycle_times_s", [], "cycle_times_s must be non-empty"),
    ("sweep_coupling", "cycle_times_s", [0.0], "cycle_time_s must be positive"),
    ("sweep_coupling", "p_c_grid", [], "p_c_grid must be non-empty"),
    *(("sweep_coupling", "p_c_grid", [v], "p_c_grid value must ") for v in (*BAD[float], 0.0)),
]
EXTRA = {}
for _name, _param, _bad, _start in EXTRA_ROWS:
    EXTRA.setdefault((_name, _param), []).append((_bad, _start))
RULED = [row for row in PARAMETERS if row[:2] not in EXEMPT]


def _valid(name: str, param: str) -> dict:
    """The arguments of the valid call of `name` that `param` varies in."""
    return VALID.get((name, param), VALID.get(name, {}))


def _call(name: str, param: str, value):
    """The valid call of `name` with `param` set to `value`."""
    return getattr(isg, name)(**{**_valid(name, param), param: value})


def test_every_table_row_names_a_public_parameter():
    # a stale row would test nothing; every valid call passes
    known = {row[:2] for row in PARAMETERS}
    named = set(EXEMPT) | set(EXTRA) | {key for key in VALID if isinstance(key, tuple)}
    named |= {(key, param) for key, kw in VALID.items() if isinstance(key, str) for param in kw}
    assert sorted(named - known) == []
    for key, kw in VALID.items():
        getattr(isg, key if isinstance(key, str) else key[0])(**kw)


@pytest.mark.parametrize("name, param, annotation", RULED,
                         ids=[f"{name}.{param}" for name, param, _ in RULED])
def test_every_public_parameter_takes_its_rule(name, param, annotation):
    # the bad values of the rule its annotation names, and its rows of EXTRA,
    # each raise ValueError with a message that starts with the field's name;
    # a parameter with neither has no rule, and fails here
    cases = [(bad, f"{param} must ") for bad in _rule(annotation)[1]]
    cases += EXTRA.get((name, param), [])
    assert cases, f"{name}.{param} takes no rule: annotate it, or give it rows in EXTRA"
    for bad, start in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(start)}"):
            _call(name, param, bad)


def _bits(result) -> bytes:
    """A result's pickled bytes, an iterator's rows listed: equal bytes are
    equal values of equal types."""
    return pickle.dumps(list(result) if isinstance(result, Iterator) else result)


PLAIN = [(name, param, kind) for name, param, annotation in RULED
         if (kind := _rule(annotation)[0]) in (int, float, bool)]


@pytest.mark.parametrize("name, param, kind", PLAIN,
                         ids=[f"{name}.{param}" for name, param, _ in PLAIN])
def test_numpy_scalars_act_as_plain_values(name, param, kind):
    # a NumPy integer, float or bool passes wherever its plain value does and
    # acts as it, bit for bit, down to the type of a stored field; an integer
    # passes as a real; a flag's two values give different results
    default = inspect.signature(getattr(isg, name)).parameters[param].default
    good = _valid(name, param).get(param, default)
    want = _bits(_call(name, param, good))
    if kind is bool:
        same = [np.bool_(good)]
        assert _bits(_call(name, param, not good)) != want
    elif kind is int:
        same = [np.int64(good), np.int32(good), *([np.uint8(good)] if 0 <= good < 256 else [])]
    else:
        same = [np.float64(good), *([np.float32(good)] if np.float32(good) == good else []),
                *([int(good)] if good % 1 == 0 else [])]
    for v in same:
        assert _bits(_call(name, param, v)) == want


def test_numpy_scalars_act_as_plain_values_inside_dicts_and_grids():
    # a device dict's values and the sweep's grid values take the same rules:
    # NumPy scalars and integers pass and act as the plain value; the sweep's
    # rows keep each grid value as given
    want = _bits(isg.device_from_dict({"R": 2e6, "N_p": 3}))
    for r in (np.float64(2e6), np.float32(2e6), 2000000):
        assert _bits(isg.device_from_dict({"R": r, "N_p": np.int64(3)})) == want
    want = list(isg.sweep_coupling([3], [1e-3], [1.0], DEVICE))
    for pc in (np.float64(1.0), np.float32(1.0), 1):
        assert list(isg.sweep_coupling([np.int64(3)], [np.float64(1e-3)], [pc], DEVICE)) == want
