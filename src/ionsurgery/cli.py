"""Command line front end: resource tables, sweeps, purification, validation.

Subcommands
    min-ions   communication-ion budget over a (distance, cycle time) grid
    rate       sustainable cycle rate over a (distance, ion budget) grid
    sweep      min-ions vs two-photon coupling probability, plot-ready CSV
    purify     simulate | search | benchmark purification circuits
    validate   Monte Carlo check of the analytic collection model

Exit codes: 0 success, 1 only-infeasible results (or failed validation)
under --strict, 2 usage error: a bad flag, any input value the library
rejects with ValueError, or an unwritable output path; stdout then stays
empty.  The default device file ships in the package; --device or the
IONSURGERY_DEVICE environment variable override it.
"""

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .collection import TrialConfig, empirical_attempts_bracket, simulate_collection
from .ga import GaConfig, benchmark_sweep, resolve_input, search
from .purify import load_circuit, save_circuit, simulate
from .quantum import DEVICE_NOISE, IDEAL_NOISE, BellDiagonalState
from .resources import (
    SurgeryQuery,
    attempts_required,
    binomial_tail_geq,
    default_device,
    load_device,
    max_rate,
    min_ions,
    p_onepair,
    sweep_coupling,
)

PARADIGMS = {"t1000us": 1e-3, "t100us": 1e-4, "t10us": 1e-5}  # seconds
NOISE = {"paper": DEVICE_NOISE, "none": IDEAL_NOISE}


# ---------------------------------------------------------------------------
# flag parsing helpers

def _parse_ints(text: str) -> list:
    """Integer list spec: '9', '3,5,7' or inclusive range '3..9'."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            if ".." in tok:
                a, b = tok.split("..")
                lo, hi = int(a), int(b)
                if hi < lo:
                    raise ValueError
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(tok))
        except ValueError:
            raise ValueError(f"bad integer list {text!r}") from None
    return out


def _parse_times_s(text: str) -> list:
    """Cycle times in microseconds, '1000,100,10', returned in seconds."""
    out = []
    for tok in text.split(","):
        try:
            out.append(float(tok.strip()) * 1e-6)
        except ValueError:
            raise ValueError(f"bad number list {text!r}") from None
    return out


def _cycle_times_s(args) -> list:
    if args.cycle_time_us is not None:
        return _parse_times_s(args.cycle_time_us)
    preset = args.paradigm or "all"
    names = list(PARADIGMS) if preset == "all" else [preset]
    return [PARADIGMS[n] for n in names]


def _device(args):
    path = args.device or os.environ.get("IONSURGERY_DEVICE")
    try:
        dev = load_device(path) if path else default_device()
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"bad device file: {exc}") from None
    # replace() re-runs DeviceParams' checks on the new p_entangle
    return dev if args.pc is None else replace(dev, p_entangle=args.pc)


def _load_circuit(path):
    try:
        return load_circuit(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad circuit file: {exc}") from None


def _parse_input(text: str):
    if text == "stephenson":
        return resolve_input("stephenson")
    try:
        if text.startswith("werner:"):
            f = float(text.split(":", 1)[1])
            third = 1.0 / 3.0
            return BellDiagonalState(f, third, third, third)
        if text.startswith("belldiag:"):
            f, px, pz, py = (float(v) for v in text.split(":", 1)[1].split(","))
            return BellDiagonalState(f, px, pz, py)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad --input spec {text!r}: {exc}") from None
    raise ValueError(f"bad --input spec {text!r} "
                     "(expected stephenson | werner:F | belldiag:F,px,pz,py)")


# ---------------------------------------------------------------------------
# output helpers

def _emit(text: str, path) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from None


def _table(rows: list, columns: dict, fmt: str, path) -> None:
    """rows: one dict of native values per row, printed whole as JSON; the
    CSV has one column per `columns` key, formatted by its value."""
    if fmt == "json":
        _emit(json.dumps(rows, indent=2) + "\n", path)
        return
    buf = [",".join(columns)]
    for r in rows:
        buf.append(",".join(f(r[k]) for k, f in columns.items()))
    _emit("\n".join(buf) + "\n", path)


def _fmt_bool(v: bool) -> str:
    return str(v).lower()


def _fmt_rate(r: float) -> str:
    # 0.0 marks infeasible cells; .10g keeps Hz values out of e-notation
    return "0.0" if r == 0 else f"{r:.10g}"


def _strict_exit(args, rows: list) -> int:
    all_infeasible = all(not r["feasible"] for r in rows)
    return 1 if args.strict and all_infeasible else 0


# ---------------------------------------------------------------------------
# subcommands

def _cmd_min_ions(args) -> int:
    dev = _device(args)
    distances = _parse_ints(args.distance)
    times = _cycle_times_s(args)
    rows = []
    for d in distances:
        for t in times:
            q = SurgeryQuery(distance=d, cycle_time_s=t,
                             paper_compat=args.paper_compat)
            res = min_ions(q, dev)
            rows.append({"distance": d, "cycle_time_us": t * 1e6,
                         "min_ions": res.answer, "feasible": res.feasible})
    _table(rows, {"distance": str, "cycle_time_us": "{:g}".format, "min_ions": str,
                  "feasible": _fmt_bool}, args.format, args.output)
    return _strict_exit(args, rows)


def _cmd_rate(args) -> int:
    dev = _device(args)
    distances = _parse_ints(args.distance)
    ions = _parse_ints(args.ions)
    rows = []
    for d in distances:
        for n in ions:
            q = SurgeryQuery(distance=d, n_ions=n,
                             paper_compat=args.paper_compat)
            res = max_rate(q, dev)
            rows.append({"distance": d, "n_ions": n, "rate_hz": res.rate_hz,
                         "full_surgery_rate_hz": res.full_surgery_rate_hz,
                         "feasible": res.feasible})
    _table(rows, {"distance": str, "n_ions": str, "rate_hz": _fmt_rate},
           args.format, args.output)
    return _strict_exit(args, rows)


def _cmd_sweep(args) -> int:
    dev = _device(args)
    distances = _parse_ints(args.distances)
    times = _parse_times_s(args.cycle_times_us)
    if not args.pc_from <= args.pc_to:
        raise ValueError("need --pc-from <= --pc-to")
    # NumPy sets both endpoints exactly, so --points 1 gives [--pc-from];
    # sweep_coupling rejects the empty grid of --points 0 and any p_c out of
    # range, also the nan that a negative or infinite endpoint gives here
    with np.errstate(invalid="ignore"):
        grid = np.geomspace(args.pc_from, args.pc_to, args.points).tolist()
    rows = [{"distance": d, "cycle_time_us": t * 1e6, "p_c": pc,
             "min_ions": answer, "feasible": feasible}
            for d, t, pc, answer, feasible in sweep_coupling(
                distances, times, grid, dev, paper_compat=args.paper_compat)]
    _table(rows, {"distance": str, "cycle_time_us": "{:g}".format, "p_c": "{:.9g}".format,
                  "min_ions": str}, args.format, args.output)
    return _strict_exit(args, rows)


def _cmd_purify_simulate(args) -> int:
    circ = _load_circuit(args.circuit)
    out = simulate(circ, _parse_input(args.input), NOISE[args.noise])
    report = {
        "circuit": str(args.circuit),
        "n_pairs": circ.n_pairs,
        "input": args.input,
        "noise": args.noise,
        "success_probability": out.success_probability,
        "output_fidelity": out.output_fidelity,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return 0


def _cmd_purify_search(args) -> int:
    cfg = GaConfig(population_size=args.pop, generations=args.gens,
                   n_pairs=args.n, seed=args.seed)
    ranked = search(cfg, _parse_input(args.input), NOISE[args.noise])
    best = ranked[0]
    report = {
        "n_pairs": cfg.n_pairs,
        "population_size": cfg.population_size,
        "generations": cfg.generations,
        "seed": cfg.seed,
        "input": args.input,
        "noise": args.noise,
        "best_fitness": best.fitness,
        "best_success_probability": best.outcome.success_probability,
        "best_output_fidelity": best.outcome.output_fidelity,
        "circuit": best.circuit.to_dict(),
    }
    if args.circuit_out:
        try:
            save_circuit(best.circuit, args.circuit_out)
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from None
        report["circuit_path"] = str(args.circuit_out)
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return 0


def _cmd_purify_benchmark(args) -> int:
    paths = sorted(Path(args.circuits).glob("*.json"))
    if not paths:
        raise ValueError(f"no circuit JSON files under {args.circuits!r}")
    circuits = [_load_circuit(p) for p in paths]
    rows = [{"n_pairs": row.n_pairs, "success_probability": row.success_probability,
             "output_fidelity": row.output_fidelity, "circuit_path": str(p)}
            for p, row in zip(paths, benchmark_sweep(circuits, NOISE[args.noise]))]
    _table(rows, {"n_pairs": str, "success_probability": "{:.6f}".format,
                  "output_fidelity": "{:.6f}".format, "circuit_path": str},
           args.format, args.output)
    return 0


def _validate_ks(n: int, mean: float) -> list:
    lo = max(1, int(math.floor(mean / 2)))
    mid = max(1, int(round(mean)))
    hi = min(n, max(2, int(math.ceil(1.5 * mean))))
    return sorted({lo, mid, hi})


def _cmd_validate(args) -> int:
    ions = _parse_ints(args.ions)
    attempts = _parse_ints(args.attempts)
    if min(attempts) < 1:
        raise ValueError("attempts must be positive")
    # every check runs before the first draw: attempts_required checks --pc
    # and --p-ls (TrialConfig allows p_c = 0), TrialConfig --trials and --ions.
    # The bracket check populates every ion at least once (k* = n).
    n_b = min(ions)
    a_ana = attempts_required(n_b, args.pc, n_b, args.p_ls)
    configs = [TrialConfig(n_ions=n, p_entangle=args.pc, attempts=a,
                           trials=args.trials, seed=args.seed + point)
               for point, (n, a) in enumerate(itertools.product(ions, attempts))]
    lines = [f"# collection vs analytic: p_c={args.pc:g} "
             f"trials={args.trials} seed={args.seed}"]
    ok = True
    for cfg in configs:
        n, a = cfg.n_ions, cfg.attempts
        res = simulate_collection(cfg)
        p1 = p_onepair(args.pc, a)
        for k in _validate_ks(n, n * p1):
            ana = binomial_tail_geq(n, p1, k)
            emp = res.empirical_tail_geq(k)
            se = math.sqrt(max(ana * (1 - ana), 0.0) / args.trials)
            good = abs(emp - ana) <= 3 * se + 1e-12
            ok &= good
            ztxt = f"{abs(emp - ana) / se:.2f}" if se > 0 else "na"
            lines.append(
                f"tail n={n} attempts={a} k={k} analytic={ana:.6f} "
                f"empirical={emp:.6f} z={ztxt} "
                f"{'PASS' if good else 'FAIL'}")
    lo, hi = empirical_attempts_bracket(n_b, args.pc, n_b, args.p_ls,
                                        args.trials, args.seed + len(configs))
    good = lo <= a_ana and (hi is None or a_ana <= hi)
    ok &= good
    lines.append(f"bracket n={n_b} k_star={n_b} p_ls={args.p_ls:g} "
                 f"analytic={a_ana} empirical_lo={lo} "
                 f"empirical_hi={hi if hi is not None else 'open'} "
                 f"{'PASS' if good else 'FAIL'}")
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if (args.strict and not ok) else 0


# ---------------------------------------------------------------------------
# parser

def _add_common(p, strict: bool = True) -> None:
    p.add_argument("--output", default=None, help="write to file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if strict:
        p.add_argument("--strict", action="store_true",
                       help="exit 1 when every result row is infeasible")


def _add_device(p) -> None:
    p.add_argument("--device", default=None,
                   help="device JSON (default: IONSURGERY_DEVICE or packaged)")
    p.add_argument("--pc", type=float, default=None,
                   help="override the two-photon coupling probability")
    p.add_argument("--paper-compat", action="store_true",
                   help="use the strict population threshold (k* = N_LS + 1)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ionsurgery",
        description="Communication-ion resource estimates and purification "
                    "circuit tools for modular trapped-ion lattice surgery.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("min-ions", help="ion budget per (distance, cycle time)")
    p.add_argument("--distance", default="3..9", help="e.g. 9, 3,5,7 or 3..9")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--cycle-time-us", default=None,
                   help="cycle times in microseconds, e.g. 1000,100,10")
    g.add_argument("--paradigm", choices=(*PARADIGMS, "all"), default=None)
    _add_device(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_min_ions)

    p = sub.add_parser("rate", help="cycle rate per (distance, ion budget)")
    p.add_argument("--distance", default="3..9")
    p.add_argument("--ions", default="100,1000,10000",
                   help="communication-ion budgets, e.g. 100,1000,10000")
    _add_device(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_rate)

    p = sub.add_parser("sweep", help="min ions vs coupling probability")
    p.add_argument("--distances", default="3,6,9")
    p.add_argument("--cycle-times-us", default="1000,100,10")
    p.add_argument("--pc-from", type=float, default=1e-4)
    p.add_argument("--pc-to", type=float, default=1.0)
    p.add_argument("--points", type=int, default=50)
    _add_device(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("purify", help="purification circuit tools")
    psub = p.add_subparsers(dest="purify_command", required=True)

    q = psub.add_parser("simulate", help="run one circuit exactly")
    q.add_argument("--circuit", required=True, help="circuit JSON path")
    q.add_argument("--input", default="stephenson",
                   help="stephenson | werner:F | belldiag:F,px,pz,py")
    q.add_argument("--noise", choices=tuple(NOISE), default="paper")
    _add_common(q, strict=False)
    q.set_defaults(fn=_cmd_purify_simulate)

    q = psub.add_parser("search", help="evolve a purification circuit")
    q.add_argument("--n", type=int, default=3, help="input pairs per circuit")
    q.add_argument("--pop", type=int, default=100)
    q.add_argument("--gens", type=int, default=150)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--input", default="stephenson")
    q.add_argument("--noise", choices=tuple(NOISE), default="paper")
    q.add_argument("--circuit-out", default=None,
                   help="also write the best circuit JSON here")
    _add_common(q, strict=False)
    q.set_defaults(fn=_cmd_purify_search)

    q = psub.add_parser("benchmark", help="re-simulate a circuit directory")
    q.add_argument("--circuits", required=True, help="directory of circuit JSON")
    q.add_argument("--noise", choices=tuple(NOISE), default="paper")
    _add_common(q, strict=False)
    q.set_defaults(fn=_cmd_purify_benchmark)

    p = sub.add_parser("validate", help="Monte Carlo vs analytic collection")
    p.add_argument("--ions", default="100")
    p.add_argument("--attempts", default="500,1000,2000")
    p.add_argument("--pc", type=float, default=2.18e-4)
    p.add_argument("--p-ls", type=float, default=0.999)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output", default=None)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any check fails")
    p.set_defaults(fn=_cmd_validate)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # a bad input value or an unwritable output
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
