"""Command line front end: table formats, exit codes, device resolution."""

import json
from pathlib import Path

import pytest

import ionsurgery as isg
from ionsurgery import cli
from ionsurgery.cli import main


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# min-ions

def test_min_ions_perfect_coupling_row(capsys):
    code, out = run(capsys, ["min-ions", "--distance", "1",
                             "--cycle-time-us", "1000", "--pc", "1"])
    assert code == 0
    assert out == "distance,cycle_time_us,min_ions,feasible\n1,1000,15,true\n"


def test_min_ions_paradigm_grid(capsys):
    code, out = run(capsys, ["min-ions", "--distance", "9", "--paradigm", "all"])
    assert code == 0
    assert out.splitlines() == [
        "distance,cycle_time_us,min_ions,feasible",
        "9,1000,867,true",
        "9,100,8038,true",
        "9,10,79770,true",
    ]


def test_min_ions_paper_compat(capsys):
    _, out = run(capsys, ["min-ions", "--distance", "9", "--paradigm",
                          "t1000us", "--paper-compat"])
    assert out.splitlines()[1] == "9,1000,872,true"


def test_min_ions_range_and_json(capsys):
    code, out = run(capsys, ["min-ions", "--distance", "3..5",
                             "--paradigm", "t1000us", "--format", "json"])
    rows = json.loads(out)
    assert [r["distance"] for r in rows] == [3, 4, 5]
    assert all(set(r) == {"distance", "cycle_time_us", "min_ions", "feasible"}
               for r in rows)
    assert rows[0]["feasible"] is True
    assert rows[0]["cycle_time_us"] == 1000.0


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out = run(capsys, ["min-ions", "--distance", "1",
                             "--cycle-time-us", "1000", "--pc", "1",
                             "--output", str(path)])
    assert code == 0 and out == ""
    assert path.read_text() == \
        "distance,cycle_time_us,min_ions,feasible\n1,1000,15,true\n"


# ---------------------------------------------------------------------------
# rate

def test_rate_reference_rows(capsys):
    code, out = run(capsys, ["rate", "--distance", "5,7", "--ions", "100"])
    assert code == 0
    assert out.splitlines() == [
        "distance,n_ions,rate_hz",
        "5,100,110.5216622",
        "7,100,0.0",
    ]


def test_rate_strict_exit_when_everything_infeasible(capsys):
    code, _ = run(capsys, ["rate", "--distance", "7", "--ions", "100",
                           "--strict"])
    assert code == 1
    # a single feasible row keeps the exit clean
    code, _ = run(capsys, ["rate", "--distance", "5,7", "--ions", "100",
                           "--strict"])
    assert code == 0


def test_rate_json_carries_raw_fields(capsys):
    _, out = run(capsys, ["rate", "--distance", "9", "--ions", "1000,10000",
                          "--format", "json"])
    rows = json.loads(out)
    assert rows[0]["rate_hz"] == pytest.approx(1168.2242990654206, rel=1e-12)
    assert rows[1]["rate_hz"] == pytest.approx(12345.67901234568, rel=1e-12)
    for r in rows:
        assert r["feasible"] is True
        assert r["full_surgery_rate_hz"] == pytest.approx(r["rate_hz"] / 9,
                                                          rel=1e-12)


def test_rate_perfect_coupling_prints_plain_integer(capsys):
    _, out = run(capsys, ["rate", "--distance", "3", "--ions", "45",
                          "--pc", "1"])
    assert out.splitlines()[1] == "3,45,1000000"


# ---------------------------------------------------------------------------
# sweep

def test_sweep_single_point(capsys):
    code, out = run(capsys, ["sweep", "--distances", "3",
                             "--cycle-times-us", "1000", "--pc-from", "0.01",
                             "--pc-to", "0.01", "--points", "1"])
    assert code == 0
    assert out == "distance,cycle_time_us,p_c,min_ions\n3,1000,0.01,46\n"


def test_sweep_block_is_monotone_in_coupling(capsys):
    _, out = run(capsys, ["sweep", "--distances", "6",
                          "--cycle-times-us", "100", "--pc-from", "1e-4",
                          "--pc-to", "1", "--points", "12"])
    lines = out.splitlines()
    assert lines[0] == "distance,cycle_time_us,p_c,min_ions"
    ions = [int(l.split(",")[3]) for l in lines[1:]]
    assert len(ions) == 12
    assert ions == sorted(ions, reverse=True)
    assert ions[-1] == 90  # plateau at the d=6 pair demand


def test_sweep_compat_plateaus_one_higher(capsys):
    _, out = run(capsys, ["sweep", "--distances", "3,6,9",
                          "--cycle-times-us", "1000", "--pc-from", "1",
                          "--pc-to", "1", "--points", "1", "--paper-compat"])
    plateaus = [int(l.split(",")[3]) for l in out.splitlines()[1:]]
    assert plateaus == [46, 91, 136]


# ---------------------------------------------------------------------------
# purify

@pytest.fixture()
def circuit_dir(tmp_path):
    d = tmp_path / "circs"
    d.mkdir()
    isg.save_circuit(isg.bbpssw_circuit(), d / "bbpssw.json")
    isg.save_circuit(isg.dejmps_circuit(), d / "dejmps.json")
    return d


def test_purify_simulate_report(capsys, circuit_dir):
    code, out = run(capsys, ["purify", "simulate",
                             "--circuit", str(circuit_dir / "bbpssw.json"),
                             "--input", "werner:0.94", "--noise", "none"])
    assert code == 0
    rep = json.loads(out)
    assert rep["n_pairs"] == 2
    assert rep["success_probability"] == pytest.approx(0.9232, abs=1e-12)
    assert rep["output_fidelity"] == pytest.approx(0.884 / 0.9232, abs=1e-12)


def test_purify_simulate_default_input_is_rotated_pair(capsys):
    # default --input resolves the measured-pair preset, not a literal string
    fixture = Path(__file__).resolve().parents[1] / "circuits" / "ga_3to1.json"
    code, out = run(capsys, ["purify", "simulate", "--circuit", str(fixture)])
    assert code == 0
    rep = json.loads(out)
    assert rep["input"] == "stephenson"
    assert rep["success_probability"] == pytest.approx(0.820863, abs=1e-6)
    assert rep["output_fidelity"] == pytest.approx(0.990378, abs=1e-6)


def test_purify_simulate_belldiag_input(capsys, circuit_dir):
    code, out = run(capsys, ["purify", "simulate",
                             "--circuit", str(circuit_dir / "dejmps.json"),
                             "--input", "belldiag:0.9,0.5,0.3,0.2",
                             "--noise", "none"])
    assert code == 0
    assert 0 < json.loads(out)["success_probability"] <= 1


def test_purify_search_small_run_round_trips(capsys, tmp_path):
    saved = tmp_path / "best.json"
    argv = ["purify", "search", "--n", "3", "--pop", "4", "--gens", "2",
            "--seed", "3", "--circuit-out", str(saved)]
    code, out = run(capsys, argv)
    assert code == 0
    rep = json.loads(out)
    assert rep["circuit"]["n_pairs"] == 3
    circ = isg.load_circuit(saved)
    assert circ.to_dict() == rep["circuit"]
    # deterministic rerun
    code, out2 = run(capsys, argv)
    assert out2 == out


def test_purify_benchmark_table(capsys, circuit_dir):
    code, out = run(capsys, ["purify", "benchmark",
                             "--circuits", str(circuit_dir), "--noise", "none"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n_pairs,success_probability,output_fidelity,circuit_path"
    assert lines[1].startswith("2,0.970450,0.900094,")
    assert lines[2].startswith("2,0.894255,0.973914,")
    assert lines[1].endswith("bbpssw.json") and lines[2].endswith("dejmps.json")


# ---------------------------------------------------------------------------
# validate

def test_validate_report_passes_and_reruns_identically(capsys):
    argv = ["validate", "--trials", "2000", "--seed", "7"]
    code, out = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# collection vs analytic:")
    assert all(l.endswith(" PASS") for l in lines[1:-1])
    assert any(l.startswith("bracket ") for l in lines)
    assert lines[-1] == "verdict: PASS"
    _, out2 = run(capsys, argv)
    assert out2 == out


def test_validate_strict_passes_cleanly(capsys):
    code, _ = run(capsys, ["validate", "--trials", "2000", "--seed", "7",
                           "--strict"])
    assert code == 0


def test_validate_tiny_run_does_not_crash(capsys):
    code, out = run(capsys, ["validate", "--trials", "1", "--ions", "20",
                             "--attempts", "50"])
    assert code == 0
    assert out.splitlines()[-1].startswith("verdict:")


# ---------------------------------------------------------------------------
# device resolution

def test_env_device_and_flag_precedence(capsys, tmp_path, monkeypatch):
    perfect = tmp_path / "perfect.json"
    perfect.write_text(json.dumps({"p_c": 1.0}))
    monkeypatch.setenv("IONSURGERY_DEVICE", str(perfect))
    _, out = run(capsys, ["min-ions", "--distance", "1",
                          "--cycle-time-us", "1000"])
    assert out.splitlines()[1] == "1,1000,15,true"
    # an explicit --device wins over the environment
    packaged = tmp_path / "weak.json"
    packaged.write_text(json.dumps({"p_c": 2.18e-4}))
    _, out = run(capsys, ["min-ions", "--distance", "1",
                          "--cycle-time-us", "1000", "--device",
                          str(packaged)])
    assert out.splitlines()[1] != "1,1000,15,true"


def test_broken_env_device_is_a_usage_error(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    monkeypatch.setenv("IONSURGERY_DEVICE", str(bad))
    with pytest.raises(SystemExit) as exc:
        main(["min-ions", "--distance", "3", "--paradigm", "t1000us"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["min-ions", "--paradigm", "t1000us"],
                                     ["rate", "--ions", "100"]])
@pytest.mark.parametrize("device", [{"R": float("inf")}, {"R": float("nan")},
                                    {"N_p": 3.5}, {"N_p": "3"},
                                    {"p_c": True}, {"R": "1e6"}, {"F_ideal": None},
                                    [], 3, None, "x"])
def test_non_finite_rate_or_non_integer_pair_count_is_a_usage_error(
        capsys, tmp_path, command, device):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(device))
    with pytest.raises(SystemExit) as exc:
        main([*command, "--distance", "3", "--device", str(path)])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# usage errors

@pytest.mark.parametrize("argv", [
    ["min-ions", "--distance", "3..x", "--paradigm", "t1000us"],
    ["min-ions", "--distance", "3", "--cycle-time-us", "1000",
     "--paradigm", "t1000us"],  # mutually exclusive
    ["min-ions", "--distance", "3", "--cycle-time-us", "-5"],
    ["min-ions", "--distance", "3", "--paradigm", "t1000us", "--pc", "0"],
    ["rate", "--distance", "3", "--ions", "1.5"],
    ["sweep", "--distances", "3", "--cycle-times-us", "1000",
     "--pc-from", "0.1", "--pc-to", "0.01"],
    ["sweep", "--distances", "3", "--cycle-times-us", "1000", "--points", "0"],
    ["purify", "simulate", "--circuit", "/nonexistent/c.json"],
    ["validate", "--trials", "0"],
    ["validate", "--p-ls", "1.5"],
    ["validate", "--p-ls", "0"],
    ["validate", "--p-ls", "nan"],
    ["min-ions", "--distance", "0", "--paradigm", "t1000us"],
    ["rate", "--distance", "3", "--ions", "0"],
    ["rate", "--distance", "3", "--ions", "100", "--pc", "1e-21"],  # past 2**62 attempts
    ["nonsense"],
    ["min-ions", "--distance", "3", "--cycle-time-us", "nan"],
    ["min-ions", "--distance", "3", "--cycle-time-us", "1000,inf"],
    ["sweep", "--distances", "3", "--cycle-times-us", "nan"],
    ["sweep", "--distances", "3", "--cycle-times-us", "-5"],
    ["min-ions", "--distance", "3", "--paradigm", "t1000us",
     "--output", "/nonexistent/x.csv"],
    ["purify", "search", "--n", "3", "--pop", "4", "--gens", "2",
     "--circuit-out", "/nonexistent/c.json"],
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_bad_input_spec_exits_2(capsys, tmp_path):
    path = tmp_path / "c.json"
    isg.save_circuit(isg.bbpssw_circuit(), path)
    for spec in ("werner:x", "belldiag:0.9,0.1", "ghz"):
        with pytest.raises(SystemExit) as exc:
            main(["purify", "simulate", "--circuit", str(path),
                  "--input", spec])
        assert exc.value.code == 2


def test_circuit_file_with_unknown_key_or_float_count_exits_2(capsys, tmp_path):
    raw = isg.bbpssw_circuit().to_dict()
    op = raw["ops"][0]
    docs = [{**raw, **edit} for edit in (
        {"comment": "x"}, {"n_pairs": 2.5}, {"ops": [1]}, {"ops": "ab"},
        {"ops": None}, {"accept": [3]}, {"ops": [{**op, "kind": ["cnot"]}]})]
    for doc in docs + [[]]:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["purify", "simulate", "--circuit", str(path)])
        assert exc.value.code == 2


def test_benchmark_empty_directory_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["purify", "benchmark", "--circuits", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("to_file", [False, True])
def test_library_error_after_solved_rows_writes_nothing(capsys, tmp_path,
                                                        monkeypatch, to_file):
    solved = []

    def counting_min_ions(q, dev):
        solved.append(q)
        return isg.min_ions(q, dev)

    monkeypatch.setattr(cli, "min_ions", counting_min_ions)
    path = tmp_path / "table.csv"
    argv = ["min-ions", "--distance", "3", "--cycle-time-us", "1000,nan"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(path)] if to_file else argv)
    assert exc.value.code == 2
    assert len(solved) == 1  # the 1000 us row was solved before nan was rejected
    assert capsys.readouterr().out == ""
    assert not path.exists()


@pytest.mark.parametrize("argv", [["validate", "--p-ls", "1.5"],
                                  ["validate", "--pc", "0"],
                                  ["validate", "--ions", "100,0"]])
def test_validate_rejects_bad_values_before_any_draw(capsys, monkeypatch, argv):
    def no_draws(*_):
        raise AssertionError("Monte Carlo ran")

    monkeypatch.setattr(cli, "simulate_collection", no_draws)
    monkeypatch.setattr(cli, "empirical_attempts_bracket", no_draws)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pc_from, pc_to", [("-1", "1"), ("0.1", "inf"), ("0", "1")])
def test_out_of_range_sweep_endpoints_are_one_usage_error(capsys, pc_from, pc_to):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--distances", "3", "--cycle-times-us", "1000",
              "--pc-from", pc_from, "--pc-to", pc_to, "--points", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].startswith("ionsurgery: error:")
