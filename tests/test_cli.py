import gc
import hashlib
import importlib
import math

import numpy as np
import pytest

from ddapprox import DDPackage, fidelity
from ddapprox.cli import CSV_HEADER, DEMO_STATES, main

from conftest import DEMO_VECTOR


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_demo_state_matches_library_vector():
    assert np.allclose(np.array(DEMO_STATES["fig2"]), DEMO_VECTOR, atol=1e-15)


def test_run_demo_target_fidelity(capsys, tmp_path):
    csv = tmp_path / "row.csv"
    code, out, err = run_cli(
        capsys,
        "run",
        "--builtin",
        "fig2",
        "--scheme",
        "target-fidelity",
        "--fidelity",
        "0.5",
        "--csv",
        str(csv),
    )
    assert code == 0, err
    assert "size 6 -> 3" in out
    assert "compression 0.500000" in out
    assert "fidelity 0.800000" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "fig2"
    assert fields[1] == "target-fidelity"
    assert fields[3] == "6" and fields[4] == "3"
    assert float(fields[5]) == 0.5
    assert abs(float(fields[6]) - 0.8) < 1e-9


def test_run_ghz_high_target_keeps_everything(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--builtin",
        "ghz",
        "10",
        "--scheme",
        "target-fidelity",
        "--fidelity",
        "0.99",
    )
    assert code == 0
    assert "compression 1.000000" in out
    assert "fidelity 1.000000" in out


def test_run_circuit_file_and_artifacts(capsys, tmp_path):
    circuit = tmp_path / "bell.qc"
    circuit.write_text("qubits 2\nh 0\ncx 0 1\n")
    before = tmp_path / "before.dot"
    after = tmp_path / "after.dot"
    dump = tmp_path / "vec.txt"
    code, out, _ = run_cli(
        capsys,
        "run",
        "--circuit",
        str(circuit),
        "--scheme",
        "sampling",
        "--traversals",
        "100",
        "--seed",
        "1",
        "--dot-before",
        str(before),
        "--dot-after",
        str(after),
        "--dump-vector",
        str(dump),
    )
    assert code == 0
    assert out.startswith("bell:")
    assert before.read_text().startswith("digraph")
    assert after.read_text().startswith("digraph")
    rows = [line.split() for line in dump.read_text().splitlines()]
    vec = np.array([float(r) + 1j * float(i) for r, i in rows])
    want = np.zeros(4, dtype=complex)
    want[0] = want[3] = 1 / math.sqrt(2)
    assert np.allclose(vec, want, atol=1e-9)


def test_run_reported_fidelity_recomputes(capsys, tmp_path):
    csv = tmp_path / "row.csv"
    code, _, _ = run_cli(
        capsys,
        "run",
        "--builtin",
        "random",
        "10",
        "30",
        "7",
        "--scheme",
        "sampling",
        "--traversals",
        "10000",
        "--seed",
        "3",
        "--csv",
        str(csv),
    )
    assert code == 0
    reported = float(csv.read_text().splitlines()[1].split(",")[6])

    from ddapprox import approx_sampling, random_circuit, simulate

    pkg = DDPackage()
    state = simulate(random_circuit(10, 30, 7), pkg)
    out, _ = approx_sampling(state, 10000, seed=3)
    assert abs(reported - fidelity(state, out)) < 1e-9


def test_run_qft_builtin_with_fixed_level(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--builtin",
        "qft",
        "5",
        "--scheme",
        "target-fidelity",
        "--fidelity",
        "0.5",
        "--level",
        "4",
    )
    assert code == 0
    assert out.startswith("qft_5:")
    code, _, err = run_cli(
        capsys,
        "run",
        "--builtin",
        "qft",
        "3",
        "--scheme",
        "target-fidelity",
        "--fidelity",
        "0.5",
        "--level",
        "nope",
    )
    assert code == 2
    assert "level" in err


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 3\nh 2\nbadop 1\n")
    code, _, err = run_cli(
        capsys, "run", "--circuit", str(bad), "--scheme", "sampling", "--traversals", "10"
    )
    assert code == 2
    assert "line 3" in err


def test_exit_code_io_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "run",
        "--circuit",
        str(tmp_path / "missing.qc"),
        "--scheme",
        "sampling",
        "--traversals",
        "10",
    )
    assert code == 4
    assert "error" in err


def test_exit_code_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, "run", "--builtin", "fig2", "--scheme", "sampling"
    )  # missing --traversals
    assert code == 2
    code, _, err = run_cli(
        capsys, "run", "--builtin", "nosuch", "--scheme", "per-level", "--fidelity", "0.5"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys,
        "run",
        "--builtin",
        "fig2",
        "--scheme",
        "threshold",
        "--traversals",
        "10",
        "--tau",
        "10",
    )
    assert code == 2


def test_bad_grid_value_exits_before_the_state_is_built(capsys, monkeypatch):
    import ddapprox.cli as cli

    def build_state(args, scheme):
        raise AssertionError("the state was built before the grid was checked")

    monkeypatch.setattr(cli, "_build_state", build_state)
    code, out, err = run_cli(
        capsys, "sweep", "--builtin", "random", "12", "40", "7",
        "--scheme", "target-fidelity", "--grid", "0.9,abc",
    )
    assert code == 2
    assert out == ""
    assert "abc" in err


@pytest.fixture
def no_simulation(monkeypatch):
    import ddapprox.cli as cli

    def simulate(*args, **kwargs):
        raise AssertionError("the state was simulated before --level was checked")

    monkeypatch.setattr(cli, "simulate", simulate)


def test_level_out_of_range_exits_before_simulation(capsys, tmp_path, no_simulation):
    code, out, err = run_cli(
        capsys, "sweep", "--builtin", "random", "12", "40", "7",
        "--scheme", "target-fidelity", "--level", "99", "--grid", "0.9",
    )
    assert (code, out) == (2, "")
    assert "level must lie in [0, 12)" in err
    circuit = tmp_path / "four.qc"
    circuit.write_text("qubits 4\nh 0\ncx 0 3\n", encoding="utf-8")
    dot = tmp_path / "before.dot"
    code, out, err = run_cli(
        capsys, "run", "--circuit", str(circuit), "--scheme", "target-fidelity",
        "--fidelity", "0.9", "--level", "4", "--dot-before", str(dot),
    )
    assert (code, out) == (2, "")
    assert "level must lie in [0, 4)" in err
    assert not dot.exists()
    fig2 = ("run", "--builtin", "fig2", "--scheme", "target-fidelity", "--fidelity", "0.5")
    code, _, err = run_cli(capsys, *fig2, "--level", "3")
    assert code == 2
    assert "level must lie in [0, 3)" in err
    code, out, _ = run_cli(capsys, *fig2, "--level", "2")
    assert code == 0
    assert out.startswith("fig2:")


def test_usage_error_writes_no_dot_file(capsys, tmp_path):
    dot = tmp_path / "before.dot"
    code, _, err = run_cli(
        capsys, "run", "--builtin", "fig2", "--scheme", "sampling", "--dot-before", str(dot)
    )
    assert code == 2
    assert "--traversals" in err
    assert not dot.exists()


def test_exit_code_recursion_too_deep(capsys, tmp_path):
    # the gate kernel recurses once per level down to the gate's qubit
    circuit = tmp_path / "deep.qc"
    circuit.write_text("qubits 1500\nx 1499\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "run", "--circuit", str(circuit), "--scheme", "sampling", "--traversals", "10"
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: diagram too deep for Python's recursion limit")


# at tau = 50 no node of this state survives the threshold
RANDOM_THRESHOLD = (
    "--builtin", "random", "10", "30", "3",
    "--scheme", "threshold", "--traversals", "500", "--seed", "7",
)


def test_exit_code_zeroed_state(capsys):
    code, out, err = run_cli(capsys, "run", *RANDOM_THRESHOLD, "--tau", "50")
    assert code == 3
    assert out == ""
    assert "probability mass" in err


def test_sweep_writes_surviving_rows_when_a_value_zeroes_the_state(capsys, tmp_path):
    csv = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        capsys, "sweep", *RANDOM_THRESHOLD, "--grid", "0,5,50", "--csv", str(csv)
    )
    assert code == 3
    assert err.splitlines() == [
        "error: threshold(50): elimination removed all probability mass"
    ]
    lines = csv.read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["0", "5"]
    code, out, _ = run_cli(capsys, "sweep", *RANDOM_THRESHOLD, "--grid", "0,5")
    assert code == 0
    assert out.splitlines() == lines


def test_sweep_target_fidelity_columns(capsys, tmp_path):
    csv = tmp_path / "sweep.csv"
    grid = ",".join(str(round(0.1 * k, 1)) for k in range(1, 11))
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--builtin",
        "random",
        "7",
        "16",
        "5",
        "--scheme",
        "target-fidelity",
        "--grid",
        grid,
        "--csv",
        str(csv),
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11
    rel_sizes = []
    for line in lines[1:]:
        fields = line.split(",")
        target = float(fields[2])
        assert float(fields[6]) >= target  # guarantee holds columnwise
        rel_sizes.append(float(fields[5]))
    assert rel_sizes == sorted(rel_sizes)  # size grows with the target
    assert rel_sizes[-1] == 1.0  # f = 1.0 keeps the whole diagram


def test_sweep_stdout_when_no_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--builtin",
        "ghz",
        "4",
        "--scheme",
        "sampling",
        "--grid",
        "10,100",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_sweep_csv_byte_stable(capsys, tmp_path):
    args = (
        "sweep",
        "--builtin",
        "random",
        "6",
        "14",
        "9",
        "--scheme",
        "threshold",
        "--traversals",
        "500",
        "--grid",
        "0,1,2,4,8",
        "--seed",
        "2",
    )
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--csv", str(f1))[0] == 0
    assert run_cli(capsys, *args, "--csv", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


# Exact rows. The value table keeps the first value that arrives in each
# tolerance ball, so a change in the order of value-table lookups (in gate
# application, sampling, elimination or fidelity) changes these bytes.
PINNED_SWEEPS = {
    "sampling": (
        ("--builtin", "random", "10", "30", "3", "--scheme", "sampling",
         "--grid", "10,100,1000", "--seed", "3"),
        [
            "random_10_30_3,sampling,10,202,58,0.2871287128712871,0.3149520127128645",
            "random_10_30_3,sampling,100,202,141,0.698019801980198,0.7644357142648761",
            "random_10_30_3,sampling,1000,202,202,1.0,1.0",
        ],
    ),
    "threshold": (
        ("--builtin", "random", "10", "30", "3", "--scheme", "threshold",
         "--traversals", "500", "--seed", "7", "--grid", "0,1,2,5,9"),
        [
            "random_10_30_3,threshold,0,202,188,0.9306930693069307,0.9592867298028849",
            "random_10_30_3,threshold,1,202,172,0.8514851485148515,0.904088685920716",
            "random_10_30_3,threshold,2,202,151,0.7475247524752475,0.8343890815193975",
            "random_10_30_3,threshold,5,202,107,0.5297029702970297,0.6922168683031309",
            "random_10_30_3,threshold,9,202,71,0.35148514851485146,0.505552176143028",
        ],
    ),
    "per-level": (
        ("--builtin", "random", "10", "30", "7", "--scheme", "per-level",
         "--grid", "0.99,0.9,0.5"),
        [
            "random_10_30_7,per-level,0.99,79,79,1.0,1.0",
            "random_10_30_7,per-level,0.9,79,77,0.9746835443037974,0.904902318763601",
            "random_10_30_7,per-level,0.5,79,24,0.3037974683544304,0.11834729861081525",
        ],
    ),
    # 28 of this state's 34 nodes are not kept as they are (they or a node
    # below them are not fixed points of make_node), so elimination must
    # rebuild them even where no doomed node lies below
    "target-fidelity": (
        ("--builtin", "random", "9", "24", "5", "--scheme", "target-fidelity",
         "--level", "best", "--grid", "0.99,0.9,0.5"),
        [
            "random_9_24_5,target-fidelity,0.99,34,34,1.0,1.0",
            "random_9_24_5,target-fidelity,0.9,34,32,0.9411764705882353,0.9430848588517761",
            "random_9_24_5,target-fidelity,0.5,34,21,0.6176470588235294,0.5792545765553347",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_sweep_rows_pinned(capsys, name):
    args, rows = PINNED_SWEEPS[name]
    code, out, err = run_cli(capsys, "sweep", *args)
    assert code == 0, err
    assert out.splitlines() == [CSV_HEADER, *rows]


# The acceptance sweeps. Their stdout, concatenated in this order, has had
# one md5 since the sweep CSV format was fixed; a change that moves any byte
# of it changes results and must say so.
ACCEPTANCE_SWEEPS = (
    "--builtin random 10 30 3 --scheme threshold --traversals 500 --seed 7 --grid 0,1,2,5,9",
    "--builtin qft 8 --scheme target-fidelity --grid 0.99,0.9,0.5,0.1",
    "--builtin random 10 30 7 --scheme per-level --grid 0.99,0.9,0.5",
    "--builtin random 10 30 7 --scheme target-fidelity --level 4 --grid 0.99,0.9,0.5",
    "--builtin ghz 20 --scheme sampling --seed -1 --grid 1,10,100",
)


def test_acceptance_sweeps_md5(capsys):
    out = []
    for args in ACCEPTANCE_SWEEPS:
        code, text, err = run_cli(capsys, "sweep", *args.split())
        assert code == 0, err
        out.append(text)
    assert hashlib.md5("".join(out).encode()).hexdigest() == "3fa0cd27508220f6f5c4cbdda7a3e961"


def test_sweep_runs_with_the_collector_paused(capsys, monkeypatch):
    # Each paused library call leaves young objects behind. Unless main keeps
    # the collector paused throughout, it rescans them between the calls.
    cli = importlib.import_module("ddapprox.cli")
    sweep = cli._cmd_sweep
    inside, starts = [False], []

    def traced(args):
        inside[0] = True
        code = sweep(args)
        inside[0] = False
        return code

    def record(phase, info):
        if phase == "start" and inside[0]:
            starts.append(info["generation"])

    monkeypatch.setattr(cli, "_cmd_sweep", traced)
    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        code, _, err = run_cli(
            capsys, "sweep", "--builtin", "random", "8", "20", "3",
            "--scheme", "target-fidelity", "--grid", "0.99,0.9,0.5",
        )
    finally:
        gc.callbacks.remove(record)
    assert code == 0, err
    assert starts == []
    assert gc.isenabled()


def test_csv_byte_stable_across_processes(tmp_path):
    import subprocess
    import sys

    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (f1, f2):
        proc = subprocess.run(
            [
                sys.executable, "-m", "ddapprox.cli",
                "sweep", "--builtin", "random", "6", "12", "3",
                "--scheme", "sampling", "--grid", "10,100", "--seed", "5",
                "--csv", str(path),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert f1.read_bytes() == f2.read_bytes()
