"""The benchmark's three workloads: seeded inputs, one pass each, output checks.

A pass runs a workload once through ddapprox's public entry points (the
`ddapprox sweep` CLI, or the library for the dense-vector workload) and
returns its CSV rows plus the three phase times the end-to-end metrics are
built from. Nothing here imports ddapprox at module load: `import_ddapprox`
does, from the checkout's `src/`, so `setup_probe.py` can time the import.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("sim-random", "sweep-sampling", "sweep-fidelity")

# sim-random keeps the gate pattern of `random 12 40 7` and redraws only the
# phase-gate angles from the workload seed. Redrawing the whole circuit moves
# the simulation cost by 5x between seeds (1.4-7.1 s over seeds 0-11); with
# the pattern fixed, the value and unique table sizes stay within ~5%.
SIM_PATTERN = (12, 40, 7)
FIDELITY_GRID = (0.99, 0.9, 0.5)
SAMPLING_GRID = (1000, 3000, 10000, 30000)
THRESHOLD_TRAVERSALS = 10000
THRESHOLD_GRID = (0, 10, 100)
GHZ_QUBITS = 64
DENSE_QUBITS = 15
DENSE_DECAY = 0.6  # amplitude scale per 1-bit of the basis index

NUMPY_FIDELITY_TOL = 1e-9


class SetupError(RuntimeError):
    """The checkout lacks the program's sources."""


def import_ddapprox():
    """Import ddapprox from the checkout's own `src/`, never from elsewhere."""
    if not (SRC / "ddapprox" / "__init__.py").is_file():
        raise SetupError(f"no ddapprox sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ddapprox

    if Path(ddapprox.__file__).resolve().parent != (SRC / "ddapprox").resolve():
        raise SetupError(f"ddapprox imported from {ddapprox.__file__}, not {SRC}")
    return ddapprox


# -- inputs -----------------------------------------------------------------


def sim_random_circuit(seed: int) -> str:
    """Circuit text: the `random 12 40 7` pattern with seeded phase angles."""
    from ddapprox import random_circuit

    n, depth, pattern_seed = SIM_PATTERN
    rng = np.random.default_rng(seed)
    lines = [f"qubits {n}"]
    for g in random_circuit(n, depth, pattern_seed).gates:
        if g.kind == "p":
            lines.append(f"p {2.0 * math.pi * float(rng.random())!r} {g.qubits[0]}")
        else:
            lines.append(" ".join([g.kind, *map(str, g.qubits)]))
    return "\n".join(lines) + "\n"


def dense_vector(seed: int) -> np.ndarray:
    """Complex Gaussian amplitudes scaled by DENSE_DECAY per 1-bit, normalized.

    The decay spreads node contributions over orders of magnitude, so every
    fidelity target dooms a different share of the diagram.
    """
    size = 1 << DENSE_QUBITS
    rng = np.random.default_rng(seed)
    ones = np.array([bin(i).count("1") for i in range(size)])
    v = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * DENSE_DECAY**ones
    return v / np.linalg.norm(v)


@dataclass
class Inputs:
    workload: str
    seed: int
    circuit_path: Path | None = None
    vector: np.ndarray | None = None


def make_inputs(workload: str, seed: int, write: bool = True) -> Inputs:
    """Generate the workload's inputs; `write` puts the circuit file in OUT."""
    if workload == "sim-random":
        text = sim_random_circuit(seed)
        path = OUT / f"sim_random_s{seed}.qc"
        if write:
            OUT.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return Inputs(workload, seed, circuit_path=path)
    if workload == "sweep-sampling":
        return Inputs(workload, seed)
    if workload == "sweep-fidelity":
        return Inputs(workload, seed, vector=dense_vector(seed))
    raise ValueError(f"unknown workload {workload!r}")


# -- one pass -----------------------------------------------------------------


@dataclass
class PassResult:
    rows: list[str]  # CSV rows, header excluded, in output order
    sweep_s: float
    state_s: float
    approx_s: float
    # (scheme name, target, approximated state), sweep-fidelity only
    approximations: list = field(default_factory=list)


class _PhaseTimer:
    """Times the calls `ddapprox sweep` makes to build the state and to run
    each scheme, by rebinding the two names inside `ddapprox.cli`."""

    def __init__(self):
        self.state_s = 0.0
        self.approx_s = 0.0

    def __enter__(self):
        from ddapprox import cli

        self._cli = cli
        self._saved = (cli.simulate, cli.apply_scheme)
        cli.simulate = self._timed(cli.simulate, "state_s")
        cli.apply_scheme = self._timed(cli.apply_scheme, "approx_s")
        return self

    def __exit__(self, *exc):
        self._cli.simulate, self._cli.apply_scheme = self._saved

    def _timed(self, fn, attr):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, attr, getattr(self, attr) + time.perf_counter() - t0)

        return timed


def _sweep_cli(argv: list[str], csv_path: Path) -> list[str]:
    from ddapprox import cli

    code = cli.main(["sweep", *argv, "--csv", str(csv_path)])
    if code != 0:
        raise RuntimeError(f"ddapprox sweep {' '.join(argv)} exited with {code}")
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != cli.CSV_HEADER:
        raise RuntimeError(f"{csv_path} lacks the CSV header")
    return lines[1:]


def _csv_row(benchmark: str, scheme: str, param: float, report) -> str:
    """Same fields and formatting as `ddapprox sweep` writes."""
    return ",".join(
        [
            benchmark,
            scheme,
            repr(param),
            str(report.orig_size),
            str(report.approx_size),
            repr(report.compression),
            repr(report.attained_fidelity),
        ]
    )


def run_pass(inputs: Inputs) -> PassResult:
    """Run the workload once; rows and phase times, output files written."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{inputs.workload}-s{inputs.seed}"
    if inputs.workload == "sim-random":
        t0 = time.perf_counter()
        with _PhaseTimer() as phases:
            rows = _sweep_cli(
                ["--circuit", str(inputs.circuit_path), "--scheme", "target-fidelity",
                 "--grid", ",".join(map(str, FIDELITY_GRID))],
                Path(f"{stem}.csv"),
            )
        return PassResult(rows, time.perf_counter() - t0, phases.state_s, phases.approx_s)
    if inputs.workload == "sweep-sampling":
        ghz = ["--builtin", "ghz", str(GHZ_QUBITS), "--seed", str(inputs.seed)]
        t0 = time.perf_counter()
        with _PhaseTimer() as phases:
            rows = _sweep_cli(
                [*ghz, "--scheme", "sampling", "--grid", ",".join(map(str, SAMPLING_GRID))],
                Path(f"{stem}-sampling.csv"),
            )
            rows += _sweep_cli(
                [*ghz, "--scheme", "threshold", "--traversals", str(THRESHOLD_TRAVERSALS),
                 "--grid", ",".join(map(str, THRESHOLD_GRID))],
                Path(f"{stem}-threshold.csv"),
            )
        return PassResult(rows, time.perf_counter() - t0, phases.state_s, phases.approx_s)
    return _fidelity_pass(inputs, Path(f"{stem}.csv"))


def _fidelity_pass(inputs: Inputs, csv_path: Path) -> PassResult:
    import ddapprox
    from ddapprox.cli import CSV_HEADER

    t0 = time.perf_counter()
    state = ddapprox.DDPackage().from_vector(inputs.vector)
    state_s = time.perf_counter() - t0
    approx_s = 0.0
    rows: list[str] = []
    approximations = []
    benchmark = f"dense_{DENSE_QUBITS}_s{inputs.seed}"
    # Looked up on the package at call time, so a tracer's rebinding applies;
    # approx_target_fidelity's default level is "best".
    schemes = (("target-fidelity", ddapprox.approx_target_fidelity),
               ("per-level", ddapprox.approx_per_level))
    for f in FIDELITY_GRID:
        for name, scheme in schemes:
            t = time.perf_counter()
            out, report = scheme(state, f)
            approx_s += time.perf_counter() - t
            rows.append(_csv_row(benchmark, name, f, report))
            approximations.append((name, f, out))
    csv_path.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    return PassResult(rows, time.perf_counter() - t0, state_s, approx_s, approximations)


# -- checks -------------------------------------------------------------------


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def golden_rows(golden: dict, workload: str, seed: int) -> list[str] | None:
    return golden.get(workload, {}).get(str(seed))


def check_pass(inputs: Inputs, result: PassResult, expected: list[str] | None) -> list[str]:
    """Run every check on one pass's output, one list entry per check.

    An entry is "" when the check held and a failure message when it did
    not, so the caller counts attempted and failed checks from one list.
    `expected` holds the golden rows for this seed, when recorded.
    """
    outcomes: list[str] = []

    def check(ok: bool, message: str) -> None:
        outcomes.append("" if ok else message)

    rows = result.rows
    check(len(rows) == _expected_row_count(inputs.workload), f"{len(rows)} rows")
    if expected is not None:
        check(len(rows) == len(expected), "row count differs from golden")
        for got, want in zip(rows, expected):
            g, w = got.split(","), want.split(",")
            # orig size, approx size and the repr of the fidelity
            check(g[3:5] == w[3:5] and g[6] == w[6], f"row {got!r} != golden {want!r}")
    n = _qubits(inputs.workload)
    for row in rows:
        fields = row.split(",")
        scheme, param, fid = fields[1], float(fields[2]), float(fields[6])
        if scheme == "target-fidelity":
            check(fid >= param, f"fidelity {fid!r} below target in {row!r}")
        elif scheme == "per-level":
            check(fid >= param ** (n - 1), f"fidelity {fid!r} below f^(n-1) in {row!r}")
        check(int(fields[4]) <= int(fields[3]), f"approximation grew in {row!r}")
    for (name, f, out), row in zip(result.approximations, rows):
        # the reference is the input vector, never the diagram code
        attained = float(row.split(",")[6])
        w = out.to_vector()
        dense = abs(np.vdot(inputs.vector, w)) ** 2
        check(
            abs(dense - attained) <= NUMPY_FIDELITY_TOL,
            f"{name}({f}) fidelity {attained!r} but numpy gives {dense!r}",
        )
    return outcomes


def _expected_row_count(workload: str) -> int:
    if workload == "sweep-sampling":
        return len(SAMPLING_GRID) + len(THRESHOLD_GRID)
    if workload == "sweep-fidelity":
        return 2 * len(FIDELITY_GRID)
    return len(FIDELITY_GRID)


def _qubits(workload: str) -> int:
    return {"sim-random": SIM_PATTERN[0], "sweep-sampling": GHZ_QUBITS,
            "sweep-fidelity": DENSE_QUBITS}[workload]
