"""Command-line driver: build a state, approximate it, report the trade-off.

Exit codes: 0 success, 2 parse/usage errors and states too deep for the
recursive walks, 3 the approximation zeroed the whole state (for `sweep`: at
one or more grid values, whose rows are left out while the other rows are
still written), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .approx import PerLevelFidelity, Sampling, Scheme, TargetFidelity, Threshold, apply_scheme
from .circuits import Circuit, ghz, parse, qft, random_circuit, simulate
from .dd import DDPackage, StateDD, _gc_paused
from .errors import DDError, ZeroStateError

_S10 = math.sqrt(10.0)

#: Named demo states runnable without a circuit file.
DEMO_STATES = {
    "fig2": (0.0, 2 / _S10, 0.0, 2 / _S10, 1 / _S10, 0.0, 0.0, -1 / _S10),
}

CSV_HEADER = "benchmark,scheme,param,orig_size,approx_size,compression,fidelity"


def _build_cli() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddapprox",
        description="Represent a quantum state as a decision diagram and "
        "approximate it, trading fidelity for size.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "one state, one scheme, one report row"),
        ("sweep", "grid over the scheme parameter, CSV output"),
    ):
        sp = sub.add_parser(name, help=help_text)
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--circuit", metavar="PATH", help="circuit file to simulate")
        src.add_argument(
            "--builtin",
            nargs="+",
            metavar="ARG",
            help="fig2 | ghz N | qft N | random N DEPTH SEED",
        )
        sp.add_argument(
            "--scheme",
            required=True,
            choices=["sampling", "threshold", "target-fidelity", "per-level"],
        )
        sp.add_argument("--traversals", type=int, help="walk count L")
        sp.add_argument("--tau", type=int, help="visit-count threshold")
        sp.add_argument(
            "--fidelity", type=float, dest="target_fidelity", help="fidelity target f"
        )
        sp.add_argument("--level", default="best", help='"best" or a level index')
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--csv", metavar="PATH", help="write the report as CSV")
        if name == "run":
            sp.add_argument("--dot-before", metavar="PATH")
            sp.add_argument("--dot-after", metavar="PATH")
            sp.add_argument("--dump-vector", metavar="PATH")
        else:
            sp.add_argument(
                "--grid",
                required=True,
                help="comma-separated values for the scheme parameter",
            )
    return parser


def _source(args) -> tuple[str, Circuit | tuple]:
    """The benchmark name and the circuit or demo vector of the state named
    by `args`; nothing is simulated yet."""
    if args.circuit:
        text = Path(args.circuit).read_text(encoding="utf-8")
        return Path(args.circuit).stem, parse(text)
    name, *params = spec = args.builtin
    if name in DEMO_STATES:
        if params:
            raise ValueError(f"builtin {name} takes no parameters")
        return name, DEMO_STATES[name]
    # (builder, argument count) per family, read per call: a tracer may rebind the names
    circuits = {"ghz": (ghz, 1), "qft": (qft, 1), "random": (random_circuit, 3)}
    build, arity = circuits.get(name, (None, None))
    if len(params) != arity:
        raise ValueError(f"unknown builtin source {spec!r}")
    try:
        ints = [int(p) for p in params]
        return "_".join([name, *map(str, ints)]), build(*ints)
    except ValueError as exc:
        raise ValueError(f"bad builtin arguments {spec!r}: {exc}") from None


def _build_state(args, scheme: Scheme) -> tuple[str, StateDD]:
    """The benchmark name and the state named by `args`, built in a new
    package once `scheme`'s level, which every grid value shares, is known
    to fit its qubit count."""
    benchmark, source = _source(args)
    circuit = isinstance(source, Circuit)
    if isinstance(scheme, TargetFidelity):
        scheme.levels(source.n if circuit else len(source).bit_length() - 1)
    pkg = DDPackage()
    return benchmark, simulate(source, pkg) if circuit else pkg.from_vector(source)


def _parse_level(text: str):
    if text == "best":
        return "best"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f'--level must be "best" or an integer, got {text!r}') from None


def _make_scheme(args, override: str | None = None) -> Scheme:
    kind = args.scheme
    if kind == "sampling":
        value = int(override) if override is not None else args.traversals
        if value is None:
            raise ValueError("sampling needs --traversals")
        return Sampling(value, args.seed)
    if kind == "threshold":
        if args.traversals is None:
            raise ValueError("threshold needs --traversals")
        value = int(override) if override is not None else args.tau
        if value is None:
            raise ValueError("threshold needs --tau")
        return Threshold(args.traversals, value, args.seed)
    value = float(override) if override is not None else args.target_fidelity
    if value is None:
        raise ValueError(f"{kind} needs --fidelity")
    if kind == "target-fidelity":
        return TargetFidelity(value, _parse_level(args.level))
    return PerLevelFidelity(value)


def _csv_row(benchmark: str, scheme: Scheme, report) -> str:
    param = scheme.param
    param_text = repr(param) if isinstance(param, float) else str(param)
    return ",".join(
        [
            benchmark,
            scheme.name,
            param_text,
            str(report.orig_size),
            str(report.approx_size),
            repr(report.compression),
            repr(report.attained_fidelity),
        ]
    )


def _human_row(benchmark: str, scheme: Scheme, report) -> str:
    return (
        f"{benchmark}: {scheme.name}({scheme.param}) "
        f"size {report.orig_size} -> {report.approx_size}, "
        f"compression {report.compression:.6f}, "
        f"fidelity {report.attained_fidelity:.6f}"
    )


def _cmd_run(args) -> int:
    scheme = _make_scheme(args)
    benchmark, state = _build_state(args, scheme)
    if args.dot_before:
        Path(args.dot_before).write_text(state.to_dot(), encoding="utf-8")
    out, report = apply_scheme(state, scheme)
    if args.dot_after:
        Path(args.dot_after).write_text(out.to_dot(), encoding="utf-8")
    if args.dump_vector:
        lines = [f"{float(a.real)!r} {float(a.imag)!r}" for a in out.to_vector()]
        Path(args.dump_vector).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(_human_row(benchmark, scheme, report))
    if args.csv:
        text = "\n".join([CSV_HEADER, _csv_row(benchmark, scheme, report)]) + "\n"
        Path(args.csv).write_text(text, encoding="utf-8")
    return 0


def _cmd_sweep(args) -> int:
    values = [v for v in args.grid.split(",") if v]
    if not values:
        raise ValueError("--grid must list at least one value")
    schemes = [_make_scheme(args, override=value) for value in values]
    benchmark, state = _build_state(args, schemes[0])
    rows = []
    failed = False
    for scheme in schemes:
        try:
            _, report = apply_scheme(state, scheme)
        except ZeroStateError as exc:  # leave the row out, keep the others
            print(f"error: {scheme.name}({scheme.param}): {exc}", file=sys.stderr)
            failed = True
        else:
            rows.append(_csv_row(benchmark, scheme, report))
    text = "\n".join([CSV_HEADER, *rows]) + "\n"
    if args.csv:
        Path(args.csv).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 3 if failed else 0


@_gc_paused
def main(argv=None) -> int:
    args = _build_cli().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except ZeroStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, DDError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"error: diagram too deep for Python's recursion limit ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
