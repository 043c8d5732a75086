"""ddapprox benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sim-random --seed 0 --seconds 40 --trace 0

`--trace 0` repeats untraced passes for `--seconds` and reports the
end-to-end metrics (medians over passes; set-up is timed in fresh
interpreters between the passes). `--trace 1` alternates untraced and
traced passes and reports the per-layer metrics. Every pass's output is checked; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Progress goes to stderr.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl
from spans import Tracer

SETUP_PROBES = 9
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "peak_rss_mib": "MiB",
}

_COUNT = "count"
PER_LAYER = {
    "complex_table.lookups": _COUNT,
    "complex_table.inserts": _COUNT,
    "complex_table.insert_ratio": "ratio",
    "complex_table.lookup_s": "s",
    "complex_table.values_final": _COUNT,
    "complex_table.self_s": "s",
    "dd.make_node_calls": _COUNT,
    "dd.unique_inserts": _COUNT,
    "dd.unique_hit_ratio": "ratio",
    "dd.make_node_s": "s",
    "dd.unique_entries_final": _COUNT,
    "dd.state_size": _COUNT,
    "dd.norm_calls": _COUNT,
    "dd.norm_s": "s",
    "dd.size_calls": _COUNT,
    "dd.size_s": "s",
    "dd.from_vector_s": "s",
    "dd.self_s": "s",
    "circuits.simulate_s": "s",
    "circuits.gates": _COUNT,
    "circuits.gate_ms_p50": "ms",
    "circuits.gate_ms_p99": "ms",
    "circuits.self_s": "s",
    "analysis.upstream_s": "s",
    "analysis.downstream_s": "s",
    "analysis.contributions_s": "s",
    "analysis.nodes_by_level_s": "s",
    "analysis.sample_paths_s": "s",
    "analysis.walk_visits": _COUNT,
    "analysis.self_s": "s",
    "approx.eliminate_calls": _COUNT,
    "approx.eliminate_s": "s",
    "approx.eliminate_total_s": "s",
    "approx.select_s": "s",
    "approx.eliminated_nodes": _COUNT,
    "approx.eliminate_useful_ratio": "ratio",
    "approx.self_s": "s",
    "fidelity.fidelity_calls": _COUNT,
    "fidelity.fidelity_s": "s",
    "fidelity.self_s": "s",
    "cli.rows": _COUNT,
    "cli.self_s": "s",
    "trace.spans": _COUNT,
    "pass.sweep_s": "s",
    "pass.state_s": "s",
    "pass.approx_s": "s",
    "trace.sweep_s": "s",
    "trace.state_s": "s",
    "trace.approx_s": "s",
    "trace.overhead_s": "s",
}
COUNTS = [name for name, unit in PER_LAYER.items() if unit == _COUNT]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="ddapprox benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds one set-up takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(wl.HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise wl.SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Checks:
    """Tallies attempted and failed output checks; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, outcomes: list[str]) -> None:
        self.attempted += len(outcomes)
        for message in outcomes:
            if message:
                self.failed += 1
                print(f"check failed: {message}", file=sys.stderr)

    def check(self, ok: bool, message: str) -> None:
        self.add(["" if ok else message])


class PassFailed(Exception):
    """A pass raised; the run reports what it measured before."""


def _checked_pass(inputs, golden, checks: Checks, first_rows):
    try:
        result = wl.run_pass(inputs)
    except Exception as exc:  # any error of the program is a failed operation
        checks.check(False, f"pass raised {exc!r}")
        raise PassFailed from exc
    checks.add(wl.check_pass(inputs, result, golden))
    result.approximations.clear()  # release the pass's diagrams before the next pass
    if first_rows is not None:
        checks.check(result.rows == first_rows, "rows differ between passes of one run")
    return result


def run_untraced(args, inputs, golden, checks: Checks) -> dict:
    # Set-up probes are spread between the passes, so that their median
    # samples the whole run rather than one moment of it.
    setups = [setup_probe(args.workload, args.seed)]
    passes = []
    t_begin = time.perf_counter()
    while True:
        first = passes[0].rows if passes else None
        try:
            passes.append(_checked_pass(inputs, golden, checks, first))
        except PassFailed:
            break
        if len(passes) == 1:
            # Later passes add allocator fragmentation, not workload memory,
            # so the peak is read once the first pass and its checks are done.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        sweeps = [p.sweep_s for p in passes]
        print(f"pass {len(passes)}: sweep {sweeps[-1]:.3f} s", file=sys.stderr)
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(args.workload, args.seed))
        elapsed = time.perf_counter() - t_begin
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(sweeps) > args.seconds:
            break
    if not passes:
        raise PassFailed
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args.workload, args.seed))
    return {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(p.sweep_s for p in passes),
        "peak_rss_mib": peak_kib / 1024.0,
    }


def run_traced(args, inputs, golden, checks: Checks) -> dict:
    tracer = Tracer()
    plain, traced, layers = [], [], []
    first = None
    t_begin = time.perf_counter()
    while True:
        tracer.clear_spans()
        try:
            plain.append(_checked_pass(inputs, golden, checks, first))
            first = plain[0].rows
            tracer.install()
            try:
                result = _checked_pass(inputs, golden, checks, first)
            finally:
                tracer.uninstall()
        except PassFailed:
            break
        traced.append(result)
        layer = tracer.layer_metrics()
        layer["cli.rows"] = len(result.rows)
        tracer.reset_counts()  # also releases the pass's packages
        if layers:
            for name in COUNTS:
                checks.check(layer[name] == layers[0][name], f"{name} not repeated exactly")
        layers.append(layer)
        print(f"pass {len(traced)}: sweep {plain[-1].sweep_s:.3f} s, "
              f"traced {result.sweep_s:.3f} s", file=sys.stderr)
        elapsed = time.perf_counter() - t_begin
        pair = statistics.median(p.sweep_s for p in plain) + statistics.median(
            p.sweep_s for p in traced)
        if elapsed + pair > args.seconds:
            break
    if not traced:
        raise PassFailed
    wl.OUT.mkdir(exist_ok=True)
    tracer.write_spans(wl.OUT / f"spans-{args.workload}-s{args.seed}.npz")
    metrics = {
        name: (layers[0][name] if name in COUNTS else statistics.median(l[name] for l in layers))
        for name in layers[0]
    }
    for prefix, runs in (("pass", plain), ("trace", traced)):
        for phase in ("sweep_s", "state_s", "approx_s"):
            metrics[f"{prefix}.{phase}"] = statistics.median(getattr(p, phase) for p in runs)
    metrics["trace.overhead_s"] = metrics["trace.sweep_s"] - metrics["pass.sweep_s"]
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl.import_ddapprox()
    except wl.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = wl.make_inputs(args.workload, args.seed)
    golden = wl.golden_rows(wl.load_golden(), args.workload, args.seed)
    if golden is None:
        print(f"no golden rows for seed {args.seed}; comparing with invariants only",
              file=sys.stderr)
    checks = Checks()
    try:
        if args.trace:
            values, units = run_traced(args, inputs, golden, checks), PER_LAYER
        else:
            values, units = run_untraced(args, inputs, golden, checks), END_TO_END
    except PassFailed:
        print("error: no pass completed", file=sys.stderr)
        return 1
    except (wl.SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
