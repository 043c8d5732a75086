"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all)
and enforces its stated tolerance and, where given, its runtime budget.
"""

import math
import time

import numpy as np

from ddapprox import (
    DDPackage,
    approx_per_level,
    approx_sampling,
    approx_target_fidelity,
    approx_threshold,
    contributions,
    fidelity,
    nodes_by_level,
    random_circuit,
    sample_paths,
    simulate,
)
from ddapprox.cli import main as cli_main

from conftest import DEMO_VECTOR, DEMO_APPROX_VECTOR, demo_nodes

import dense_ref


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}{detail}")
    assert ok, f"criterion {num} failed: {desc}{detail}"


def test_criterion_1_worked_example_end_to_end():
    start = time.perf_counter()
    pkg = DDPackage()
    dd = pkg.from_vector(DEMO_VECTOR)
    ok = dd.size() == 6

    outcomes = []
    out_tf, rep_tf = approx_target_fidelity(dd, 0.5)
    outcomes.append((out_tf, rep_tf))
    out_pl, rep_pl = approx_per_level(dd, 0.5)
    outcomes.append((out_pl, rep_pl))
    # seed 11 realizes the worked 10-walk visit counts {10; 8, 2; 8, 0, 2}
    counts = sample_paths(dd, 10, seed=11).counts
    nodes = demo_nodes(dd)
    got = [counts[nodes[k]] for k in ("q0", "q1l", "q1r", "q2l", "q2m", "q2r")]
    ok = ok and got == [10, 8, 2, 8, 0, 2]
    out_th, rep_th = approx_threshold(dd, 10, tau=3, seed=11)
    outcomes.append((out_th, rep_th))

    for out, rep in outcomes:
        ok = ok and rep.orig_size == 6 and rep.approx_size == 3
        ok = ok and abs(rep.compression - 0.5) < 1e-12
        ok = ok and abs(rep.attained_fidelity - 0.8) < 1e-9
        ok = ok and np.max(np.abs(out.to_vector() - DEMO_APPROX_VECTOR)) < 1e-9
        ok = ok and out.root == outcomes[0][0].root  # all reach the same diagram
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, "worked example: 6 nodes -> 3, fidelity 0.8, compression 0.5", ok,
            f" ({elapsed * 1000:.1f} ms)")


def test_criterion_2_amplitude_path_product():
    pkg = DDPackage()
    dd = pkg.from_vector(DEMO_VECTOR)
    amp = dd.amplitude("111")
    want = -1 / math.sqrt(10.0)
    ok = abs(amp.real - want) < 1e-12 and amp.imag == 0.0
    _report(2, 'amplitude("111") = -1/sqrt(10) within 1e-12', ok)


def test_criterion_3_fidelity_oracle_equivalence():
    start = time.perf_counter()
    pkg = DDPackage()
    rng = np.random.default_rng(2024)
    worst = 0.0
    pairs = 500
    for _ in range(pairs):
        n = int(rng.integers(2, 9))
        u = dense_ref.random_state(rng, n)
        v = dense_ref.random_state(rng, n)
        got = fidelity(pkg.from_vector(u), pkg.from_vector(v))
        want = dense_ref.fidelity_dense(u, v)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _report(3, f"{pairs} random pairs vs dense fidelity", ok,
            f" (worst |diff| {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_4_and_5_hard_guarantees_and_kept_mass():
    start = time.perf_counter()
    pkg = DDPackage()
    rng = np.random.default_rng(777)
    n = 7
    states = 200
    targets = (0.5, 0.9, 0.99)
    guarantee_ok = True
    worst_mass_err = 0.0
    for _ in range(states):
        vec = dense_ref.random_state(rng, n)
        dd = pkg.from_vector(vec)
        for f in targets:
            out, rep = approx_target_fidelity(dd, f)
            guarantee_ok = guarantee_ok and rep.attained_fidelity >= f
            worst_mass_err = max(
                worst_mass_err,
                abs(rep.attained_fidelity - dense_ref.kept_mass(vec, out.to_vector())),
            )
            out, rep = approx_per_level(dd, f)
            guarantee_ok = guarantee_ok and rep.attained_fidelity >= f ** (n - 1)
            worst_mass_err = max(
                worst_mass_err,
                abs(rep.attained_fidelity - dense_ref.kept_mass(vec, out.to_vector())),
            )
    elapsed = time.perf_counter() - start
    ok4 = guarantee_ok and elapsed < 30.0
    _report(4, f"{states} states x {targets}: target >= f, per-level >= f^(n-1)",
            ok4, f" ({elapsed:.1f} s)")

    # the traversal-based schemes join the kept-mass check here
    rng = np.random.default_rng(778)
    for _ in range(30):
        vec = dense_ref.random_state(rng, 6)
        dd = pkg.from_vector(vec)
        for out, rep in (
            approx_sampling(dd, 2048, seed=5),
            approx_threshold(dd, 2048, tau=2, seed=5),
        ):
            worst_mass_err = max(
                worst_mass_err,
                abs(rep.attained_fidelity - dense_ref.kept_mass(vec, out.to_vector())),
            )
    ok5 = worst_mass_err < 1e-9
    _report(5, "attained fidelity equals kept probability mass for all schemes",
            ok5, f" (worst |diff| {worst_mass_err:.2e})")


def test_criterion_6_per_level_contribution_sums():
    pkg = DDPackage()
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        dd = pkg.from_vector(dense_ref.random_state(rng, n))
        contrib = contributions(dd)
        for nodes in nodes_by_level(dd).values():
            worst = max(worst, abs(math.fsum(contrib[v] for v in nodes) - 1.0))
    ok = worst < 1e-9
    _report(6, "200 random states: every level's contributions sum to 1", ok,
            f" (worst |sum-1| {worst:.2e})")


def test_criterion_7_simulation_matches_dense_oracle():
    pkg = DDPackage()
    worst = 0.0
    worst_norm = 0.0
    norm_bound = 4 * pkg.table.tol
    rng = np.random.default_rng(99)
    for case in range(50):
        n = int(rng.integers(2, 9))
        circ = random_circuit(n, depth=20, seed=case)
        norms = []
        state = simulate(circ, pkg, observer=lambda i, g, st: norms.append(st.norm()))
        worst_norm = max(worst_norm, max(abs(x - 1.0) for x in norms))
        diff = np.max(np.abs(state.to_vector() - dense_ref.simulate_dense(circ)))
        worst = max(worst, float(diff))
    ok = worst < 1e-9 and worst_norm <= norm_bound
    _report(7, "50 random circuits match the dense simulator", ok,
            f" (worst amp diff {worst:.2e}, worst norm drift {worst_norm:.2e})")


def test_criterion_8_desk_scale_trends():
    pkg = DDPackage()
    state = simulate(random_circuit(10, depth=30, seed=7), pkg)
    orig = state.size()

    grid = [10, 100, 1_000, 10_000, 100_000]
    seeds = range(5)
    mean_fid = []
    mean_rel = []
    for L in grid:
        fids, rels = [], []
        for seed in seeds:
            _, rep = approx_sampling(state, L, seed=seed)
            fids.append(rep.attained_fidelity)
            rels.append(rep.approx_size / orig)
        mean_fid.append(sum(fids) / len(fids))
        mean_rel.append(sum(rels) / len(rels))
    ok = mean_fid == sorted(mean_fid) and mean_rel == sorted(mean_rel)

    rel_by_target = []
    for k in range(1, 11):
        _, rep = approx_target_fidelity(state, k / 10)
        rel_by_target.append(rep.compression)
    ok = ok and rel_by_target == sorted(rel_by_target)
    ok = ok and rel_by_target[-1] == 1.0
    _report(8, "sampling/target sweeps show the documented monotone trends", ok,
            f" (mean fidelity {mean_fid[0]:.3f}->{mean_fid[-1]:.3f}, "
            f"mean rel size {mean_rel[0]:.3f}->{mean_rel[-1]:.3f})")


def test_criterion_9_csv_determinism(tmp_path):
    args = [
        "sweep", "--builtin", "random", "9", "24", "4",
        "--scheme", "sampling", "--grid", "10,100,1000",
        "--seed", "12",
    ]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = cli_main(args + ["--csv", str(f1)]) == 0
    ok = ok and cli_main(args + ["--csv", str(f2)]) == 0
    ok = ok and f1.read_bytes() == f2.read_bytes()
    _report(9, "repeated runs emit byte-identical CSV", ok)
