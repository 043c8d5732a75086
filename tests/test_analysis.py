import math

import numpy as np
import pytest

from ddapprox import (
    TERMINAL,
    contributions,
    nodes_by_level,
    sample_paths,
)
from ddapprox.analysis import VisitCounts, downstream, upstream
from ddapprox.complex_table import sqr_mag
from ddapprox.rng import SplitMix64
from conftest import DEMO_VECTOR, demo_nodes
from dense_ref import derive_seed

import dense_ref


def subtree_norms(dd):
    """Oracle: per-node sum of squared sub-vector entries, via path walks."""
    n = dd.n
    sums: dict = {}
    for i in range(1 << n):
        node = dd.root.target
        weight = 1.0 + 0.0j
        for bit in range(n):
            if node is TERMINAL:
                break
            sums.setdefault(node, []).append((i, weight))
            take1 = (i >> (n - 1 - bit)) & 1
            e = node.succ1 if take1 else node.succ0
            weight *= e.weight.as_complex()
            node = e.target
    vec = dd.to_vector()
    root_w = dd.root.weight.as_complex()
    out = {}
    for node, entries in sums.items():
        total = 0.0
        for i, prefix in entries:
            full = prefix * root_w
            if abs(full) > 0:
                total += abs(vec[i] / full) ** 2
        out[node] = total
    return out


def test_upstream_times_root_weight_is_unity(pkg):
    rng = np.random.default_rng(211)
    for n in (1, 4, 7):
        dd = pkg.from_vector(dense_ref.random_state(rng, n))
        up = upstream(dd)
        total = up[dd.root.target] * sqr_mag(dd.root.weight)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_demo_branch_probabilities(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    up = upstream(dd)
    nodes = demo_nodes(dd)
    q0 = nodes["q0"]
    left = sqr_mag(q0.succ0.weight) * up[q0.succ0.target] / up[q0]
    right = sqr_mag(q0.succ1.weight) * up[q0.succ1.target] / up[q0]
    assert left == pytest.approx(0.8, abs=1e-12)
    assert right == pytest.approx(0.2, abs=1e-12)
    assert up[TERMINAL] == 1.0


def test_demo_contribution_table(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    contrib = contributions(dd)
    groups = nodes_by_level(dd)
    per_level = {
        lvl: sorted(round(contrib[v], 9) for v in nodes)
        for lvl, nodes in groups.items()
    }
    assert per_level == {0: [1.0], 1: [0.2, 0.8], 2: [0.1, 0.1, 0.8]}


def test_demo_downstream_values(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    down = downstream(dd)
    nodes = demo_nodes(dd)
    assert down[nodes["q0"]] == pytest.approx(
        sqr_mag(dd.root.weight), abs=1e-15
    )
    assert down[nodes["q1l"]] == pytest.approx(0.4, abs=1e-9)
    assert down[nodes["q1r"]] == pytest.approx(0.1, abs=1e-9)
    assert down[nodes["q2l"]] == pytest.approx(0.8, abs=1e-9)


def test_basis_state_maps(pkg):
    dd = pkg.zero_state(4)
    up = upstream(dd)
    contrib = contributions(dd)
    for node in contrib:
        assert up[node] == pytest.approx(1.0, abs=1e-12)
        assert contrib[node] == pytest.approx(1.0, abs=1e-12)


def test_upstream_matches_subtree_norm_oracle(pkg):
    rng = np.random.default_rng(19)
    for _ in range(10):
        dd = pkg.from_vector(dense_ref.random_state(rng, 6))
        up = upstream(dd)
        oracle = subtree_norms(dd)
        for node, want in oracle.items():
            assert abs(up[node] - want) < 1e-9


def test_per_level_contribution_sums(pkg):
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        dd = pkg.from_vector(dense_ref.random_state(rng, n))
        contrib = contributions(dd)
        for lvl, nodes in nodes_by_level(dd).items():
            assert math.fsum(contrib[v] for v in nodes) == pytest.approx(
                1.0, abs=1e-9
            ), f"level {lvl}"


def test_maps_live_in_unit_interval(pkg):
    rng = np.random.default_rng(41)
    dd = pkg.from_vector(dense_ref.random_state(rng, 7))
    up = upstream(dd)
    down = downstream(dd)
    contrib = contributions(dd)
    for m in (down, contrib):
        for v in m.values():
            assert -1e-12 <= v <= 1.0 + 1e-9
    # upstream is the relative mass below a node; nonnegative, and the
    # product with downstream (the contribution) is what stays within 1
    for node in down:
        assert up[node] >= 0.0


def test_branch_probabilities_sum_to_one(pkg):
    rng = np.random.default_rng(43)
    dd = pkg.from_vector(dense_ref.random_state(rng, 6))
    up = upstream(dd)
    for node in downstream(dd):
        p0 = sqr_mag(node.succ0.weight) * up[node.succ0.target] / up[node]
        p1 = sqr_mag(node.succ1.weight) * up[node.succ1.target] / up[node]
        assert p0 + p1 == pytest.approx(1.0, abs=1e-9)


def test_sample_paths_on_basis_state(pkg):
    dd = pkg.zero_state(5)
    vc = sample_paths(dd, 37, seed=4)
    assert isinstance(vc, VisitCounts)
    assert all(c == 37 for c in vc.counts.values())


def test_sample_paths_counts_are_per_level_conserved(pkg):
    rng = np.random.default_rng(53)
    dd = pkg.from_vector(dense_ref.random_state(rng, 5))
    L = 500
    vc = sample_paths(dd, L, seed=8)
    assert vc.counts[dd.root.target] == L
    per_level: dict[int, int] = {}
    for node, c in vc.counts.items():
        assert 0 <= c <= L
        per_level[node.level] = per_level.get(node.level, 0) + c
    assert all(total == L for total in per_level.values())


def test_sample_paths_deterministic_in_seed(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    a = sample_paths(dd, 200, seed=12)
    b = sample_paths(dd, 200, seed=12)
    c = sample_paths(dd, 200, seed=13)
    assert a.counts == b.counts
    assert a.counts != c.counts


def test_sample_paths_prefix_stability(pkg):
    # walk i depends only on (seed, i): more walks never disturb earlier ones
    dd = pkg.from_vector(DEMO_VECTOR)
    small = sample_paths(dd, 50, seed=3).counts
    large = sample_paths(dd, 500, seed=3).counts
    assert all(small[v] <= large[v] for v in small)


def test_demo_three_walk_outcome(pkg):
    # seed 0 draws the walk multiset {001, 001, 011}
    dd = pkg.from_vector(DEMO_VECTOR)
    vc = sample_paths(dd, 3, seed=0)
    nodes = demo_nodes(dd)
    assert vc.counts[nodes["q0"]] == 3
    assert vc.counts[nodes["q1l"]] == 3
    assert vc.counts[nodes["q2l"]] == 3
    assert vc.counts[nodes["q1r"]] == 0
    assert vc.counts[nodes["q2m"]] == 0
    assert vc.counts[nodes["q2r"]] == 0


def test_demo_ten_walk_counts(pkg):
    # seed 11 realizes the 8/2 left/right split with the right q2 visited twice
    dd = pkg.from_vector(DEMO_VECTOR)
    vc = sample_paths(dd, 10, seed=11)
    nodes = demo_nodes(dd)
    got = {name: vc.counts[node] for name, node in nodes.items()}
    assert got == {"q0": 10, "q1l": 8, "q1r": 2, "q2l": 8, "q2m": 0, "q2r": 2}


def test_demo_left_branch_frequency_concentrates(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    L = 100_000
    vc = sample_paths(dd, L, seed=21)
    nodes = demo_nodes(dd)
    freq = vc.counts[nodes["q1l"]] / L
    assert abs(freq - 0.8) < 0.01


def test_zero_prob_branches_never_sampled(pkg):
    vec = np.zeros(8, dtype=complex)
    vec[3] = 1.0
    dd = pkg.from_vector(vec)
    vc = sample_paths(dd, 1000, seed=2)
    assert all(c == 1000 for c in vc.counts.values())


def test_empirical_basis_frequencies_match_probabilities(pkg):
    # replay the documented walk streams independently and check both the
    # node counts and the drawn bitstrings against binomial bounds
    rng = np.random.default_rng(61)
    n = 4
    vec = dense_ref.random_state(rng, n)
    dd = pkg.from_vector(vec)
    L = 100_000
    seed = 5
    vc = sample_paths(dd, L, seed=seed)

    up = upstream(dd)
    counts: dict = {}
    basis_counts = np.zeros(1 << n, dtype=int)
    for i in range(L):
        stream = SplitMix64(derive_seed(seed, i))
        node = dd.root.target
        bits = 0
        for _ in range(n):
            counts[node] = counts.get(node, 0) + 1
            e1 = node.succ1
            p1 = sqr_mag(e1.weight) * up[e1.target] / up[node]
            take1 = stream.random() < p1
            bits = (bits << 1) | int(take1)
            node = (node.succ1 if take1 else node.succ0).target
        basis_counts[bits] += 1
    for node, c in vc.counts.items():
        assert counts.get(node, 0) == c

    probs = np.abs(vec) ** 2
    for i in range(1 << n):
        sigma = math.sqrt(L * probs[i] * (1 - probs[i]))
        assert abs(basis_counts[i] - L * probs[i]) <= 3 * sigma + 1
