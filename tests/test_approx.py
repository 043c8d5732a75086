import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddapprox import (
    DDPackage,
    Edge,
    Node,
    PerLevelFidelity,
    Sampling,
    TERMINAL,
    TargetFidelity,
    Threshold,
    ZeroStateError,
    apply_scheme,
    approx_per_level,
    approx_sampling,
    approx_target_fidelity,
    approx_threshold,
    eliminate,
    fidelity,
    ghz,
    nodes_by_level,
    random_circuit,
    sample_paths,
    simulate,
)
from ddapprox.approx import _budget_prefixes, _eliminate
from ddapprox.dd import LevelView, reachable_nodes
from conftest import DEMO_VECTOR, DEMO_APPROX_VECTOR, demo_nodes
from test_package_machine import PackageMachine

import dense_ref


def test_scheme_parameter_validation():
    with pytest.raises(ValueError):
        Sampling(0)
    with pytest.raises(ValueError):
        Threshold(10, -1)
    with pytest.raises(ValueError):
        Threshold(10, 10)
    with pytest.raises(ValueError):
        TargetFidelity(0.0)
    with pytest.raises(ValueError):
        TargetFidelity(1.2)
    with pytest.raises(ValueError):
        TargetFidelity(0.5, level=-2)
    with pytest.raises(ValueError):
        PerLevelFidelity(-0.5)


def test_eliminate_demo_branch(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    nodes = demo_nodes(dd)
    out = eliminate(dd, {nodes["q1r"]})
    out.validate()
    assert out.size() == 3
    assert np.allclose(out.to_vector(), DEMO_APPROX_VECTOR, atol=1e-12)
    assert out.root.weight.re == pytest.approx(1 / math.sqrt(2.0), abs=1e-12)
    # the original diagram is untouched
    assert dd.size() == 6
    assert np.allclose(dd.to_vector(), DEMO_VECTOR, atol=1e-12)


def test_eliminate_empty_set_is_identity(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    out = eliminate(dd, set())
    assert out.root == dd.root


def test_eliminate_everything_raises(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    with pytest.raises(ZeroStateError):
        eliminate(dd, {dd.root.target})


def test_eliminate_matches_dense_oracle(pkg):
    rng = np.random.default_rng(71)
    for _ in range(30):
        vec = dense_ref.random_state(rng, 5)
        dd = pkg.from_vector(vec)
        nodes = reachable_nodes(dd)
        k = int(rng.integers(1, max(2, len(nodes) // 3)))
        picks = rng.choice(len(nodes), size=k, replace=False)
        doomed = {nodes[i] for i in picks if nodes[i] is not dd.root.target}
        if not doomed:
            continue
        mask = dense_ref.doomed_mask(dd, doomed)
        if mask.all():
            with pytest.raises(ZeroStateError):
                eliminate(dd, doomed)
            continue
        want = dense_ref.eliminate_dense(vec, mask)
        out = eliminate(dd, doomed)
        assert np.max(np.abs(out.to_vector() - want)) < 1e-9


def test_eliminate_ignores_doomed_nodes_it_cannot_reach(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    mine = set(reachable_nodes(dd))
    # the same state in another package: equal levels and uids, other nodes
    twin = DDPackage().from_vector(DEMO_VECTOR)
    stray = pkg.from_vector(DEMO_VECTOR[::-1])  # same package, not below dd
    foreign = (set(reachable_nodes(twin)) | set(reachable_nodes(stray))) - mine
    assert foreign
    assert eliminate(dd, foreign).root == dd.root
    q1r = demo_nodes(dd)["q1r"]
    assert eliminate(dd, foreign | {q1r}).root == eliminate(dd, {q1r}).root


def _tie_state(pkg):
    """The state of random_circuit(4, 12, 2): two of its nodes, #58 and #61,
    hold successor weights that tie in magnitude up to rounding, so
    make_node does not give them back unchanged."""
    return simulate(random_circuit(4, 12, 2), pkg)


def _phase_state(pkg, n, seed):
    """Unit-magnitude amplitudes with random phases, some zeroed: many
    successor weights tie in magnitude."""
    rng = np.random.default_rng(seed)
    vec = np.exp(2j * np.pi * rng.random(1 << n)) * (rng.random(1 << n) < 0.7)
    vec[0] = 1.0
    return pkg.from_vector(vec / np.linalg.norm(vec))


def _overlap_state(pkg):
    """A 3-qubit state whose left q1 node is (P, Q) and right q1 node is
    (P, 0): dooming Q (view index 4) makes `make_node` give back the right
    q1 node, which is already in the original view."""
    vec = np.array([0.3, 0.3, 0.4, -0.4, 0.5, 0.5, 0.0, 0.0])
    return pkg.from_vector(vec / np.linalg.norm(vec))


def _build(kind, n, seed, pkg):
    if kind == "circuit":
        return simulate(random_circuit(n, 2 * n + seed % 9, seed), pkg)
    if kind == "phases":
        return _phase_state(pkg, n, seed)
    if kind == "ghz":
        return simulate(ghz(n), pkg)
    if kind == "uniform":  # equal amplitudes on a random support
        support = np.random.default_rng(seed).random(1 << n) < 0.5
        support[0] = True
        return pkg.from_vector(support / np.sqrt(support.sum()))
    return pkg.from_vector(dense_ref.random_state(np.random.default_rng(seed), n))


def _doomed(dd, mode, pick, budget):
    """Budget prefix at level pick % n, or the nodes at the set bits of pick,
    as view indices."""
    if mode == "prefix":
        return _budget_prefixes(dd, [pick % dd.n], budget)[0]
    return [i for i in range(len(dd.view.nodes)) if pick >> i & 1]


def _eliminated(elim, dd, doomed):
    try:
        out, size = elim(dd, doomed)
    except ZeroStateError:
        return "zero", len(dd.package.table), dd.package.unique_table_size()
    root = out.root
    return (
        getattr(root.target, "uid", None),
        root.weight.re,
        root.weight.im,
        size,
        len(dd.package.table),
        dd.package.unique_table_size(),
    )


def _accounted(dd, doomed):
    out, size, _ = _eliminate(dd, doomed)
    return out, size


def _full_rebuild(dd, doomed):
    out = dense_ref.eliminate_ref(dd, [dd.view.nodes[i] for i in doomed])
    return out, out.size()


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["circuit", "phases", "dense"]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["prefix", "subset"]),
    pick=st.integers(0, 2**64 - 1),
    budget=st.sampled_from([0.01, 0.1, 0.3, 0.6]),
)
@example(kind="tie", n=4, seed=2, mode="subset", pick=0b1000, budget=0.1)
@example(kind="tie", n=4, seed=2, mode="prefix", pick=1, budget=0.6)
@example(kind="overlap", n=3, seed=0, mode="subset", pick=0b10000, budget=0.1)
def test_eliminate_matches_full_rebuild(kind, n, seed, mode, pick, budget):
    """Keeping untouched fixed-point subdiagrams leaves the result and both
    tables exactly as a rebuild of every node leaves them, and the size
    accounted from the view is the size of the full rebuild's result."""
    got, want = [], []
    for elim, out in ((_accounted, got), (_full_rebuild, want)):
        pkg = DDPackage()
        if kind in ("tie", "overlap"):
            dd = (_tie_state if kind == "tie" else _overlap_state)(pkg)
        else:
            dd = _build(kind, n, seed, pkg)
        doomed = _doomed(dd, mode, pick, budget)
        out.append([dd.view.nodes[i].uid for i in doomed])
        out.append(_eliminated(elim, dd, doomed))
    assert got == want


@pytest.mark.parametrize("kind, n, seed", [("dense", 6, 1), ("phases", 6, 4), ("circuit", 6, 3)])
def test_eliminate_makes_no_call_on_two_zero_successors(kind, n, seed, monkeypatch):
    """A node whose every edge is a zero-stub or leads to a doomed node
    comes back as the zero-stub without a walk below it, so elimination
    never asks `make_node` to collapse two zero successors. The
    target-fidelity and per-level trials below doom such whole subtrees,
    so a walk that descends into them fails here."""
    pkg = DDPackage()
    dd = _build(kind, n, seed, pkg)
    zero = pkg.table.zero
    both_zero = []
    make_node = DDPackage.make_node

    def spy(pkg, level, succ0, succ1):
        both_zero.append(succ0[1] is zero and succ1[1] is zero)
        return make_node(pkg, level, succ0, succ1)

    monkeypatch.setattr(DDPackage, "make_node", spy)
    for f in (0.99, 0.9, 0.5):
        for scheme in (TargetFidelity(f), PerLevelFidelity(f)):
            for doomed in scheme.candidates(dd):
                if len(doomed):
                    _eliminate(dd, doomed)
    assert both_zero and not any(both_zero)


def test_overlap_example_returns_a_view_node():
    pkg = DDPackage()
    dd = _overlap_state(pkg)
    q = dd.view.nodes[4]
    assert q.level == 2 and q.succ1.weight.re < 0  # the (1, -1) node
    out, size, mass = _eliminate(dd, [4])
    right = dd.root.target.succ1.target
    assert out.root.target.succ0.target is right
    assert size == out.size() == 3
    assert mass == pytest.approx(0.68, abs=1e-12)  # 1 - 2 * 0.4^2


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["ghz", "phases", "uniform", "circuit", "dense"]),
    n=st.integers(1, 7),
    seed=st.integers(0, 2**16),
    budget=st.sampled_from([0.0, 1e-10, 0.3, 1 - 1e-12]) | st.floats(0.0, 1.0),
)
@example(kind="ghz", n=5, seed=0, budget=1 - 1e-12)
@example(kind="uniform", n=6, seed=1, budget=0.3)
@example(kind="phases", n=6, seed=4, budget=0.3)
def test_budget_prefixes_match_sorted_running_sum(kind, n, seed, budget):
    """The array selection dooms the same nodes, in the same order, as the
    sorted running sum, at every level; exact ties go to the smaller uid."""
    dd = _build(kind, n, seed, DDPackage())
    groups, contrib = nodes_by_level(dd), dense_ref.contributions_ref(dd)
    want = [
        dense_ref.budget_prefix_ref(groups.get(lvl, ()), contrib, budget) for lvl in range(n)
    ]
    got = _budget_prefixes(dd, range(n), budget)
    nodes = dd.view.nodes
    assert [[nodes[i].uid for i in p] for p in got] == [[v.uid for v in p] for p in want]


def test_per_level_prefixes_match_node_by_node_reference():
    """Per-level dooms the same nodes, in the same order, as the node-by-node
    reference, on every `_build` kind and the tie and overlap states; on
    some of them the seen-mass cut binds, so the union differs from the
    uncut budget prefixes'."""
    builds = [_tie_state, _overlap_state] + [
        lambda pkg, a=(kind, n, seed): _build(*a, pkg)
        for kind in ("circuit", "phases", "ghz", "uniform", "dense")
        for n in range(1, 8)
        for seed in range(8)
    ]
    binds = 0
    for build in builds:
        dd = build(DDPackage())
        nodes = dd.view.nodes
        for f in (0.99, 0.9, 0.5, 0.25):
            (got,) = PerLevelFidelity(f).candidates(dd)
            want = dense_ref.per_level_prefix_ref(dd, f)
            assert [nodes[i].uid for i in got] == [v.uid for v in want]
            uncut = np.concatenate(_budget_prefixes(dd, dd.view.levels, 1.0 - f))
            binds += got.tolist() != uncut.tolist()
    assert binds


def test_fixed_nodes_are_fixed_points_of_make_node():
    builders = [
        _tie_state,
        lambda p: simulate(random_circuit(6, 14, 9), p),
        lambda p: simulate(random_circuit(9, 24, 5), p),
        lambda p: _phase_state(p, 5, 3),
        lambda p: p.from_vector(dense_ref.random_state(np.random.default_rng(5), 5)),
        lambda p: p.zero_state(4),
    ]
    for build in builders:
        view = build(DDPackage()).view
        twin = DDPackage()
        nodes = build(twin).view.nodes  # same order, uids and weights
        assert view.fixed[:-1].any()  # the last entry is the terminal's
        assert np.array_equal(view.fixed, dense_ref.fixed_ref(view))
        for v, fixed in zip(nodes, view.fixed.tolist()):
            if fixed:
                sizes = (len(twin.table), twin.unique_table_size())
                assert twin.make_node(v.level, v.succ0, v.succ1) == Edge(v, twin.table.one)
                assert (len(twin.table), twin.unique_table_size()) == sizes
    pkg = DDPackage()
    dd = _tie_state(pkg)
    ties = [v for v in dd.view.nodes if v.uid in (58, 61)]
    assert len(ties) == 2
    for v in ties:
        assert not dd.view.fixed[dd.view.index[v]]
        assert pkg.make_node(v.level, v.succ0, v.succ1) != Edge(v, pkg.table.one)


def test_hand_built_node_is_not_fixed():
    pkg = DDPackage()
    fixed = pkg.make_node(0, Edge(TERMINAL, pkg.table.one), pkg.zero_stub).target
    twin = Node(0, fixed.succ0, fixed.succ1, uid=-1)
    assert fixed.fixed and not twin.fixed
    assert LevelView([twin]).fixed.tolist() == [False, True]


def test_apply_scheme_dispatch(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    for scheme, direct in (
        (Sampling(50, seed=1), lambda: approx_sampling(dd, 50, seed=1)),
        (Threshold(50, 2, seed=1), lambda: approx_threshold(dd, 50, 2, seed=1)),
        (TargetFidelity(0.5), lambda: approx_target_fidelity(dd, 0.5)),
        (PerLevelFidelity(0.5), lambda: approx_per_level(dd, 0.5)),
    ):
        out, report = apply_scheme(dd, scheme)
        out.validate()
        assert report.scheme == scheme
        assert report.orig_size == dd.size()
        assert report.approx_size == out.size()
        assert report.approx_size <= report.orig_size
        recomputed = fidelity(dd, out)
        assert abs(report.attained_fidelity - recomputed) < 1e-12
        assert direct()[0].root == out.root
    with pytest.raises(TypeError):
        apply_scheme(dd, "sampling")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    target=st.sampled_from([0.3, 0.6, 0.9, 0.99]),
)
def test_best_level_is_first_smallest_fixed_level(n, seed, target):
    vec = dense_ref.random_state(np.random.default_rng(seed), n)
    fixed = [
        approx_target_fidelity(DDPackage().from_vector(vec), target, level=lvl)
        for lvl in range(n)
    ]
    sizes = [report.approx_size for _, report in fixed]
    first = sizes.index(min(sizes))
    out, report = approx_target_fidelity(DDPackage().from_vector(vec), target)
    assert report.approx_size == sizes[first]
    assert report.eliminated == fixed[first][1].eliminated
    assert np.allclose(out.to_vector(), fixed[first][0].to_vector(), atol=1e-9)


def test_sampling_three_walk_worked_case(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    out, report = approx_sampling(dd, 3, seed=0)
    out.validate()
    assert (report.orig_size, report.approx_size) == (6, 3)
    assert report.eliminated == 3
    assert report.attained_fidelity == pytest.approx(0.8, abs=1e-9)
    assert np.allclose(out.to_vector(), DEMO_APPROX_VECTOR, atol=1e-9)


def test_sampling_on_basis_state_changes_nothing(pkg):
    dd = pkg.zero_state(6)
    out, report = approx_sampling(dd, 500, seed=9)
    assert out.root == dd.root
    assert report.eliminated == 0
    assert report.compression == 1.0
    assert report.attained_fidelity == pytest.approx(1.0, abs=1e-12)


def test_sampling_fidelity_equals_kept_mass(pkg):
    rng = np.random.default_rng(83)
    for _ in range(10):
        vec = dense_ref.random_state(rng, 6)
        dd = pkg.from_vector(vec)
        out, report = approx_sampling(dd, 10_000, seed=17)
        kept = dense_ref.kept_mass(vec, out.to_vector())
        assert abs(report.attained_fidelity - kept) < 1e-9


def test_kept_mass_matches_dense_oracle():
    rng = np.random.default_rng(89)
    schemes = (Sampling(16, seed=4), Threshold(64, 1, seed=4), TargetFidelity(0.8),
               TargetFidelity(0.8, level=3), PerLevelFidelity(0.9))
    for _ in range(8):
        vec = dense_ref.random_state(rng, 6)
        for scheme in schemes:
            dd = DDPackage().from_vector(vec)
            out, report = apply_scheme(dd, scheme)
            assert report.eliminated
            assert abs(report.kept_mass - dense_ref.kept_mass(vec, out.to_vector())) < 1e-9
            assert abs(report.kept_mass - report.attained_fidelity) < 1e-9


def test_threshold_worked_counts(pkg):
    # at seed 11 the 10-walk counts are {10; 8, 2; 8, 0, 2}; tau = 3 prunes
    # the 2-, 0- and 2-count nodes and leaves the heavy branch
    dd = pkg.from_vector(DEMO_VECTOR)
    out, report = approx_threshold(dd, 10, tau=3, seed=11)
    out.validate()
    assert (report.orig_size, report.approx_size) == (6, 3)
    assert report.eliminated == 3
    assert np.allclose(out.to_vector(), DEMO_APPROX_VECTOR, atol=1e-9)


def test_threshold_tau_zero_matches_sampling(pkg):
    rng = np.random.default_rng(97)
    vec = dense_ref.random_state(rng, 6)
    dd = pkg.from_vector(vec)
    a, ra = approx_sampling(dd, 300, seed=5)
    b, rb = approx_threshold(dd, 300, tau=0, seed=5)
    assert a.root == b.root
    assert ra.eliminated == rb.eliminated


def test_threshold_doomed_monotone_in_tau(pkg):
    rng = np.random.default_rng(103)
    vec = dense_ref.random_state(rng, 6)
    dd = pkg.from_vector(vec)
    counts = sample_paths(dd, 200, seed=6).counts
    for tau in range(0, 6):
        small = {v for v, c in counts.items() if c <= tau}
        large = {v for v, c in counts.items() if c <= tau + 1}
        assert small <= large
    sizes = [
        approx_threshold(dd, 200, tau=tau, seed=6)[1].approx_size
        for tau in range(0, 8, 2)
    ]
    assert sizes == sorted(sizes, reverse=True)


def test_target_fidelity_worked_case_fixed_level(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    out, report = approx_target_fidelity(dd, 0.5, level=1)
    out.validate()
    assert report.eliminated == 1
    assert (report.orig_size, report.approx_size) == (6, 3)
    assert report.compression == pytest.approx(0.5, abs=1e-15)
    assert report.attained_fidelity == pytest.approx(0.8, abs=1e-9)
    assert np.allclose(out.to_vector(), DEMO_APPROX_VECTOR, atol=1e-9)


def test_target_fidelity_best_level_matches_worked_case(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    out, report = approx_target_fidelity(dd, 0.5)
    assert report.approx_size == 3
    assert report.attained_fidelity == pytest.approx(0.8, abs=1e-9)


def test_target_fidelity_one_keeps_everything(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    out, report = approx_target_fidelity(dd, 1.0)
    assert out.root == dd.root
    assert report.eliminated == 0
    assert report.kept_mass == 1.0
    assert report.compression == 1.0


def test_target_fidelity_level_out_of_range(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    with pytest.raises(ValueError):
        approx_target_fidelity(dd, 0.5, level=3)


def test_target_fidelity_guarantee_random_states(pkg):
    rng = np.random.default_rng(107)
    for _ in range(25):
        vec = dense_ref.random_state(rng, 7)
        dd = pkg.from_vector(vec)
        for f in (0.5, 0.9, 0.99):
            out, report = approx_target_fidelity(dd, f)
            assert report.attained_fidelity >= f
            kept = dense_ref.kept_mass(vec, out.to_vector())
            assert abs(report.attained_fidelity - kept) < 1e-9


def test_per_level_worked_case(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    out, report = approx_per_level(dd, 0.5)
    out.validate()
    # the right q1 node and both small q2 nodes fall inside the 0.5 budget;
    # the root level's single node carries full mass and always survives
    assert report.eliminated == 3
    assert report.approx_size == 3
    assert report.attained_fidelity == pytest.approx(0.8, abs=1e-9)
    assert np.allclose(out.to_vector(), DEMO_APPROX_VECTOR, atol=1e-9)


def test_per_level_identity_at_full_fidelity(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    out, report = approx_per_level(dd, 1.0)
    assert out.root == dd.root
    assert report.eliminated == 0


def test_per_level_lower_bound_random_states(pkg, capsys):
    rng = np.random.default_rng(109)
    reached_target = 0
    trials = 25
    for _ in range(trials):
        vec = dense_ref.random_state(rng, 7)
        dd = pkg.from_vector(vec)
        out, report = approx_per_level(dd, 0.9)
        bound = 0.9 ** (dd.n - 1)
        assert report.attained_fidelity >= bound
        kept = dense_ref.kept_mass(vec, out.to_vector())
        assert abs(report.attained_fidelity - kept) < 1e-9
        if report.attained_fidelity >= 0.9:
            reached_target += 1
    # recorded, not asserted: dense random states shed close to the budget
    # at every level, so the single-level target itself is rarely met
    print(f"per-level attained >= target in {reached_target}/{trials} runs")


@pytest.mark.parametrize("n, seed, p, f", [(3, 5, 0.0, 0.25), (5, 0, 0.5, 0.5)])
def test_per_level_floor_on_package_machine_vectors(n, seed, p, f):
    """Vectors of the package machine's `build_vector` rule on which the
    union of every level's uncut budget prefix removes all the mass:
    per-level must keep fidelity >= f^(n-1) here too."""
    machine = PackageMachine()
    machine.build_vector(n=n, seed=seed, p=p)
    ((dd, vec),) = machine.live
    out, report = apply_scheme(dd, PerLevelFidelity(f))
    assert report.attained_fidelity >= f ** (n - 1)
    assert abs(report.attained_fidelity - dense_ref.kept_mass(vec, out.to_vector())) < 1e-9


def test_determinism_same_inputs_same_output(pkg):
    rng = np.random.default_rng(113)
    vec = dense_ref.random_state(rng, 6)
    dd = pkg.from_vector(vec)
    a1, r1 = approx_sampling(dd, 128, seed=3)
    a2, r2 = approx_sampling(dd, 128, seed=3)
    assert a1.root == a2.root
    assert r1 == r2
    b1, _ = approx_target_fidelity(dd, 0.7)
    b2, _ = approx_target_fidelity(dd, 0.7)
    assert b1.root == b2.root


def test_outputs_keep_unit_norm(pkg):
    rng = np.random.default_rng(127)
    vec = dense_ref.random_state(rng, 6)
    dd = pkg.from_vector(vec)
    for out, _ in (
        approx_sampling(dd, 64, seed=1),
        approx_threshold(dd, 64, 1, seed=1),
        approx_target_fidelity(dd, 0.6),
        approx_per_level(dd, 0.6),
    ):
        assert abs(out.norm() - 1.0) <= 4 * pkg.table.tol
        out.validate()
