import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddapprox import (
    ComplexValue,
    DDPackage,
    Edge,
    Node,
    StateDD,
    approx_per_level,
    approx_sampling,
    approx_target_fidelity,
    approx_threshold,
    contributions,
    ghz,
    nodes_by_level,
    sample_paths,
    simulate,
)
from ddapprox import analysis
from ddapprox.analysis import downstream, upstream
from ddapprox.rng import (
    _GOLDEN,
    _MASK64,
    _MIX1,
    _MIX2,
    SplitMix64,
    _scramble,
    derive_seeds,
    draw_array,
    scramble_array,
)

from conftest import assert_view_keeps_only_chains
from dense_ref import derive_seed

import dense_ref


def sparse_state(n, seed, split, p):
    """A random unit vector on n qubits, the product of states on the first
    `split` qubits and on the rest, with each amplitude but one zeroed with
    probability p."""
    rng = np.random.default_rng(seed)
    vec = dense_ref.random_state(rng, n - split)
    if split:
        vec = np.kron(dense_ref.random_state(rng, split), vec)
    zero = rng.random(1 << n) < p
    zero[rng.integers(1 << n)] = False
    vec = np.where(zero, 0.0, vec)
    return vec / np.linalg.norm(vec)


@st.composite
def sparse_states(draw):
    """Unit vectors on 1..6 qubits with some amplitudes zeroed, so zero-stubs
    appear and branch probabilities take the exact values 0 and 1. Product
    states share one node among many parents, so the order in which its
    incoming masses are summed shows in the last bits."""
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    split = draw(st.integers(0, n - 1))
    return sparse_state(n, seed, split, draw(st.sampled_from((0.0, 0.3, 0.6, 0.9))))


SEEDS = st.integers(-(2**64), 2**65)


def skipping_diagram(rng):
    """A diagram whose edges skip levels: walks end after different numbers
    of steps, and one node has parents on three different levels."""
    pkg = DDPackage()

    def leaf():
        return pkg.terminal_edge(*rng.standard_normal(2))

    c = pkg.make_node(3, leaf(), leaf())
    b = pkg.make_node(2, c, leaf())
    a = pkg.make_node(1, b, c)
    return StateDD(4, pkg.make_node(0, a, c), pkg)


@settings(max_examples=80, deadline=None)
@given(vec=sparse_states(), traversals=st.integers(1, 400), seed=SEEDS)
def test_lockstep_counts_equal_walk_by_walk_replay(vec, traversals, seed):
    dd = DDPackage().from_vector(vec)
    got = sample_paths(dd, traversals, seed).counts
    assert got == dense_ref.replay_walks(dd, traversals, seed)
    assert all(type(c) is int for c in got.values())


@settings(max_examples=40, deadline=None)
@given(rng_seed=st.integers(0, 2**32 - 1), traversals=st.integers(1, 400), seed=SEEDS)
def test_level_skipping_diagram_matches_references(rng_seed, traversals, seed):
    dd = skipping_diagram(np.random.default_rng(rng_seed))
    assert list(dd.view.levels) == [0, 1, 2, 3]
    assert sample_paths(dd, traversals, seed).counts == dense_ref.replay_walks(
        dd, traversals, seed
    )
    assert upstream(dd) == dense_ref.upstream_ref(dd)
    assert downstream(dd) == dense_ref.downstream_ref(dd)
    assert contributions(dd) == dense_ref.contributions_ref(dd)


@settings(max_examples=80, deadline=None)
@given(vec=sparse_states())
# Two level-1 nodes share the one level-2 node through all four of their
# edges: adding a level's 0-edges before its 1-edges changes its downstream.
@example(vec=sparse_state(3, 9, 2, 0.0))
def test_level_passes_equal_node_by_node_references(vec):
    dd = DDPackage().from_vector(vec)
    assert upstream(dd) == dense_ref.upstream_ref(dd)
    assert downstream(dd) == dense_ref.downstream_ref(dd)
    assert contributions(dd) == dense_ref.contributions_ref(dd)


@settings(max_examples=60, deadline=None)
@given(z=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_array_scramble_matches_scalar(z):
    got = scramble_array(np.array(z, dtype=np.uint64)).tolist()
    assert got == [_scramble(v) for v in z]


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    start=st.integers(0, 2**20),
    count=st.integers(1, 30),
    draws=st.integers(1, 5),
    ks=st.lists(st.integers(1, 200), min_size=30, max_size=30),
)
def test_array_streams_match_scalar_streams(seed, start, count, draws, ks):
    indices = range(start, start + count)
    states = derive_seeds(seed, start, start + count)
    assert states.tolist() == [derive_seed(seed, i) for i in indices]
    scalar = [SplitMix64(derive_seed(seed, i)) for i in indices]
    for k in range(1, draws + 1):
        got = draw_array(states, k).astype(np.float64) * 2.0**-53
        assert got.tolist() == [s.random() for s in scalar]
    # one step index per stream, as the walk kernel passes it
    k = np.array(ks[:count], dtype=np.uint64)
    got = draw_array(states, k)
    assert got.dtype == np.uint64 and k.tolist() == ks[:count]
    for i, (x, s) in enumerate(zip(got.tolist(), indices)):
        stream = SplitMix64(derive_seed(seed, s))
        for _ in range(ks[i]):
            want = stream.random()
        assert x * 2.0**-53 == want
    assert states.tolist() == [derive_seed(seed, i) for i in indices]


def _unxorshift(y, shift):
    z = y
    for _ in range(64 // shift):
        z = y ^ (z >> shift)
    return z


def _unscramble(z):
    """The inverse of `_scramble`: undo each xorshift and odd product."""
    z = _unxorshift(z, 31)
    z = (z * pow(_MIX2, -1, 1 << 64)) & _MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(_MIX1, -1, 1 << 64)) & _MASK64
    return _unxorshift(z, 30)


def seed_with_first_output(x):
    """The seed whose walk 0 gets the 64-bit output `x` on its first draw."""
    s0 = (_unscramble(x) - _GOLDEN) & _MASK64  # derive_seed(seed, 0)
    return (_unscramble(s0) - _GOLDEN) & _MASK64


#: Walk 0 draws 2**53 - 1, the largest draw, at the root.
TOP_SEED = seed_with_first_output(_MASK64)
#: Walk 0 draws 0, the smallest draw, at the root.
BOTTOM_SEED = seed_with_first_output(0)


def test_crafted_seeds_give_the_extreme_first_draws():
    assert SplitMix64(derive_seed(TOP_SEED, 0)).random() == 1.0 - 2.0**-53
    assert SplitMix64(derive_seed(BOTTOM_SEED, 0)).random() == 0.0


def forked_diagram(root_weights=None, tiny=1e-9):
    """A root over two level-1 nodes: a 1-successor zero-stub (p1 = 0) and a
    0-successor zero-stub (p1 = 1), so the walks the root sends each way
    count apart. By default the root is reduced with 1-weight `tiny`; with
    `root_weights`, two (re, im) pairs, it is built by hand, unreduced."""
    pkg = DDPackage()
    one = pkg.terminal_edge(1.0)
    a = pkg.make_node(1, one, pkg.zero_stub)
    b = pkg.make_node(1, pkg.zero_stub, one)
    if root_weights is None:
        return StateDD(2, pkg.make_node(0, a, Edge(b.target, pkg.table.lookup(tiny, 0.0))), pkg)
    w0, w1 = (ComplexValue(re, im, -1) for re, im in root_weights)
    root = Node(0, Edge(a.target, w0), Edge(b.target, w1), pkg._next_uid)
    return StateDD(2, Edge(root, pkg.table.one), pkg)


def forced_skipping_diagram(rng):
    """A diagram whose forced chains skip levels. The root draws between
    `a`, which is forced onto `c` over the empty level 2, and `b`, which
    draws between `c` and the terminal; so `c` is entered both straight from
    a draw and at the end of a chain."""
    pkg = DDPackage()

    def leaf():
        return pkg.terminal_edge(*rng.standard_normal(2))

    c = pkg.make_node(3, leaf(), leaf())
    b = pkg.make_node(2, c, leaf())
    a = pkg.make_node(1, pkg.zero_stub, c)
    return StateDD(4, pkg.make_node(0, a, b), pkg)


def deep_draw_state():
    """|1>|0>|1>|1> times a 2-qubit state: the root and the next three
    levels are forced, to the 1-side and the 0-side, so every walk jumps
    from the root to the first draw node, on level 4. Below it one level-5
    node draws and the other is forced."""
    vec = np.zeros(64, dtype=complex)
    vec[0b101100], vec[0b101101], vec[0b101111] = 0.6, 0.64j, -0.48
    return DDPackage().from_vector(vec)


@pytest.mark.parametrize("name", ["skipping", "forced-skipping", "forked", "forked-by-hand"])
def test_node_mass_equals_node_by_node_upstream(name):
    if name in ("skipping", "forced-skipping"):
        build = skipping_diagram if name == "skipping" else forced_skipping_diagram
        dd = build(np.random.default_rng(7))
    else:
        dd = forked_diagram(None if name == "forked" else ((0.6, 0.0), (0.0, 0.8)))
    up = dense_ref.upstream_ref(dd)
    nodes = dd.view.nodes
    assert all(v.mass == up[v] for v in nodes)
    assert dd.view.up.tolist() == [v.mass for v in nodes] + [1.0]


def root_p1(dd):
    view = dd.view
    return view.mag[0, 1] * view.up[view.succ[0, 1]] / view.up[0]


def check_cached_calls(dd, calls):
    for traversals, seed in calls:
        got = sample_paths(dd, traversals, seed).counts
        assert got == dense_ref.replay_walks(dd, traversals, seed)
    assert_view_keeps_only_chains(dd.view)


def cache_example(name):
    """A state with few or no nodes that draw, and a seed to sample it with."""
    if name == "ghz8":  # only the root draws
        return simulate(ghz(8), DDPackage()), 0
    if name == "zero6":  # no node draws
        return DDPackage().zero_state(6), 0
    if name == "top":
        # |w1|^2 = 1 - 2**-53 over |w0|^2 = 2**-53: the root's p1 * 2**53 is
        # 2**53 - 1 exactly, so the largest draw must still go to the 0-side.
        dd = forked_diagram(((2.0**-27, 2.0**-27), (1.0 - 2.0**-53, 1.5 * 2.0**-27)))
        assert root_p1(dd) == 1.0 - 2.0**-53
        return dd, TOP_SEED
    # p1 = 1e-18 < 2**-53: only a draw of 0 takes the 1-side.
    dd = forked_diagram()
    assert 0.0 < root_p1(dd) < 2.0**-53
    return dd, BOTTOM_SEED


@pytest.mark.parametrize("name", ["ghz8", "zero6", "top", "bottom"])
def test_walk_cache_examples(monkeypatch, name):
    dd, special = cache_example(name)
    monkeypatch.setattr(analysis, "_WALK_BLOCK", 3)
    calls = [(1, special), (5, 0), (40, 0), (40, 0), (3, 0), (17, -1), (80, 2**64 - 1),
             (2, special), (9, special), (9, -1), (64, 0)]
    check_cached_calls(dd, calls)
    if name in ("top", "bottom"):  # walk 0 took the branch the extreme draw picks
        assert sample_paths(dd, 1, special).counts[dd.view.nodes[1]] == (name == "top")


def test_forced_chain_examples(monkeypatch):
    calls = [(40, 0), (100, -1), (100, 0), (7, 2**64 - 1)]
    monkeypatch.setattr(analysis, "_WALK_BLOCK", 1000)
    dd = simulate(ghz(64), DDPackage())
    check_cached_calls(dd, [(3000, 0), (1000, 5), (2500, 5)])
    jump, steps = dd.view.chains[1:3]
    assert (jump[0], steps[0]) == (0, 1)  # only the root draws
    assert steps.max() == 64  # the chains below it run to the terminal
    monkeypatch.setattr(analysis, "_WALK_BLOCK", 3)
    dd = deep_draw_state()
    check_cached_calls(dd, calls)
    jump, steps = dd.view.chains[1:3]
    assert dd.view.nodes[jump[0]].level == 4 and steps[0] == 5
    for build in (skipping_diagram, forced_skipping_diagram):
        for rng_seed in range(3):
            dd = build(np.random.default_rng(rng_seed))
            check_cached_calls(dd, calls)
    a = dd.view.index[dd.root.target.succ0.target]
    jump, steps = dd.view.chains[1:3]
    assert dd.view.nodes[jump[a]].level == 3 and steps[a] == 2


@settings(max_examples=60, deadline=None)
@given(
    vec=sparse_states(),
    block=st.integers(1, 50),
    calls=st.lists(
        st.tuples(st.integers(1, 120), st.sampled_from((0, 5, -1, 2**64 - 1))),
        min_size=1,
        max_size=8,
    ),
)
# ascending, repeated and descending counts, one seed as -1 and as 2**64 - 1
@example(vec=sparse_state(4, 1, 2, 0.3), block=7,
         calls=[(10, -1), (30, 2**64 - 1), (30, -1), (5, 0), (12, -1), (3, 2**64 - 1)])
def test_walk_cache_matches_fresh_replays(vec, block, calls):
    dd = DDPackage().from_vector(vec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_WALK_BLOCK", block)
        check_cached_calls(dd, calls)


def test_walk_cache_keeps_one_seed():
    dd = DDPackage().from_vector(sparse_state(5, 4, 2, 0.3))
    for seed in range(10):
        sample_paths(dd, 100, seed)
    assert_view_keeps_only_chains(dd.view)
    assert sample_paths(dd, 100, 4).counts == dense_ref.replay_walks(dd, 100, 4)
    assert_view_keeps_only_chains(dd.view)


def test_view_is_built_once_and_only_by_analysis():
    dd = DDPackage().from_vector(dense_ref.random_state(np.random.default_rng(3), 4))
    dd.size()
    dd.to_dot()
    dd.validate()
    assert "view" not in vars(dd)
    view = dd.view
    contributions(dd)
    # only sampling builds the forced-chain arrays
    assert view.chains is None
    for traversals in (40, 100, 100, 20):
        sample_paths(dd, traversals, seed=1)
        approx_threshold(dd, traversals, 1, seed=1)
    assert dd.view is view
    assert_view_keeps_only_chains(view)
    assert [v for group in nodes_by_level(dd).values() for v in group] == view.nodes
    assert not view.succ.flags.writeable and not view.mag.flags.writeable
    assert not view.up.flags.writeable


def test_zero_qubit_state_maps():
    dd = DDPackage().from_vector([1.0])
    assert dd.view.levels == {}
    assert len(upstream(dd)) == 1
    assert downstream(dd) == contributions(dd) == nodes_by_level(dd) == {}
    assert sample_paths(dd, 5, seed=0).counts == {}
    for out, report in (approx_per_level(dd, 0.5), approx_target_fidelity(dd, 0.5)):
        assert out.root == dd.root and report.eliminated == 0  # no level, no candidate


def test_analysis_is_recursion_free_at_3000_qubits():
    dd = DDPackage().zero_state(3000)
    assert dd.size() == 3000
    contrib = contributions(dd)
    assert len(contrib) == 3000 and set(contrib.values()) == {1.0}
    counts = sample_paths(dd, 7, seed=2).counts
    assert len(counts) == 3000 and set(counts.values()) == {7}
    out, report = approx_sampling(dd, 7, seed=2)
    assert out.size() == report.approx_size == 3000
    out, report = approx_target_fidelity(dd, 0.9)
    assert out.size() == report.approx_size == 3000
    assert report.attained_fidelity == 1.0
