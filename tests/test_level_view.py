import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddapprox import (
    DDPackage,
    StateDD,
    approx_sampling,
    approx_target_fidelity,
    contributions,
    downstream,
    nodes_by_level,
    sample_paths,
    upstream,
)
from ddapprox.rng import (
    SplitMix64,
    _scramble,
    derive_seed,
    derive_seeds,
    random_array,
    scramble_array,
)

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
    assert [level for level, _, _ in dd.view.levels] == [0, 1, 2, 3]
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
@given(seed=SEEDS, start=st.integers(0, 2**20), count=st.integers(1, 30), draws=st.integers(1, 5))
def test_array_streams_match_scalar_streams(seed, start, count, draws):
    indices = range(start, start + count)
    states = derive_seeds(seed, start, start + count)
    assert states.tolist() == [derive_seed(seed, i) for i in indices]
    scalar = [SplitMix64(derive_seed(seed, i)) for i in indices]
    for _ in range(draws):
        assert random_array(states).tolist() == [s.random() for s in scalar]


def test_view_is_built_once_and_only_by_analysis():
    dd = DDPackage().from_vector(dense_ref.random_state(np.random.default_rng(3), 4))
    dd.size()
    dd.to_dot()
    dd.validate()
    assert "view" not in vars(dd)
    view = dd.view
    contributions(dd)
    sample_paths(dd, 10, seed=1)
    assert dd.view is view
    assert [v for group in nodes_by_level(dd).values() for v in group] == view.nodes
    assert not view.succ0.flags.writeable and not view.up.flags.writeable


def test_zero_qubit_state_maps():
    dd = DDPackage().from_vector([1.0])
    assert dd.view.levels == ()
    assert len(upstream(dd)) == 1
    assert downstream(dd) == contributions(dd) == nodes_by_level(dd) == {}
    assert sample_paths(dd, 5, seed=0).counts == {}


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
