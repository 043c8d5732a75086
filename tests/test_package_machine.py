"""A model-based test of one long-lived package.

One `DDPackage` is driven through a drawn sequence of builds, the four
schemes, eliminations, path samplings, queries and garbage collections.
Every live state keeps a dense numpy mirror. After every step each live
state must validate, match its mirror, and have contributions summing to 1
on every level. Each approximation must also meet the schemes' contract:
its fidelity floor, and an attained fidelity equal to the kept mass. Each
query must agree with the mirrors and leave the value table and the unique
table as large as it found them.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from ddapprox import (
    DDPackage,
    PerLevelFidelity,
    Sampling,
    TargetFidelity,
    Threshold,
    ZeroStateError,
    apply_scheme,
    contributions,
    eliminate,
    fidelity,
    inner_product,
    nodes_by_level,
    random_circuit,
    sample_paths,
    simulate,
)
from ddapprox.dd import reachable_nodes

import dense_ref

SEEDS = st.sampled_from((0, 5, -1, 2**64 - 1)) | st.integers(-(2**64), 2**65)
WALKS = st.integers(1, 64)
FIDELITIES = st.sampled_from((0.5, 0.9, 0.99)) | st.floats(0.05, 1.0)


def schemes(n):
    def threshold(walks):
        return st.builds(Threshold, st.just(walks), st.integers(0, walks - 1), SEEDS)

    return st.one_of(
        st.builds(Sampling, WALKS, SEEDS),
        WALKS.flatmap(threshold),
        st.builds(TargetFidelity, FIDELITIES, st.just("best") | st.integers(0, n - 1)),
        st.builds(PerLevelFidelity, FIDELITIES),
    )


def dense_eliminated(dd, vec, doomed):
    """The mirror of eliminating the nodes `doomed`, or None when that
    leaves no probability mass (up to the mirror's rounding)."""
    mask = dense_ref.doomed_mask(dd, doomed)
    if np.linalg.norm(vec[~mask]) < 1e-6:
        return None
    return dense_ref.eliminate_dense(vec, mask)


class PackageMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pkg = DDPackage()
        self.live = []  # (state, dense mirror)

    def pick(self, data):
        return self.live[data.draw(st.integers(0, len(self.live) - 1))]

    def query(self, call, *args):
        """`call(*args)`, checked to add nothing to either table."""
        before = len(self.pkg.table), self.pkg.unique_table_size()
        out = call(*args)
        assert (len(self.pkg.table), self.pkg.unique_table_size()) == before
        return out

    @rule(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), p=st.sampled_from((0.0, 0.5, 0.9)))
    def build_vector(self, n, seed, p):
        rng = np.random.default_rng(seed)
        vec = dense_ref.random_state(rng, n)
        zero = rng.random(1 << n) < p
        zero[rng.integers(1 << n)] = False
        vec = np.where(zero, 0.0, vec)
        vec /= np.linalg.norm(vec)
        self.live.append((self.pkg.from_vector(vec), vec))

    @rule(n=st.integers(1, 6), depth=st.integers(0, 8), seed=st.integers(0, 2**16))
    def build_circuit(self, n, depth, seed):
        circuit = random_circuit(n, depth, seed)
        self.live.append((simulate(circuit, self.pkg), dense_ref.simulate_dense(circuit)))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def approximate(self, data):
        dd, vec = self.pick(data)
        scheme = data.draw(schemes(dd.n))
        try:
            out, report = apply_scheme(dd, scheme)
        except ZeroStateError:
            out = None
        wants = [
            dense_eliminated(dd, vec, [dd.view.nodes[i] for i in doomed])
            for doomed in scheme.candidates(dd)
            if len(doomed)
        ]
        if out is None:  # only a threshold's one candidate can doom every path
            assert isinstance(scheme, Threshold) and wants[0] is None
            return
        if report.eliminated == 0:
            assert out.root == dd.root
            want = vec
        else:  # the mirror of the candidate the scheme kept
            got = out.to_vector()
            kept = [w for w in wants if w is not None and np.allclose(got, w, rtol=0.0, atol=1e-9)]
            assert kept
            want = kept[0]
        if isinstance(scheme, TargetFidelity):
            assert report.attained_fidelity >= scheme.fidelity
        if isinstance(scheme, PerLevelFidelity):
            assert report.attained_fidelity >= scheme.fidelity ** (dd.n - 1)
        assert abs(report.attained_fidelity - dense_ref.kept_mass(vec, want)) < 1e-9
        assert abs(report.kept_mass - report.attained_fidelity) < 1e-9
        self.live.append((out, want))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def eliminate_nodes(self, data):
        dd, vec = self.pick(data)
        # nodes of another state count where `dd` reaches them and are ignored elsewhere
        pool = reachable_nodes(dd) + reachable_nodes(self.pick(data)[0])
        doomed = data.draw(st.sets(st.sampled_from(pool), max_size=4)) if pool else set()
        want = dense_eliminated(dd, vec, doomed)
        try:
            out = eliminate(dd, doomed)
        except ZeroStateError:
            assert want is None
            return
        self.live.append((out, want))

    @precondition(lambda self: self.live)
    @rule(data=st.data(), walks=st.integers(1, 200), seed=SEEDS)
    def sample(self, data, walks, seed):
        dd, _ = self.pick(data)
        visits = self.query(sample_paths, dd, walks, seed)
        assert visits.counts == dense_ref.replay_walks(dd, walks, seed)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def amplitude(self, data):
        dd, vec = self.pick(data)
        i = data.draw(st.integers(0, len(vec) - 1))
        amp = self.query(dd.amplitude, format(i, f"0{dd.n}b"))
        assert type(amp) is complex
        assert abs(amp - vec[i]) < 1e-9

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def overlap(self, data):
        a, u = self.pick(data)
        b, v = data.draw(st.sampled_from([s for s in self.live if s[0].n == a.n]))
        ip = self.query(inner_product, a, b)
        assert type(ip) is complex
        assert abs(ip - np.vdot(u, v)) < 1e-9
        assert abs(self.query(fidelity, a, b) - dense_ref.fidelity_dense(u, v)) < 1e-9

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def render(self, data):
        dd, vec = self.pick(data)
        size = self.query(dd.size)
        levels = self.query(nodes_by_level, dd)
        assert size == sum(map(len, levels.values()))
        for level, (low, high) in enumerate(dense_ref.level_size_bounds(vec)):
            assert low <= len(levels.get(level, ())) <= high
        dot = self.query(dd.to_dot)
        assert dot.count("shape=circle") == size
        assert dot.count(" -> ") == 2 * size + 1  # the root edge, then two per node

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def collect(self, data):
        kept = data.draw(st.sets(st.integers(0, len(self.live) - 1)))
        self.live = [self.live[i] for i in sorted(kept)]  # the others are retired
        self.pkg.collect_garbage([dd.root for dd, _ in self.live])
        live_nodes = {v for dd, _ in self.live for v in reachable_nodes(dd)}
        assert self.pkg.unique_table_size() == len(live_nodes)

    @invariant()
    def live_states_hold(self):
        for dd, vec in self.live:
            self.query(dd.validate)
            assert np.allclose(self.query(dd.to_vector), vec, rtol=0.0, atol=1e-9)
            contrib = self.query(contributions, dd)
            for group in self.query(nodes_by_level, dd).values():
                assert abs(sum(contrib[v] for v in group) - 1.0) < 1e-9


TestPackageMachine = PackageMachine.TestCase
TestPackageMachine.settings = settings(max_examples=60, stateful_step_count=25, deadline=None)
