import gc
import importlib
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddapprox import (
    Circuit,
    DDPackage,
    DDError,
    Gate,
    NumericDomainError,
    PerLevelFidelity,
    Sampling,
    SizeLimitError,
    StateDD,
    TERMINAL,
    TargetFidelity,
    Threshold,
    ZeroStateError,
    apply_scheme,
    approx_target_fidelity,
    approx_threshold,
    contributions,
    eliminate,
    fidelity,
    ghz,
    inner_product,
    nodes_by_level,
    qft,
    random_circuit,
    sample_paths,
    simulate,
)
from ddapprox.dd import reachable_nodes
from conftest import DEMO_VECTOR, assert_view_keeps_only_chains, demo_nodes

import dense_ref


def test_make_node_zero_zero_is_stub(pkg):
    e = pkg.make_node(0, pkg.zero_stub, pkg.zero_stub)
    assert e == pkg.zero_stub


def test_make_node_dedupes(pkg):
    one = pkg.table.one
    a = pkg.make_node(1, pkg.terminal_edge(1.0), pkg.terminal_edge(1.0))
    b = pkg.make_node(1, pkg.terminal_edge(1.0), pkg.terminal_edge(1.0))
    assert a.target is b.target
    assert a.weight is b.weight
    assert a.target.succ0.weight is one and a.target.succ1.weight is one


def test_make_node_normalizes_larger_weight_to_one(pkg):
    e = pkg.make_node(0, pkg.terminal_edge(0.6), pkg.terminal_edge(-0.8))
    node = e.target
    assert node.succ1.weight is pkg.table.one
    assert node.succ0.weight.re == pytest.approx(-0.75, abs=1e-15)
    assert e.weight.re == pytest.approx(-0.8, abs=1e-15)


def test_make_node_tie_prefers_succ0(pkg):
    e = pkg.make_node(0, pkg.terminal_edge(0.5), pkg.terminal_edge(-0.5))
    assert e.target.succ0.weight is pkg.table.one
    assert e.target.succ1.weight.re == -1.0


def test_make_node_single_successor_keeps_phase_below(pkg):
    e = pkg.make_node(0, pkg.zero_stub, pkg.terminal_edge(-0.25))
    node = e.target
    assert node.succ0 == pkg.zero_stub
    assert node.succ1.weight.re == -1.0
    assert e.weight.re == pytest.approx(0.25, abs=1e-15)
    assert e.weight.im == 0.0


def test_make_node_rejects_bad_levels(pkg):
    inner = pkg.make_node(1, pkg.terminal_edge(1.0), pkg.zero_stub)
    with pytest.raises(DDError):
        pkg.make_node(1, inner, pkg.zero_stub)
    with pytest.raises(DDError):
        pkg.make_node(2, inner, pkg.zero_stub)


def _node_calls(pkg, pair):
    """The same make_node calls, successors passed through `pair`."""
    leaf = [pkg.terminal_edge(x, y) for x, y in ((0.6, 0.1), (-0.8, 0.0), (5.0, 0.0), (2e-10, 0.0))]
    a = pkg.make_node(1, pair(leaf[0]), pair(leaf[1]))
    b = pkg.make_node(1, pair(leaf[1]), pair(pkg.zero_stub))
    c = pkg.make_node(1, pair(leaf[2]), pair(leaf[3]))  # ratio below tolerance
    return [a, b, c, pkg.make_node(0, pair(a), pair(b)), pkg.make_node(0, pair(c), pair(c))]


def test_make_node_takes_plain_pairs():
    by_edge, by_pair = DDPackage(), DDPackage()
    got = _node_calls(by_pair, tuple)
    want = _node_calls(by_edge, lambda e: e)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert (g.target.uid, g.target.level) == (w.target.uid, w.target.level)
        assert (g.weight.re, g.weight.im, g.weight.seq) == (w.weight.re, w.weight.im, w.weight.seq)
    assert len(by_pair.table) == len(by_edge.table)
    assert by_pair.unique_table_size() == by_edge.unique_table_size()
    # an empty successor slot holds the package's one shared zero-stub
    assert got[1].target.succ1 is by_pair.zero_stub
    assert got[2].target.succ1 is by_pair.zero_stub


def test_make_node_checks_levels_of_live_pairs_only(pkg):
    inner = pkg.make_node(1, pkg.terminal_edge(1.0), pkg.zero_stub)
    with pytest.raises(DDError, match="^successor at level 1 not below level 1$"):
        pkg.make_node(1, pkg.terminal_edge(1.0), (inner.target, inner.weight))
    e = pkg.make_node(1, (inner.target, pkg.table.zero), pkg.terminal_edge(-1.0))
    assert e.target.succ0 is pkg.zero_stub


def test_demo_vector_structure(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    dd.validate()
    assert dd.size() == 6
    sizes = {lvl: len(nodes) for lvl, nodes in nodes_by_level(dd).items()}
    assert sizes == {0: 1, 1: 2, 2: 3}
    assert dd.root.weight.re == pytest.approx(2 / math.sqrt(10.0), abs=1e-14)
    # the right q1 edge carries the factor 1/2
    assert dd.root.target.succ1.weight.re == pytest.approx(0.5, abs=1e-14)
    nodes = demo_nodes(dd)
    # left q1 node routes both successors to the same child
    assert nodes["q1l"].succ0.target is nodes["q1l"].succ1.target
    # the negative amplitude keeps its sign below the half-empty node
    assert nodes["q2r"].succ1.weight.re == -1.0


def test_demo_amplitudes(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    amp = dd.amplitude("111")
    assert amp.real == pytest.approx(-1 / math.sqrt(10.0), abs=1e-12)
    assert amp.imag == 0.0
    assert dd.amplitude("000") == 0j
    for i in range(8):
        bits = format(i, "03b")
        got = dd.amplitude(bits)
        assert got == pytest.approx(DEMO_VECTOR[i], abs=1e-12)


def test_amplitude_validation(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    with pytest.raises(ValueError):
        dd.amplitude("10")
    with pytest.raises(ValueError):
        dd.amplitude("10x")


def test_basis_state_structure(pkg):
    n = 5
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 1.0
    dd = pkg.from_vector(vec)
    assert dd.size() == n
    for node in reachable_nodes(dd):
        assert node.succ1 is pkg.zero_stub
    assert dd.amplitude("0" * n) == 1


def test_from_vector_rejections(pkg):
    with pytest.raises(ValueError):
        pkg.from_vector([1.0, 0.0, 0.0])  # not a power of two
    with pytest.raises(ZeroStateError):
        pkg.from_vector([0.0, 0.0])
    with pytest.raises(ValueError):
        pkg.from_vector([0.5, 0.5])  # norm too far from 1
    with pytest.raises(NumericDomainError):
        pkg.from_vector([np.nan, 1.0])


def test_from_vector_accepts_small_norm_drift(pkg):
    vec = np.array([1.0 + 5e-7, 0.0], dtype=complex)
    dd = pkg.from_vector(vec)
    assert dd.norm() == pytest.approx(1.0, abs=1e-12)


def test_roundtrip_random_states(pkg):
    rng = np.random.default_rng(11)
    tol = 4 * pkg.table.tol
    for _ in range(100):
        vec = dense_ref.random_state(rng, 5)
        dd = pkg.from_vector(vec)
        assert np.max(np.abs(dd.to_vector() - vec)) < tol


def test_amplitude_agrees_with_to_vector(pkg):
    rng = np.random.default_rng(5)
    for n in (2, 4, 8):
        vec = dense_ref.random_state(rng, n)
        dd = pkg.from_vector(vec)
        dense = dd.to_vector()
        for i in range(1 << n):
            bits = format(i, f"0{n}b")
            assert dd.amplitude(bits) == pytest.approx(
                dense[i], abs=1e-12
            )


def test_canonicity_same_vector_same_root(pkg):
    rng = np.random.default_rng(23)
    vec = dense_ref.random_state(rng, 4)
    a = pkg.from_vector(vec)
    b = pkg.from_vector(vec)
    assert a.root == b.root
    # perturbations below the tolerance land on the same diagram
    bump = (pkg.table.tol / 4) * np.ones_like(vec)
    c = pkg.from_vector(vec + bump)
    assert c.root == a.root


def test_product_state_has_one_node_per_level(pkg):
    rng = np.random.default_rng(17)
    n = 6
    vec = np.array([1.0], dtype=complex)
    for _ in range(n):
        q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q /= np.linalg.norm(q)
        vec = np.kron(vec, q)
    dd = pkg.from_vector(vec)
    assert dd.size() == n
    assert np.max(np.abs(dd.to_vector() - vec)) < 4 * pkg.table.tol


def test_path_products_bounded_by_root_weight(pkg):
    rng = np.random.default_rng(37)
    for _ in range(10):
        dd = pkg.from_vector(dense_ref.random_state(rng, 6))
        root_mag = abs(dd.root.weight.as_complex())
        assert np.max(np.abs(dd.to_vector())) <= root_mag + 1e-12


def test_size_counts_distinct_reachable_nodes(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    assert dd.size() == len(set(reachable_nodes(dd)))


def test_renormalize_restores_unit_norm(pkg):
    rng = np.random.default_rng(31)
    from ddapprox.dd import Edge, StateDD

    for _ in range(20):
        vec = dense_ref.random_state(rng, 4)
        dd = pkg.from_vector(vec)
        scaled = StateDD(
            dd.n, Edge(dd.root.target, pkg.table.lookup(0.5 * dd.root.weight.re, 0.5 * dd.root.weight.im)), pkg
        )
        back = scaled.renormalize()
        assert abs(back.norm() - 1.0) <= 1e-10
    already = pkg.from_vector(vec)
    again = already.renormalize()
    assert again.root.weight is already.root.weight


def test_renormalize_zero_state_raises(pkg):
    from ddapprox.dd import StateDD

    zero = StateDD(0, pkg.zero_stub, pkg)
    with pytest.raises(ZeroStateError):
        zero.renormalize()


@st.composite
def norm_states(draw):
    """Simulated random circuits and QFTs, `from_vector` states with
    zero-stubs, and 0-qubit states with any root weight."""
    pkg = DDPackage()
    kind = draw(st.sampled_from(["circuit", "qft", "sparse", "empty"]))
    if kind == "empty":
        re, im = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
        return StateDD(0, pkg.terminal_edge(re, im), pkg)
    n = draw(st.integers(1, 6))
    if kind == "circuit":
        depth, seed = draw(st.integers(1, 3 * n)), draw(st.integers(0, 999))
        return simulate(random_circuit(n, depth, seed), pkg)
    if kind == "qft":
        return simulate(qft(n), pkg)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = dense_ref.random_state(rng, n)
    vec[rng.random(1 << n) < draw(st.sampled_from((0.0, 0.4, 0.8)))] = 0.0
    vec[rng.integers(1 << n)] = 1.0
    return pkg.from_vector(vec / np.linalg.norm(vec))


@settings(max_examples=160, deadline=None)
@given(dd=norm_states())
def test_norm_equals_node_by_node_upstream(dd):
    root = dd.root
    up = dense_ref.upstream_ref(dd)
    assert all(v.mass == up[v] for v in reachable_nodes(dd))
    assert dd.norm() == math.sqrt(dense_ref._mag2(root.weight) * up[root.target])


def test_norm_is_recursion_free_at_3000_qubits():
    z = DDPackage().zero_state(3000)
    assert z.norm() == 1.0
    again = z.renormalize()
    assert again.root.target is z.root.target
    assert again.root.weight is z.root.weight
    assert fidelity(z, z) == 1.0


def test_to_vector_cap(pkg):
    with pytest.raises(SizeLimitError):
        pkg.zero_state(21).to_vector()
    assert pkg.zero_state(20).to_vector()[0] == 1.0


def _exercise_public_calls() -> None:
    pkg = DDPackage()
    for circuit in (ghz(8), qft(5), random_circuit(6, 10, 2)):
        simulate(circuit, pkg).validate()
    dd = pkg.from_vector(DEMO_VECTOR)
    for scheme in (Sampling(64, 1), Threshold(64, 8, 1), TargetFidelity(0.7), PerLevelFidelity(0.7)):
        apply_scheme(dd, scheme)
    out = eliminate(dd, [demo_nodes(dd)["q2r"]])
    fidelity(dd, out)
    inner_product(dd, out)
    out.renormalize()
    dd.amplitude("011")
    dd.to_vector()
    dd.to_dot()
    out.validate()
    contributions(dd)
    sample_paths(dd, 32, 3)
    fresh = pkg.from_vector(DEMO_VECTOR)
    contributions(fresh)
    assert fresh.view.chains is None  # only sampling builds the chain arrays
    for traversals in (32, 64, 64, 16):
        sample_paths(fresh, traversals, 3)
        approx_threshold(fresh, traversals, 4, seed=-1)
    assert_view_keeps_only_chains(fresh.view)
    try:  # not pytest.raises: its ExceptionInfo would hold this frame in a cycle
        eliminate(dd, reachable_nodes(dd))
    except ZeroStateError:
        pass
    else:
        raise AssertionError("eliminating every node must raise ZeroStateError")


def test_public_calls_leave_no_garbage_cycle():
    # The diagram-building calls pause the cycle collector, which is safe
    # only while reference counting frees everything the package makes: a
    # reference cycle (say, a closure that refers to itself, or to_vector's
    # memo held by one) would otherwise pile up unseen while it is paused.
    gc.collect()
    gc.disable()
    try:
        _exercise_public_calls()  # its results are dropped on return
        assert gc.collect() == 0
    finally:
        gc.enable()


# One normal call of each entry point that pauses the cycle collector.
PAUSED_CALLS = {
    "simulate": lambda pkg, dd: simulate(ghz(3), pkg),
    "from_vector": lambda pkg, dd: pkg.from_vector(DEMO_VECTOR),
    "apply_scheme": lambda pkg, dd: apply_scheme(dd, TargetFidelity(0.7)),
    "eliminate": lambda pkg, dd: eliminate(dd, [demo_nodes(dd)["q2r"]]),
    "fidelity": lambda pkg, dd: fidelity(dd, pkg.from_vector(DEMO_VECTOR[::-1])),
    "inner_product": lambda pkg, dd: inner_product(dd, pkg.from_vector(DEMO_VECTOR[::-1])),
}


@pytest.fixture
def collector():
    """Restores the cycle collector's state whatever the test leaves it in."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", sorted(PAUSED_CALLS))
def test_paused_call_restores_the_collector(pkg, demo_state, monkeypatch, collector, name, enabled):
    inside = []

    def spy(original):
        def record(*args):
            inside.append(gc.isenabled())
            return original(*args)

        return record

    fid = importlib.import_module("ddapprox.fidelity")
    monkeypatch.setattr(DDPackage, "_intern", spy(DDPackage._intern))
    monkeypatch.setattr(fid, "_ip", spy(fid._ip))
    (gc.enable if enabled else gc.disable)()
    PAUSED_CALLS[name](pkg, demo_state)
    assert inside and not any(inside)
    assert gc.isenabled() is enabled


def test_collector_restored_after_errors(pkg, demo_state, collector):
    with pytest.raises(ZeroStateError):
        eliminate(demo_state, reachable_nodes(demo_state))
    assert gc.isenabled()
    with pytest.raises(RecursionError):  # the gate kernel recurses once per level
        simulate(Circuit(1500, (Gate("x", (1499,)),)), pkg)
    assert gc.isenabled()
    with pytest.raises(ValueError):
        pkg.from_vector([1.0, 0.0, 0.0])
    assert gc.isenabled()
    with pytest.raises(ValueError):
        fidelity(demo_state, pkg.zero_state(2))
    assert gc.isenabled()


def test_nested_paused_call_keeps_the_collector_off(demo_state, monkeypatch, collector):
    approx = importlib.import_module("ddapprox.approx")
    after = []

    def nested(a, b):
        f = fidelity(a, b)
        after.append(gc.isenabled())
        return f

    monkeypatch.setattr(approx, "state_fidelity", nested)
    _, report = apply_scheme(demo_state, TargetFidelity(0.7))
    assert report.eliminated > 0
    assert after == [False]
    assert gc.isenabled()


def test_paused_calls_leave_no_collection_behind(collector):
    """A library caller's from_vector, then an approx_* call: each collects
    as it starts and leaves what it built in the oldest generation, so no
    young collection runs between or after them."""
    vec = dense_ref.random_state(np.random.default_rng(3), 10)
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        dd = DDPackage().from_vector(vec)
        approx_target_fidelity(dd, 0.9)
        after = [[] for _ in range(100)]  # tracked allocations after the calls
    finally:
        gc.callbacks.remove(record)
    assert len(after) == 100
    assert len(starts) == 2 and 0 not in starts  # the two entry collections


class _Holder:
    """A weak-referenceable object in a reference cycle with `cycle`."""

    def __init__(self, cycle):
        cycle.append(self)
        self.cycle = cycle


def _cycle(freed: list) -> None:
    """Leaves a reference cycle that appends "freed" to `freed` when the
    collector frees it."""
    weakref.finalize(_Holder([]), freed.append, "freed")


def test_paused_call_frees_cycles_made_before_it(monkeypatch, collector):
    # no growth since the last full collection, so the entry one is young
    dd_module = importlib.import_module("ddapprox.dd")
    monkeypatch.setattr(dd_module, "_blocks_after_full", sys.getallocatedblocks())
    gc.collect()
    freed = []
    _cycle(freed)
    DDPackage().from_vector(DEMO_VECTOR)
    assert freed == ["freed"]


def test_paused_call_leaving_little_leaves_its_garbage_young(collector):
    """A call that leaves fewer objects than start a young collection moves
    nothing to the oldest generation, so a young collection frees the
    cycles it made (as the CLI's argument parser makes them)."""
    freed = []
    dd_module = importlib.import_module("ddapprox.dd")
    dd_module._gc_paused(_cycle)(freed)
    assert freed == []
    gc.collect(1)
    assert freed == ["freed"]


@pytest.mark.parametrize("grown", [1.2, 1.3])
def test_promoted_garbage_freed_once_memory_grows(monkeypatch, collector, grown):
    """A cycle made during a call that promotes (here by an observer) waits
    in the oldest generation; the next paused call frees it with a full
    collection once the interpreter holds a quarter more memory blocks than
    after the last full one."""
    dd_module = importlib.import_module("ddapprox.dd")
    freed = []
    pkg = DDPackage()
    simulate(random_circuit(10, 30, 3), pkg, lambda i, gate, state: i or _cycle(freed))
    assert len(pkg.table) > gc.get_threshold()[0]  # its values alone make it promote
    gc.collect(1)
    assert freed == []
    monkeypatch.setattr(dd_module, "_blocks_after_full", int(sys.getallocatedblocks() / grown))
    DDPackage().from_vector(DEMO_VECTOR)
    assert freed == (["freed"] if grown > 1.25 else [])


def test_paused_call_keeps_callers_frozen_objects_frozen(collector):
    """The call leaves the permanent generation to a caller that froze
    objects. (Its count alone can drop during the call, as frozen objects
    die by reference counting, so one held object is looked for.)"""
    vec = dense_ref.random_state(np.random.default_rng(3), 10)  # enough to promote
    held = [[]]
    gc.freeze()
    try:
        DDPackage().from_vector(vec)
        assert gc.get_freeze_count() > 0
        assert not any(obj is held for obj in gc.get_objects())
    finally:
        gc.unfreeze()
    assert any(obj is held for obj in gc.get_objects())


def _query_tasks(states):
    """Read-only queries over `states`, each a thunk with a comparable result."""
    tasks = []
    for i, dd in enumerate(states):
        for traversals, seed in ((1, 0), (300, i), (300, -1), (20_000, 5), (7, 2**64 - 1)):
            tasks.append(lambda dd=dd, t=traversals, s=seed: sample_paths(dd, t, s).counts)
        tasks.append(lambda dd=dd: contributions(dd))
        tasks.append(lambda dd=dd: dd.to_vector().tolist())
        tasks.append(lambda dd=dd: dd.amplitude("1" * dd.n))
        tasks.append(lambda dd=dd, other=states[i - 1]: fidelity(dd, other))
    return tasks


def test_queries_run_concurrently_on_one_package(collector):
    """Eight threads interleave the read-only queries on fresh copies of
    states of one package: every result equals the serial run's, neither
    table grows, and the collector ends as it started."""
    pkg = DDPackage()
    rng = np.random.default_rng(11)
    built = [
        simulate(ghz(9), pkg),
        simulate(random_circuit(9, 24, 3), pkg),
        pkg.from_vector(dense_ref.random_state(rng, 9)),
        pkg.from_vector(dense_ref.random_state(rng, 9)),
    ]
    serial = [task() for task in _query_tasks(built)]
    sizes = len(pkg.table), pkg.unique_table_size()
    # fresh StateDD objects: every view and chain array is built under contention
    states = [StateDD(dd.n, dd.root, pkg) for dd in built]
    tasks = _query_tasks(states)
    errors = []
    start = threading.Barrier(8)

    def worker(k):
        try:
            start.wait(timeout=30)
            for j in range(len(tasks)):  # each thread runs every task, in its own order
                i = (j * 5 + k * 7) % len(tasks)
                if tasks[i]() != serial[i]:
                    errors.append((k, i))
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append((k, exc))

    enabled = gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert (len(pkg.table), pkg.unique_table_size()) == sizes
    assert gc.isenabled() is enabled


def test_zero_qubit_state(pkg):
    dd = pkg.from_vector([1.0])
    assert dd.n == 0
    assert dd.size() == 0
    assert dd.root.target is TERMINAL
    assert dd.amplitude("") == 1
    assert np.allclose(dd.to_vector(), [1.0])


def test_collect_garbage_keeps_reachable(pkg):
    keep = pkg.from_vector(DEMO_VECTOR)
    rng = np.random.default_rng(2)
    pkg.from_vector(dense_ref.random_state(rng, 5))
    before = pkg.unique_table_size()
    removed = pkg.collect_garbage([keep.root])
    assert removed > 0
    assert pkg.unique_table_size() == before - removed
    # the kept diagram still reconstructs to the identical nodes
    again = pkg.from_vector(DEMO_VECTOR)
    assert again.root == keep.root
    assert keep.size() == 6


def test_to_dot_output(pkg):
    dd = pkg.from_vector(DEMO_VECTOR)
    dot = dd.to_dot()
    assert dot.startswith("digraph")
    assert dot.count('label="q2"') == 3
    assert dot.count('label="0"') == 3  # one stub leaf per empty half
    assert 'label="1"' in dot
    assert dot == dd.to_dot()  # deterministic


@st.composite
def dense_vectors(draw):
    """Unit vectors of 2 to 128 amplitudes: complex Gaussian, real Gaussian,
    Gaussian with exact zeros (so slices with one live half and all-zero
    slices), one magnitude on a random support with phases +-1 and +-i (so
    exact ties), and simulated random circuits (so rounding dust)."""
    kind = draw(st.sampled_from(["gaussian", "real", "sparse", "uniform", "simulated"]))
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "simulated":
        circuit = random_circuit(n, draw(st.integers(0, 4 * n)), seed)
        return simulate(circuit, DDPackage()).to_vector()
    rng = np.random.default_rng(seed)
    size = 1 << n
    if kind == "uniform":
        vec = rng.choice(np.array([1, -1, 1j, -1j]), size)
        vec[rng.random(size) < draw(st.sampled_from((0.0, 0.5, 0.9)))] = 0.0
        vec[rng.integers(size)] = 1.0
    elif kind == "real":
        vec = rng.standard_normal(size)
    else:
        vec = dense_ref.random_state(rng, n)
        if kind == "sparse":
            vec[rng.random(size) < draw(st.sampled_from((0.3, 0.6, 0.9)))] = 0.0
            vec[rng.integers(size)] = 1.0
    return vec / np.linalg.norm(vec)


def _build_record(dd):
    """Everything a build decides, bit for bit: each node in view order (by
    level, then creation) with its weights, mass and fixed flag, the
    successor indices, the root weight, and the value table's size and
    coordinates. Not uids or value sequence numbers, which follow the order
    of interning."""
    view, table = dd.view, dd.package.table
    nodes = [
        (v.level, *(x.hex() for e in (v.succ0, v.succ1) for x in (e.weight.re, e.weight.im)),
         v.mass.hex(), v.fixed)
        for v in view.nodes
    ]
    coords = set()
    for v in table._buckets.values():
        while v is not None:
            coords.add((v.re.hex(), v.im.hex()))
            v = v.older
    root = dd.root.weight.re.hex(), dd.root.weight.im.hex()
    return nodes, view.succ.tolist(), root, len(table), coords


def _merged_lookups(table) -> list:
    """The (re, im) queries that `table.lookup` answers from now on with a
    value whose coordinates differ from theirs in any bit: a value within
    tol, or an equal one whose zero coordinate has the other sign."""
    merged, lookup = [], table.lookup

    def spy(re, im):
        v = lookup(re, im)
        if (v.re.hex(), v.im.hex()) != (float(re).hex(), float(im).hex()):
            merged.append((re, im))
        return v

    table.lookup = spy  # make_node, div and terminal_edge call it on the instance
    return merged


_C = 0.35355339059327373  # 1 / sqrt(8)


@settings(max_examples=150, deadline=None)
@given(vec=dense_vectors())
# Exact ties between unequal weights, which go to the 0-successor.
@example(vec=np.array([0.5, -0.5, 0.5j, 0.5]))
@example(vec=np.array([0.0, 0.5, -0.5j, 0.0, 0.5, 0.0, 0.0, -0.5]))
# Equal weights in every pair of every level: each ratio is a / a.
@example(vec=np.full(32, 1 / math.sqrt(32)))
# The level-0 pair's heavier weight is exactly one: its ratio is a / 1.
@example(vec=np.array([math.sqrt(1 - 1e-12), 0.0, 1e-6, 0.0]))
# Found by this test: the recursion stores (-1, -0.0) as a level-1 ratio
# before the level-2 ratio (-1, 0.0) claims it; level by level, (-1, 0.0)
# comes first. Both builds reproduce the vector exactly.
@example(vec=np.array([-_C, -_C, _C, complex(-0.0, -_C), -_C, complex(0.0, _C), _C, -_C]))
# Found by this test: the vector of simulate(random_circuit(3, 7, 85)). Two
# level-1 values 1 ulp apart in im meet in the other order, so a node weight
# and the root node's mass differ in the last bit; the dense-oracle error is
# 7.9e-17 level by level against 1.2e-16 for the recursion.
@example(
    vec=np.array([
        0.49999999999999983 + 3.1116426608676864e-19j,
        -0.07138386945489464 + 0.49487810941851773j,
        0j,
        0j,
        0.3535533905932737 + 0.3535533905932736j,
        -0.40040768518950337 + 0.29945564887172094j,
        0j,
        0j,
    ])
)
def test_from_vector_matches_recursive_build(vec):
    """The level-by-level build against the post-order recursion it
    replaced, each in a fresh package.

    The two intern the same values in another order. While every query of
    the recursion gets its own coordinates back, the order cannot matter,
    and the two builds must agree bit for bit. Where the recursion merged
    a query into another stored value, the other order may keep the other
    value of that tolerance ball; then the per-level sizes must agree, and
    the amplitudes within tol."""
    got = DDPackage().from_vector(vec)
    pkg = DDPackage()
    merged = _merged_lookups(pkg.table)
    want = dense_ref.from_vector_ref(pkg, vec)
    sizes = {level: s.stop - s.start for level, s in got.view.levels.items()}
    assert sizes == {level: s.stop - s.start for level, s in want.view.levels.items()}
    assert np.max(np.abs(got.to_vector() - want.to_vector())) <= pkg.table.tol
    if not merged:
        assert _build_record(got) == _build_record(want)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=8,
        max_size=8,
    )
)
def test_roundtrip_property(amps):
    vec = np.asarray(amps, dtype=complex)
    nrm = np.linalg.norm(vec)
    if nrm < 1e-3:
        return
    vec = vec / nrm
    pkg = DDPackage()
    dd = pkg.from_vector(vec)
    dd.validate()
    assert np.max(np.abs(dd.to_vector() - vec)) < 4 * pkg.table.tol
