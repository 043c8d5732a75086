import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddapprox import (
    Circuit,
    CircuitParseError,
    ComplexTable,
    DDPackage,
    Gate,
    ghz,
    parse,
    qft,
    random_circuit,
    simulate,
)
from ddapprox.circuits import ANGLED, ONE_QUBIT, TWO_QUBIT

import dense_ref


def test_parse_bell_circuit():
    c = parse("qubits 2\nh 0\ncx 0 1")
    assert c.n == 2
    assert c.gates == (Gate("h", (0,)), Gate("cx", (0, 1)))


def test_parse_comments_blank_lines_and_angles():
    text = """
    # preamble
    qubits 1

    p 0.785398163 0  # quarter turn
    """
    c = parse(text)
    assert c.n == 1
    assert c.gates[0].kind == "p"
    assert c.gates[0].angle == pytest.approx(math.pi / 4, abs=1e-6)


def test_parse_error_reports_line_number():
    with pytest.raises(CircuitParseError) as err:
        parse("qubits 3\nh 2\nbadop 1")
    assert err.value.line_no == 3
    assert "badop" in str(err.value)


@pytest.mark.parametrize(
    "text,line",
    [
        ("h 0\nqubits 2", 1),  # missing header
        ("qubits 2\nh 5", 2),  # index out of range
        ("qubits 2\np abc 0", 2),  # malformed angle
        ("qubits 2\ncx 1 1", 2),  # repeated qubit
        ("qubits 2\ncx 0", 2),  # wrong arity
        ("qubits 0", 1),  # empty register
        ("qubits two", 1),  # malformed count
        ("", 1),  # empty file
    ],
)
def test_parse_rejections(text, line):
    with pytest.raises(CircuitParseError) as err:
        parse(text)
    assert err.value.line_no == line


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("nope", (0,))
    with pytest.raises(ValueError):
        Gate("h", (0, 1))
    with pytest.raises(ValueError):
        Gate("p", (0,))  # missing angle
    with pytest.raises(ValueError):
        Gate("h", (0,), angle=1.0)
    with pytest.raises(ValueError):
        Circuit(2, (Gate("h", (4,)),))


def test_bell_state_amplitudes(pkg):
    state = simulate(parse("qubits 2\nh 0\ncx 0 1"), pkg)
    want = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    assert np.allclose(state.to_vector(), want, atol=1e-12)


def test_empty_circuit_gives_ground_state(pkg):
    state = simulate(Circuit(3, ()), pkg)
    assert state.size() == 3
    vec = state.to_vector()
    assert vec[0] == 1.0
    assert np.all(vec[1:] == 0.0)


def test_ghz_structure(pkg):
    assert ghz(2).gates == parse("qubits 2\nh 0\ncx 0 1").gates
    for n in (2, 4, 7):
        state = simulate(ghz(n), pkg)
        vec = state.to_vector()
        nz = np.flatnonzero(np.abs(vec) > 1e-12)
        assert list(nz) == [0, (1 << n) - 1]
        assert np.allclose(np.abs(vec[nz]), 1 / math.sqrt(2), atol=1e-12)
        assert state.size() == 2 * n - 1  # one top node, two per level below


def test_qft_on_ground_state_is_uniform(pkg):
    state = simulate(qft(3), pkg)
    want = np.full(8, 1 / math.sqrt(8), dtype=complex)
    assert np.max(np.abs(state.to_vector() - want)) < 1e-9


def test_qft_matches_dense_oracle(pkg):
    for n in (2, 3, 5):
        circ = qft(n)
        got = simulate(circ, pkg).to_vector()
        want = dense_ref.simulate_dense(circ)
        assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize(
    "text",
    [
        "qubits 3\n"
        "h 0\nx 1\ny 2\nz 0\ns 1\nt 2\n"
        "p 0.61 0\n"
        "cx 0 2\ncx 2 0\n"
        "cz 1 2\ncz 2 1\n"
        "cp 1.13 0 1\ncp 2.71 2 0\n"
        "swap 0 2\nswap 1 0\n",
        # controls and targets with untouched levels between them, both orders
        "qubits 5\n"
        "h 0\nh 2\nt 4\ny 3\np 0.61 1\n"
        "cx 0 4\ncx 4 0\n"
        "cz 1 3\ncz 4 1\n"
        "cp 1.13 0 3\ncp 2.71 4 1\n"
        "swap 0 4\nswap 3 1\n"
        "h 4\ncx 2 0\n",
    ],
    ids=["3q", "5q-distant"],
)
def test_every_gate_kind_matches_dense(pkg, text):
    circ = parse(text)
    got = simulate(circ, pkg).to_vector()
    want = dense_ref.simulate_dense(circ)
    assert np.max(np.abs(got - want)) < 1e-9


def test_random_circuits_match_dense(pkg):
    for seed in range(12):
        n = 3 + seed % 5
        circ = random_circuit(n, depth=20, seed=seed)
        got = simulate(circ, pkg).to_vector()
        want = dense_ref.simulate_dense(circ)
        assert np.max(np.abs(got - want)) < 1e-9


@st.composite
def _circuits(draw):
    """1-6 qubits, up to 24 gates of every kind; a cx runs in either direction."""
    n = draw(st.integers(1, 6))
    kinds = sorted(ONE_QUBIT | TWO_QUBIT) if n > 1 else sorted(ONE_QUBIT)
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        arity = 2 if kind in TWO_QUBIT else 1
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity, unique=True))
        angle = draw(st.floats(0.0, 2.0 * math.pi)) if kind in ANGLED else None
        gates.append(Gate(kind, tuple(qubits), angle))
    return Circuit(n, tuple(gates))


def _table_calls(run, circ):
    """Simulate `circ` with `run` in a fresh package, logging every
    `ComplexTable.lookup` argument pair and `make_node` level in call order."""
    log = []
    lookup, make_node = ComplexTable.lookup, DDPackage.make_node

    def spy_lookup(table, re, im):
        log.append(("lookup", re, im))
        return lookup(table, re, im)

    def spy_make_node(pkg, level, succ0, succ1):
        log.append(("make_node", level))
        return make_node(pkg, level, succ0, succ1)

    ComplexTable.lookup, DDPackage.make_node = spy_lookup, spy_make_node
    try:
        pkg = DDPackage()
        root = run(circ, pkg).root
    finally:
        ComplexTable.lookup, DDPackage.make_node = lookup, make_node
    counts = (sum(c[0] == "lookup" for c in log), sum(c[0] == "make_node" for c in log))
    summary = (root.target.uid, root.weight.re.hex(), root.weight.im.hex(),
               len(pkg.table), pkg.unique_table_size(), counts)
    return summary, log


@settings(max_examples=120, deadline=None)
@given(circ=_circuits())
@example(circ=qft(5))
@example(circ=parse("qubits 3\nh 2\nt 2\nh 1\ncx 2 0\ncx 1 0\n"))  # control below target
@example(circ=parse("qubits 4\nh 0\nt 0\nh 3\nswap 0 3\nswap 2 1\n"))
@example(circ=random_circuit(4, 12, 2))  # its nodes #58 and #61 are not fixed
def test_kernel_matches_edge_building_reference(circ):
    """The kernel passes plain pairs but makes the Edge-building kernel's
    table calls in the same order, so roots, uids and tables are equal."""
    got, got_log = _table_calls(simulate, circ)
    want, want_log = _table_calls(dense_ref.simulate_edges, circ)
    assert got == want
    assert got_log == want_log


def _make_node_calls(circ):
    """Simulate `circ` in a fresh package and list, per `make_node` call,
    (the node being rebuilt or None, the two successors passed, the growth
    of the unique table).

    The node being rebuilt is the `node` local of the kernel frame that
    made the call (`dd._rebuild`, or `_apply`'s `mix` and `controlled`);
    `_add` and `zero_state` rebuild no node."""
    calls = []
    make_node = DDPackage.make_node

    def spy(pkg, level, succ0, succ1):
        node = sys._getframe(1).f_locals.get("node")
        before = pkg.unique_table_size()
        e = make_node(pkg, level, succ0, succ1)
        calls.append((node, (succ0, succ1), pkg.unique_table_size() - before))
        return e

    DDPackage.make_node = spy
    try:
        pkg = DDPackage()
        simulate(circ, pkg)
    finally:
        DDPackage.make_node = make_node
    return pkg, calls


def test_ghz_every_make_node_call_creates_a_node():
    pkg, calls = _make_node_calls(ghz(64))
    assert len(calls) == 2144
    assert all(grew == 1 for _, _, grew in calls)


def _own_pair(pkg, node, args):
    """Whether `args` are `node`'s own successors: the same weight objects,
    and the same targets wherever the weight is not zero."""
    zero = pkg.table.zero
    return all(
        w is e.weight and (t is e.target or w is zero)
        for (t, w), e in zip(args, (node.succ0, node.succ1))
    )


@pytest.mark.parametrize("circ", [random_circuit(4, 12, 2), random_circuit(10, 30, 3), qft(6)])
def test_no_make_node_call_gets_a_fixed_nodes_own_successors(circ):
    """Such a call would return the node at weight one (`Node.fixed`), an
    answer known without it; the kernel makes none. Each circuit below
    rebuilds such nodes, so a kernel without the rule fails here."""
    pkg, calls = _make_node_calls(circ)
    rebuilt = [(node, args) for node, args, _ in calls if node is not None]
    assert rebuilt
    assert not [node for node, args in rebuilt if node.fixed and _own_pair(pkg, node, args)]


def test_observer_may_collect_garbage_around_the_current_state():
    """Unchanged nodes come back as themselves without `make_node`, so the
    unique table must still hold the live state: an observer collecting
    with the current root among the roots leaves the same state."""
    circ = random_circuit(6, 20, 5)
    want = simulate(circ, DDPackage())
    pkg = DDPackage()
    got = simulate(circ, pkg, observer=lambda i, g, s: pkg.collect_garbage([s.root]))
    got.validate()
    assert got.size() == want.size()
    assert got.to_vector().tobytes() == want.to_vector().tobytes()


def test_norm_preserved_after_every_gate(pkg):
    norms = []
    circ = random_circuit(5, depth=20, seed=44)
    simulate(circ, pkg, observer=lambda i, g, st: norms.append(st.norm()))
    assert len(norms) == len(circ.gates)
    bound = 4 * pkg.table.tol
    assert all(abs(x - 1.0) <= bound for x in norms)


def test_simulation_deterministic_per_package(pkg):
    circ = random_circuit(6, depth=15, seed=2)
    a = simulate(circ, pkg)
    b = simulate(circ, pkg)
    assert a.root == b.root


def test_random_circuit_reproducible():
    a = random_circuit(5, 12, seed=99)
    b = random_circuit(5, 12, seed=99)
    c = random_circuit(5, 12, seed=100)
    assert a == b
    assert a != c
    assert all(g.kind in {"h", "t", "p", "cz"} for g in a.gates)


def test_random_circuit_single_qubit_has_no_pairs():
    c = random_circuit(1, 9, seed=5)
    assert all(g.kind != "cz" for g in c.gates)


def test_builder_validation():
    with pytest.raises(ValueError):
        ghz(0)
    with pytest.raises(ValueError):
        qft(0)
    with pytest.raises(ValueError):
        random_circuit(0, 5, 1)
    with pytest.raises(ValueError):
        random_circuit(3, -1, 1)


def _headroom():
    """How many more frames the interpreter allows below the caller."""

    def down(k):
        try:
            return down(k + 1)
        except RecursionError:
            return k

    return down(0)


def test_ghz_depth_under_a_recursion_limit():
    """The kernel adds no frame per level: with 200 frames of headroom, the
    largest GHZ state that simulates is the one the Edge-building kernel
    reached."""
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(limit - _headroom() + 200)
        assert simulate(ghz(193)).size() == 2 * 193 - 1
        with pytest.raises(RecursionError):
            simulate(ghz(194))
    finally:
        sys.setrecursionlimit(limit)
