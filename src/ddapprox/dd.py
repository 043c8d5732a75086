"""Decision-diagram package for n-qubit pure states.

A vector of 2**n amplitudes is split in half per qubit, most significant
qubit (q0) first. Each split becomes a node with a 0-successor and a
1-successor; equal sub-structures are stored once, and common factors move
into edge weights so an amplitude is the product of the weights along its
path. An all-zero sub-vector is not a node at all but a shared "zero-stub"
edge of exact weight 0 to the terminal.

Node weights are normalized when the node is built:

* both successors nonzero: both weights are divided by the larger-magnitude
  one (ties take the 0-successor), which therefore becomes exactly 1;
* exactly one successor nonzero: the weight is divided by its own real
  magnitude, so a unit-magnitude phase stays on the surviving successor edge
  and the incoming edge carries magnitude only;
* both zero: no node is created, the edge collapses to the zero-stub.

The divisor is folded into the incoming edge, so inner weights always have
magnitude at most 1. A ``DDPackage`` owns one value table plus one unique
table; nodes are immutable and interned, and distinct packages are fully
independent.

A package and its states are a single-threaded unit; no query is safe to run
concurrently with another. The first analysis call on a state writes its
level-array view (``StateDD.view``) to the state, and ``amplitude``,
``inner_product`` and ``renormalize`` insert values into the package's value
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import attrgetter, is_
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .complex_table import DEFAULT_TOL, ComplexTable, ComplexValue, sqr_mag
from .errors import DDError, NumericDomainError, SizeLimitError, ZeroStateError


class _Terminal:
    """The single shared leaf below the last qubit level."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<terminal>"


TERMINAL = _Terminal()


class Node:
    """Inner node: a qubit level plus two successor edges. Interned, immutable."""

    __slots__ = ("level", "succ0", "succ1", "uid")

    def __init__(self, level: int, succ0: "Edge", succ1: "Edge", uid: int):
        self.level = level
        self.succ0 = succ0
        self.succ1 = succ1
        self.uid = uid  # creation order within the package; deterministic

    def __repr__(self) -> str:
        return f"<node q{self.level} #{self.uid}>"


class Edge(NamedTuple):
    """A (target, weight) handle; a whole state is one root edge."""

    target: "Node | _Terminal"
    weight: ComplexValue


#: Largest qubit count `to_vector` will expand (2**20 amplitudes).
VECTOR_CAP = 20


class DDPackage:
    """Owner of the unique table, the value table, and all node identities."""

    def __init__(self):
        self.table = ComplexTable(DEFAULT_TOL)
        self._unique: dict[tuple, Node] = {}
        self._next_uid = 0
        self.zero_stub = Edge(TERMINAL, self.table.zero)

    # -- node construction ------------------------------------------------

    def terminal_edge(self, re: float, im: float = 0.0) -> Edge:
        """Edge to the terminal holding a single amplitude (stub when ~0)."""
        w = self.table.lookup(re, im)
        if w is self.table.zero:
            return self.zero_stub
        return Edge(TERMINAL, w)

    def make_node(self, level: int, succ0: Edge, succ1: Edge) -> Edge:
        """Normalized, deduplicated edge to a node with the given successors.

        Returns the zero-stub when both successors are zero. The
        normalization divisor is folded into the returned edge weight.
        """
        t = self.table
        if succ0.weight is t.zero:
            succ0 = self.zero_stub
        if succ1.weight is t.zero:
            succ1 = self.zero_stub
        for e in (succ0, succ1):
            if e.target is not TERMINAL and e.target.level <= level:
                raise DDError(
                    f"successor at level {e.target.level} not below level {level}"
                )

        w0, w1 = succ0.weight, succ1.weight
        div: ComplexValue | None = None
        if w0 is not t.zero and w1 is not t.zero:
            if sqr_mag(w0) >= sqr_mag(w1):
                r = t.div(w1, w0)
                if r is t.zero:
                    succ1 = self.zero_stub  # ratio below tolerance: treat as empty
                else:
                    div = w0
                    succ0 = Edge(succ0.target, t.one)
                    succ1 = Edge(succ1.target, r)
            else:
                r = t.div(w0, w1)
                if r is t.zero:
                    succ0 = self.zero_stub
                else:
                    div = w1
                    succ1 = Edge(succ1.target, t.one)
                    succ0 = Edge(succ0.target, r)
        if div is None:
            # zero or one live successor: phase stays below, magnitude goes up
            if succ0.weight is t.zero and succ1.weight is t.zero:
                return self.zero_stub
            if succ1.weight is t.zero:
                w = succ0.weight
                mag = math.hypot(w.re, w.im)
                succ0 = Edge(succ0.target, t.lookup(w.re / mag, w.im / mag))
            else:
                w = succ1.weight
                mag = math.hypot(w.re, w.im)
                succ1 = Edge(succ1.target, t.lookup(w.re / mag, w.im / mag))
            div = t.lookup(mag, 0.0)

        key = (level, succ0.target, succ0.weight, succ1.target, succ1.weight)
        node = self._unique.get(key)
        if node is None:
            node = Node(level, succ0, succ1, self._next_uid)
            self._next_uid += 1
            self._unique[key] = node
        return Edge(node, div)

    # -- state construction -------------------------------------------------

    def zero_state(self, n: int) -> "StateDD":
        """The basis state |0...0> on n qubits."""
        if n < 0:
            raise ValueError("qubit count must be nonnegative")
        e = Edge(TERMINAL, self.table.one)
        for level in range(n - 1, -1, -1):
            e = self.make_node(level, e, self.zero_stub)
        return StateDD(n, e, self)

    def from_vector(self, amps: Sequence[complex]) -> "StateDD":
        """Canonical diagram for a dense amplitude vector.

        The length must be a power of two and the norm within 1e-6 of 1;
        the residual norm is divided out exactly before building.
        """
        arr = np.asarray(amps, dtype=np.complex128).reshape(-1)
        size = arr.shape[0]
        if size == 0 or size & (size - 1):
            raise ValueError(f"vector length must be a power of two, got {size}")
        if not np.all(np.isfinite(arr)):
            raise NumericDomainError("vector contains non-finite amplitudes")
        nrm = float(np.linalg.norm(arr))
        if nrm == 0.0:
            raise ZeroStateError("cannot represent the all-zero vector")
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"vector norm {nrm!r} is too far from 1")
        arr = arr / nrm
        n = size.bit_length() - 1
        root = self._build(arr, 0)
        return StateDD(n, root, self)

    def _build(self, arr: np.ndarray, level: int) -> Edge:
        if arr.shape[0] == 1:
            a = arr[0]
            return self.terminal_edge(float(a.real), float(a.imag))
        half = arr.shape[0] // 2
        return self.make_node(
            level, self._build(arr[:half], level + 1), self._build(arr[half:], level + 1)
        )

    # -- maintenance ---------------------------------------------------------

    def unique_table_size(self) -> int:
        return len(self._unique)

    def collect_garbage(self, roots: Iterable[Edge]) -> int:
        """Drop unique-table entries unreachable from `roots`; returns the count.

        Never called implicitly: sizes observed between explicit collections
        are deterministic.
        """
        keep = set(_preorder([e.target for e in roots]))
        before = len(self._unique)
        self._unique = {k: v for k, v in self._unique.items() if v in keep}
        return before - len(self._unique)


def rebuild(pkg: DDPackage, edge: Edge, replace, memo: dict) -> Edge:
    """Copy of the diagram below `edge` with some nodes replaced, re-reduced.

    `replace(node)` returns the edge that stands for `node`, or None to
    rebuild the node from its rebuilt successors (0-successor first) through
    `make_node`. Results are memoized per node in `memo`, which callers may
    share across walks; the incoming weight is multiplied back on.
    """
    t = pkg.table
    if edge.weight is t.zero:
        return pkg.zero_stub
    node = edge.target
    if node is TERMINAL:
        return edge
    res = memo.get(node)
    if res is None:
        res = replace(node)
        if res is None:
            res = pkg.make_node(
                node.level,
                rebuild(pkg, node.succ0, replace, memo),
                rebuild(pkg, node.succ1, replace, memo),
            )
        memo[node] = res
    if res.weight is t.zero:
        return pkg.zero_stub
    return Edge(res.target, t.mul(edge.weight, res.weight))


def reachable_nodes(dd: "StateDD") -> list[Node]:
    """Reachable nonterminal nodes in depth-first preorder, 0-successor first."""
    return _preorder([dd.root.target])


def _preorder(stack: list) -> list[Node]:
    """Nonterminal nodes reachable from the targets on `stack`, which is
    consumed, in depth-first preorder (last target first, 0-successor first)."""
    out: list[Node] = []
    seen: set[Node] = set()
    while stack:
        t = stack.pop()
        if t is TERMINAL or t in seen:
            continue
        seen.add(t)
        out.append(t)
        stack.append(t.succ1.target)
        stack.append(t.succ0.target)
    return out


class LevelView:
    """Read-only arrays over a state's reachable nodes in (level, uid) order.

    Node ``i`` is ``nodes[i]``; the terminal is the sentinel index
    ``len(nodes)``, which zero-stubs point to as well, and ``index`` maps
    each node and the terminal back to its index. ``succ0``/``succ1`` hold
    successor indices and ``mag0``/``mag1`` the squared weight magnitudes
    |w0|^2, |w1|^2. ``levels`` lists ``(level, start, stop)`` for each
    occupied level, top down, with ``nodes[start:stop]`` on that level.
    Successors always sit on a deeper level, so passes over the diagram can
    go one whole level at a time, bottom-up or top-down.

    ``fixed[i]`` is True when node ``i`` is a fixed point of ``make_node``:
    calling it on the node's own successors returns ``Edge(node, table.one)``
    and adds nothing to either table. A two-successor node is one when ``w0
    is one and |w1|^2 <= 1`` or ``w1 is one and |w0|^2 < 1`` (it is already
    divided by its larger weight, ties to the 0-successor); a one-successor
    node when its live weight has ``math.hypot`` exactly 1. Nodes whose
    weights tie in magnitude only up to rounding fail both tests. The mask
    is read off the node's own weights alone, so it assumes the nodes are
    still in the unique table, as they are unless ``collect_garbage``
    dropped the state. The sentinel entry is True.
    """

    __slots__ = ("nodes", "index", "succ0", "succ1", "mag0", "mag1", "levels", "fixed")

    def __init__(self, nodes: list[Node], table: ComplexTable):
        # two stable sorts on int keys: several times faster than tuple keys
        nodes = sorted(nodes, key=attrgetter("uid"))
        nodes.sort(key=attrgetter("level"))
        m = len(nodes)
        index: dict = dict(zip(nodes, range(m)))
        index[TERMINAL] = m
        self.nodes = nodes
        self.index = index
        self.succ0, self.mag0, one0, zero0 = _edge_arrays(nodes, "succ0", index, table)
        self.succ1, self.mag1, one1, zero1 = _edge_arrays(nodes, "succ1", index, table)
        lv = [v.level for v in nodes]
        cuts = [i for i in range(1, m) if lv[i] != lv[i - 1]]
        self.levels = tuple(
            (lv[a], a, b) for a, b in zip([0, *cuts], [*cuts, m]) if a < b
        )
        fixed = np.append((one0 & (self.mag1 <= 1.0)) | (one1 & (self.mag0 < 1.0)), True)
        for i in np.flatnonzero(zero0 | zero1).tolist():
            w = (nodes[i].succ1 if zero0[i] else nodes[i].succ0).weight
            fixed[i] = math.hypot(w.re, w.im) == 1.0
        fixed.flags.writeable = False
        self.fixed = fixed


def _edge_arrays(nodes: list[Node], slot: str, index: dict, table: ComplexTable):
    """Read-only successor indices and |w|^2 of one successor slot, and
    whether each weight is the table's `one` and its `zero`."""
    m = len(nodes)
    edges = list(map(attrgetter(slot), nodes))
    weights = list(map(attrgetter("weight"), edges))
    succ = np.fromiter(map(index.__getitem__, map(attrgetter("target"), edges)), np.intp, m)
    re = np.fromiter(map(attrgetter("re"), weights), np.float64, m)
    im = np.fromiter(map(attrgetter("im"), weights), np.float64, m)
    mag = re * re + im * im  # the same products and sum as sqr_mag, bit for bit
    succ.flags.writeable = mag.flags.writeable = False
    is_one = np.fromiter(map(is_, weights, repeat(table.one)), bool, m)
    is_zero = np.fromiter(map(is_, weights, repeat(table.zero)), bool, m)
    return succ, mag, is_one, is_zero


def _mass(e: Edge, index: dict, up: Sequence[float], reached: list[int], memo: dict) -> float:
    """Sum over all paths below `e` of the squared weight products.

    `up[index[v]]` stands in for the mass below each node `v` in `index`,
    which must hold the terminal; the walk appends those indices to
    `reached` and memoizes every other node in `memo`. `StateDD.norm`
    knows only the terminal. `approx._eliminate` passes a view's upstream,
    which sums the same products in the same order.
    """
    w2 = sqr_mag(e.weight)
    if w2 == 0.0:
        return 0.0
    v = e.target
    i = index.get(v)
    if i is not None:
        reached.append(i)
        return w2 * up[i]
    s = memo.get(v)
    if s is None:
        s = _mass(v.succ0, index, up, reached, memo)
        s += _mass(v.succ1, index, up, reached, memo)
        memo[v] = s
    return w2 * s


def _rescaled(n: int, root: Edge, pkg: DDPackage, mass: float) -> "StateDD":
    """The state with `root`'s weight divided by sqrt(`mass`)."""
    if mass == 0.0:
        raise ZeroStateError("cannot normalize a zero state")
    w = pkg.table.div_real(root.weight, math.sqrt(mass))
    return StateDD(n, Edge(root.target, w), pkg)


def _dense(node: Node, n: int, memo: dict[Node, np.ndarray]) -> np.ndarray:
    """Dense vector of the path products below `node`, memoized per node."""
    cached = memo.get(node)
    if cached is not None:
        return cached
    half = 1 << (n - node.level - 1)
    parts = []
    for e in (node.succ0, node.succ1):
        if e.weight.re == 0.0 and e.weight.im == 0.0:
            parts.append(np.zeros(half, dtype=np.complex128))
        elif e.target is TERMINAL:
            parts.append(np.array([e.weight.as_complex()]))
        else:
            parts.append(e.weight.as_complex() * _dense(e.target, n, memo))
    out = np.concatenate(parts)
    memo[node] = out
    return out


@dataclass(frozen=True)
class StateDD:
    """A pure n-qubit state held as one root edge into a package.

    Invariant: the path-product amplitudes have unit norm (within 4x the
    table tolerance); the root targets level 0, or the terminal when n = 0.
    """

    n: int
    root: Edge
    package: DDPackage = field(repr=False, compare=False)

    def size(self) -> int:
        """Distinct nonterminal nodes reachable from the root."""
        return len(reachable_nodes(self))

    @cached_property
    def view(self) -> LevelView:
        """The state's level-array view, built on first use and kept."""
        return LevelView(reachable_nodes(self), self.package.table)

    def norm(self) -> float:
        return math.sqrt(_mass(self.root, {TERMINAL: 0}, (1.0,), [], {}))

    def amplitude(self, basis: str) -> ComplexValue:
        """Product of edge weights along the path selected by `basis`.

        `basis` is a string of n characters '0'/'1'; position l picks the
        successor at level l (q0 first).
        """
        if len(basis) != self.n:
            raise ValueError(f"basis string must have length {self.n}")
        t = self.package.table
        w = self.root.weight
        node = self.root.target
        for ch in basis:
            if ch not in "01":
                raise ValueError(f"basis string must be over '0'/'1', got {basis!r}")
            if node is TERMINAL:  # a zero-stub cut the path early
                return t.zero
            e = node.succ1 if ch == "1" else node.succ0
            w = t.mul(w, e.weight)
            node = e.target
        return w

    def to_vector(self) -> np.ndarray:
        """Dense vector of all 2**n path products."""
        if self.n > VECTOR_CAP:
            raise SizeLimitError(
                f"{self.n} qubits exceed the dense-expansion cap ({VECTOR_CAP})"
            )
        w = self.root.weight.as_complex()
        if self.root.target is TERMINAL:
            return np.array([w], dtype=np.complex128)
        return w * _dense(self.root.target, self.n, {})

    def renormalize(self) -> "StateDD":
        """Same state with the root weight divided by the current norm."""
        mass = _mass(self.root, {TERMINAL: 0}, (1.0,), [], {})
        return _rescaled(self.n, self.root, self.package, mass)

    def to_dot(self) -> str:
        """Graphviz rendering: circles per node, '0' leaves for zero-stubs."""
        t = self.package.table
        lines = [
            "digraph statedd {",
            "  rankdir=TB;",
            "  edge [arrowhead=none];",
            "  root [shape=point];",
            '  terminal [shape=box, label="1"];',
        ]
        order = reachable_nodes(self)
        ids = {node: f"n{i}" for i, node in enumerate(order)}
        for node, name in ids.items():
            lines.append(f'  {name} [shape=circle, label="q{node.level}"];')
        stubs = 0

        def emit(src: str, e: Edge) -> None:
            nonlocal stubs
            label = "" if e.weight is t.one else f' [label="{_fmt_weight(e.weight)}"]'
            if e.weight is t.zero:
                zid = f"z{stubs}"
                stubs += 1
                lines.append(f'  {zid} [shape=none, label="0"];')
                lines.append(f"  {src} -> {zid};")
            elif e.target is TERMINAL:
                lines.append(f"  {src} -> terminal{label};")
            else:
                lines.append(f"  {src} -> {ids[e.target]}{label};")

        emit("root", self.root)
        for node in order:
            emit(ids[node], node.succ0)
            emit(ids[node], node.succ1)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def validate(self) -> None:
        """Raise DDError when a structural or numeric invariant is broken."""
        t = self.package.table
        root_t = self.root.target
        if self.n == 0:
            if root_t is not TERMINAL:
                raise DDError("zero-qubit state must target the terminal")
        elif root_t is TERMINAL or root_t.level != 0:
            raise DDError("root must target a level-0 node")
        nrm = self.norm()
        if abs(nrm - 1.0) > 4.0 * t.tol:
            raise DDError(f"state norm {nrm!r} off unity")
        seen_keys: set[tuple] = set()
        for node in reachable_nodes(self):
            w0, w1 = node.succ0.weight, node.succ1.weight
            if w0 is t.zero and w1 is t.zero:
                raise DDError("node with two zero successors")
            for e in (node.succ0, node.succ1):
                if e.weight is t.zero and e.target is not TERMINAL:
                    raise DDError("zero weight into a nonterminal node")
                if e.target is not TERMINAL and e.target.level <= node.level:
                    raise DDError("successor levels must increase strictly")
                if sqr_mag(e.weight) > 1.0 + 1e-12:
                    raise DDError("successor weight magnitude above 1")
            if w0 is not t.zero and w1 is not t.zero:
                if not (w0 is t.one or w1 is t.one):
                    raise DDError("two-successor node lacks a unit weight")
            else:
                live = w0 if w1 is t.zero else w1
                if abs(math.hypot(live.re, live.im) - 1.0) > 1e-12:
                    raise DDError("single successor weight is not unit magnitude")
            key = (node.level, node.succ0, node.succ1)
            if key in seen_keys:
                raise DDError("two live nodes share a structural key")
            seen_keys.add(key)


def _fmt_weight(w: ComplexValue) -> str:
    if w.im == 0.0:
        return f"{w.re:.6g}"
    if w.re == 0.0:
        return f"{w.im:.6g}i"
    return f"{w.re:.6g}{w.im:+.6g}i"
