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

Each node keeps its upstream mass (``Node.mass``), the summed probability
of every path below it, computed once from its successors' masses when it
is built. A state's norm is then read off its root edge without a walk,
which makes the per-gate norm check of ``simulate`` constant-time and
recursion-free.

Only the calls that build states (building, simulating, approximating,
``renormalize``) write the value table or the unique table, and no other
call on the package may run while one of them does. The read-only queries
(``amplitude``, ``to_vector``, ``fidelity``, ``inner_product``, the
analysis passes and path sampling among them) may run concurrently on the
states of one package. Their only writes are a state's level-array view
(``StateDD.view``), built on its first analysis call, and the view's
forced-chain arrays (``LevelView.chains``), built on its first sampling
call. Each is a function of the state alone and is stored whole, so a
racing thread at worst builds one again and gets an equal one.

``simulate``, ``DDPackage.from_vector``, ``apply_scheme`` (and so every
``approx_*`` call), ``eliminate``, ``fidelity``, ``inner_product`` and the
CLI's ``main`` run with Python's cyclic garbage collector paused, since
what they allocate in bulk (package objects, or a memo of node pairs) holds
no cycles and reference counting frees it alone; `_gc_paused` states when
the collector runs around them.
"""

from __future__ import annotations

import gc
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, wraps
from itertools import chain
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .complex_table import DEFAULT_TOL, ComplexTable, ComplexValue, quotients, sqr_mag
from .errors import DDError, NumericDomainError, SizeLimitError, ZeroStateError


#: Memory blocks the interpreter held (``sys.getallocatedblocks()``) right
#: after the last full collection that `_gc_paused` ran; 0 before the first.
_blocks_after_full = 0


def _gc_paused(fn):
    """`fn` run with the cyclic garbage collector off, restored on return or
    error. A call that starts with the collector off, such as one nested in
    another paused call, leaves it off.

    The call that turns the collector off first collects the young
    generations. When it leaves more tracked objects than start a young
    collection, it moves every tracked object to the oldest generation on
    its way out (`gc.freeze` then `gc.unfreeze`), so what it built is not
    rescanned by the young collections that would follow. Objects moved so
    do not count towards the collector's own trigger for a full collection,
    so the entry collection is a full one instead whenever the interpreter
    holds a quarter more memory blocks than after the previous full one:
    cyclic garbage that reached the oldest generation this way is freed
    before memory grows further. When the caller holds frozen objects of its
    own (`gc.get_freeze_count() > 0`), or the interpreter counts no blocks
    (``PYTHONMALLOC=malloc``), the call does none of this."""

    @wraps(fn)
    def paused(*args, **kwargs):
        global _blocks_after_full
        if not gc.isenabled():
            return fn(*args, **kwargs)
        blocks = sys.getallocatedblocks()
        promote = blocks > 0 and gc.get_freeze_count() == 0
        if promote:
            if blocks > _blocks_after_full + _blocks_after_full // 4:
                gc.collect()
                _blocks_after_full = sys.getallocatedblocks()
            else:
                gc.collect(1)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            # Only when what the call left would start a young collection at
            # once: below that there is no rescan to spare, and what the call
            # left (cyclic garbage from the CLI's argument parser, say) stays
            # where the next young collection finds it.
            if promote and gc.get_count()[0] > gc.get_threshold()[0]:
                gc.freeze()
                gc.unfreeze()
            gc.enable()

    return paused


class _Terminal:
    """The single shared leaf below the last qubit level."""

    __slots__ = ()
    mass = 1.0
    fixed = True

    def __repr__(self) -> str:
        return "<terminal>"


TERMINAL = _Terminal()


class Node:
    """Inner node: a qubit level plus two successor edges. Interned, immutable.

    ``mass`` is the node's upstream mass: the summed probability of every
    path from it down to the terminal, without the weight on the edge into
    it. It is set once, here, as |w0|^2 * mass(t0) + |w1|^2 * mass(t1), where
    the terminal's mass is 1.0 and a zero-stub adds 0.0.

    ``fixed`` is True when the node is a fixed point of ``make_node``:
    calling it again on the node's own successors returns ``Edge(node,
    table.one)`` and writes neither table. ``make_node`` decides it when it
    creates the node; a node built by hand is not fixed, so rebuilding it is
    always safe.
    """

    __slots__ = ("level", "succ0", "succ1", "uid", "mass", "fixed")

    def __init__(self, level: int, succ0: "Edge", succ1: "Edge", uid: int, fixed: bool = False):
        self.level = level
        self.succ0 = succ0
        self.succ1 = succ1
        self.uid = uid  # creation order within the package; deterministic
        # sqr_mag's products and sum, written out: one frame fewer below
        # make_node, whose callers recurse once per level
        w0, w1 = succ0.weight, succ1.weight
        self.mass = (w0.re * w0.re + w0.im * w0.im) * succ0.target.mass + (
            w1.re * w1.re + w1.im * w1.im
        ) * succ1.target.mass
        self.fixed = fixed

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

    def make_node(self, level: int, succ0, succ1) -> Edge:
        """Normalized, deduplicated edge to a node with the given successors.

        `succ0` and `succ1` may be any (target, weight) pairs: an `Edge` or
        the plain tuples the gate kernel passes. Returns the zero-stub when
        both successors are zero. The normalization divisor is folded into
        the returned edge weight. A zero successor slot of the stored node
        holds the shared zero-stub.
        """
        t = self.table
        zero = t.zero
        t0, w0 = succ0
        t1, w1 = succ1
        for tx, wx in (succ0, succ1):
            if wx is not zero and tx is not TERMINAL and tx.level <= level:
                raise DDError(f"successor at level {tx.level} not below level {level}")

        if w0 is not zero and w1 is not zero:
            if w0.re * w0.re + w0.im * w0.im >= w1.re * w1.re + w1.im * w1.im:
                r = t.div(w1, w0)
                if r is not zero:
                    return Edge(self._intern(level, t0, t.one, t1, r), w0)
                w1 = zero  # ratio below tolerance: treat as empty
            else:
                r = t.div(w0, w1)
                if r is not zero:
                    return Edge(self._intern(level, t0, r, t1, t.one), w1)
                w0 = zero
        # zero or one live successor: phase stays below, magnitude goes up
        if w1 is zero:
            if w0 is zero:
                return self.zero_stub
            mag = math.hypot(w0.re, w0.im)
            node = self._intern(level, t0, t.lookup(w0.re / mag, w0.im / mag), TERMINAL, zero)
        else:
            mag = math.hypot(w1.re, w1.im)
            node = self._intern(level, TERMINAL, zero, t1, t.lookup(w1.re / mag, w1.im / mag))
        return Edge(node, t.lookup(mag, 0.0))

    def _intern(self, level: int, t0, w0: ComplexValue, t1, w1: ComplexValue) -> Node:
        """The node with these normalized successors, from the unique table
        or created in it. A zero weight's target must be the terminal."""
        key = (level, t0, w0, t1, w1)
        node = self._unique.get(key)
        if node is None:
            t = self.table
            zero = t.zero
            # Node.fixed: would these final weights come back unchanged? One
            # live weight does when its magnitude is exactly 1; two do when
            # `one` still wins make_node's comparison (ties go to succ0).
            if w0 is zero or w1 is zero:
                live = w1 if w0 is zero else w0
                fixed = math.hypot(live.re, live.im) == 1.0
            else:
                fixed = sqr_mag(w1) <= 1.0 if w0 is t.one else sqr_mag(w0) < 1.0
            # Edge._make, not Edge(): one frame fewer below make_node
            stub = self.zero_stub
            e0 = stub if w0 is zero else Edge._make((t0, w0))
            e1 = stub if w1 is zero else Edge._make((t1, w1))
            node = self._unique[key] = Node(level, e0, e1, self._next_uid, fixed)
            self._next_uid += 1
        return node

    # -- state construction -------------------------------------------------

    def zero_state(self, n: int) -> "StateDD":
        """The basis state |0...0> on n qubits."""
        if n < 0:
            raise ValueError("qubit count must be nonnegative")
        e = Edge(TERMINAL, self.table.one)
        for level in range(n - 1, -1, -1):
            e = self.make_node(level, e, self.zero_stub)
        return StateDD(n, e, self)

    @_gc_paused
    def from_vector(self, amps: Sequence[complex]) -> "StateDD":
        """Canonical diagram for a dense amplitude vector.

        The length must be a power of two and the norm within 1e-6 of 1;
        the residual norm is divided out exactly before building.

        The diagram is built bottom-up, one level at a time (the
        breadth-first order of Ochi, Yasuoka and Yajima, ICCAD 1993): the
        amplitudes are interned first, then each level's nodes from the
        level below, by `make_node`'s tie rule and normalization. The result
        is the diagram that `make_node` calls in depth-first order build,
        except where two values within tol of each other, or equal up to the
        sign of a zero, reach the value table in the other order and the
        other one becomes the representative.
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
        zero, stub = self.table.zero, self.zero_stub
        leaves = self.table.lookup_many(arr.real, arr.imag)
        edges = [stub if w is zero else Edge(TERMINAL, w) for w in leaves]
        for level in range(n - 1, -1, -1):
            edges = self._level_from_pairs(level, edges)
        return StateDD(n, edges[0], self)

    def _level_from_pairs(self, level: int, edges: list) -> list:
        """Edges in, edges out: the edges into `level`'s nodes, where node
        k's successors are `edges[2k]` and `edges[2k + 1]`.

        Each pair takes `make_node`'s path without its per-pair calls. The
        weights' coordinates are gathered from `edges`, the tie tests and
        the quotients of every pair with two live weights are computed over
        the arrays, and those ratios are interned in one `lookup_many`, in
        pair order. The table answers a / a with `one` and a / 1 with a,
        without inserting, as `ComplexTable.div`'s short-cuts do. The pairs
        left with at most one live weight, and those whose ratio is zero,
        then go through `make_node` in turn.
        """
        t = self.table
        zero, one = t.zero, t.one
        re = np.fromiter(map(attrgetter("weight.re"), edges), np.float64, len(edges))
        im = np.fromiter(map(attrgetter("weight.im"), edges), np.float64, len(edges))
        r0, r1, i0, i1 = re[0::2], re[1::2], im[0::2], im[1::2]
        live = ((r0 != 0.0) | (i0 != 0.0)) & ((r1 != 0.0) | (i1 != 0.0))
        top = r0 * r0 + i0 * i0 >= r1 * r1 + i1 * i1  # ties go to succ0
        # the ratio a / b divides the lighter weight by the heavier one
        ar, ai = np.where(top, r1, r0), np.where(top, i1, i0)
        br, bi = np.where(top, r0, r1), np.where(top, i0, i1)
        ratios = iter(t.lookup_many(*quotients(ar[live], ai[live], br[live], bi[live])))
        pairs = zip(edges[0::2], edges[1::2], live.tolist(), top.tolist())
        out = []
        append, intern, stub = out.append, self._intern, self.zero_stub
        for (t0, w0), (t1, w1), two, hi in pairs:
            if two:
                r = next(ratios)
                if r is not zero:
                    if hi:
                        append(Edge(intern(level, t0, one, t1, r), w0))
                    else:
                        append(Edge(intern(level, t0, r, t1, one), w1))
                    continue
                # ratio below tolerance: the lighter weight counts as zero
                e0, e1 = ((t0, w0), stub) if hi else (stub, (t1, w1))
            else:
                e0, e1 = (t0, w0), (t1, w1)
            append(self.make_node(level, e0, e1))
        return out

    # -- maintenance ---------------------------------------------------------

    def unique_table_size(self) -> int:
        return len(self._unique)

    def collect_garbage(self, roots: Iterable[Edge]) -> int:
        """Drop unique-table entries unreachable from `roots`; returns the count.

        Never called implicitly: sizes observed between explicit collections
        are deterministic.
        """
        keep = set(_preorder([e.target for e in roots])[0])
        before = len(self._unique)
        self._unique = {k: v for k, v in self._unique.items() if v in keep}
        return before - len(self._unique)


def _rebuild(pkg: DDPackage, node, weight: ComplexValue, replace, memo: dict) -> tuple:
    """Copy of the edge (`node`, `weight`) with some nodes replaced,
    re-reduced, as a plain (target, weight) pair.

    `replace(node)` returns the (target, weight) pair that stands for
    `node`, or None to rebuild the node from its rebuilt successors
    (0-successor first) through `make_node`, or as (`node`, one) without the
    call when `_unchanged` says that is what it would return. Results are
    memoized per node in `memo`, which callers may share across walks; the
    incoming weight is multiplied back on.
    """
    t = pkg.table
    if weight is t.zero:
        return pkg.zero_stub
    if node is TERMINAL:
        return node, weight
    res = memo.get(node)
    if res is None:
        res = replace(node)
        if res is None:
            r0 = _rebuild(pkg, *node.succ0, replace, memo)
            r1 = _rebuild(pkg, *node.succ1, replace, memo)
            if _unchanged(node, r0, r1):
                res = node, t.one
            else:
                res = pkg.make_node(node.level, r0, r1)
        memo[node] = res
    target, w = res
    if w is t.zero:
        return pkg.zero_stub
    return target, t.mul(weight, w)


def _unchanged(node: Node, r0, r1) -> bool:
    """Whether `make_node` on `node`'s level gives (`node`, one) back, and
    writes neither table, on the rebuilt successors `r0` and `r1`: `node`
    is fixed (`Node.fixed`), and each (target, weight) pair holds the weight
    object of the node's own successor and, where that successor is not an
    edge to the terminal, its target. (A node's edge to the terminal is a
    zero-stub or sits on the last level; a zero weight may come paired with
    any target, which `make_node` ignores.) Holds only while the unique
    table holds `node`: once `collect_garbage` dropped it, the call would
    create a new node."""
    if not node.fixed:
        return False
    (t0, w0), (t1, w1) = node.succ0, node.succ1
    return (
        r0[1] is w0
        and r1[1] is w1
        and (r0[0] is t0 or t0 is TERMINAL)
        and (r1[0] is t1 or t1 is TERMINAL)
    )


def reachable_nodes(dd: "StateDD") -> list[Node]:
    """Reachable nonterminal nodes in depth-first preorder, 0-successor first."""
    return _preorder([dd.root.target])[0]


#: `_preorder`'s default stop mapping: the walk stops nowhere. Never written.
_NO_STOP: dict = {}


def _preorder(stack: list, stop: dict = _NO_STOP) -> tuple[list[Node], list]:
    """Nonterminal nodes reachable from the targets on `stack`, which is
    consumed, in depth-first preorder (last target first, 0-successor first),
    and `stop[v]` for every visit of a key `v` of `stop`, in visit order.

    The walk does not step onto a key of `stop`: it is not listed, and
    nothing is reached through it. A key visited from several parents is
    recorded once per visit."""
    out: list[Node] = []
    hits: list = []
    seen: set[Node] = set()
    while stack:
        t = stack.pop()
        i = stop.get(t)
        if i is not None:
            hits.append(i)
        elif t is not TERMINAL and t not in seen:
            seen.add(t)
            out.append(t)
            stack.append(t.succ1.target)
            stack.append(t.succ0.target)
    return out, hits


class LevelView:
    """Read-only arrays over a state's reachable nodes in (level, uid) order.

    Node ``i`` is ``nodes[i]``; the terminal is the sentinel index
    ``len(nodes)``, which zero-stubs point to as well, and ``index`` maps
    each node and the terminal back to its index. ``succ`` and ``mag`` are
    (m, 2) arrays: row ``i`` holds node ``i``'s 0-edge, then its 1-edge, as
    successor indices and as squared weight magnitudes |w|^2, so their
    ravel lists edge ``2i + b``. ``levels`` maps each occupied level, top
    level first, to its ``slice`` of the node order. Successors always sit
    on a deeper level, so passes over the diagram can go one whole level at
    a time, bottom-up or top-down.

    ``up[i]`` and ``fixed[i]`` gather node ``i``'s ``mass`` and ``fixed``
    once for every pass over the view to read; the sentinel entries are the
    terminal's 1.0 and True. A fixed node comes back from ``make_node`` as
    itself only while the unique table holds it, as it does unless
    ``collect_garbage`` dropped the state.

    ``chains`` holds the path sampler's forced-chain arrays, None until the
    state is first sampled; only ``analysis.sample_paths`` writes it (see
    ``analysis._chains``). Like every other field, it is a function of the
    state alone.
    """

    __slots__ = ("nodes", "index", "succ", "mag", "levels", "up", "fixed", "chains")

    def __init__(self, nodes: list[Node]):
        # two stable sorts on int keys: several times faster than tuple keys
        nodes = sorted(nodes, key=attrgetter("uid"))
        nodes.sort(key=attrgetter("level"))
        m = len(nodes)
        index: dict = dict(zip(nodes, range(m)))
        index[TERMINAL] = m
        self.nodes = nodes
        self.index = index
        edges = list(chain.from_iterable(map(attrgetter("succ0", "succ1"), nodes)))
        weights = list(map(attrgetter("weight"), edges))
        targets = map(index.__getitem__, map(attrgetter("target"), edges))
        succ = np.fromiter(targets, np.intp, 2 * m).reshape(m, 2)
        re = np.fromiter(map(attrgetter("re"), weights), np.float64, 2 * m).reshape(m, 2)
        im = np.fromiter(map(attrgetter("im"), weights), np.float64, 2 * m).reshape(m, 2)
        mag = re * re + im * im  # the same products and sum as sqr_mag, bit for bit
        succ.flags.writeable = mag.flags.writeable = False
        self.succ, self.mag = succ, mag
        lv = [v.level for v in nodes]
        cuts = [i for i in range(1, m) if lv[i] != lv[i - 1]]
        self.levels = {lv[a]: slice(a, b) for a, b in zip([0, *cuts], [*cuts, m]) if a < b}
        every = [*nodes, TERMINAL]
        up = np.fromiter(map(attrgetter("mass"), every), np.float64, m + 1)
        fixed = np.fromiter(map(attrgetter("fixed"), every), bool, m + 1)
        up.flags.writeable = fixed.flags.writeable = False
        self.up, self.fixed = up, fixed
        self.chains = None


def _mass(e: Edge) -> float:
    """Sum over all paths below `e` of the squared weight products."""
    return sqr_mag(e.weight) * e.target.mass


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
        # a (0, 0) weight adds nothing, whichever value holds it
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
        return LevelView(reachable_nodes(self))

    def norm(self) -> float:
        """Square root of the root's path mass: |root weight|^2 times the
        mass kept on the root node. It walks nothing."""
        return math.sqrt(_mass(self.root))

    def amplitude(self, basis: str) -> complex:
        """Product of edge weights along the path selected by `basis`, as a
        plain complex; 0j where a zero-stub cuts the path.

        `basis` is a string of n characters '0'/'1'; position l picks the
        successor at level l (q0 first).
        """
        if len(basis) != self.n:
            raise ValueError(f"basis string must have length {self.n}")
        if basis.strip("01"):
            raise ValueError(f"basis string must be over '0'/'1', got {basis!r}")
        zero = self.package.table.zero
        w = self.root.weight.as_complex()
        node = self.root.target
        for ch in basis:
            e = node.succ1 if ch == "1" else node.succ0
            if e.weight is zero:
                return 0j
            w *= e.weight.as_complex()
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
        return _rescaled(self.n, self.root, self.package, _mass(self.root))

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
