"""Probability annotations and stochastic path sampling over a state DD.

Three per-node numbers drive the approximation schemes:

* upstream(v): summed probability of every path from v down to the terminal,
  excluding the weight on v's incoming edge(s); the terminal maps to 1.
* downstream(v): summed probability mass of every root path into v, incoming
  edge weights included.
* contribution(v) = downstream(v) * upstream(v): the probability mass that
  flows through v. On a unit-norm state the contributions of each level sum
  to 1, because every nonzero path crosses each level exactly once.

All passes run over the state's cached level-array view (`StateDD.view`),
one numpy step per level, so they need no recursion. The upstream is the
mass each node keeps (`Node.mass`), gathered once into `LevelView.up`, and
every pass reads it; the downstream is pushed top-down from the root by
the one push, `_downstream`. Its `cut` callback picks nodes of each level
to zero before that level is pushed, which is how the per-level scheme
selects. Every float comes from the same operations in the same order as
in a node-by-node pass, so the results match such a pass bit for bit.

Path sampling takes walks 0..L-1 on every call, so its counts depend on
nothing but (state, L, seed). The view keeps only what the state alone
fixes (`LevelView.chains`): per node, where a walk lands after the chain of
forced branches below it (`_chains`), so a walk moves only between nodes
that take a draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complex_table import sqr_mag
from .dd import TERMINAL, LevelView, Node, StateDD
from .rng import derive_seeds, draw_array


def _downstream(dd: StateDD, cut=None) -> np.ndarray:
    """Downstream per node index, pushed down one level at a time.

    `np.add.at` adds the edges of a level's slice of `view.succ`, raveled,
    into their children in turn: parents in (level, uid) order and each
    parent's 0-edge before its 1-edge, so a node's incoming masses are
    summed in that order. Edges into the terminal land on the sentinel
    entry, dropped here. When `cut` is given, `cut(s, down[s])` is called
    on each level slice `s`, top first, with the level's downstream as
    pushed so far, and the entries at the view indices it returns are
    zeroed before the level is pushed, so each level's downstream is that
    of the paths avoiding every node cut above it.
    """
    view = dd.view
    down = np.zeros(len(view.nodes) + 1)
    down[0] = sqr_mag(dd.root.weight)  # the root is alone on the top level
    for s in view.levels.values():
        if cut is not None:
            down[cut(s, down[s])] = 0.0
        np.add.at(down, view.succ[s].ravel(), (down[s, None] * view.mag[s]).ravel())
    return down[:-1]


def _contributions(dd: StateDD) -> np.ndarray:
    """Contribution per node index: downstream * upstream."""
    return _downstream(dd) * dd.view.up[:-1]


def upstream(dd: StateDD) -> dict:
    """Upstream of every reachable node, plus the terminal (mapped to 1.0)."""
    view = dd.view
    up = view.up.tolist()
    out = dict(zip(view.nodes, up))
    out[TERMINAL] = up[-1]
    return out


def downstream(dd: StateDD) -> dict[Node, float]:
    """Downstream of every reachable node."""
    return dict(zip(dd.view.nodes, _downstream(dd).tolist()))


def contributions(dd: StateDD) -> dict[Node, float]:
    """downstream * upstream per node; each level sums to 1 on unit norm."""
    return dict(zip(dd.view.nodes, _contributions(dd).tolist()))


def nodes_by_level(dd: StateDD) -> dict[int, list[Node]]:
    """Reachable nonterminal nodes grouped by level, each group in uid order."""
    view = dd.view
    return {level: view.nodes[s] for level, s in view.levels.items()}


#: Walks advanced together; bounds the walk kernel's memory for any walk count.
_WALK_BLOCK = 1 << 14
#: The largest 53-bit draw, as a float (exact).
_DRAW_MAX = float((1 << 53) - 1)


@dataclass(frozen=True, eq=False)
class VisitCounts:
    """Per-node visit counts over the root-to-terminal walks of one `sample_paths` call.

    `array[i]` counts the walks through `nodes[i]`, the state's view nodes
    in (level, uid) order; it is read-only. `counts` maps each node to its
    count as an int, built on first use.
    """

    nodes: list[Node]
    array: np.ndarray

    @cached_property
    def counts(self) -> dict[Node, int]:
        return dict(zip(self.nodes, self.array.tolist()))


def sample_paths(dd: StateDD, traversals: int, seed: int) -> VisitCounts:
    """Walk the diagram `traversals` times, branching by probability mass.

    At a node the 1-successor is taken when the walk's next uniform draw
    falls below p1 = |w1|^2 * up(succ1) / up(node); zero-stub branches have
    probability exactly 0 and are never taken. Walk i draws from its own
    substream, `SplitMix64(s)` for `s` entry i of `derive_seeds(seed, 0,
    traversals)`, its k-th draw at the k-th node it visits, so adding walks
    never perturbs earlier ones. Where a branch is forced no draw is taken
    and the walk skips the whole forced chain at once; the counts are those
    of walking every node.

    The state's view keeps the `_chains` arrays, built on its first
    sampling call (`LevelView.chains`), and no counts: every call takes
    walks 0..traversals-1 afresh.
    """
    if traversals < 1:
        raise ValueError("traversals must be at least 1")
    view = dd.view
    if view.chains is None:
        view.chains = _chains(view)
    counts = _walk(view, seed, traversals)
    counts.flags.writeable = False
    return VisitCounts(view.nodes, counts)


def _chains(view: LevelView) -> tuple:
    """(thr, jump, steps, push): how walks cross the view, per node index.

    ``thr[i]`` is node i's 1-side probability in draw units,
    ``p1 * 2**53``. A draw is compared in those units: u < p1 exactly when
    `(x >> 11) < p1 * 2**53`, since the product is exact. Only nodes with
    0 < p1 * 2**53 <= 2**53 - 1 take a draw; the others go to a forced
    successor (the 1-successor above that range, the 0-successor at or
    below 0 or for a NaN). ``jump[i]`` is the first node that takes a draw,
    or the terminal, reached from node i through forced successors (i
    itself when it draws), and ``steps[i]`` is one plus the number of forced
    steps to get there, as uint64. ``push`` lists, top level first, the
    forced nodes of each level slice (``view.levels``) that has any and
    their forced successors.
    """
    m = len(view.nodes)
    succ, up = view.succ, view.up
    thr = view.mag[:, 1] * up[succ[:, 1]] / up[:-1] * 2.0**53
    forced = ~((thr > 0.0) & (thr <= _DRAW_MAX))
    forced_succ = np.where(thr > _DRAW_MAX, succ[:, 1], succ[:, 0])
    push = []
    for s in view.levels.values():
        i = np.flatnonzero(forced[s]) + s.start
        if i.size:
            push.append((i, forced_succ[i]))
    jump = np.arange(m + 1)
    steps = np.ones(m + 1, dtype=np.uint64)
    for i, f in reversed(push):  # bottom-up: a successor's chain is done first
        jump[i] = jump[f]
        steps[i] = steps[f] + np.uint64(1)
    return thr, jump, steps, push


def _walk(view: LevelView, seed: int, traversals: int) -> np.ndarray:
    """Visit count per view node index over walks 0..traversals-1.

    Walks advance together in blocks of `_WALK_BLOCK` walks, and each one
    sits only on nodes that take a draw (`view.chains`, the `_chains`
    arrays). A walk carries its own step index `k`: at a draw node i it
    takes its k-th draw, which picks edge e = 2i (0-side) or 2i + 1
    (1-side), row i of `view.succ` raveled, moves on to the `jump` of that
    edge's target and adds the target's `steps` to `k`. So a walk over a
    forced chain skips the chain in one move and draws exactly what a
    node-by-node walk draws. Edges taken are counted with `bincount`; each
    edge's count enters its target, and then the counts of forced nodes are
    pushed down to their forced successors one level at a time, which gives
    every node the number of walks through it.
    """
    m = len(view.nodes)
    counts = np.zeros(m + 1, dtype=np.int64)  # the sentinel counts the terminal
    if m:
        thr, jump, steps, push = view.chains
        succ = view.succ.ravel()  # edge 2i + b
        edge_jump, edge_steps = jump[succ], steps[succ]
        taken = np.zeros(2 * m, dtype=np.int64)
        for first in range(0, traversals, _WALK_BLOCK):
            states = derive_seeds(seed, first, min(first + _WALK_BLOCK, traversals))
            counts[0] += states.size  # every walk enters the root
            at = np.full(states.size, jump[0])
            k = np.full(states.size, steps[0], dtype=np.uint64)
            while at.size:
                live = at < m
                if not live.all():
                    at, states, k = at[live], states[live], k[live]
                    continue
                e = 2 * at + (draw_array(states, k) < thr[at])
                lo, hi = int(e.min()), int(e.max()) + 1
                taken[lo:hi] += np.bincount(e - lo, minlength=hi - lo)
                k += edge_steps[e]
                at = edge_jump[e]
        np.add.at(counts, succ, taken)
        for i, f in push:
            np.add.at(counts, f, counts[i])
    return counts[:-1]
