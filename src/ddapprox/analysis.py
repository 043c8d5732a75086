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
one numpy step per level, so they need no recursion. The view computes the
upstream once, bottom-up (`LevelView.up`), and every pass reads it; the
downstream is pushed top-down from the root. Every float comes from the same
operations in the same order as in a node-by-node pass, so the results
match such a pass bit for bit. Path sampling keeps its visit counts on the
state as well (`StateDD._walks`), so a sweep walks each path once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complex_table import sqr_mag
from .dd import TERMINAL, LevelView, Node, StateDD
from .rng import _MASK64, derive_seeds, draw_array


def _downstream(dd: StateDD) -> np.ndarray:
    """Downstream per node index, pushed down one level at a time.

    `np.add.at` adds the edges of a level into their children in turn,
    parents in (level, uid) order and each parent's 0-successor edge before
    its 1-successor edge, so a node's incoming masses are summed in that
    order. Edges into the terminal land on the sentinel entry, dropped here.
    """
    view = dd.view
    succ = np.stack((view.succ0, view.succ1), axis=1)
    mag = np.stack((view.mag0, view.mag1), axis=1)
    down = np.zeros(len(view.nodes) + 1)
    down[0] = sqr_mag(dd.root.weight)  # the root is alone on the top level
    for _, start, stop in view.levels:
        s = slice(start, stop)
        np.add.at(down, succ[s].ravel(), (down[s, None] * mag[s]).ravel())
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
    return {level: view.nodes[start:stop] for level, start, stop in view.levels}


#: Walks advanced together; bounds the walk kernel's memory for any walk count.
_WALK_BLOCK = 1 << 16
#: The largest 53-bit draw, as a float (exact).
_DRAW_MAX = float((1 << 53) - 1)


@dataclass(frozen=True, eq=False)
class VisitCounts:
    """Per-node visit counts over `traversals` root-to-terminal walks.

    `array[i]` counts the walks through `nodes[i]`, the state's view nodes
    in (level, uid) order; it is read-only. `counts` maps each node to its
    count as an int, built on first use.
    """

    nodes: list[Node]
    array: np.ndarray
    traversals: int
    seed: int

    @cached_property
    def counts(self) -> dict[Node, int]:
        return dict(zip(self.nodes, self.array.tolist()))


def sample_paths(dd: StateDD, traversals: int, seed: int) -> VisitCounts:
    """Walk the diagram `traversals` times, branching by probability mass.

    At a node the 1-successor is taken when the walk's next uniform draw
    falls below p1 = |w1|^2 * up(succ1) / up(node); zero-stub branches have
    probability exactly 0 and are never taken. Walk i draws from its own
    substream, `SplitMix64(derive_seed(seed, i))`, its k-th draw at the k-th
    node it visits, so adding walks never perturbs earlier ones.

    The counts are kept on the state, one entry per seed modulo 2**64
    holding the last walk count asked for. A call for at least that many
    walks takes only the new walks and adds their counts; a call for fewer
    walks them all again. Either way the counts are the same integers as a
    fresh run, and the state keeps one count array per seed it was sampled
    with.
    """
    if traversals < 1:
        raise ValueError("traversals must be at least 1")
    return VisitCounts(dd.view.nodes, _visit_counts(dd, traversals, seed), traversals, seed)


def _visit_counts(dd: StateDD, traversals: int, seed: int) -> np.ndarray:
    """Read-only visit count per view node index over walks 0..traversals-1,
    extended from or stored in the state's walk cache."""
    key = seed & _MASK64
    done, counts = dd._walks.get(key, (0, None))
    if counts is None or traversals < done:
        done, counts = 0, np.zeros(len(dd.view.nodes), dtype=np.int64)
    if traversals > done:
        counts = counts + _walk(dd.view, key, done, traversals)
        counts.flags.writeable = False
        dd._walks[key] = (traversals, counts)
    return counts


def _walk(view: LevelView, seed: int, start: int, stop: int) -> np.ndarray:
    """Visit count per node index over walks start..stop-1.

    Walks advance in lockstep, one node per step, in blocks of `_WALK_BLOCK`
    walks. A draw is compared in draw units: u < p1 exactly when
    `(x >> 11) < p1 * 2**53`, since the product is exact. Only nodes with
    0 < p1 * 2**53 <= 2**53 - 1 need a draw; the others go to their forced
    successor (`succ1` above that range, `succ0` at or below 0 or for a
    NaN), and a step at such nodes costs one gather. A step whose walks all
    sit in a span of nodes that all draw skips that gather, so dense states
    pay nothing for the forced branches.
    """
    m = len(view.nodes)
    counts = np.zeros(m, dtype=np.int64)
    if not m:
        return counts
    up = view.up
    thr = view.mag1 * up[view.succ1] / up[:-1] * 2.0**53
    draw = (thr > 0.0) & (thr <= _DRAW_MAX)
    # the forced successor of each node, -1 where the branch takes a draw
    step = np.where(draw, -1, np.where(thr > _DRAW_MAX, view.succ1, view.succ0))
    for first in range(start, stop, _WALK_BLOCK):
        states = derive_seeds(seed, first, min(first + _WALK_BLOCK, stop))
        at = np.zeros(states.size, dtype=np.intp)  # every walk starts at the root
        k = 0
        while at.size:
            k += 1
            lo, hi = int(at.min()), int(at.max()) + 1
            counts[lo:hi] += np.bincount(at - lo, minlength=hi - lo)
            if draw[lo:hi].all():  # every live walk draws
                take1 = draw_array(states, k) < thr[at]
                at = np.where(take1, view.succ1[at], view.succ0[at])
            else:
                nxt = step[at]
                drawn = nxt < 0
                if drawn.any():
                    i = np.flatnonzero(drawn)
                    a = at[i]
                    take1 = draw_array(states[i], k) < thr[a]
                    nxt[i] = np.where(take1, view.succ1[a], view.succ0[a])
                at = nxt
            live = at < m
            if not live.all():
                at, states = at[live], states[live]
    return counts
