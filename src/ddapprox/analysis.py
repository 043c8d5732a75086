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
match such a pass bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex_table import sqr_mag
from .dd import TERMINAL, Node, StateDD
from .rng import derive_seeds, random_array


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


#: Walks advanced together; bounds sample_paths' memory for any walk count.
_WALK_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class VisitCounts:
    """Per-node visit counts over `traversals` root-to-terminal walks."""

    counts: dict[Node, int]
    traversals: int
    seed: int


def sample_paths(dd: StateDD, traversals: int, seed: int) -> VisitCounts:
    """Walk the diagram `traversals` times, branching by probability mass.

    At a node the 1-successor is taken when the walk's next uniform draw
    falls below |w1|^2 * up(succ1) / up(node); zero-stub branches have
    probability exactly 0 and are never taken. Walk i draws from its own
    substream, `SplitMix64(derive_seed(seed, i))`, so adding walks never
    perturbs earlier ones. Walks advance in lockstep, one node per step, in
    blocks of `_WALK_BLOCK` walks.
    """
    if traversals < 1:
        raise ValueError("traversals must be at least 1")
    view = dd.view
    m = len(view.nodes)
    up = view.up
    p1 = view.mag1 * up[view.succ1] / up[:-1]
    counts = np.zeros(m, dtype=np.int64)
    for first in range(0, traversals if m else 0, _WALK_BLOCK):
        states = derive_seeds(seed, first, min(first + _WALK_BLOCK, traversals))
        at = np.zeros(states.size, dtype=np.intp)  # every walk starts at the root
        while at.size:
            lo, hi = int(at.min()), int(at.max()) + 1
            counts[lo:hi] += np.bincount(at - lo, minlength=hi - lo)
            take1 = random_array(states) < p1[at]
            at = np.where(take1, view.succ1[at], view.succ0[at])
            live = at < m
            if not live.all():
                at, states = at[live], states[live]
    return VisitCounts(dict(zip(view.nodes, counts.tolist())), traversals, seed)
