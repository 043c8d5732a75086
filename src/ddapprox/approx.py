"""Approximation schemes: eliminate weak nodes, rescale, report the trade-off.

All four schemes pick a set of doomed nodes, as indices into the state's
`LevelView`, replace every edge into them with the zero-stub, re-reduce,
and rescale back to unit norm. Because such a step only zeroes amplitudes
and rescales the rest, the fidelity against the original state equals the
kept probability mass.

Re-reducing keeps a node as it is when neither it nor any node below it is
doomed and all of them are fixed points of `make_node` (`LevelView.fixed`),
and turns a node into the zero-stub, without a walk below it, when no path
through it survives (each edge is a zero-stub or leads to such a node).
Every other node is rebuilt, and one that is fixed and gets its own
successors back is not handed to `make_node`. This gives the same nodes
and tables, bit for bit, as rebuilding every node through `make_node`. A
trial's norm is read off its rebuilt root (`Node.mass`) and its size from
the state's view, so a trial costs time in proportion to what it rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union, get_args

import numpy as np

from .analysis import _contributions, _downstream, sample_paths
from .dd import Edge, LevelView, Node, StateDD, _gc_paused, _mass, _preorder, _rebuild, _rescaled
from .errors import ZeroStateError
from .fidelity import fidelity as state_fidelity


#: Shaved off every elimination budget so accumulated floating-point rounding
#: can never push the kept mass below the promised fidelity floor.
_BUDGET_SLACK = 1e-10


def _prefix(order: np.ndarray, x: np.ndarray, limit: float) -> int:
    """The length of the longest prefix of `x[order]` whose running sum
    stays <= limit less the slack.

    The entries are nonnegative, so the running sums (added in order, as
    `np.cumsum` does) never decrease and one search finds the cut: the
    first entry that would push the sum past the limit is left out, as is
    everything after it.
    """
    return int(np.searchsorted(np.cumsum(x[order]), limit - _BUDGET_SLACK, side="right"))


def _budget_prefixes(dd: StateDD, levels: Iterable[int], budget: float) -> list[np.ndarray]:
    """Per level, the longest ascending-contribution prefix of its nodes
    whose running sum stays <= budget (`_prefix`), as an int array of view
    indices.

    Ties in contribution fall back to uid order: a level's slice of the
    view is in uid order and the sort is stable. A level with no node gives
    an empty prefix.
    """
    view = dd.view
    contrib = _contributions(dd)
    out = []
    for level in levels:
        s = view.levels.get(level, slice(0, 0))
        c = contrib[s]
        order = np.argsort(c, kind="stable")
        out.append(s.start + order[: _prefix(order, c, budget)])
    return out


def _per_level_prefixes(dd: StateDD, fidelity: float) -> np.ndarray:
    """The union, top level first, of each level's budget prefix of
    `_budget_prefixes` with budget 1 - fidelity, cut further so that it
    removes at most 1 - fidelity of the mass the levels above left.

    The mass a level sees is that of the paths avoiding every node doomed
    above it: the cut is taken inside the downstream push of `_downstream`,
    which zeroes each level's doomed nodes before it pushes the level. Both
    cuts follow the same stable contribution order. Same-level nodes carve
    the paths into disjoint bundles, so each level keeps at least
    `fidelity` of that mass, and the union's kept mass is at least
    fidelity ** (number of levels below the root). Where the second cut
    does not bind, the prefix is `_budget_prefixes`' exactly.
    """
    view = dd.view
    contrib = _contributions(dd)
    budget = 1.0 - fidelity
    out = [np.empty(0, np.intp)]

    def cut(s: slice, down: np.ndarray) -> np.ndarray:
        c = contrib[s]
        seen = down * view.up[s]
        order = np.argsort(c, kind="stable")
        k = min(_prefix(order, c, budget), _prefix(order, seen, budget * seen.sum()))
        out.append(s.start + order[:k])
        return out[-1]

    _downstream(dd, cut)
    return np.concatenate(out)


@dataclass(frozen=True)
class Sampling:
    """Keep exactly the nodes visited by `traversals` sampled walks.

    Every node never visited is dropped; this is Threshold with tau = 0. At
    least one path is always walked, so the state cannot vanish.
    """

    traversals: int
    seed: int = 0
    name = "sampling"

    def __post_init__(self):
        if self.traversals < 1:
            raise ValueError("traversals must be at least 1")

    @property
    def param(self):
        return self.traversals

    def candidates(self, dd: StateDD) -> list[np.ndarray]:
        return Threshold(self.traversals, 0, self.seed).candidates(dd)


@dataclass(frozen=True)
class Threshold:
    """Drop nodes visited `tau` times or fewer across `traversals` walks.

    The root is visited by every walk, so it always survives (tau < traversals).
    """

    traversals: int
    tau: int
    seed: int = 0
    name = "threshold"

    def __post_init__(self):
        if self.traversals < 1:
            raise ValueError("traversals must be at least 1")
        if not 0 <= self.tau < self.traversals:
            raise ValueError("tau must satisfy 0 <= tau < traversals")

    @property
    def param(self):
        return self.tau

    def candidates(self, dd: StateDD) -> list[np.ndarray]:
        """One candidate: the view indices of the nodes visited `tau` times or fewer."""
        visits = sample_paths(dd, self.traversals, self.seed)
        return [np.flatnonzero(visits.array <= self.tau)]


@dataclass(frozen=True)
class TargetFidelity:
    """One-level elimination guaranteed to keep fidelity >= `fidelity`.

    Nodes of the chosen level are dropped in ascending contribution order
    while the dropped mass stays within 1 - fidelity; since same-level nodes
    carve the state into disjoint path bundles, the kept mass (and hence the
    fidelity) stays at or above the target. `level` is a fixed index or
    "best", which offers every level as a candidate, so the one whose
    elimination leaves the smallest diagram wins (ties to the smallest
    level). When no node fits the budget anywhere, the state is unchanged.
    """

    fidelity: float
    level: Union[int, str] = "best"
    name = "target-fidelity"

    def __post_init__(self):
        if not 0.0 < self.fidelity <= 1.0:
            raise ValueError("target fidelity must lie in (0, 1]")
        if self.level != "best" and (not isinstance(self.level, int) or self.level < 0):
            raise ValueError('level must be "best" or a nonnegative integer')

    @property
    def param(self):
        return self.fidelity

    def levels(self, n: int) -> Sequence[int]:
        """The levels offered on an n-qubit state; a fixed level outside
        them raises ValueError."""
        if self.level != "best" and not 0 <= self.level < max(n, 1):
            raise ValueError(f"level must lie in [0, {n}) for this state")
        return range(n) if self.level == "best" else [self.level]

    def candidates(self, dd: StateDD) -> list[np.ndarray]:
        return _budget_prefixes(dd, self.levels(dd.n), 1.0 - self.fidelity)


@dataclass(frozen=True)
class PerLevelFidelity:
    """The same budgeted elimination applied to every level at once.

    Each level's ascending prefix is chosen on the original state's
    contribution map and cut where it would remove more than 1 - fidelity
    of the mass the levels above leave; `_per_level_prefixes` returns the
    union, which is eliminated once. The attained fidelity is bounded below
    by fidelity ** (n - 1): the root level can never shed its single
    full-mass node, and each remaining level keeps at least `fidelity` of
    the mass it sees.
    """

    fidelity: float
    name = "per-level"

    def __post_init__(self):
        if not 0.0 < self.fidelity <= 1.0:
            raise ValueError("target fidelity must lie in (0, 1]")

    @property
    def param(self):
        return self.fidelity

    def candidates(self, dd: StateDD) -> list[np.ndarray]:
        """One candidate: the view indices of every level's budget prefix, top first."""
        return [_per_level_prefixes(dd, self.fidelity)]


Scheme = Union[Sampling, Threshold, TargetFidelity, PerLevelFidelity]


@dataclass(frozen=True)
class ApproxReport:
    """Before/after accounting for one approximation."""

    scheme: Scheme
    orig_size: int
    approx_size: int
    compression: float  # approx_size / orig_size, smaller is better
    attained_fidelity: float  # against the pre-approximation state
    kept_mass: float  # path mass the kept trial divided out; 1.0 if unchanged
    eliminated: int  # nodes deliberately doomed


@_gc_paused
def eliminate(dd: StateDD, doomed: Iterable[Node]) -> StateDD:
    """Copy of `dd` with every edge into a doomed node turned into a zero-stub.

    The rebuilt diagram is re-reduced (nodes whose successors collapsed are
    merged or dropped) and rescaled to unit norm; `dd` itself is untouched.
    A node with no surviving path (each edge a zero-stub or into a doomed
    node or another such node) becomes the zero-stub, as `make_node` would
    make it, without a walk below it. Any other node is rebuilt when it or a
    node below it is doomed or not a fixed point of `make_node` (see
    `LevelView.fixed`); every other node would come back as itself with
    weight one and no table write, so its edge is kept as it is. The norm
    is read off the rebuilt root, so the call costs time in proportion to
    what it rebuilds. Doomed nodes not
    reachable from `dd` are ignored: the others are mapped to their indices
    in `dd.view` once, here, and the elimination reads only those.
    `dd` must not be a state whose nodes `collect_garbage` dropped: kept
    nodes would then be ones the unique table no longer holds. Raises
    ZeroStateError when no probability mass remains.
    """
    index = dd.view.index
    found = [i for i in map(index.get, doomed) if i is not None]
    return _eliminate(dd, np.array(found, dtype=np.intp))[0]


def _eliminate(dd: StateDD, doomed: np.ndarray) -> tuple[StateDD, int, float]:
    """`eliminate` of the nodes at the view indices `doomed`, plus the
    result's size and the path mass it divided out.

    One bottom-up pass over the view's level slices marks the nodes that
    are dead and the nodes to keep. ``dead`` starts as the doomed indices,
    and a node joins it when each entry of its row of `view.succ` is dead or
    a zero-stub (`view.mag` 0): no path through it survives. ``keep`` starts
    as ``fixed & ~dead`` and is ANDed with ``keep`` of both entries of the
    node's row. `dd._rebuild` then copies the root edge, with dead nodes
    replaced by the zero-stub and kept ones by themselves at weight one.
    The mass is read off the rebuilt root (`Node.mass`), so the rescaled
    root is the one `renormalize` gives. The size comes from
    `_result_size`: the reachability walk of `reachable_nodes`
    (`dd._preorder`), stopped where it reaches the view, so it visits only
    the rebuilt nodes.
    """
    pkg = dd.package
    view = dd.view
    dead = np.zeros(len(view.nodes) + 1, dtype=bool)
    dead[doomed] = True
    keep = view.fixed & ~dead
    for s in reversed(view.levels.values()):
        succ = view.succ[s]
        dead[s] |= (dead[succ] | (view.mag[s] == 0.0)).all(axis=1)
        keep[s] &= keep[succ].all(axis=1)
    one = pkg.table.one

    def replace(v: Node):
        i = view.index[v]
        if dead[i]:
            return pkg.zero_stub
        return (v, one) if keep[i] else None

    root = Edge(*_rebuild(pkg, *dd.root, replace, {}))
    if root.weight is pkg.table.zero:
        raise ZeroStateError("elimination removed all probability mass")
    total = _mass(root)
    return _rescaled(dd.n, root, pkg, total), _result_size(root.target, view), total


def _result_size(top, view: LevelView) -> int:
    """Distinct nonterminal nodes below `top`, counted in time proportional
    to the nodes outside `view`.

    `dd._preorder`, stopped at the view's nodes and the terminal, lists the
    nodes outside the view and the view indices it stepped onto. Those view
    nodes are spread down the view one level slice at a time, each reached
    node marking both entries of its row of `view.succ`, and counted; a
    node that `make_node` gave back from the view is counted there, once.
    """
    outside, reached = _preorder([top], view.index)
    seen = np.zeros(len(view.nodes) + 1, dtype=bool)
    seen[reached] = True
    for s in view.levels.values():
        seen[view.succ[s][seen[s]]] = True
    return len(outside) + int(np.count_nonzero(seen[:-1]))


@_gc_paused
def apply_scheme(dd: StateDD, scheme: Scheme):
    """Approximate `dd` with `scheme`; returns (approximated state, report).

    A scheme only selects: `scheme.candidates(dd)` lists candidate doomed
    sets in order, each an int array of indices into `dd.view`. Each
    non-empty one is eliminated in turn and the first smallest result is
    kept (ties go to the earlier candidate); with no non-empty candidate
    `dd` is returned unchanged. Each trial's size and kept mass come from
    the elimination itself, read off `dd.view`, so no trial result is
    walked whole.
    """
    if not isinstance(scheme, get_args(Scheme)):
        raise TypeError(f"unknown scheme {scheme!r}")
    orig = len(dd.view.nodes)  # the selection reuses the cached view
    out, size, eliminated, kept = dd, orig, 0, 1.0
    for doomed in scheme.candidates(dd):
        if len(doomed):
            trial, trial_size, mass = _eliminate(dd, doomed)
            if not eliminated or trial_size < size:  # the first trial always counts
                out, size, eliminated, kept = trial, trial_size, len(doomed), mass
    return out, ApproxReport(
        scheme=scheme,
        orig_size=orig,
        approx_size=size,
        compression=size / orig if orig else 1.0,
        # identity transformation: skip the noisy self-overlap
        attained_fidelity=1.0 if out.root == dd.root else state_fidelity(dd, out),
        kept_mass=kept,
        eliminated=eliminated,
    )


def approx_sampling(dd: StateDD, traversals: int, seed: int = 0):
    return apply_scheme(dd, Sampling(traversals, seed))


def approx_threshold(dd: StateDD, traversals: int, tau: int, seed: int = 0):
    return apply_scheme(dd, Threshold(traversals, tau, seed))


def approx_target_fidelity(dd: StateDD, target: float, level: Union[int, str] = "best"):
    return apply_scheme(dd, TargetFidelity(target, level))


def approx_per_level(dd: StateDD, target: float):
    return apply_scheme(dd, PerLevelFidelity(target))
