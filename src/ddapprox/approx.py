"""Approximation schemes: eliminate weak nodes, rescale, report the trade-off.

All four schemes pick a set of doomed nodes, as indices into the state's
`LevelView`, replace every edge into them with the zero-stub, re-reduce,
and rescale back to unit norm. Because such a step only zeroes amplitudes
and rescales the rest, the fidelity against the original state equals the
kept probability mass.

Re-reducing keeps a node as it is when neither it nor any node below it is
doomed and all of them are fixed points of `make_node` (`LevelView.fixed`);
every other node is rebuilt, which gives the same nodes and tables, bit
for bit, as rebuilding every node. A trial's norm is read off its rebuilt
root (`Node.mass`) and its size from the state's view, so a trial costs
time in proportion to what it rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union, get_args

import numpy as np

from .analysis import _contributions, sample_paths
from .dd import Edge, LevelView, Node, StateDD, _gc_paused, _mass, _rebuild, _rescaled
from .errors import ZeroStateError
from .fidelity import fidelity as state_fidelity


#: Shaved off every elimination budget so accumulated floating-point rounding
#: can never push the kept mass below the promised fidelity floor.
_BUDGET_SLACK = 1e-10


def _budget_prefixes(dd: StateDD, levels: Iterable[int], budget: float) -> list[np.ndarray]:
    """Per level, the longest ascending-contribution prefix of its nodes
    whose running sum stays <= budget, as an int array of view indices.

    The first node that would push the sum past the budget is kept, as is
    everything after it. Ties in contribution fall back to uid order: a
    level's slice of the view is in uid order and the sort is stable.
    Contributions are nonnegative, so the running sums (added in order, as
    `np.cumsum` does) never decrease and one search finds the cut. A level
    with no node gives an empty prefix.
    """
    view = dd.view
    contrib = _contributions(dd)
    limit = budget - _BUDGET_SLACK
    out = []
    for level in levels:
        s = view.levels.get(level, slice(0, 0))
        c = contrib[s]
        order = np.argsort(c, kind="stable")
        cut = int(np.searchsorted(np.cumsum(c[order]), limit, side="right"))
        out.append(s.start + order[:cut])
    return out


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
    contribution map, the union is eliminated once, and the attained
    fidelity is bounded below by fidelity ** (n - 1): the root level can
    never shed its single full-mass node, and each remaining level keeps
    at least `fidelity` of the mass it sees.
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
        prefixes = TargetFidelity(self.fidelity).candidates(dd)  # one per level
        return [np.concatenate(prefixes) if prefixes else np.empty(0, np.intp)]


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
    A node is rebuilt through `make_node` when it or a node below it is
    doomed or not a fixed point of `make_node` (see `LevelView.fixed`); every
    other node would come back as itself with weight one and no table write,
    so its edge is kept as it is. The norm is read off the rebuilt root, so
    the call costs time in proportion to what it rebuilds. Doomed nodes not
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

    One bottom-up pass over the view's level slices marks the nodes to
    keep: ``keep = fixed & ~dead``, where ``dead`` marks the doomed indices,
    ANDed with ``keep`` of both entries of the node's row of `view.succ`.
    `dd._rebuild` then copies the root edge, with doomed nodes replaced by
    the zero-stub and kept ones by themselves at weight one. The mass is
    read off the rebuilt root (`Node.mass`), so the rescaled root is the one
    `renormalize` gives. The size comes from `_result_size`.
    """
    pkg = dd.package
    view = dd.view
    dead = np.zeros(len(view.nodes) + 1, dtype=bool)
    dead[doomed] = True
    keep = view.fixed & ~dead
    for s in reversed(view.levels.values()):
        keep[s] &= keep[view.succ[s]].all(axis=1)
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

    A walk with an explicit stack collects the nodes outside the view and
    stops at every view node (and the terminal) it steps onto. Those view
    nodes are spread down the view one level slice at a time, each reached
    node marking both entries of its row of `view.succ`, and counted; a
    node that `make_node` gave back from the view is counted there, once.
    """
    index = view.index
    outside: set[Node] = set()
    reached: list[int] = []  # view indices stepped onto; the terminal is one
    stack = [top]
    while stack:
        v = stack.pop()
        i = index.get(v)
        if i is not None:
            reached.append(i)
        elif v not in outside:
            outside.add(v)
            stack.append(v.succ1.target)
            stack.append(v.succ0.target)
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
