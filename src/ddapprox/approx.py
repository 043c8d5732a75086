"""Approximation schemes: eliminate weak nodes, rescale, report the trade-off.

All four schemes pick a set of doomed nodes, replace every edge into them
with the zero-stub, re-reduce, and rescale back to unit norm. Because such
a step only zeroes amplitudes and rescales the rest, the fidelity against
the original state equals the kept probability mass.

Re-reducing keeps a node as it is when neither it nor any node below it is
doomed and all of them are fixed points of `make_node` (`LevelView.fixed`);
every other node is rebuilt, which gives the same nodes and tables, bit
for bit, as rebuilding every node. A trial's size and norm are read from
the state's view too, so a trial costs time in proportion to what it
rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union, get_args

import numpy as np

from .analysis import _contributions, _upstream, sample_paths
from .dd import Edge, Node, StateDD, _mass, _rescaled, rebuild
from .errors import ZeroStateError
from .fidelity import fidelity as state_fidelity


#: Shaved off every elimination budget so accumulated floating-point rounding
#: can never push the kept mass below the promised fidelity floor.
_BUDGET_SLACK = 1e-10


def _budget_prefixes(dd: StateDD, levels: Iterable[int], budget: float) -> list[list[Node]]:
    """Per level, the longest ascending-contribution prefix of its nodes
    whose running sum stays <= budget.

    The first node that would push the sum past the budget is kept, as is
    everything after it. Ties in contribution fall back to uid order: a
    level's slice of the view is in uid order and the sort is stable.
    Contributions are nonnegative, so the running sums (added in order, as
    `np.cumsum` does) never decrease and one search finds the cut.
    """
    view = dd.view
    contrib = _contributions(dd)
    limit = budget - _BUDGET_SLACK
    spans = {level: (start, stop) for level, start, stop in view.levels}
    out = []
    for level in levels:
        start, stop = spans.get(level, (0, 0))
        c = contrib[start:stop]
        order = np.argsort(c, kind="stable")
        cut = int(np.searchsorted(np.cumsum(c[order]), limit, side="right"))
        out.append([view.nodes[start + i] for i in order[:cut].tolist()])
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

    def candidates(self, dd: StateDD) -> list[list[Node]]:
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

    def candidates(self, dd: StateDD) -> list[list[Node]]:
        counts = sample_paths(dd, self.traversals, self.seed).counts
        return [[v for v, c in counts.items() if c <= self.tau]]


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

    def candidates(self, dd: StateDD) -> list[list[Node]]:
        if self.level != "best" and not 0 <= self.level < max(dd.n, 1):
            raise ValueError(f"level must lie in [0, {dd.n}) for this state")
        levels = range(dd.n) if self.level == "best" else [self.level]
        return _budget_prefixes(dd, levels, 1.0 - self.fidelity)


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

    def candidates(self, dd: StateDD) -> list[list[Node]]:
        prefixes = TargetFidelity(self.fidelity).candidates(dd)  # one per level
        return [[v for prefix in prefixes for v in prefix]]


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


def eliminate(dd: StateDD, doomed: Iterable[Node]) -> StateDD:
    """Copy of `dd` with every edge into a doomed node turned into a zero-stub.

    The rebuilt diagram is re-reduced (nodes whose successors collapsed are
    merged or dropped) and rescaled to unit norm; `dd` itself is untouched.
    A node is rebuilt through `make_node` when it or a node below it is
    doomed or not a fixed point of `make_node` (see `LevelView.fixed`); every
    other node would come back as itself with weight one and no table write,
    so its edge is kept as it is. The norm is read from `dd.view` for every
    node the result shares with `dd`, so the call costs time in proportion
    to what it rebuilds. Doomed nodes not reachable from `dd` are ignored.
    `dd` must not be a state whose nodes `collect_garbage` dropped: kept
    nodes would then be ones the unique table no longer holds. Raises
    ZeroStateError when no probability mass remains.
    """
    return _eliminate(dd, doomed)[0]


def _eliminate(dd: StateDD, doomed: Iterable[Node]) -> tuple[StateDD, int, float]:
    """`eliminate`, plus the result's size and the path mass it divided out.

    One bottom-up pass over the view marks the nodes to keep:
    ``keep = fixed & ~doomed & keep[succ0] & keep[succ1]``. The mass walk
    `dd._mass` visits only the result nodes outside `dd.view` and reads a
    view node's mass from its upstream, the same products and sums in the
    same order as `StateDD.norm` takes, so the rescaled root is the one
    `renormalize` gives, bit for bit. The view nodes the walk steps onto
    are spread down the view one level at a time and counted; a node that
    `make_node` gave back from the view is counted there, once.
    """
    pkg = dd.package
    view = dd.view
    doomed = set(doomed)
    keep = view.fixed.copy()
    keep[[i for i in map(view.index.get, doomed) if i is not None]] = False
    for _, start, stop in reversed(view.levels):
        s = slice(start, stop)
        keep[s] &= keep[view.succ0[s]] & keep[view.succ1[s]]
    one = pkg.table.one

    def replace(v: Node):
        if v in doomed:
            return pkg.zero_stub
        return Edge(v, one) if keep[view.index[v]] else None

    root = rebuild(pkg, dd.root, replace, {})
    if root.weight is pkg.table.zero:
        raise ZeroStateError("elimination removed all probability mass")

    reached: list[int] = []  # view indices stepped onto; the terminal is one
    rebuilt: dict[Node, float] = {}  # result nodes outside the view -> mass below
    total = _mass(root, view.index, _upstream(view).tolist(), reached, rebuilt)
    out = _rescaled(dd.n, root, pkg, total)
    seen = np.zeros(len(view.nodes) + 1, dtype=bool)
    seen[reached] = True
    for _, start, stop in view.levels:
        s = slice(start, stop)
        hit = seen[s]
        seen[view.succ0[s][hit]] = True
        seen[view.succ1[s][hit]] = True
    return out, len(rebuilt) + int(np.count_nonzero(seen[:-1])), total


def apply_scheme(dd: StateDD, scheme: Scheme):
    """Approximate `dd` with `scheme`; returns (approximated state, report).

    A scheme only selects: `scheme.candidates(dd)` lists candidate doomed
    sets in order. Each non-empty one is eliminated in turn and the first
    smallest result is kept (ties go to the earlier candidate); with no
    non-empty candidate `dd` is returned unchanged. Each trial's size and
    kept mass come from the elimination itself, read off `dd.view`, so no
    trial result is walked whole.
    """
    if not isinstance(scheme, get_args(Scheme)):
        raise TypeError(f"unknown scheme {scheme!r}")
    orig = len(dd.view.nodes)  # the selection reuses the cached view
    out, size, eliminated, kept = dd, orig, 0, 1.0
    for doomed in scheme.candidates(dd):
        if doomed:
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
