"""Approximation schemes: eliminate weak nodes, rescale, report the trade-off.

All four schemes pick a set of doomed nodes, replace every edge into them
with the zero-stub, re-reduce, and rescale back to unit norm. Because such
a step only zeroes amplitudes and rescales the rest, the fidelity against
the original state equals the kept probability mass.

Re-reducing rebuilds only the doomed nodes' ancestors and the nodes that
are not settled (not fixed points of `make_node`, see `LevelView`); every
other subdiagram is kept as it is, which gives the same nodes and tables,
bit for bit, as rebuilding every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union, get_args

import numpy as np

from .analysis import contributions, nodes_by_level, sample_paths
from .dd import Edge, Node, StateDD, rebuild
from .errors import ZeroStateError
from .fidelity import fidelity as state_fidelity


#: Shaved off every elimination budget so accumulated floating-point rounding
#: can never push the kept mass below the promised fidelity floor.
_BUDGET_SLACK = 1e-10


def _budget_prefix(nodes, contrib, budget: float) -> list[Node]:
    """Longest ascending-contribution prefix whose running sum stays <= budget.

    The first node that would push the sum past the budget is kept, as is
    everything after it. Ties in contribution fall back to creation order.
    """
    doomed: list[Node] = []
    acc = 0.0
    limit = budget - _BUDGET_SLACK
    for v in sorted(nodes, key=lambda v: (contrib[v], v.uid)):
        acc += contrib[v]
        if acc > limit:
            break
        doomed.append(v)
    return doomed


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
        contrib = contributions(dd)
        groups = nodes_by_level(dd)
        budget = 1.0 - self.fidelity
        levels = range(dd.n) if self.level == "best" else [self.level]
        return [_budget_prefix(groups.get(lvl, ()), contrib, budget) for lvl in levels]


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
    eliminated: int  # nodes deliberately doomed


def eliminate(dd: StateDD, doomed: Iterable[Node]) -> StateDD:
    """Copy of `dd` with every edge into a doomed node turned into a zero-stub.

    The rebuilt diagram is re-reduced (nodes whose successors collapsed are
    merged or dropped) and rescaled to unit norm; `dd` itself is untouched.
    Only the doomed nodes' ancestors and the nodes that are not settled (see
    `LevelView`) are rebuilt through `make_node`; every other node would come
    back as itself with weight one and no table write, so its edge is kept
    as it is. Doomed nodes not reachable from `dd` are ignored. `dd` must
    not be a state whose nodes `collect_garbage` dropped: kept nodes would
    then be ones the unique table no longer holds. Raises ZeroStateError
    when no probability mass remains.
    """
    pkg = dd.package
    view = dd.view
    doomed = set(doomed)
    touched = np.zeros(len(view.nodes) + 1, dtype=bool)
    touched[[i for i in map(view.index.get, doomed) if i is not None]] = True
    for _, start, stop in reversed(view.levels):
        s = slice(start, stop)
        touched[s] |= touched[view.succ0[s]] | touched[view.succ1[s]]
    keep = view.settled & ~touched
    one = pkg.table.one

    def replace(v: Node):
        if v in doomed:
            return pkg.zero_stub
        return Edge(v, one) if keep[view.index[v]] else None

    root = rebuild(pkg, dd.root, replace, {})
    if root.weight is pkg.table.zero:
        raise ZeroStateError("elimination removed all probability mass")
    return StateDD(dd.n, root, pkg).renormalize()


def apply_scheme(dd: StateDD, scheme: Scheme):
    """Approximate `dd` with `scheme`; returns (approximated state, report).

    A scheme only selects: `scheme.candidates(dd)` lists candidate doomed
    sets in order. Each non-empty one is eliminated in turn and the first
    smallest result is kept (ties go to the earlier candidate); with no
    non-empty candidate `dd` is returned unchanged.
    """
    if not isinstance(scheme, get_args(Scheme)):
        raise TypeError(f"unknown scheme {scheme!r}")
    orig = len(dd.view.nodes)  # the selection reuses the cached view
    out, size, eliminated = dd, orig, 0
    for doomed in scheme.candidates(dd):
        if doomed:
            trial = eliminate(dd, doomed)
            trial_size = trial.size()
            if not eliminated or trial_size < size:  # the first trial always counts
                out, size, eliminated = trial, trial_size, len(doomed)
    return out, ApproxReport(
        scheme=scheme,
        orig_size=orig,
        approx_size=size,
        compression=size / orig if orig else 1.0,
        # identity transformation: skip the noisy self-overlap
        attained_fidelity=1.0 if out.root == dd.root else state_fidelity(dd, out),
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
