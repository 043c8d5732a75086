"""State overlap and fidelity computed directly on decision diagrams."""

from __future__ import annotations

from .dd import TERMINAL, Edge, StateDD, _gc_paused


@_gc_paused
def inner_product(a: StateDD, b: StateDD) -> complex:
    """<a|b>, the conjugated dot product, via pairwise recursion.

    Sub-results are memoized on node pairs with the edge weights factored
    out, so each pair of nodes is expanded at most once and the work is
    bounded by size(a) * size(b) pairs. A node paired with itself is not
    expanded: its self-overlap is its mass (`Node.mass`), the same float the
    expansion would sum, so states that share nodes, such as an
    approximation and its input, stop at the first shared node. The result
    is a plain complex; neither package's tables are written.
    """
    return _inner_product(a, b)[0]


@_gc_paused
def fidelity(a: StateDD, b: StateDD) -> float:
    """|<a|b>|^2, clamped into [0, 1]. Exactly symmetric in its arguments."""
    v, _ = _inner_product(a, b)
    f = v.real * v.real + v.imag * v.imag
    return f if f < 1.0 else 1.0


def _inner_product(a: StateDD, b: StateDD) -> tuple[complex, int]:
    """(overlap, node pairs expanded); the pair count backs complexity tests."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    memo: dict[tuple, complex] = {}
    value = _ip(a.root, b.root, memo)
    return value, len(memo)


def _ip(ea: Edge, eb: Edge, memo: dict[tuple, complex]) -> complex:
    wa, wb = ea.weight, eb.weight
    # a (0, 0) weight adds nothing, whichever value holds it
    if (wa.re == 0.0 and wa.im == 0.0) or (wb.re == 0.0 and wb.im == 0.0):
        return 0j
    factor = complex(wa.re, -wa.im) * complex(wb.re, wb.im)
    ta, tb = ea.target, eb.target
    if ta is TERMINAL:  # lockstep levels: tb is terminal here too
        return factor
    if ta is tb:
        # expanding the pair would sum the products of `ta.mass` in the same
        # order, with every imaginary part exactly 0.0
        return factor * complex(ta.mass, 0.0)
    key = (ta, tb)
    h = memo.get(key)
    if h is None:
        h = _ip(ta.succ0, tb.succ0, memo) + _ip(ta.succ1, tb.succ1, memo)
        memo[key] = h
    return factor * h
