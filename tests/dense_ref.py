"""Reference implementations used as independent test oracles.

The dense functions work on flat numpy arrays indexed with q0 as the most
significant bit, and deliberately share no code with the diagram engine:
gates become full 2**n x 2**n matrices via Kronecker products, controlled
gates come from projector sums, and elimination is plain masking plus
rescaling.

The node-by-node functions at the end walk a diagram one node and one walk
at a time, in plain Python dicts: the straightforward form of the analysis
passes that the package computes level-wise over arrays. They compute every
float with the same operations in the same order, so results compare with
`==`. `budget_prefix_ref` is the target-fidelity selection as a sorted
running sum. `fixed_ref` tells the fixed points of `make_node` from the
coordinates of each node's weights, not from the verdict `make_node` keeps.
`eliminate_ref` is elimination without the kept-subdiagram shortcut: it
re-reduces every reachable node through `make_node`, and its norm walks the
whole result with `upstream_ref`, not the masses kept on the nodes.
`inner_product_ref` is the pairwise overlap recursion expanded down to the
terminal, without the shortcut the package takes where both sides reach one
shared node.

`ComplexTable` is the value table as a scan of the nine ``tol``-wide
buckets around each query, with one list per bucket: the straightforward
form of the closest-then-oldest rule that the package serves from an exact
index and wider buckets.

`simulate_edges` at the end is the gate-application kernel that builds an
`Edge` for every scaled successor and every sum, kept as it was before the
package's kernel passed plain (target, weight) pairs. It makes the same
table calls in the same order, so both leave equal tables and roots.
"""

import math

import numpy as np

from ddapprox import (
    TERMINAL,
    ComplexValue,
    DDPackage,
    Edge,
    NumericDomainError,
    StateDD,
    ZeroStateError,
)
from ddapprox.approx import _BUDGET_SLACK
from ddapprox.complex_table import DEFAULT_TOL
from ddapprox.circuits import _steps
from ddapprox.rng import SplitMix64, derive_seed

_S2 = 1.0 / np.sqrt(2.0)
_I2 = np.eye(2, dtype=complex)

_FIXED = {
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(0.25j * np.pi)]], dtype=complex),
}
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def mat1(kind, angle=None):
    if kind == "p":
        return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)
    return _FIXED[kind]


def _chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def gate_unitary(gate, n):
    """Full 2**n x 2**n matrix for one gate."""
    kind = gate.kind
    if kind == "swap":
        a, b = gate.qubits
        dim = 1 << n
        perm = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            bit_a = (i >> (n - 1 - a)) & 1
            bit_b = (i >> (n - 1 - b)) & 1
            j = i & ~(1 << (n - 1 - a)) & ~(1 << (n - 1 - b))
            j |= bit_b << (n - 1 - a)
            j |= bit_a << (n - 1 - b)
            perm[j, i] = 1.0
        return perm
    if kind in ("cx", "cz", "cp"):
        c, t = gate.qubits
        base = {"cx": "x", "cz": "z", "cp": "p"}[kind]
        ops0 = [_I2] * n
        ops0[c] = _P0
        ops1 = [_I2] * n
        ops1[c] = _P1
        ops1[t] = mat1(base, gate.angle)
        return _chain(ops0) + _chain(ops1)
    ops = [_I2] * n
    ops[gate.qubits[0]] = mat1(kind, gate.angle)
    return _chain(ops)


def simulate_dense(circuit):
    """Matrix-vector product per gate, starting from |0...0>."""
    state = np.zeros(1 << circuit.n, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        state = gate_unitary(gate, circuit.n) @ state
    return state


def simulate_dense_trace(circuit):
    """All intermediate states, one per gate."""
    state = np.zeros(1 << circuit.n, dtype=complex)
    state[0] = 1.0
    trace = []
    for gate in circuit.gates:
        state = gate_unitary(gate, circuit.n) @ state
        trace.append(state)
    return trace


def fidelity_dense(a, b):
    return float(np.abs(np.vdot(a, b)) ** 2)


def random_state(rng, n):
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return vec / np.linalg.norm(vec)


def eliminate_dense(vec, zero_mask):
    """Zero the masked amplitudes and rescale the remainder to unit norm."""
    out = np.where(zero_mask, 0.0, vec)
    nrm = np.linalg.norm(out)
    if nrm == 0.0:
        raise ValueError("mask removed everything")
    return out / nrm


def level_size_bounds(vec):
    """Per level l < n, the fewest and the most nodes a diagram of `vec` can
    hold on level l: the nonzero 2**(n - l)-entry slices of `vec` that are
    distinct up to a complex factor (two unit slices u and v are alike when
    |<u|v>| is 1 within 1e-9), and all of its nonzero slices.

    A node stands for one slice up to a factor, and every path prefix leads
    to one node, so a diagram's level size lies in between however it was
    built. Where it lies depends on the build: a node with one live
    successor keeps that successor's phase, so `from_vector` gives [a, 0]
    and [a * 1j, 0] two nodes, where a phase gate on a simulated state can
    leave them one."""
    n = len(vec).bit_length() - 1
    out = []
    for level in range(n):
        reps, live = [], 0
        for part in np.reshape(vec, (1 << level, -1)):
            nrm = np.linalg.norm(part)
            if nrm < 1e-9:
                continue
            live += 1
            unit = part / nrm
            if all(abs(np.vdot(r, unit)) < 1.0 - 1e-9 for r in reps):
                reps.append(unit)
        out.append((len(reps), live))
    return out


def doomed_mask(dd, doomed):
    """Boolean mask of basis states whose diagram path crosses a doomed node."""
    n = dd.n
    doomed = set(doomed)
    mask = np.zeros(1 << n, dtype=bool)
    for i in range(1 << n):
        node = dd.root.target
        for bit in range(n):
            if node is TERMINAL:
                break
            if node in doomed:
                mask[i] = True
                break
            take1 = (i >> (n - 1 - bit)) & 1
            node = (node.succ1 if take1 else node.succ0).target
    return mask


def kept_mass(orig_vec, approx_vec):
    """Total original probability on the basis states the approximation kept."""
    kept = np.abs(approx_vec) > 0.0
    return float(np.sum(np.abs(orig_vec[kept]) ** 2))


# -- node-by-node analysis references ----------------------------------------


def _mag2(w):
    return w.re * w.re + w.im * w.im


def _nodes_in_level_order(dd):
    seen = set()
    stack = [dd.root.target]
    while stack:
        t = stack.pop()
        if t is TERMINAL or t in seen:
            continue
        seen.add(t)
        stack += [t.succ0.target, t.succ1.target]
    return sorted(seen, key=lambda v: (v.level, v.uid))


def upstream_ref(dd):
    """Memoized recursion; the terminal maps to 1.0."""
    up = {TERMINAL: 1.0}

    def visit(t):
        val = up.get(t)
        if val is None:
            val = _mag2(t.succ0.weight) * visit(t.succ0.target) + _mag2(
                t.succ1.weight
            ) * visit(t.succ1.target)
            up[t] = val
        return val

    visit(dd.root.target)
    return up


def downstream_ref(dd):
    """Accumulate each parent's mass into its children, parents in (level, uid)
    order, 0-successor first."""
    down = {}
    if dd.root.target is TERMINAL:
        return down
    down[dd.root.target] = _mag2(dd.root.weight)
    for node in _nodes_in_level_order(dd):
        d = down[node]
        for e in (node.succ0, node.succ1):
            if e.target is not TERMINAL:
                down[e.target] = down.get(e.target, 0.0) + d * _mag2(e.weight)
    return down


def contributions_ref(dd):
    up = upstream_ref(dd)
    return {v: d * up[v] for v, d in downstream_ref(dd).items()}


def replay_walks(dd, traversals, seed):
    """Visit counts of the documented walks, replayed one walk at a time.

    Walk i draws from SplitMix64(derive_seed(seed, i)), one draw per node it
    visits, and takes the 1-successor when the draw is below
    |w1|^2 * up(succ1) / up(node). Every reachable node gets a count.
    """
    up = upstream_ref(dd)
    counts = {v: 0 for v in _nodes_in_level_order(dd)}
    for i in range(traversals):
        stream = SplitMix64(derive_seed(seed, i))
        node = dd.root.target
        while node is not TERMINAL:
            counts[node] += 1
            e1 = node.succ1
            p1 = _mag2(e1.weight) * up[e1.target] / up[node]
            node = (node.succ1 if stream.random() < p1 else node.succ0).target
    return counts


def budget_prefix_ref(nodes, contrib, budget):
    """Longest ascending-(contribution, uid) prefix of `nodes` whose running
    sum stays <= budget minus the package's slack; `contrib` maps node to
    contribution."""
    doomed = []
    acc = 0.0
    limit = budget - _BUDGET_SLACK
    for v in sorted(nodes, key=lambda v: (contrib[v], v.uid)):
        acc += contrib[v]
        if acc > limit:
            break
        doomed.append(v)
    return doomed


def eliminate_ref(dd, doomed):
    """`eliminate` as a full rebuild: every node is re-reduced, and the mass
    divided out comes from `upstream_ref` over the whole result."""
    pkg = dd.package
    doomed = set(doomed)
    root = rebuild(pkg, dd.root, lambda v: pkg.zero_stub if v in doomed else None, {})
    if root.weight is pkg.table.zero:
        raise ZeroStateError("elimination removed all probability mass")
    mass = _mag2(root.weight) * upstream_ref(StateDD(dd.n, root, pkg))[root.target]
    if mass == 0.0:
        raise ZeroStateError("cannot normalize a zero state")
    w = pkg.table.div_real(root.weight, math.sqrt(mass))
    return StateDD(dd.n, Edge(root.target, w), pkg)


def fixed_ref(view):
    """`LevelView.fixed` re-derived from the weight coordinates of each node
    of `view`, with the terminal's True appended.

    `ComplexTable.lookup` returns the table's one and zero for exactly the
    coordinates (1, 0) and (0, 0), either sign of zero, and stores no other
    value there. A node with one live weight is a fixed point of `make_node`
    when that weight's `math.hypot` is exactly 1; a node with two when w0 is
    one and |w1|^2 <= 1, or w1 is one and |w0|^2 < 1 (it is already divided
    by its larger weight, ties to the 0-successor)."""

    def at(w, re):
        return w.re == re and w.im == 0.0

    out = []
    for v in view.nodes:
        w0, w1 = v.succ0.weight, v.succ1.weight
        if at(w0, 0.0) or at(w1, 0.0):
            live = w1 if at(w0, 0.0) else w0
            out.append(math.hypot(live.re, live.im) == 1.0)
        else:
            out.append((at(w0, 1.0) and _mag2(w1) <= 1.0) or (at(w1, 1.0) and _mag2(w0) < 1.0))
    return np.array([*out, True])


def inner_product_ref(a, b):
    """<a|b> as a Python complex: the pairwise recursion `_ip` below,
    memoized on node pairs, that expands every pair down to the terminal."""
    return _ip(a.root, b.root, {})


def _ip(ea: Edge, eb: Edge, memo: dict[tuple, complex]) -> complex:
    wa, wb = ea.weight, eb.weight
    # a (0, 0) weight adds nothing, whichever value holds it
    if (wa.re == 0.0 and wa.im == 0.0) or (wb.re == 0.0 and wb.im == 0.0):
        return 0j
    factor = complex(wa.re, -wa.im) * complex(wb.re, wb.im)
    ta, tb = ea.target, eb.target
    if ta is TERMINAL:  # lockstep levels: tb is terminal here too
        return factor
    key = (ta, tb)
    h = memo.get(key)
    if h is None:
        h = _ip(ta.succ0, tb.succ0, memo) + _ip(ta.succ1, tb.succ1, memo)
        memo[key] = h
    return factor * h


# -- nine-bucket value table reference ---------------------------------------


class ComplexTable:
    """Canonical store: one representative per tolerance ball, first come kept.

    Exact 0 and 1 are seeded at construction so structural zeros and unit
    weights stay exact; being first, they always represent their own balls.
    The table is single-writer: move a whole package between threads rather
    than mutating it concurrently.
    """

    def __init__(self, tol: float = DEFAULT_TOL):
        if not 0.0 < tol < 1e-3:
            raise ValueError(f"tolerance must lie in (0, 1e-3), got {tol}")
        self.tol = tol
        self._buckets: dict[tuple[int, int], list[ComplexValue]] = {}
        self._n_values = 0
        self.zero = self._insert(0.0, 0.0)
        self.one = self._insert(1.0, 0.0)

    def __len__(self) -> int:
        return self._n_values

    def _key(self, re: float, im: float) -> tuple[int, int]:
        return (math.floor(re / self.tol), math.floor(im / self.tol))

    def _insert(self, re: float, im: float) -> ComplexValue:
        v = ComplexValue(re, im, self._n_values)
        self._n_values += 1
        self._buckets.setdefault(self._key(re, im), []).append(v)
        return v

    def lookup(self, re: float, im: float) -> ComplexValue:
        """Canonical representative for (re, im); inserts if nothing is near.

        A stored value whose components are both within ``tol`` claims the
        input; with several candidates the closest (then oldest) wins.
        """
        if re == 0.0 and im == 0.0:
            return self.zero
        if re == 1.0 and im == 0.0:
            return self.one
        if not (math.isfinite(re) and math.isfinite(im)):
            raise NumericDomainError(f"non-finite amplitude ({re}, {im})")
        tol = self.tol
        bi, bj = self._key(re, im)
        best: ComplexValue | None = None
        best_rank = (tol, -1)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for v in self._buckets.get((bi + di, bj + dj), ()):
                    d = max(abs(v.re - re), abs(v.im - im))
                    if d < tol and (d, v.seq) < best_rank:
                        best, best_rank = v, (d, v.seq)
        if best is not None:
            return best
        return self._insert(re, im)

    # -- canonical arithmetic -------------------------------------------

    def mul(self, a: ComplexValue, b: ComplexValue) -> ComplexValue:
        if a is self.one:
            return b
        if b is self.one:
            return a
        if a is self.zero or b is self.zero:
            return self.zero
        return self.lookup(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)

    def div(self, a: ComplexValue, b: ComplexValue) -> ComplexValue:
        """a / b canonicalized; b must be nonzero."""
        if b is self.zero:
            raise ZeroDivisionError("division by the canonical zero")
        if a is b:
            return self.one
        if a is self.zero or b is self.one:
            return a
        q = complex(a.re, a.im) / complex(b.re, b.im)
        return self.lookup(q.real, q.imag)

    def div_real(self, a: ComplexValue, s: float) -> ComplexValue:
        """a / s for a positive real scale factor."""
        return self.lookup(a.re / s, a.im / s)


# -- Edge-building gate kernel reference -------------------------------------


def simulate_edges(circuit, pkg):
    """`simulate` through the Edge-building kernel below, without the
    per-gate norm check (which makes no table call)."""
    root = pkg.zero_state(circuit.n).root
    for gate in circuit.gates:
        for mat, target, control in _steps(gate.kind, gate.qubits, gate.angle):
            root = _apply(pkg, root, mat, target, control)
    return StateDD(circuit.n, root, pkg)


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


def _scaled(pkg: DDPackage, edge: Edge, w: ComplexValue | complex) -> Edge:
    """`edge` with its weight multiplied by `w`: a table value, through
    `table.mul` and its lookup-free `one` and `zero` short-cuts, or a plain
    complex matrix entry, by one lookup of the same product."""
    t = pkg.table
    ew = edge.weight
    if not isinstance(w, complex):
        nw = t.mul(w, ew)
    elif w == 0 or ew is t.zero:
        return pkg.zero_stub
    else:
        nw = t.lookup(ew.re * w.real - ew.im * w.imag, ew.re * w.imag + ew.im * w.real)
    if nw is t.zero:
        return pkg.zero_stub
    return Edge(edge.target, nw)


def _add(pkg: DDPackage, ea: Edge, eb: Edge, memo: dict) -> Edge:
    """Sum of the two sub-vectors; operands sit at the same level."""
    t = pkg.table
    if ea.weight is t.zero:
        return eb
    if eb.weight is t.zero:
        return ea
    if ea.target is TERMINAL:
        return pkg.terminal_edge(
            ea.weight.re + eb.weight.re, ea.weight.im + eb.weight.im
        )
    key = (ea, eb)
    res = memo.get(key)
    if res is None:
        na, nb = ea.target, eb.target
        wa, wb = ea.weight, eb.weight
        res = pkg.make_node(
            na.level,
            _add(pkg, _scaled(pkg, na.succ0, wa), _scaled(pkg, nb.succ0, wb), memo),
            _add(pkg, _scaled(pkg, na.succ1, wa), _scaled(pkg, nb.succ1, wb), memo),
        )
        memo[key] = res
    return res


def _apply(pkg: DDPackage, root: Edge, mat, target: int, control: int | None = None) -> Edge:
    """Mix successors by `mat` at level `target`; with a `control` (which must
    lie above `target`), only inside the control's 1-cofactor."""
    (u00, u01), (u10, u11) = mat
    add_memo: dict = {}

    def mix(node):
        if node.level != target:
            return None
        s0, s1 = node.succ0, node.succ1
        return pkg.make_node(
            target,
            _add(pkg, _scaled(pkg, s0, u00), _scaled(pkg, s1, u01), add_memo),
            _add(pkg, _scaled(pkg, s0, u10), _scaled(pkg, s1, u11), add_memo),
        )

    if control is None:
        return rebuild(pkg, root, mix, {})
    inner_memo: dict = {}

    def controlled(node):
        if node.level != control:
            return None
        return pkg.make_node(control, node.succ0, rebuild(pkg, node.succ1, mix, inner_memo))

    return rebuild(pkg, root, controlled, {})
