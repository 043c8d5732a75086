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
running sum. `eliminate_ref` is elimination without the kept-subdiagram
shortcut: it re-reduces every reachable node through `make_node`, and its
norm walks the whole result with `upstream_ref`, not the package's mass walk.

`ComplexTable` at the end is the value table as a scan of the nine
``tol``-wide buckets around each query, with one list per bucket: the
straightforward form of the closest-then-oldest rule that the package serves
from an exact index and wider buckets.
"""

import math

import numpy as np

from ddapprox import TERMINAL, ComplexValue, Edge, NumericDomainError, StateDD, ZeroStateError
from ddapprox.approx import _BUDGET_SLACK
from ddapprox.complex_table import DEFAULT_TOL
from ddapprox.dd import rebuild
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
