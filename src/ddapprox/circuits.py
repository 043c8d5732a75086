"""Minimal gate-level circuits and their application to decision diagrams.

Gates act level-locally on the diagram: a single-qubit gate rebuilds the
nodes at its target level by mixing the two successors through the 2x2
matrix, and a controlled gate descends to the control node and applies the
single-qubit part inside the control = 1 cofactor only. Results are
memoized per (operation, node), so shared structure is transformed once.

Controlled operations are kept in control-above-target form: cz/cp are
symmetric in their qubits and are reordered freely, while a cx whose
control sits below its target is rewritten exactly as H(target); cz; H(target).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .complex_table import ComplexValue
from .dd import DDPackage, Edge, StateDD, TERMINAL, _gc_paused, rebuild
from .errors import CircuitParseError, DDError
from .rng import SplitMix64

ONE_QUBIT = frozenset({"h", "x", "y", "z", "s", "t", "p"})
TWO_QUBIT = frozenset({"cx", "cz", "cp", "swap"})
ANGLED = frozenset({"p", "cp"})


@dataclass(frozen=True)
class Gate:
    """One operation; `qubits` is (target,) or (control, target) / (a, b)."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in ONE_QUBIT and self.kind not in TWO_QUBIT:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 1 if self.kind in ONE_QUBIT else 2
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct")
        if (self.angle is not None) != (self.kind in ANGLED):
            raise ValueError(f"{self.kind} angle mismatch")


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"qubit {q} out of range for n={self.n}")


def parse(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    The first significant line must be ``qubits <n>``; afterwards one gate
    per line: ``h|x|y|z|s|t <q>``, ``p <theta> <q>``, ``cx|cz <c> <t>``,
    ``cp <theta> <c> <t>``, ``swap <a> <b>``. Angles are decimal radians,
    ``#`` starts a comment. Raises CircuitParseError with the line number.
    """
    n: int | None = None
    gates: list[Gate] = []
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.lower().split()
        if n is None:
            if tokens[0] != "qubits":
                raise CircuitParseError(line_no, "expected `qubits <n>` header")
            if len(tokens) != 2:
                raise CircuitParseError(line_no, "qubits takes exactly one count")
            n = _parse_int(tokens[1], line_no, "qubit count")
            if n < 1:
                raise CircuitParseError(line_no, "qubit count must be positive")
            continue
        kind = tokens[0]
        args = tokens[1:]
        angle: float | None = None
        if kind in ANGLED and args:
            angle = _parse_float(args[0], line_no, "angle")
            args = args[1:]
        qubits = tuple(_parse_int(a, line_no, "qubit index") for a in args)
        try:
            gates.append(Gate(kind, qubits, angle))
        except ValueError as exc:
            raise CircuitParseError(line_no, str(exc)) from None
        for q in qubits:
            if not 0 <= q < n:
                raise CircuitParseError(line_no, f"qubit index {q} out of range")
    if n is None:
        raise CircuitParseError(max(line_no, 1), "missing `qubits <n>` header")
    return Circuit(n, tuple(gates))


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CircuitParseError(line_no, f"malformed {what} {token!r}") from None


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise CircuitParseError(line_no, f"malformed {what} {token!r}") from None
    if not math.isfinite(value):
        raise CircuitParseError(line_no, f"malformed {what} {token!r}")
    return value


_SQ2 = 1.0 / math.sqrt(2.0)
_MATRICES = {
    "h": ((_SQ2 + 0j, _SQ2 + 0j), (_SQ2 + 0j, -_SQ2 + 0j)),
    "x": ((0j, 1 + 0j), (1 + 0j, 0j)),
    "y": ((0j, -1j), (1j, 0j)),
    "z": ((1 + 0j, 0j), (0j, -1 + 0j)),
    "s": ((1 + 0j, 0j), (0j, 1j)),
    "t": ((1 + 0j, 0j), (0j, cmath.exp(0.25j * math.pi))),
}


def _matrix(kind: str, angle: float | None):
    if kind == "p":
        return ((1 + 0j, 0j), (0j, cmath.exp(1j * angle)))
    return _MATRICES[kind]


def _steps(kind: str, qubits: tuple[int, ...], angle: float | None = None) -> list[tuple]:
    """A gate as `_apply` arguments (matrix, target, control): 1-qubit steps
    (control None) and steps controlled from above."""
    if kind in ONE_QUBIT:
        return [(_matrix(kind, angle), qubits[0], None)]
    if kind == "swap":
        ab, ba = _steps("cx", qubits), _steps("cx", qubits[::-1])
        return [*ab, *ba, *ab]
    c, t = qubits
    # cx from above, or cz/cp (diagonal, so symmetric in c and t): the X, Z
    # or P matrix on the lower qubit, controlled by the upper one
    if kind != "cx" or c < t:
        return [(_matrix(kind[1:], angle), max(c, t), min(c, t))]
    h = (_MATRICES["h"], t, None)
    return [h, (_MATRICES["z"], c, t), h]


@_gc_paused
def simulate(
    circuit: Circuit, package: DDPackage | None = None, observer=None
) -> StateDD:
    """Apply the circuit to |0...0>, one gate at a time.

    The norm is re-checked after every gate and must stay within 4x the
    value-table tolerance of 1. When given, ``observer(index, gate, state)``
    is called after each gate of the circuit, with the cycle collector still
    paused.
    """
    pkg = package if package is not None else DDPackage()
    state = pkg.zero_state(circuit.n)
    bound = 4.0 * pkg.table.tol
    for idx, gate in enumerate(circuit.gates):
        root = state.root
        for mat, target, control in _steps(gate.kind, gate.qubits, gate.angle):
            root = _apply(pkg, root, mat, target, control)
        state = StateDD(circuit.n, root, pkg)
        drift = abs(state.norm() - 1.0)
        if drift > bound:
            raise DDError(f"norm drifted by {drift:g} after gate {idx} ({gate.kind})")
        if observer is not None:
            observer(idx, gate, state)
    return state


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


# -- circuit families ---------------------------------------------------


def ghz(n: int) -> Circuit:
    """H then a CX chain: (|0...0> + |1...1>) / sqrt(2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    gates = [Gate("h", (0,))]
    gates += [Gate("cx", (i, i + 1)) for i in range(n - 1)]
    return Circuit(n, tuple(gates))


def qft(n: int) -> Circuit:
    """Quantum Fourier transform: H + controlled-phase ladder + final swaps."""
    if n < 1:
        raise ValueError("n must be at least 1")
    gates: list[Gate] = []
    for j in range(n):
        gates.append(Gate("h", (j,)))
        for k in range(j + 1, n):
            gates.append(Gate("cp", (k, j), math.pi / (1 << (k - j))))
    for i in range(n // 2):
        gates.append(Gate("swap", (i, n - 1 - i)))
    return Circuit(n, tuple(gates))


def random_circuit(n: int, depth: int, seed: int) -> Circuit:
    """Seeded layered circuit; deterministic in (n, depth, seed).

    Even layers draw one gate per qubit from a splitmix64 stream (one 64-bit
    draw modulo 3: 0 -> h, 1 -> t, 2 -> p with the next uniform as angle over
    [0, 2pi)); odd layers place a single cz on a random pair (two draws,
    modulo n and n - 1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rng = SplitMix64(seed)
    gates: list[Gate] = []
    for layer in range(depth):
        if layer % 2 == 0 or n < 2:
            for q in range(n):
                pick = rng.next_u64() % 3
                if pick == 0:
                    gates.append(Gate("h", (q,)))
                elif pick == 1:
                    gates.append(Gate("t", (q,)))
                else:
                    gates.append(Gate("p", (q,), 2.0 * math.pi * rng.random()))
        else:
            a = rng.next_u64() % n
            b = rng.next_u64() % (n - 1)
            if b >= a:
                b += 1
            gates.append(Gate("cz", (a, b)))
    return Circuit(n, tuple(gates))
