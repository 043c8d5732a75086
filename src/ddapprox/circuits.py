"""Minimal gate-level circuits and their application to decision diagrams.

Gates act level-locally on the diagram: a single-qubit gate rebuilds the
nodes at its target level by mixing the two successors through the 2x2
matrix, and a controlled gate descends to the control node and applies the
single-qubit part inside the control = 1 cofactor only. Results are
memoized per (operation, node), so shared structure is transformed once.

Controlled operations are kept in control-above-target form: cz/cp are
symmetric in their qubits and are reordered freely, while a cx whose
control sits below its target is rewritten exactly as H(target); cz; H(target).

Inside the kernel (`_apply`, `_add` and the `dd._rebuild` walk) an edge is a
plain (target, weight) pair, passed unpacked where it can be; an `Edge` is
built only for what a state, a node or `make_node` hands out. Every
value-table lookup and `make_node` call is made in the same order as by the
Edge-building kernel kept in ``tests/dense_ref.py``, so both give the same
nodes, uids and tables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .complex_table import ComplexValue
from .dd import TERMINAL, DDPackage, Edge, StateDD, _gc_paused, _rebuild
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
        state = StateDD(circuit.n, Edge(*root), pkg)
        drift = abs(state.norm() - 1.0)
        if drift > bound:
            raise DDError(f"norm drifted by {drift:g} after gate {idx} ({gate.kind})")
        if observer is not None:
            observer(idx, gate, state)
    return state


def _add(pkg: DDPackage, ta, wa: ComplexValue, tb, wb: ComplexValue, memo: dict) -> tuple:
    """Sum of the sub-vectors of the edges (`ta`, `wa`) and (`tb`, `wb`),
    whose targets sit at the same level, as a (target, weight) pair."""
    t = pkg.table
    if wa is t.zero:
        return tb, wb
    if wb is t.zero:
        return ta, wa
    if ta is TERMINAL:
        return ta, t.lookup(wa.re + wb.re, wa.im + wb.im)
    key = (ta, wa, tb, wb)
    res = memo.get(key)
    if res is None:
        a0, a1, b0, b1 = ta.succ0, ta.succ1, tb.succ0, tb.succ1
        r0 = _add(pkg, a0.target, t.mul(wa, a0.weight), b0.target, t.mul(wb, b0.weight), memo)
        r1 = _add(pkg, a1.target, t.mul(wa, a1.weight), b1.target, t.mul(wb, b1.weight), memo)
        res = memo[key] = pkg.make_node(ta.level, r0, r1)
    return res


def _apply(pkg: DDPackage, root: tuple, mat, target: int, control: int | None = None) -> tuple:
    """Mix successors by `mat` at level `target`; with a `control` (which must
    lie above `target`), only inside the control's 1-cofactor. `root` and
    the result are (target, weight) pairs."""
    (u00, u01), (u10, u11) = mat
    t = pkg.table
    add_memo: dict = {}

    def times(w: ComplexValue, c: complex) -> ComplexValue:
        # one lookup per product; none when either factor is zero
        if c == 0 or w is t.zero:
            return t.zero
        return t.lookup(w.re * c.real - w.im * c.imag, w.re * c.imag + w.im * c.real)

    def mix(node):
        if node.level != target:
            return None
        (t0, w0), (t1, w1) = node.succ0, node.succ1
        return pkg.make_node(
            target,
            _add(pkg, t0, times(w0, u00), t1, times(w1, u01), add_memo),
            _add(pkg, t0, times(w0, u10), t1, times(w1, u11), add_memo),
        )

    if control is None:
        return _rebuild(pkg, *root, mix, {})
    inner_memo: dict = {}

    def controlled(node):
        if node.level != control:
            return None
        return pkg.make_node(control, node.succ0, _rebuild(pkg, *node.succ1, mix, inner_memo))

    return _rebuild(pkg, *root, controlled, {})


# -- circuit families ---------------------------------------------------


def ghz(n: int) -> Circuit:
    """H then a CX chain: (|0...0> + |1...1>) / sqrt(2)."""
    gates = [Gate("h", (0,))]
    gates += [Gate("cx", (i, i + 1)) for i in range(n - 1)]
    return Circuit(n, tuple(gates))


def qft(n: int) -> Circuit:
    """Quantum Fourier transform: H + controlled-phase ladder + final swaps."""
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
