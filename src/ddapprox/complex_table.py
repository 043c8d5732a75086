"""Interned complex amplitudes with tolerance-based identity.

Every edge weight in a package is looked up here, so numerically-near values
collapse to a single representative object. Node hashing can then rely on
plain object identity, and rounding dust accumulated in long weight products
is absorbed instead of spawning near-duplicate nodes.
"""

from __future__ import annotations

import math

from .errors import NumericDomainError

#: Componentwise absolute comparison threshold. Far below any fidelity effect
#: that matters, large enough to swallow accumulated floating-point rounding.
DEFAULT_TOL = 1e-10


class ComplexValue:
    """One interned amplitude. Unique per table; compare with ``is``."""

    __slots__ = ("re", "im", "seq")

    def __init__(self, re: float, im: float, seq: int):
        self.re = re
        self.im = im
        self.seq = seq  # insertion order, used for deterministic tie-breaks

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self) -> str:
        return f"ComplexValue({self.re!r}, {self.im!r})"


def sqr_mag(v: ComplexValue) -> float:
    """Squared magnitude |v|^2 as a plain float; never negative."""
    return v.re * v.re + v.im * v.im


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
