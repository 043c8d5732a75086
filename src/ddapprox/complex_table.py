"""Interned complex amplitudes with tolerance-based identity.

Every edge weight in a package is looked up here, so numerically-near values
collapse to a single representative object. Node hashing can then rely on
plain object identity, and rounding dust accumulated in long weight products
is absorbed instead of spawning near-duplicate nodes.

A lookup that is not exactly 0 or 1 is served in two steps:

* An exact index maps the coordinates of every stored value to that value.
  A query that repeats them is answered there: the stored value is at
  distance 0, and no second value can ever be stored at the same
  coordinates, so the closest-then-oldest rule would pick it too.
* Otherwise the query scans a grid of buckets ``_BUCKET_TOLS * tol`` wide in
  each coordinate: its own bucket, plus the neighbour in a coordinate only
  where the query lies within ``tol`` of that neighbour's edge. Every stored
  value within ``tol`` of the query lies in one of those (at most four)
  buckets, so the closest-then-oldest winner among them is the winner over
  the whole table.
"""

from __future__ import annotations

from math import floor, isfinite

from .errors import NumericDomainError

#: Componentwise absolute comparison threshold. Far below any fidelity effect
#: that matters, large enough to swallow accumulated floating-point rounding.
DEFAULT_TOL = 1e-10

#: Bucket width in units of the tolerance. A query probes the neighbour
#: bucket of one coordinate with probability about 2 / _BUCKET_TOLS. At 1024 no
#: bucket of the `random 12 40 7` simulation's 217,975 values holds two of
#: them, and two buckets of the 65,537 values of the seeded dense 15-qubit
#: state of the `sweep-fidelity` benchmark do.
_BUCKET_TOLS = 1024


class ComplexValue:
    """One interned amplitude. Unique per table; compare with ``is``."""

    __slots__ = ("re", "im", "seq", "older")

    def __init__(self, re: float, im: float, seq: int, older: "ComplexValue | None" = None):
        self.re = re
        self.im = im
        self.seq = seq  # insertion order, used for deterministic tie-breaks
        self.older = older  # the previous value stored in the same bucket

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self) -> str:
        return f"ComplexValue({self.re!r}, {self.im!r})"


def sqr_mag(v: ComplexValue) -> float:
    """Squared magnitude |v|^2 as a plain float; never negative."""
    return v.re * v.re + v.im * v.im


class ComplexTable:
    """Canonical store: one representative per tolerance ball, first come kept.

    A query (re, im) is claimed by the stored value whose componentwise
    distance max(|dre|, |dim|) is smallest and below ``tol``, the oldest among
    equals; with none, (re, im) is stored as a new value. The exact index
    answers repeated coordinates and the buckets the rest (see the module
    docstring). A bucket holds only its newest value, which links to the
    older ones through ``ComplexValue.older``, so the table keeps no list
    per bucket.

    Exact 0 and 1 are seeded at construction so structural zeros and unit
    weights stay exact; being first, they always represent their own balls.
    The table is single-writer: move a whole package between threads rather
    than mutating it concurrently.
    """

    def __init__(self, tol: float = DEFAULT_TOL):
        if not 0.0 < tol < 1e-3:
            raise ValueError(f"tolerance must lie in (0, 1e-3), got {tol}")
        self.tol = tol
        self._width = _BUCKET_TOLS * tol
        self._exact: dict[tuple[float, float], ComplexValue] = {}
        self._buckets: dict[tuple[int, int], ComplexValue] = {}
        self.zero = self._insert(0.0, 0.0, (0, 0))
        self.one = self._insert(1.0, 0.0, (floor(1.0 / self._width), 0))

    def __len__(self) -> int:
        return len(self._exact)

    def _insert(self, re: float, im: float, key: tuple[int, int]) -> ComplexValue:
        """Store (re, im) as a new value in bucket `key`, its own bucket."""
        v = ComplexValue(re, im, len(self._exact), self._buckets.get(key))
        self._buckets[key] = v
        self._exact[(re, im)] = v
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
        v = self._exact.get((re, im))
        if v is not None:
            return v
        if not (isfinite(re) and isfinite(im)):
            raise NumericDomainError(f"non-finite amplitude ({re}, {im})")
        tol, w = self.tol, self._width
        # A stored value within tol of re has re - tol <= v.re <= re + tol,
        # rounding keeps that order, so its bucket index lies in [i0, i1].
        i0, i1 = floor((re - tol) / w), floor((re + tol) / w)
        j0, j1 = floor((im - tol) / w), floor((im + tol) / w)
        home = (i0, j0)
        if i1 == i0 and j1 == j0:
            keys = (home,)
        else:
            keys = [home]
            if i1 != i0:
                keys.append((i1, j0))
            if j1 != j0:
                keys.append((i0, j1))
                if i1 != i0:
                    keys.append((i1, j1))
            home = (floor(re / w), floor(im / w))
        buckets = self._buckets
        best: ComplexValue | None = None
        best_d = tol
        for key in keys:
            v = buckets.get(key)
            while v is not None:
                d = max(abs(v.re - re), abs(v.im - im))
                if d < best_d or (d == best_d and best is not None and v.seq < best.seq):
                    best, best_d = v, d
                v = v.older
        if best is not None:
            return best
        return self._insert(re, im, home)

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
