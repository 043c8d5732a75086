"""Interned complex amplitudes with tolerance-based identity.

Every edge weight in a package is looked up here, so numerically-near values
collapse to a single representative object. Node hashing can then rely on
plain object identity, and rounding dust accumulated in long weight products
is absorbed instead of spawning near-duplicate nodes.

Values live in a grid of buckets ``_BUCKET_TOLS * tol`` wide in each
coordinate; bucket (i, j) holds the values with ``floor(re / w) == i`` and
``floor(im / w) == j``. A lookup that is not exactly 0 or 1 scans its home
bucket first and returns a value there at distance 0 at once: no second
value can ever be stored at the same coordinates, so the closest-then-oldest
rule would pick it too. Otherwise it also scans the neighbour in a
coordinate, but only where the query lies within ``tol`` of that
neighbour's edge. Every stored value within ``tol`` of the query lies in one
of those (at most four) buckets, so the closest-then-oldest winner among
them is the winner over the whole table.

A bucket is keyed by the one int ``i * _STRIDE + j``. Two buckets whose
packed ids alias (``|j|`` past ``_STRIDE / 2``, so ``|im|`` past about 220
at the default tolerance, far above any amplitude or gate entry) share one
chain; since every candidate is accepted by its exact distance alone, that
only lengthens a scan.

``lookup_many`` interns a whole array of values as the same sequence of
``lookup`` calls would, and ``quotients`` divides arrays of complex values
bit for bit as Python's complex division does: together they let a caller
work one level of a diagram at a time (see ``DDPackage.from_vector``).
"""

from __future__ import annotations

from math import floor, isfinite

import numpy as np

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

#: Multiplier that packs a bucket index pair (i, j) into one int key. Keys of
#: values below about 50 in magnitude (at the default tolerance) stay under
#: the int hash modulus 2**61 - 1, so distinct keys hash apart; a multiple
#: of the modulus would hash every key by j alone, all real values alike.
_STRIDE = 1 << 32


class ComplexValue:
    """One interned amplitude. Unique per table; compare with ``is``."""

    __slots__ = ("re", "im", "seq", "older")

    def __init__(self, re: float, im: float, seq: int, older: "ComplexValue | None" = None):
        self.re = re
        self.im = im
        self.seq = seq  # insertion order, used for deterministic tie-breaks
        self.older = older  # the previous value stored under the same bucket key

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
    equals; with none, (re, im) is stored as a new value in its home bucket
    (see the module docstring). The table keeps one dict: it maps a bucket's
    packed id to the bucket's newest value, which links to the older ones
    through ``ComplexValue.older``, so there is no list per bucket and no
    second index.

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
        self.zero = ComplexValue(0.0, 0.0, 0)
        self.one = ComplexValue(1.0, 0.0, 1)
        self._buckets: dict[int, ComplexValue] = {
            0: self.zero,
            floor(1.0 / self._width) * _STRIDE: self.one,
        }
        self._count = 2

    def __len__(self) -> int:
        return self._count

    def lookup(self, re: float, im: float) -> ComplexValue:
        """Canonical representative for (re, im); inserts if nothing is near.

        A stored value whose components are both within ``tol`` claims the
        input; with several candidates the closest (then oldest) wins.
        Raises NumericDomainError for a non-finite coordinate, or one too
        large for a bucket index (about 1e301 at the default tolerance).
        """
        if re == 0.0 and im == 0.0:
            return self.zero
        if re == 1.0 and im == 0.0:
            return self.one
        w = self._width
        try:
            i, j = floor(re / w), floor(im / w)
        except (OverflowError, ValueError):  # inf or nan, or no int index fits
            if not (isfinite(re) and isfinite(im)):
                raise NumericDomainError(f"non-finite amplitude ({re}, {im})") from None
            raise NumericDomainError(f"amplitude ({re}, {im}) out of range") from None
        buckets = self._buckets
        key = i * _STRIDE + j
        head = v = buckets.get(key)
        best: ComplexValue | None = None
        best_d = tol = self.tol
        near: set[int] | None = None
        while True:  # the home chain, then the neighbour chains
            while v is not None:
                d, e = abs(v.re - re), abs(v.im - im)
                if e > d:
                    d = e
                if d < best_d or (d == best_d and best is not None and v.seq < best.seq):
                    if d == 0.0:  # equal coordinates: no other value can be as close
                        return v
                    best, best_d = v, d
                v = v.older
            if near is None:
                # A stored value within tol of re has re - tol <= v.re <= re + tol,
                # rounding keeps that order, so its bucket index lies in
                # [floor((re - tol) / w), floor((re + tol) / w)]: i, and i - 1 or
                # i + 1 as these tests find (likewise for im).
                di = -1 if (re - tol) / w < i else 1 if (re + tol) / w >= i + 1 else 0
                dj = -1 if (im - tol) / w < j else 1 if (im + tol) / w >= j + 1 else 0
                if not (di or dj):
                    break
                near = {key + di * _STRIDE, key + dj, key + di * _STRIDE + dj}
                near.discard(key)
            elif not near:
                break
            v = buckets.get(near.pop())
        if best is not None:
            return best
        v = buckets[key] = ComplexValue(re, im, self._count, head)
        self._count += 1
        return v

    def lookup_many(self, re, im) -> list[ComplexValue]:
        """``[lookup(x, y) for x, y in zip(re, im)]``: the same values, and
        the same table afterwards, for float arrays `re` and `im`.

        The bucket indices and edge tests are computed for the whole array
        first. A value whose home bucket is still empty when its turn comes,
        and which lies more than ``tol`` from that bucket's edges in both
        coordinates, is stored there at once: ``lookup`` would scan only
        that empty bucket and insert. Exact 0 and 1 never take that path,
        since their home buckets hold the seeded values. Every other value
        (near an edge, in a non-empty bucket, non-finite, or with an index
        too large for the packed keys below) goes through ``lookup`` in
        turn, which raises where it would.
        """
        re = np.asarray(re, dtype=np.float64)
        im = np.asarray(im, dtype=np.float64)
        w, tol = self._width, self.tol
        with np.errstate(all="ignore"):  # non-finite values fail `fast` and reach lookup
            i, j = np.floor(re / w), np.floor(im / w)
            edge = ((re - tol) / w < i) | ((re + tol) / w >= i + 1)
            edge |= ((im - tol) / w < j) | ((im + tol) / w >= j + 1)
            # |i|, |j| < 2**31 keeps i * _STRIDE + j exact in int64
            fast = ~edge & (np.abs(i) < 2.0**31) & (np.abs(j) < 2.0**31)
            keys = np.where(fast, i, 0.0).astype(np.int64) * _STRIDE
            keys += np.where(fast, j, 0.0).astype(np.int64)
        buckets, lookup = self._buckets, self.lookup
        out = []
        for x, y, key, f in zip(re.tolist(), im.tolist(), keys.tolist(), fast.tolist()):
            if f and key not in buckets:
                v = buckets[key] = ComplexValue(x, y, self._count)
                self._count += 1
            else:
                v = lookup(x, y)
            out.append(v)
        return out

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


def quotients(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (ar + i ai) / (br + i bi) over float64
    arrays, bit for bit as Python's complex division gives them for finite
    values with b nonzero: CPython's ``_Py_c_quot`` divides through by the
    larger-magnitude coordinate of b (the real one on a tie), one rounded
    float64 operation at a time, so no fused or complex128 arithmetic here.
    """
    on_re = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):  # the branch not taken may divide by 0
        ratio = np.where(on_re, bi / br, br / bi)
        denom = np.where(on_re, br + bi * ratio, br * ratio + bi)
        qr = np.where(on_re, ar + ai * ratio, ar * ratio + ai) / denom
        qi = np.where(on_re, ai - ar * ratio, ai * ratio - ar) / denom
    return qr, qi
