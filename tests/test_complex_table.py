import math
import re
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddapprox import ComplexTable, DDPackage, NumericDomainError, random_circuit, simulate, sqr_mag
from ddapprox.complex_table import _BUCKET_TOLS, _STRIDE, quotients

import dense_ref

finite = st.floats(
    min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False
)


def test_tolerance_bounds_enforced():
    ComplexTable(1e-10)
    with pytest.raises(ValueError):
        ComplexTable(0.0)
    with pytest.raises(ValueError):
        ComplexTable(-1e-10)
    with pytest.raises(ValueError):
        ComplexTable(1e-3)


def test_zero_and_one_preseeded():
    t = ComplexTable()
    assert t.lookup(0.0, 0.0) is t.zero
    assert t.lookup(1.0, 0.0) is t.one
    assert t.lookup(-0.0, 0.0) is t.zero


def test_values_within_tolerance_share_a_representative():
    t = ComplexTable()
    first = t.lookup(1.0, 0.0)
    assert t.lookup(1.0 + t.tol / 2, 0.0) is first
    assert t.lookup(1.0 - t.tol / 2, t.tol / 2) is first
    # the seeded constants always win their own ball
    assert t.lookup(t.tol / 4, -t.tol / 4) is t.zero


def test_distant_values_stay_distinct():
    t = ComplexTable()
    a = t.lookup(0.25, 0.0)
    b = t.lookup(0.25 + 3 * t.tol, 0.0)
    assert a is not b


def test_nonfinite_rejected():
    t = ComplexTable()
    for x, y in [
        (math.nan, 0.0),
        (0.0, math.nan),
        (math.inf, 0.0),
        (0.5, -math.inf),
        (1e302, math.nan),  # 1e302 overflows its bucket index first
    ]:
        message = re.escape(f"non-finite amplitude ({x}, {y})")
        with pytest.raises(NumericDomainError, match=message):
            t.lookup(x, y)
    assert len(t) == 2


def test_coordinates_past_the_bucket_range_rejected():
    # finite, but their bucket index overflows an int at the default tolerance
    t = ComplexTable()
    for x, y in [(1e302, 0.0), (0.0, -1e302)]:
        message = re.escape(f"amplitude ({x}, {y}) out of range")
        with pytest.raises(NumericDomainError, match=message):
            t.lookup(x, y)
    with pytest.raises(NumericDomainError, match=r"^amplitude \(1\.7e\+308, 0\.0\) out of range$"):
        DDPackage().terminal_edge(1.7e308)
    big = t.lookup(1e300, 0.0)
    assert (big.re, big.im) == (1e300, 0.0) and len(t) == 3


def test_demo_root_weight_value():
    t = ComplexTable()
    v = t.lookup(2 / math.sqrt(10.0), 0.0)
    assert v.re == pytest.approx(0.6324555320336759, abs=1e-15)
    assert v.im == 0.0


def test_mul_chain_matches_worked_product():
    t = ComplexTable()
    a = t.lookup(2 / math.sqrt(10.0), 0.0)
    half = t.lookup(0.5, 0.0)
    minus_one = t.lookup(-1.0, 0.0)
    out = t.mul(t.mul(a, half), minus_one)
    assert out.re == pytest.approx(-1 / math.sqrt(10.0), abs=1e-15)
    assert out.im == 0.0


def test_sqr_mag():
    t = ComplexTable()
    v = t.lookup(0.3, 0.4)
    assert sqr_mag(v) == pytest.approx(0.25, abs=1e-15)
    r = t.lookup(1 / math.sqrt(2.0), 0.0)
    assert sqr_mag(r) == pytest.approx(0.5, abs=1e-15)


def test_div_exact_cases():
    t = ComplexTable()
    v = t.lookup(0.7, -0.2)
    assert t.div(v, v) is t.one
    assert t.div(v, t.one) is v
    assert t.div(t.zero, v) is t.zero
    with pytest.raises(ZeroDivisionError):
        t.div(v, t.zero)


@settings(max_examples=60, deadline=None)
@given(re=finite, im=finite)
def test_lookup_idempotent(re, im):
    t = ComplexTable()
    v = t.lookup(re, im)
    assert t.lookup(v.re, v.im) is v
    assert sqr_mag(v) >= 0.0


@settings(max_examples=60, deadline=None)
@given(re=finite, im=finite)
def test_all_stored_components_finite(re, im):
    t = ComplexTable()
    v = t.lookup(re, im)
    w = t.mul(v, t.lookup(v.re, -v.im))
    assert math.isfinite(w.re) and math.isfinite(w.im)


_TOLS = (1e-10, 1e-6, 5e-4)


@lru_cache
def _aliasing_ims(tol: float, step: int) -> tuple[float, float]:
    """Imaginary parts hi, lo with bucket indices j and j - _STRIDE, so that
    buckets (i, j) and (i + 1, j - _STRIDE) share one packed id: hi is the
    `step`-th float above _STRIDE + 3 bucket widths (about 440 at tol
    1e-10), lo the middle of bucket j - _STRIDE (bucket 2 or 3)."""
    width = _BUCKET_TOLS * tol
    hi = (_STRIDE + 3) * width
    for _ in range(step):
        hi = math.nextafter(hi, math.inf)
    j = math.floor(hi / width)
    lo = (j - _STRIDE + 0.5) * width
    assert math.floor(lo / width) == j - _STRIDE > 0
    return hi, lo


@st.composite
def _lookup_runs(draw):
    """(tol, queries): clusters of queries around a few centres, offset in
    quarters of tol up to 3 tol. Centres lie on bucket edges, at +-0.0 and
    +-1, anywhere in [-2, 2], near +-1e308 * tol (so near 1e300 at tol 1e-6,
    about as large as the reference's float bucket index allows), or come as
    a pair in buckets (i, j) and (i + 1, j - _STRIDE), whose packed ids
    alias."""
    tol = draw(st.sampled_from(_TOLS))
    width = _BUCKET_TOLS * tol
    edge = st.integers(-3, 3).map(lambda m: m * width)
    huge = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(1e307, 1e308))
    coordinate = st.one_of(
        edge,
        st.integers(int(-2 / width), int(2 / width)).map(lambda m: m * width),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-2.0, 2.0),
        huge.map(lambda p: p[0] * p[1] * tol),
    )
    centres = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=4))
    if draw(st.booleans()):
        x = draw(st.one_of(edge, edge.map(lambda c: c + width / 2)))
        hi, lo = _aliasing_ims(tol, draw(st.integers(0, 8)))
        centres += [(x, hi), (x + width, lo)]
    quarters = st.integers(-12, 12)
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(centres) - 1), quarters, quarters),
            min_size=1,
            max_size=40,
        )
    )
    queries = []
    for i, a, b in picks:
        x, y = centres[i]
        queries.append((x + a * tol / 4 if a else x, y + b * tol / 4 if b else y))
    return tol, queries


def _bits(v):
    return v.seq, v.re.hex(), v.im.hex()


_W = _BUCKET_TOLS * 1e-10  # the bucket width at tol 1e-10


@settings(max_examples=300, deadline=None)
@given(run=_lookup_runs())
# A near hit is not an exact hit: the third query stores a value closer to
# (0.3, 0.1) than the first one, so it must answer the fourth.
@example(run=(1e-10, [(0.3 + 0.8e-10, 0.1), (0.3, 0.1), (0.3 - 0.5e-10, 0.1), (0.3, 0.1)]))
# A query exactly on a bucket edge, repeated, then near it from both sides.
@example(
    run=(
        1e-10,
        [(3 * _W, -2 * _W)] * 3
        + [(3 * _W - 0.25e-10, -2 * _W), (3 * _W, -2 * _W + 0.5e-10), (3 * _W, -2 * _W)],
    )
)
# Within tol of a value across a corner: only the diagonal bucket holds it.
@example(
    run=(1e-10, [(3 * _W + 0.25e-10, -2 * _W + 0.25e-10), (3 * _W - 0.25e-10, -2 * _W - 0.25e-10)])
)
# (x + tol) / w is exactly 1 for the second query, which lies in bucket 0
# and within tol of the value on bucket 1's edge.
@example(run=(1e-10, [(_W, 0.5), (1.0230000000000001e-07, 0.5)]))
# -0.0 and 0.0 coordinates name the same point and the same bucket.
@example(
    run=(1e-10, [(-0.0, 0.3), (0.0, 0.3), (0.3, -0.0), (0.3, 0.0), (-0.0, -0.5e-10), (-0.0, 0.3)])
)
def test_lookup_matches_nine_bucket_scan(run):
    tol, queries = run
    table, ref = ComplexTable(tol), dense_ref.ComplexTable(tol)
    for x, y in queries:
        assert _bits(table.lookup(x, y)) == _bits(ref.lookup(x, y)), (x, y)
    assert len(table) == len(ref)


def _chains(table):
    """Every bucket chain of `table`, newest value first, by packed id."""
    out = {}
    for key, v in table._buckets.items():
        out[key] = chain = []
        while v is not None:
            chain.append(_bits(v))
            v = v.older
    return out


# Coordinates that `lookup` rejects: non-finite, or too large for a bucket
# index at any of _TOLS.
_REJECTED = [
    (math.nan, 0.0), (0.5, -math.inf), (math.inf, math.nan), (1.7e308, 0.5), (0.5, -1.7e308)
]


_HI, _LO = _aliasing_ims(1e-10, 0)


@st.composite
def _batch_runs(draw):
    """(tol, stored, batch): `_lookup_runs` queries split into values looked
    up one by one first and a batch after them, the batch perhaps with one
    rejected coordinate pair inserted."""
    tol, queries = draw(_lookup_runs())
    cut = draw(st.integers(0, len(queries)))
    batch = queries[cut:]
    if draw(st.booleans()):
        batch.insert(draw(st.integers(0, len(batch))), draw(st.sampled_from(_REJECTED)))
    return tol, queries[:cut], batch


@settings(max_examples=300, deadline=None)
@given(run=_batch_runs())
# The second value lies within tol of the first across the edge of its
# (still empty) home bucket, so lookup must find the first.
@example(run=(1e-10, [], [(_W - 0.25e-10, 0.5), (_W + 0.25e-10, 0.5), (_W + 0.25e-10, 0.5)]))
# Within tol of each other inside one home bucket; of stored values; exact
# 0 and 1 and -0.0; repeats.
@example(
    run=(
        1e-10,
        [(0.3, 0.1), (0.7, -0.2)],
        [(0.5, 0.5), (0.5 + 0.5e-10, 0.5), (0.3 - 0.5e-10, 0.1), (0.7, -0.2 + 0.75e-10),
         (0.0, 0.0), (-0.0, 0.0), (1.0, 0.0), (1.0, -0.0), (1.0 + 0.5e-10, 0.0), (0.5, 0.5)],
    )
)
# Aliased packed ids: buckets (i, j) and (i + 1, j - _STRIDE) share a chain.
@example(
    run=(
        1e-10,
        [],
        [(_W / 2, _HI), (_W * 1.5, _LO), (_W - 0.25e-10, _LO), (_W / 2, _HI), (_W * 1.5, _LO)],
    )
)
# A rejected pair after a value that was stored: the batch keeps that insert.
@example(run=(1e-10, [], [(0.25, 0.25), (0.5, math.nan), (0.75, 0.75)]))
def test_lookup_many_matches_lookups(run):
    """`lookup_many` on one table and `lookup` in turn on its twin return the
    same values and leave the same table, and raise at the same element."""
    tol, stored, batch = run
    many, single = ComplexTable(tol), ComplexTable(tol)
    for x, y in stored:
        many.lookup(x, y)
        single.lookup(x, y)
    want, error = [], None
    for x, y in batch:
        try:
            want.append(_bits(single.lookup(x, y)))
        except NumericDomainError as exc:
            error = str(exc)
            break
    re, im = np.array(batch, dtype=np.float64).reshape(-1, 2).T
    if error is None:
        assert [_bits(v) for v in many.lookup_many(re, im)] == want
    else:
        with pytest.raises(NumericDomainError) as exc:
            many.lookup_many(re, im)
        assert str(exc.value) == error
    assert len(many) == len(single)
    assert _chains(many) == _chains(single)


def _quotient_pairs(rng, size):
    """(ar, ai, br, bi) arrays of `size` pairs in five equal parts: Gaussian,
    uniform, extreme exponents, signed-zero components, and |br| = |bi|."""
    k = size // 5
    parts = [rng.standard_normal((4, k)), rng.uniform(-1.0, 1.0, (4, k))]
    mant = rng.uniform(0.5, 1.0, (4, k)) * rng.choice([-1.0, 1.0], (4, k))
    parts.append(np.ldexp(mant, rng.integers(-1060, 1020, (4, k))))
    zeros = rng.standard_normal((4, k))
    zeros[rng.random((4, k)) < 0.4] = 0.0
    zeros *= rng.choice([-1.0, 1.0], (4, k))  # signed zeros
    parts.append(zeros)
    ties = rng.standard_normal((4, k))
    ties[3] = ties[2] * rng.choice([-1.0, 1.0], k)
    ties[:2, : k // 2] = ties[2:, : k // 2]  # some a == b and a == conj(b)
    ties[1, : k // 4] *= -1.0
    parts.append(ties)
    ar, ai, br, bi = np.concatenate(parts, axis=1)
    keep = (br != 0.0) | (bi != 0.0)  # Python raises ZeroDivisionError there
    return ar[keep], ai[keep], br[keep], bi[keep]


def test_quotients_match_complex_division():
    """Bit for bit (signed zeros too, so compared by `.hex()`) what Python's
    complex division gives, on about 1e5 pairs."""
    ar, ai, br, bi = _quotient_pairs(np.random.default_rng(23), 100_000)
    qr, qi = quotients(ar, ai, br, bi)
    bad = []
    for a, b, c, d, x, y in zip(*(v.tolist() for v in (ar, ai, br, bi, qr, qi))):
        q = complex(a, b) / complex(c, d)
        if (q.real.hex(), q.imag.hex()) != (x.hex(), y.hex()):
            bad.append((a, b, c, d))
    assert len(ar) > 95_000
    assert bad == []


def test_lookups_of_self_and_unit_quotients():
    """For every interned a: `lookup_many(*quotients(a, a))` is `one` and
    `lookup_many(*quotients(a, one))` is a itself, and neither inserts. So
    the table gives, with no short-cut of its own, what `div`'s a / a and
    a / 1 short-cuts give (the level-by-level build relies on it)."""
    t = ComplexTable()
    tol = t.tol
    rng = np.random.default_rng(29)
    # magnitudes from 1e-3 to 3, and 500 from tol to 100 tol: every value
    # below the bucket width shares the few buckets at the origin, whose
    # scans grow with each value stored there
    mag = np.concatenate([10.0 ** rng.uniform(-3.0, 0.5, 200_000), rng.uniform(1, 100, 500) * tol])
    phase = rng.uniform(-math.pi, math.pi, mag.size)
    re, im = mag * np.cos(phase), mag * np.sin(phase)
    near = [1.0 - 1e-12, 1.0 + 3 * tol, 1.0 - 2.5 * tol, -1.0, 1.5 * tol, -2.5 * tol, 0.7]
    # both axes, with either sign of zero stored
    edge = [(x, -0.0) for x in near] + [(-x, 0.0) for x in near]
    edge += [(-0.0, x) for x in near] + [(0.0, -x) for x in near]
    edge += [(1.0 - 1e-12, 1e-13), (1.5 * tol, -1.5 * tol), (-tol, 3 * tol), (0.6, -0.8)]
    ex, ey = np.array(edge).T
    values = t.lookup_many(np.concatenate([ex, re]), np.concatenate([ey, im]))
    values = [v for v in {id(v): v for v in values}.values() if v is not t.zero]
    assert len(values) >= 100_000
    size = len(t)
    ar = np.array([v.re for v in values])
    ai = np.array([v.im for v in values])
    assert all(v is t.one for v in t.lookup_many(*quotients(ar, ai, ar, ai)))
    ones, zeros = np.ones_like(ar), np.zeros_like(ai)
    got = t.lookup_many(*quotients(ar, ai, ones, zeros))
    assert all(g is v for g, v in zip(got, values, strict=True))
    assert len(t) == size


@pytest.mark.parametrize("tol", _TOLS)
def test_aliased_buckets_share_one_chain(tol):
    width = _BUCKET_TOLS * tol
    hi, lo = _aliasing_ims(tol, 0)
    queries = [(width / 2, hi), (width * 1.5, lo), (width - tol / 4, lo), (width / 2, hi)]
    table, ref = ComplexTable(tol), dense_ref.ComplexTable(tol)
    got = [table.lookup(x, y) for x, y in queries]
    for v, (x, y) in zip(got, queries):
        assert _bits(v) == _bits(ref.lookup(x, y)), (x, y)
    # 0, 1 and one value per query bucket; the two aliased values in one chain
    assert len(table) == len(ref) == 5
    assert len(table._buckets) == 4
    assert got[1].older is got[0]


def test_real_values_hash_apart():
    """Real values all sit in bucket column j = 0, so their packed ids differ
    only by multiples of the stride; they must still hash apart, or every
    real value would share one collision chain of the dict."""
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(1 << 12)
    pkg = DDPackage()
    pkg.from_vector(vec / np.linalg.norm(vec))
    t = ComplexTable()
    for x in rng.uniform(-2.0, 2.0, 2000).tolist():
        t.lookup(x, 0.0)
    for buckets in (pkg.table._buckets, t._buckets):
        assert len(buckets) > 2000
        assert len({hash(k) for k in buckets}) == len(buckets)


def test_simulation_table_contents_pinned(monkeypatch):
    # the two names the benchmark's tracer wraps on the class
    calls = {"lookup": 0, "make_node": 0}
    for cls, name in ((ComplexTable, "lookup"), (DDPackage, "make_node")):

        def counted(*args, _fn=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cls, name, counted)
    pkg = DDPackage()
    state = simulate(random_circuit(10, 30, 3), pkg)
    assert calls == {"lookup": 24124, "make_node": 8189}
    assert len(pkg.table) == 11069
    assert pkg.unique_table_size() == 4327
    assert state.size() == 202
    assert state.root.target.uid == 4326
    assert (state.root.weight.re, state.root.weight.im) == (
        -0.15051513110281287,
        0.04194088045152552,
    )


def test_live_bytes_per_stored_value():
    """Memory guard: what a simulation leaves allocated once the unique table
    is collected, per stored value (the value table dominates). CPython 3.11
    measured 256 B per value here, and 445 B with a second, exact
    (re, im) index next to the buckets; the bound leaves margin for other
    versions."""
    tracemalloc.start()
    try:
        pkg = DDPackage()
        state = simulate(random_circuit(10, 30, 3), pkg)
        pkg.collect_garbage([state.root])
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(pkg.table) == 11069
    assert live / len(pkg.table) < 320
