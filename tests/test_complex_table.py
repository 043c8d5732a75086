import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddapprox import ComplexTable, DDPackage, NumericDomainError, random_circuit, simulate, sqr_mag
from ddapprox.complex_table import _BUCKET_TOLS

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
    for re, im in [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.5, -math.inf)]:
        with pytest.raises(NumericDomainError):
            t.lookup(re, im)


def test_coordinates_past_the_bucket_range_rejected():
    # finite, but their bucket index overflows an int at the default tolerance
    t = ComplexTable()
    for re, im in [(1e302, 0.0), (0.0, -1e302)]:
        with pytest.raises(NumericDomainError):
            t.lookup(re, im)
    with pytest.raises(NumericDomainError):
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


@st.composite
def _lookup_runs(draw):
    """(tol, queries): clusters of queries around a few centres, offset in
    quarters of tol up to 3 tol, with centres on bucket edges, at +-0.0 and
    anywhere in [-2, 2]."""
    tol = draw(st.sampled_from(_TOLS))
    width = _BUCKET_TOLS * tol
    coordinate = st.one_of(
        st.integers(-3, 3).map(lambda m: m * width),
        st.integers(int(-2 / width), int(2 / width)).map(lambda m: m * width),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-2.0, 2.0),
    )
    centres = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=4))
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
        re, im = centres[i]
        queries.append((re + a * tol / 4 if a else re, im + b * tol / 4 if b else im))
    return tol, queries


def _bits(v):
    return v.seq, v.re.hex(), v.im.hex()


@settings(max_examples=300, deadline=None)
@given(run=_lookup_runs())
# A near hit is not an exact hit: the third query stores a value closer to
# (0.3, 0.1) than the first one, so it must answer the fourth.
@example(run=(1e-10, [(0.3 + 0.8e-10, 0.1), (0.3, 0.1), (0.3 - 0.5e-10, 0.1), (0.3, 0.1)]))
def test_lookup_matches_nine_bucket_scan(run):
    tol, queries = run
    table, ref = ComplexTable(tol), dense_ref.ComplexTable(tol)
    for re, im in queries:
        assert _bits(table.lookup(re, im)) == _bits(ref.lookup(re, im)), (re, im)
    assert len(table) == len(ref)


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
    assert calls == {"lookup": 24266, "make_node": 8354}
    assert len(pkg.table) == 11069
    assert pkg.unique_table_size() == 4327
    assert state.size() == 202
    assert state.root.target.uid == 4326
    assert (state.root.weight.re, state.root.weight.im) == (
        -0.15051513110281287,
        0.04194088045152552,
    )
