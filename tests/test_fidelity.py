import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddapprox import (
    DDPackage,
    PerLevelFidelity,
    Sampling,
    TargetFidelity,
    apply_scheme,
    fidelity,
    inner_product,
    random_circuit,
    simulate,
)
from ddapprox.fidelity import _inner_product
from conftest import DEMO_VECTOR, DEMO_APPROX_VECTOR

import dense_ref


def test_worked_overlap_pair(pkg):
    a = pkg.from_vector(DEMO_VECTOR)
    b = pkg.from_vector(DEMO_APPROX_VECTOR)
    ip = inner_product(a, b)
    assert ip.real == pytest.approx(4 / math.sqrt(20.0), abs=1e-12)
    assert ip.imag == 0.0
    assert fidelity(a, b) == pytest.approx(0.8, abs=1e-12)
    assert fidelity(b, a) == fidelity(a, b)


def test_self_overlap_is_one(pkg):
    rng = np.random.default_rng(9)
    for n in (1, 3, 6):
        dd = pkg.from_vector(dense_ref.random_state(rng, n))
        assert inner_product(dd, dd).real == pytest.approx(1.0, abs=1e-10)
        assert fidelity(dd, dd) == pytest.approx(1.0, abs=1e-10)


def test_orthogonal_basis_states(pkg):
    a = pkg.from_vector([1, 0, 0, 0])
    b = pkg.from_vector([0, 0, 0, 1])
    assert fidelity(a, b) == 0.0
    assert inner_product(a, b) == 0j


def test_qubit_count_mismatch(pkg):
    a = pkg.from_vector([1, 0])
    b = pkg.from_vector([1, 0, 0, 0])
    with pytest.raises(ValueError):
        fidelity(a, b)


def test_matches_dense_oracle_on_random_pairs(pkg):
    rng = np.random.default_rng(101)
    for _ in range(80):
        n = int(rng.integers(1, 9))
        u = dense_ref.random_state(rng, n)
        v = dense_ref.random_state(rng, n)
        a, b = pkg.from_vector(u), pkg.from_vector(v)
        want = dense_ref.fidelity_dense(u, v)
        assert abs(fidelity(a, b) - want) < 1e-10
        got_ip = inner_product(a, b)
        assert got_ip == pytest.approx(complex(np.vdot(u, v)), abs=1e-10)


def test_symmetry_is_exact(pkg):
    rng = np.random.default_rng(55)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        a = pkg.from_vector(dense_ref.random_state(rng, n))
        b = pkg.from_vector(dense_ref.random_state(rng, n))
        assert fidelity(a, b) == fidelity(b, a)


def test_unitary_invariance(pkg):
    rng = np.random.default_rng(77)
    n = 5
    u = dense_ref.random_state(rng, n)
    v = dense_ref.random_state(rng, n)
    a, b = pkg.from_vector(u), pkg.from_vector(v)
    before = fidelity(a, b)
    # drive both states through the same random circuit
    circ = random_circuit(n, 8, seed=3)
    full = np.eye(1 << n, dtype=complex)
    for g in circ.gates:
        full = dense_ref.gate_unitary(g, n) @ full
    a2 = pkg.from_vector(full @ u)
    b2 = pkg.from_vector(full @ v)
    assert abs(fidelity(a2, b2) - before) < 1e-9


def test_pair_expansion_bounded(pkg):
    rng = np.random.default_rng(13)
    a = pkg.from_vector(dense_ref.random_state(rng, 6))
    b = pkg.from_vector(dense_ref.random_state(rng, 6))
    _, pairs = _inner_product(a, b)
    assert pairs <= a.size() * b.size()


def test_cross_package_states_compare():
    p1, p2 = DDPackage(), DDPackage()
    a = p1.from_vector(DEMO_VECTOR)
    b = p2.from_vector(DEMO_APPROX_VECTOR)
    assert fidelity(a, b) == pytest.approx(0.8, abs=1e-12)


def test_clamped_to_unit_interval(pkg):
    dd = simulate(random_circuit(4, 10, 1), pkg)
    f = fidelity(dd, dd)
    assert 0.0 <= f <= 1.0


def _bits(z):
    return z.real.hex(), z.imag.hex()


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["circuit", "dense", "sparse"]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    scheme=st.one_of(
        st.builds(TargetFidelity, st.sampled_from((0.5, 0.9, 0.99))),
        st.builds(PerLevelFidelity, st.sampled_from((0.5, 0.9, 0.99))),
        st.builds(Sampling, st.integers(1, 40), st.integers(0, 9)),
    ),
)
def test_overlaps_with_approximations_equal_the_full_recursion(kind, n, seed, scheme):
    """An approximation shares nodes with its input, and the overlap stops
    at a shared node with that node's mass: the results equal, bit for bit,
    the recursion that expands every pair down to the terminal."""
    pkg = DDPackage()
    rng = np.random.default_rng(seed)
    if kind == "circuit":
        dd = simulate(random_circuit(n, 1 + seed % (3 * n), seed), pkg)
    else:
        vec = dense_ref.random_state(rng, n)
        if kind == "sparse":
            vec[rng.random(1 << n) < 0.5] = 0.0
            vec[rng.integers(1 << n)] = 1.0
        dd = pkg.from_vector(vec / np.linalg.norm(vec))
    out, _ = apply_scheme(dd, scheme)
    for a, b in ((dd, out), (out, dd), (dd, dd), (out, out)):
        want = dense_ref.inner_product_ref(a, b)
        assert _bits(_inner_product(a, b)[0]) == _bits(want)
        f = want.real * want.real + want.imag * want.imag
        assert fidelity(a, b) == (f if f < 1.0 else 1.0)
        assert _bits(inner_product(a, b)) == _bits(want)
