import math

import numpy as np
import pytest

from ddapprox import DDPackage
from ddapprox.analysis import _chains

_S10 = math.sqrt(10.0)

# Three-qubit demo state used throughout: two equal positive amplitudes carry
# 80% of the mass, two small ones of opposite sign carry the remaining 20%.
DEMO_VECTOR = np.array(
    [0.0, 2 / _S10, 0.0, 2 / _S10, 1 / _S10, 0.0, 0.0, -1 / _S10], dtype=complex
)

# The approximation every scheme reaches on the demo state at its worked
# parameters: the small-amplitude branch dropped, the rest rescaled.
DEMO_APPROX_VECTOR = np.array(
    [0.0, 1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), 0.0, 0.0, 0.0, 0.0], dtype=complex
)


@pytest.fixture
def pkg():
    return DDPackage()


@pytest.fixture
def demo_state(pkg):
    return pkg.from_vector(DEMO_VECTOR)


def demo_nodes(dd):
    """The six demo nodes keyed by position: root, left/right q1, their q2s."""
    q0 = dd.root.target
    q1l = q0.succ0.target
    q1r = q0.succ1.target
    return {
        "q0": q0,
        "q1l": q1l,
        "q1r": q1r,
        "q2l": q1l.succ0.target,
        "q2m": q1r.succ0.target,
        "q2r": q1r.succ1.target,
    }


def assert_view_keeps_only_chains(view):
    """`view.chains` is exactly the `_chains` tuple: the view keeps no seed,
    walk count or visit counts."""
    (thr, jump, steps, push), want = view.chains, _chains(view)
    assert np.array_equal(thr, want[0], equal_nan=True)
    assert np.array_equal(jump, want[1]) and np.array_equal(steps, want[2])
    assert len(push) == len(want[3])
    for got, expect in zip(push, want[3]):
        assert all(np.array_equal(x, y) for x, y in zip(got, expect))
