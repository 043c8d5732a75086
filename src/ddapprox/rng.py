"""Seedable 64-bit generator with a fixed, documented stream.

Every stochastic result in this package is a pure function of the seeds fed
into these helpers, so runs are reproducible bit-for-bit. The array helpers
draw many substreams in lockstep and give exactly the scalar stream's values.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _scramble(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def scramble_array(z: np.ndarray) -> np.ndarray:
    """`_scramble` applied to every entry of a uint64 array (wrapping products)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """splitmix64: the state steps by the golden gamma, outputs are scrambled."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _scramble(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def derive_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """The seeds of substreams start <= i < stop, scramble(seed + (i + 1) *
    gamma), as a uint64 array.

    Pure in (seed, i), so substreams can be drawn in any order or in
    parallel without changing results.
    """
    steps = np.arange(start + 1, stop + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return scramble_array(np.uint64(seed & _MASK64) + steps)


def draw_array(states: np.ndarray, k: int | np.ndarray) -> np.ndarray:
    """The k-th draw (k >= 1) of many streams at once, as 53-bit integers.

    `states` holds one splitmix64 state per stream (seeded like
    `SplitMix64(s)` with `s` from `derive_seeds`) and is left as it is. `k`
    is one int for every stream, or a uint64 array with one step index per
    stream. Entry i is `scramble(states[i] + k_i·γ) >> 11`; times 2**-53 it
    is the k_i-th `SplitMix64(states[i]).random()`. Every operand is a
    uint64 array or scalar, so the arithmetic wraps and is never promoted.
    """
    step = np.asarray(k, dtype=np.uint64) * np.uint64(_GOLDEN)
    return scramble_array(states + step) >> np.uint64(11)
