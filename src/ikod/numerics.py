"""Dense float64 helpers and the seeded generator shared by every module."""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["Matrix", "Rng", "ShapeError", "softmax_rows"]

# Matrices are plain row-major float64 ndarrays; the alias marks intent in
# signatures without wrapping numpy.
Matrix = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


def softmax_rows(m) -> Matrix:
    """Row-wise softmax with max-subtraction; every row sums to 1."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The same constants as numpy scalars: uint64 array arithmetic with them wraps
# mod 2**64 and never promotes to int64 or float64, under NumPy 1.x value-based
# casting and NEP 50 alike.
_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)
_U64_30, _U64_27, _U64_31, _U64_11 = (np.uint64(k) for k in (30, 27, 31, 11))
_UNIT = np.float64(2.0**-53)


class Rng:
    """SplitMix64 stream; a fixed seed yields the same bits on every platform.

    Single-owner mutable state: concurrent decode sessions each get their own
    instance.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_uniform_block(self, n: int) -> np.ndarray:
        """The next n values of next_uniform() as a float64 array, bit for bit,
        leaving the state where n scalar calls would.

        SplitMix64 is counter-based: draw i is mix(state + i * golden mod 2**64),
        so the whole block is one uint64 pipeline with wrapping arithmetic.
        """
        n = operator.index(n)
        if n < 0:
            raise ValueError("n must be non-negative")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _U64_GOLDEN
        z += np.uint64(self.state)
        self.state = (self.state + n * _GOLDEN) & _MASK64
        z ^= z >> _U64_30
        z *= _U64_MIX1
        z ^= z >> _U64_27
        z *= _U64_MIX2
        z ^= z >> _U64_31
        z >>= _U64_11
        # Values below 2**53 convert to float64 exactly, and the power-of-two
        # scale is exact too.
        out = z.astype(np.float64)
        out *= _UNIT
        return out

    def next_below(self, n: int) -> int:
        """Integer in [0, n); modulo bias is negligible for the small n used here."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n
