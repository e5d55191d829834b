"""Dense float64 helpers and the seeded generator shared by every module."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

__all__ = ["Rng", "softmax_causal_block", "softmax_rows"]


_NOT_FINITE = "matrix entries must be finite"


def _shifted_exp(m: np.ndarray) -> np.ndarray:
    """exp of m minus its row maxima, rows along the last axis."""
    return np.exp(m - m.max(axis=-1, keepdims=True))


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction; every row sums to 1."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(_NOT_FINITE)
    e = _shifted_exp(m)
    return e / e.sum(axis=1, keepdims=True)


def softmax_causal_block(scores: np.ndarray, first: int, out: np.ndarray) -> None:
    """softmax_rows of each position's own columns, for a block of positions.

    scores holds the (n, heads, columns) scores of positions first ..
    first + n - 1. out, of the same shape, receives in out[i, :, : first + i + 1]
    softmax_rows(scores[i, :, : first + i + 1]) bit for bit, and zeros in the
    later columns; the call raises where one of those calls would. The
    finiteness check skips the later columns, and the max, subtraction,
    exponentials and divide run on the whole block with them masked to -inf,
    so each is exact or elementwise. The row sums are taken one position at
    a time: a pairwise sum's order depends on the row's length. scores is
    overwritten.
    """
    n, _, columns = scores.shape
    later = (np.arange(columns) > np.arange(first, first + n)[:, None])[:, None]
    if not (np.isfinite(scores) | later).all():
        raise ValueError(_NOT_FINITE)
    np.copyto(scores, -np.inf, where=later)
    e = _shifted_exp(scores)
    sums = np.empty((n, scores.shape[1], 1))
    for i in range(n):
        np.add.reduce(e[i, :, : first + i + 1], axis=-1, keepdims=True, out=sums[i])
    np.divide(e, sums, out=out)


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
_I64_HALF = np.int64(1 << 52)
# Draws per pass of the block pipeline. The window's two uint64 buffers
# (128 KiB each) and the step table stay in a core's L2 cache, so each of the
# pipeline's passes reads cached data instead of streaming a whole matrix.
_WINDOW = 1 << 14
# i * golden mod 2**64 for i = 1..window: a window's counters are these plus
# its base state.
_STEPS = np.arange(1, _WINDOW + 1, dtype=np.uint64) * _U64_GOLDEN


def _block_size(n) -> int:
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be non-negative")
    return n


def _cache_aligned_empty(n: int) -> np.ndarray:
    """An uninitialised float64 array of n values starting on a 64-byte cache
    line. malloc only guarantees 16 bytes, and a matrix that starts mid-line
    makes the wide vector loads of the products that stream it straddle two
    lines: on an AVX-512 x86_64 machine a cold_start-shaped prefill (d_model
    256) took about 1.4x as long with every matrix 16 bytes past a line."""
    buf = np.empty(n + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start : start + n]


class Rng:
    """SplitMix64 stream; a fixed seed yields the same bits on every platform.

    Single-owner mutable state: concurrent decode sessions each get their own
    instance.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        # Only 0..2**64 - 1 is taken as it is: a wider seed would alias the
        # stream of its low 64 bits, and True would pass for seed 1.
        if (
            isinstance(seed, (bool, np.bool_))
            or not isinstance(seed, (int, np.integer))
            or not 0 <= seed <= _MASK64
        ):
            raise ValueError(f"seed must be an integer in [0, 2**64 - 1], got {seed!r}")
        self.state = int(seed)

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def _windows(self, n: int):
        """The next n >= 0 next_u64() values, window by window, as (start, values)
        pairs; values is a reused buffer, valid until the next pair. The state
        moves past all n draws at once.

        SplitMix64 is counter-based: draw i is mix(state + i * golden mod 2**64),
        so each window is one uint64 pipeline of in-place wrapping ufuncs.
        """
        state = self.state
        self.state = (state + n * _GOLDEN) & _MASK64
        z_buf = np.empty(min(n, _WINDOW), dtype=np.uint64)
        t_buf = np.empty_like(z_buf)
        for start in range(0, n, _WINDOW):
            m = min(_WINDOW, n - start)
            z, t = z_buf[:m], t_buf[:m]
            np.add(_STEPS[:m], np.uint64((state + start * _GOLDEN) & _MASK64), out=z)
            np.right_shift(z, _U64_30, out=t)
            z ^= t
            z *= _U64_MIX1
            np.right_shift(z, _U64_27, out=t)
            z ^= t
            z *= _U64_MIX2
            np.right_shift(z, _U64_31, out=t)
            z ^= t
            yield start, z

    def next_u64_block(self, n: int) -> np.ndarray:
        """The next n values of next_u64() as a uint64 array, leaving the state
        where n scalar calls would."""
        out = np.empty(_block_size(n), dtype=np.uint64)
        for start, z in self._windows(len(out)):
            out[start : start + len(z)] = z
        return out

    def next_uniform_block(self, n: int, scale: float) -> np.ndarray:
        """The next n values u of next_uniform() as (2u - 1) * scale, rounded as
        that expression rounds, in a float64 array that starts on a 64-byte
        cache line, leaving the state where n scalar calls would.

        Each window's 53-bit values x = z >> 11 are converted through an int64
        view (exact below 2**53) and written straight into the result:
        u = x * 2**-53, and (2u - 1) * s = (x - 2**52) * (s * 2**-52), where
        every step but the last product is exact in both forms.
        """
        real = isinstance(scale, numbers.Real) and not isinstance(scale, bool)
        try:
            finite = real and math.isfinite(scale)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValueError(f"scale must be a finite number, got {scale!r}")
        out = _cache_aligned_empty(_block_size(n))
        factor = np.float64(scale) * 2.0**-52
        for start, z in self._windows(len(out)):
            z >>= _U64_11
            x = z.view(np.int64)
            x -= _I64_HALF
            np.multiply(x, factor, out=out[start : start + len(x)], dtype=np.float64)
        return out
