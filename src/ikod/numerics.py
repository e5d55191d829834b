"""Dense float64 helpers, the seeded generator shared by every module, and
the argument rules every module checks its inputs with: a malformed argument
raises a ValueError naming it."""

from __future__ import annotations

import io
import math
import numbers
import os
from enum import Enum

import numpy as np

__all__ = [
    "Rng",
    "require_array",
    "require_float",
    "require_int",
    "require_member",
    "require_seed",
    "softmax_rows",
]


def require_int(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """value as an int when it is a whole number in least..most, each bound
    optional; booleans, arrays, fractions, non-finite numbers, non-numbers
    and numbers out of range raise a ValueError naming the argument."""
    try:
        whole = not isinstance(value, (bool, np.bool_, np.ndarray)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")
    return value


def require_seed(value, name: str) -> int:
    """require_int within 0..2**64 - 1, the seeds Rng takes as they are, so
    no two seeds alias one stream."""
    return require_int(value, name, 0, 2**64 - 1)


def require_float(value, name: str, least: float | None = None, most: float | None = None,
                  above: float | None = None) -> float:
    """value as a float when it is a finite number at least least, above above
    and at most most, each bound optional; booleans, null, strings, non-finite
    numbers and numbers out of range raise a ValueError naming the argument."""
    try:
        finite = (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    value = float(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if above is not None and value <= above:
        raise ValueError(f"{name} must be above {above}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")
    return value


def require_member(kind: type[Enum], value, name: str):
    """value as a member of the enum kind; anything else raises a ValueError
    naming the argument and listing the choices."""
    try:
        return kind(value)
    except ValueError:
        choices = ", ".join(member.value for member in kind)
        raise ValueError(f"{name} must be one of {choices}, got {value!r}") from None


def _require_type(value, kind: type, name: str):
    """value when it is a kind; anything else raises a ValueError naming the
    argument, checked before any of its attributes is read."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, got {value!r}")
    return value


def _read_text(path, name: str) -> io.StringIO:
    """The file at path as UTF-8 text, newlines read as open reads them, or
    open's OSError. A path that is not a str, bytes or os.PathLike (an int is
    a file descriptor) and bytes that are not UTF-8 raise a ValueError."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValueError(f"{name} must be a file path, got {path!r}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return io.StringIO(fh.read())
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def require_array(value, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """np.asarray(value, dtype=dtype), so an array of that dtype is returned
    as it is, when its dimensions match shape: an int is an exact length and
    a str names a length of any size. Anything else (None, a scalar, ragged
    rows, non-numbers such as strings, objects or complex numbers, another
    shape) raises a ValueError naming the argument, before the caller reads
    any entry. Of an ndarray only the dtype is read before the conversion."""
    try:
        given = value if isinstance(value, np.ndarray) else np.asarray(value)
        array = None if given.dtype.kind in "SUOc" else np.asarray(given, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is not None and array.ndim == len(shape) and all(
        isinstance(want, str) or got == want for got, want in zip(array.shape, shape)
    ):
        return array
    got = "ragged rows or non-numbers" if array is None else f"shape {array.shape}"
    raise ValueError(f"{name} must be a ({', '.join(map(str, shape))}) array, got {got}")


_NOT_FINITE = "matrix entries must be finite"


def _shifted_exp(m: np.ndarray) -> np.ndarray:
    """exp of m minus its row maxima, rows along the last axis."""
    return np.exp(m - m.max(axis=-1, keepdims=True))


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction; every row sums to 1."""
    m = require_array(m, "m", ("rows", "columns"))
    if m.shape[1] == 0:
        raise ValueError(f"m must have at least one column, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(_NOT_FINITE)
    e = _shifted_exp(m)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_causal_block(scores: np.ndarray, first: int, out: np.ndarray) -> None:
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
        self.state = require_seed(seed, "seed")

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
        out = np.empty(require_int(n, "n", 0), dtype=np.uint64)
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
        factor = np.float64(require_float(scale, "scale")) * 2.0**-52
        out = _cache_aligned_empty(require_int(n, "n", 0))
        for start, z in self._windows(len(out)):
            z >>= _U64_11
            x = z.view(np.int64)
            x -= _I64_HALF
            np.multiply(x, factor, out=out[start : start + len(x)], dtype=np.float64)
        return out
