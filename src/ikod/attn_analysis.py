"""Image-attention statistics, the uniform-mix prediction, and 2-d Gaussian KDE."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import LayeredKvCache
from .numerics import _read_text, _require_type, require_array, require_float, require_int

__all__ = [
    "ImageAttentionStat",
    "degradation_report",
    "kde2d",
    "kde_peak",
    "read_trace_csv",
    "segment_averages",
    "synthetic_uniform_trace",
    "trace_image_attention",
    "uniform_attention_prediction",
]


@dataclass
class ImageAttentionStat:
    """Per recorded step, per layer, per head: attention mass on image tokens,
    the last n_generated steps those whose query is a generated token."""

    values: np.ndarray  # (n_steps, n_layers, n_heads)
    n_generated: int

    def __post_init__(self):
        self.values = require_array(self.values, "values", ("n_steps", "n_layers", "n_heads"))
        self.n_generated = require_int(self.n_generated, "n_generated", 0, len(self.values))

    @classmethod
    def from_trace(cls, cache: LayeredKvCache, n_generated: int) -> "ImageAttentionStat":
        """The image attention the cache recorded, one step per position, the
        last n_generated of them generated tokens."""
        _require_type(cache, LayeredKvCache, "cache")
        n, text_len = cache.length, cache.length - cache.l_image
        n_generated = require_int(n_generated, "n_generated")
        if not 0 <= n_generated <= text_len:
            raise ValueError(
                f"{n_generated} generated tokens do not fit the cache's {text_len} text positions"
            )
        return cls(cache.image_att[:, :, :n].transpose(2, 0, 1).copy(), n_generated)

    @property
    def generated(self) -> slice:
        """The generated steps, as a slice of the step axis (values[-0:] is every step)."""
        return slice(len(self.values) - self.n_generated, len(self.values))

    @property
    def att_avg(self) -> np.ndarray:
        """Per-step mean over all layer/head cells."""
        return self.values.mean(axis=(1, 2))


def segment_averages(stat: ImageAttentionStat) -> list[tuple[int, int, float, float, int]]:
    """The rows of segments.csv: per layer/head cell in row-major order, the
    mean image attention over the first and last 20% of generated steps. The
    window is floor(0.2 * L) steps, so at least five generated tokens are
    required for it to be non-empty."""
    n = _require_type(stat, ImageAttentionStat, "stat").n_generated
    if n < 5:
        raise ValueError(f"segments undefined for {n} generated tokens (need >= 5)")
    w = n // 5  # floor(0.2 * n)
    _, n_layers, n_heads = stat.values.shape
    cells = [(li, h) for li in range(n_layers) for h in range(n_heads)]
    series = [stat.values[stat.generated, li, h] for li, h in cells]
    return [(*cell, float(s[:w].mean()), float(s[-w:].mean()), w) for cell, s in zip(cells, series)]


def uniform_attention_prediction(l_image: int, l_others: int, l_gen: int) -> float:
    """Image share of a perfectly uniform attention row: the image token count
    over the total sequence length. Fixed image/instruction lengths make this
    strictly decreasing in the generated length."""
    l_image, l_others = require_int(l_image, "l_image", 0), require_int(l_others, "l_others", 0)
    total = l_image + l_others + require_int(l_gen, "l_gen", 0)
    if total <= 0:
        raise ValueError("total length must be positive")
    return l_image / total


def kde_peak(h: float) -> float:
    """The largest density kde2d can return, 1 / (2 pi h^2), reached at a
    lone point's own location; inf when that overflows a float."""
    h = require_float(h, "h")
    area = 2.0 * math.pi * h * h
    return 1.0 / area if area > 0.0 else math.inf


def _require_bandwidth(value, name: str) -> float:
    """value as a kde2d bandwidth: a positive finite float whose peak density
    (kde_peak) is finite too; anything else raises a ValueError naming the
    argument."""
    h = require_float(value, name, above=0.0)
    if math.isinf(kde_peak(h)):
        raise ValueError(f"{name} {h} is too small: the peak density 1/(2*pi*h**2) overflows")
    return h


# Kernel cells (grid locations x points) per block of kde2d, so the block's
# temporaries hold about a million floats each however large the grid is.
_KDE_BLOCK_CELLS = 1 << 20


def kde2d(points, grid, h: float = 0.5) -> np.ndarray:
    """Gaussian-kernel density of 2-d points evaluated at the grid locations,
    with bandwidth h on both axes.

    density(g) = 1/(n*h*h) * sum_i exp(-0.5*(u^2 + v^2)) / (2*pi) with
    u = (g_x - x_i)/h, v = (g_y - y_i)/h. A bandwidth so small that the
    peak density (kde_peak) overflows is rejected.
    """
    pts = require_array(points, "points", ("n", 2))
    g = require_array(grid, "grid", ("m", 2))
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    for name, array in (("points", pts), ("grid", g)):
        if not np.isfinite(array).all():
            raise ValueError(f"{name} must be finite numbers")
    h = _require_bandwidth(h, "h")
    sums = np.empty(g.shape[0])
    block = max(1, _KDE_BLOCK_CELLS // pts.shape[0])
    # u^2 + v^2 past the float range is an infinite distance: a zero kernel.
    with np.errstate(over="ignore"):
        for lo in range(0, g.shape[0], block):
            u = (g[lo : lo + block, None, 0] - pts[None, :, 0]) / h
            v = (g[lo : lo + block, None, 1] - pts[None, :, 1]) / h
            kern = np.exp(-0.5 * (u * u + v * v)) / (2.0 * np.pi)
            sums[lo : lo + block] = kern.sum(axis=1)
    return sums / (pts.shape[0] * h * h)


def degradation_report(stat: ImageAttentionStat) -> list[tuple[float, float]]:
    """(relative position, mean image attention) per generated token.

    Relative position is t/L with 1-based t over the L generated tokens, so
    the last generated token sits at 1.0.
    """
    _require_type(stat, ImageAttentionStat, "stat")
    att = stat.att_avg[stat.generated]
    n = att.size
    if n < 1:
        raise ValueError("need at least one generated token")
    return [((t + 1) / n, float(att[t])) for t in range(n)]


TRACE_HEADER = ["step", "layer", "head", "att_image"]


def trace_image_attention(stat: ImageAttentionStat) -> list[tuple[int, int, int, float]]:
    """The rows of trace.csv: (step, layer, head, att_image) per cell, row-major."""
    values = _require_type(stat, ImageAttentionStat, "stat").values
    n_steps, n_layers, n_heads = values.shape
    return [
        (s, li, h, float(values[s, li, h]))
        for s in range(n_steps)
        for li in range(n_layers)
        for h in range(n_heads)
    ]


def _cell(entry) -> str:
    """A trace row's cell, or the end of the file for None."""
    return "the end of the file" if entry is None else "step %d, layer %d, head %d" % entry[:3]


def read_trace_csv(path) -> np.ndarray:
    """trace.csv back into an (n_steps, n_layers, n_heads) array. Row r (1 is
    the first under the header) must hold the r-th cell, in row-major order,
    of the shape that the file's largest indices give."""
    reader = csv.reader(_read_text(path, "path"))
    try:
        header = next(reader, None)
        rows = reader if header == TRACE_HEADER else ()  # unread under another header
        entries = [(int(s), int(li), int(h), float(a)) for s, li, h, a in rows]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: malformed trace ({exc})") from None
    if header != TRACE_HEADER:
        raise ValueError(f"{path}: not a trace file (header {header})")
    if not entries:
        raise ValueError(f"{path}: empty trace")
    if min(min(e[:3]) for e in entries) < 0:
        raise ValueError(f"{path}: negative step, layer or head index")
    n_steps, n_layers, n_heads = shape = tuple(max(e[i] for e in entries) + 1 for i in range(3))
    # Lazy, so an index as large as 10**12 fails here before anything is sized by it.
    cells = ((s, li, h) for s in range(n_steps) for li in range(n_layers) for h in range(n_heads))
    for row, (entry, cell) in enumerate(itertools.zip_longest(entries, cells), start=1):
        if entry is None or entry[:3] != cell:
            raise ValueError(f"{path}: row {row} should be {_cell(cell)}, found {_cell(entry)}")
        if not math.isfinite(entry[3]):
            raise ValueError(f"{path}: non-finite att_image {entry[3]!r} at {_cell(entry)}")
    return np.array([e[3] for e in entries]).reshape(shape)


def synthetic_uniform_trace(
    l_image: int, l_others: int, l_gen: int, n_layers: int = 1, n_heads: int = 1
) -> LayeredKvCache:
    """A cache, with no key/value rows, of l_image image, l_others prompt and
    l_gen generated positions whose every query attended uniformly over the
    cached positions. Its measured image attention sums l_image rounded
    shares 1/n, so it matches the uniform-mix prediction to within rounding
    (5.2e-16 relative at most for l_image up to 29), not bit for bit."""
    l_image, l_others = require_int(l_image, "l_image", 0), require_int(l_others, "l_others", 0)
    n = l_image + l_others + require_int(l_gen, "l_gen", 0)
    cache = LayeredKvCache(n_layers, n_heads, 0, n, l_image)
    for step in range(n):
        cache.record(np.full((*cache.image_att.shape[:2], step + 1), 1.0 / (step + 1)))
    return cache
