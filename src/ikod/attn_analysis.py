"""Image-attention statistics, the uniform-mix prediction, and 2-d Gaussian KDE."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LayeredKvCache
from .numerics import _require_type, require_array, require_float, require_int

__all__ = [
    "ImageAttentionStat",
    "SegmentSummary",
    "degradation_report",
    "kde2d",
    "kde_peak",
    "segment_averages",
    "synthetic_uniform_trace",
    "trace_image_attention",
    "uniform_attention_prediction",
]


@dataclass
class ImageAttentionStat:
    """Per recorded step, per layer, per head: attention mass on image tokens."""

    values: np.ndarray  # (n_steps, n_layers, n_heads)
    generated: np.ndarray  # (n_steps,) True where the step's query is a generated token

    def __post_init__(self):
        values = _require_type(self.values, np.ndarray, "values")
        generated = _require_type(self.generated, np.ndarray, "generated")
        if values.ndim != 3 or generated.shape != values.shape[:1] or generated.dtype != bool:
            raise ValueError(
                "values must be an (n_steps, n_layers, n_heads) array and generated its "
                f"(n_steps,) booleans, got shapes {values.shape} and {generated.shape}"
            )

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
        values = cache.image_att[:, :, :n].transpose(2, 0, 1).copy()
        return cls(values=values, generated=np.arange(n) >= n - n_generated)

    @property
    def att_avg(self) -> np.ndarray:
        """Per-step mean over all layer/head cells."""
        return self.values.mean(axis=(1, 2))


@dataclass(frozen=True)
class SegmentSummary:
    att_first: float
    att_last: float
    segment_len: int


def segment_averages(stat: ImageAttentionStat, layer: int, head: int) -> SegmentSummary:
    """Mean image attention over the first and last 20% of generated steps.

    The window is floor(0.2 * L) steps, so at least five generated tokens are
    required for it to be non-empty.
    """
    _require_type(stat, ImageAttentionStat, "stat")
    layer, head = require_int(layer, "layer"), require_int(head, "head")
    for name, index, size in zip(("layer", "head"), (layer, head), stat.values.shape[1:]):
        if not 0 <= index < size:
            raise ValueError(f"{name} must lie in [0, {size - 1}], got {index}")
    series = stat.values[stat.generated, layer, head]
    n = series.size
    if n < 5:
        raise ValueError(f"segments undefined for {n} generated tokens (need >= 5)")
    w = n // 5  # floor(0.2 * n)
    return SegmentSummary(
        att_first=float(series[:w].mean()),
        att_last=float(series[-w:].mean()),
        segment_len=w,
    )


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
    h = require_float(value, name)
    if h <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {h}")
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


def trace_image_attention(
    cache: LayeredKvCache, n_generated: int
) -> list[tuple[int, int, int, float]]:
    """Flat (step, layer, head, att_image) rows for every recorded position."""
    stat = ImageAttentionStat.from_trace(cache, n_generated)
    n_steps, n_layers, n_heads = stat.values.shape
    return [
        (s, li, h, float(stat.values[s, li, h]))
        for s in range(n_steps)
        for li in range(n_layers)
        for h in range(n_heads)
    ]


def synthetic_uniform_trace(
    l_image: int, l_others: int, l_gen: int, n_layers: int = 1, n_heads: int = 1
) -> LayeredKvCache:
    """A cache, with no key/value rows, of l_image image, l_others prompt and
    l_gen generated positions whose every query attended uniformly over the
    cached positions; its measured image attention matches the uniform-mix
    prediction exactly."""
    l_image, l_others = require_int(l_image, "l_image", 0), require_int(l_others, "l_others", 0)
    n = l_image + l_others + require_int(l_gen, "l_gen", 0)
    cache = LayeredKvCache(n_layers, n_heads, 0, n, l_image)
    for step in range(n):
        cache.record(np.full((*cache.image_att.shape[:2], step + 1), 1.0 / (step + 1)))
    return cache
