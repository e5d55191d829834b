"""Attention-guided cache compression.

Per layer: score text tokens by their head-averaged image attention, pick
anchors, partition the mergeable text range into one bucket per anchor at the
midpoints between neighbouring anchors (each position joins its closest
anchor, ties going left), and average each bucket's key and value rows. Image
rows and the last two text rows (the query token and its predecessor) pass
through untouched.

Indices inside plans are text-sequence indices: 0 is the first non-image
token. With text length T the mergeable range is 0..T-3 and positions T-2 and
T-1 are protected. The compressed cache is a derived view, rebuilt from the
live cache at every step, and never feeds back into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import AttentionTrace, LayeredKvCache, SequenceLayout, TraceError
from .numerics import Rng

__all__ = [
    "AnchorStrategy",
    "CompressedCache",
    "LayerPlan",
    "MergePlan",
    "anchor_count",
    "build_buckets",
    "build_merge_plan",
    "layer_scores",
    "merge_cache",
    "select_anchors",
]


class AnchorStrategy(str, Enum):
    LOW_ATTENTION = "low_attention"
    HIGH_ATTENTION = "high_attention"
    RANDOM = "random"


@dataclass(frozen=True)
class LayerPlan:
    anchors: tuple[int, ...]
    buckets: tuple[tuple[int, int], ...]  # inclusive (start, end) ranges


@dataclass(frozen=True)
class MergePlan:
    layers: tuple[LayerPlan, ...]
    text_len: int
    protected: tuple[int, int]
    anchor_ratio: float
    strategy: AnchorStrategy

    def to_json_dict(self) -> dict:
        return {
            "anchor_ratio": self.anchor_ratio,
            "strategy": self.strategy.value,
            "text_len": self.text_len,
            "layers": [
                {
                    "layer": li,
                    "anchors": list(lp.anchors),
                    "buckets": [[lo, hi] for lo, hi in lp.buckets],
                    "protected": list(self.protected),
                }
                for li, lp in enumerate(self.layers)
            ],
        }


@dataclass
class CompressedCache:
    """Merged per-layer rows: image block, one averaged row per bucket, then
    the two protected text rows, in original positional order."""

    keys: list[np.ndarray]  # per layer (n_heads, length, d_head)
    values: list[np.ndarray]
    length: int
    image_len: int


def layer_scores(trace: AttentionTrace, layout: SequenceLayout) -> np.ndarray:
    """Per layer and text token, the head-mean of the token's image attention.

    Every text token (instruction and generated) must have a recorded row from
    the step where it was the query. Reads the trace's image-mass ledger, so
    repeated calls on a growing trace only sum the rows added since the last.
    """
    start = layout.l_image
    T = layout.text_len
    if T < 1:
        raise ValueError("layout has no text tokens")
    if len(trace) < start + T:
        raise TraceError(
            f"trace covers {len(trace)} positions, text sequence ends at {start + T}"
        )
    return trace.image_mass(start, start + T)


def anchor_count(text_len: int, anchor_ratio: float) -> int:
    """Anchors kept per layer: floor(ratio * (T - 2)), at least 1."""
    if text_len < 3:
        raise ValueError(f"text sequence of {text_len} tokens is too short to merge")
    if not 0.0 < anchor_ratio <= 1.0:
        raise ValueError("anchor_ratio must be in (0, 1]")
    return max(1, math.floor(anchor_ratio * (text_len - 2)))


def select_anchors(
    scores: np.ndarray,
    anchor_ratio: float,
    strategy: AnchorStrategy = AnchorStrategy.LOW_ATTENTION,
    rng: Rng | None = None,
) -> list[list[int]]:
    """Per-layer sorted anchor indices drawn from the mergeable range 0..T-3.

    LOW_ATTENTION keeps the lowest-scoring tokens, HIGH_ATTENTION the highest;
    score ties break toward the lower index. RANDOM draws without replacement
    from the supplied generator.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be (n_layers, text_len)")
    strategy = AnchorStrategy(strategy)
    T = scores.shape[1]
    k = anchor_count(T, anchor_ratio)
    domain = T - 2
    if strategy is AnchorStrategy.RANDOM and rng is None:
        raise ValueError("random anchor selection needs an rng")
    anchors: list[list[int]] = []
    for li in range(scores.shape[0]):
        s = scores[li, :domain]
        if strategy is AnchorStrategy.LOW_ATTENTION:
            order = np.lexsort((np.arange(domain), s))
            chosen = order[:k]
        elif strategy is AnchorStrategy.HIGH_ATTENTION:
            order = np.lexsort((np.arange(domain), -s))
            chosen = order[:k]
        else:
            pool = list(range(domain))
            for i in range(k):
                j = i + rng.next_below(domain - i)
                pool[i], pool[j] = pool[j], pool[i]
            chosen = pool[:k]
        anchors.append(sorted(int(i) for i in chosen))
    return anchors


def build_buckets(anchors, text_len: int) -> list[tuple[int, int]]:
    """Partition the mergeable range 0..T-3 into one inclusive bucket per
    anchor, split at the floored midpoints between neighbouring anchors.

    Equivalent to assigning every position to its nearest anchor with ties
    going to the left anchor. The first bucket absorbs everything before the
    first anchor and the last bucket everything after the last one.
    """
    hi_max = text_len - 3
    if hi_max < 0:
        raise ValueError(f"text sequence of {text_len} tokens has no mergeable range")
    ts = [int(a) for a in anchors]
    if not ts:
        raise ValueError("need at least one anchor")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("anchors must be strictly ascending")
    if ts[0] < 0 or ts[-1] > hi_max:
        raise ValueError(f"anchors must lie within 0..{hi_max}")
    k = len(ts)
    if k == 1:
        return [(0, hi_max)]
    buckets: list[tuple[int, int]] = []
    for i in range(k):
        lo = 0 if i == 0 else (ts[i - 1] + ts[i]) // 2 + 1
        hi = hi_max if i == k - 1 else (ts[i] + ts[i + 1]) // 2
        buckets.append((lo, hi))
    return buckets


def build_merge_plan(
    scores: np.ndarray,
    anchor_ratio: float,
    strategy: AnchorStrategy = AnchorStrategy.LOW_ATTENTION,
    rng: Rng | None = None,
) -> MergePlan:
    scores = np.asarray(scores, dtype=np.float64)
    T = scores.shape[1]
    per_layer = select_anchors(scores, anchor_ratio, strategy, rng)
    layers = tuple(
        LayerPlan(anchors=tuple(a), buckets=tuple(build_buckets(a, T))) for a in per_layer
    )
    return MergePlan(
        layers=layers,
        text_len=T,
        protected=(T - 2, T - 1),
        anchor_ratio=float(anchor_ratio),
        strategy=AnchorStrategy(strategy),
    )


def _bucket_bounds(plan: MergePlan) -> tuple[np.ndarray, np.ndarray]:
    """(n_layers, k) bucket starts and ends, checked to tile the mergeable
    range 0..T-3 in order, with the same bucket count k in every layer."""
    counts = [len(lp.buckets) for lp in plan.layers]
    for li, count in enumerate(counts):
        if count == 0:
            raise ValueError(f"merge plan layer {li} has no buckets")
        if count != counts[0]:
            raise ValueError(f"merge plan layer {li} has {count} buckets, layer 0 has {counts[0]}")
    bounds = np.array([lp.buckets for lp in plan.layers], dtype=np.int64)
    lo, hi = bounds[..., 0], bounds[..., 1]
    top = plan.text_len - 3
    checks = (
        ((hi < lo).any(axis=1), "has an empty bucket"),
        (
            (lo[:, 1:] != hi[:, :-1] + 1).any(axis=1),
            "has buckets that overlap, leave a gap or are out of order",
        ),
        ((lo[:, 0] != 0) | (hi[:, -1] != top), f"does not cover the mergeable range 0..{top}"),
    )
    for bad, problem in checks:
        if bad.any():
            raise ValueError(f"merge plan layer {int(np.argmax(bad))} {problem}")
    return lo, hi


def merge_cache(cache: LayeredKvCache, plan: MergePlan, layout: SequenceLayout) -> CompressedCache:
    """Build the compressed cache: image rows verbatim, each bucket's rows
    averaged into one, the two protected rows verbatim.

    The bucket rows of all layers are built together in one (n_layers,
    n_heads, k, d_head) block. One gather fills it with each bucket's first
    row, which is already final for singleton buckets. The other (layer,
    bucket) pairs are grouped by bucket length, with one gather and one mean
    per distinct length. A group is gathered as (pairs, n_heads, length,
    d_head), the layout of one bucket's rows in the cache, so each mean sums
    its rows in the same order as a per-bucket `.mean(axis=1)` and the merged
    rows are bit-identical to it.
    """
    start = layout.l_image
    T = plan.text_len
    if layout.text_len != T:
        raise ValueError(f"plan text length {T} != layout text length {layout.text_len}")
    if start + T != cache.length:
        raise ValueError(
            f"cache holds {cache.length} positions, layout describes {start + T}"
        )
    n_layers, n_heads = cache.keys.shape[:2]
    if len(plan.layers) != n_layers:
        raise ValueError("plan layer count does not match the cache")
    lo, hi = _bucket_bounds(plan)
    k = lo.shape[1]
    heads = np.arange(n_heads)[:, None]
    gather = (np.arange(n_layers)[:, None, None], heads, start + lo[:, None, :])
    bucket_keys = cache.keys[gather]  # (n_layers, n_heads, k, d_head)
    bucket_values = cache.values[gather]

    # (layer, bucket) pairs sorted by bucket length, cut into equal-length runs.
    sizes = (hi - lo + 1).ravel()
    order = np.argsort(sizes, kind="stable")
    sizes, first = sizes[order], start + lo.ravel()[order]
    layer, bucket = np.divmod(order, k)
    cuts = (np.flatnonzero(np.diff(sizes)) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, sizes.size]):
        m = int(sizes[a])
        if m == 1:
            continue
        gather = (layer[a:b, None, None], heads, first[a:b, None, None] + np.arange(m))
        scatter = (layer[a:b, None], heads[:, 0], bucket[a:b, None])
        bucket_keys[scatter] = cache.keys[gather].mean(axis=2)
        bucket_values[scatter] = cache.values[gather].mean(axis=2)

    # One array per layer: a stacked (L, H, n_hat, d) output raised peak memory.
    image, protected = slice(0, start), slice(start + T - 2, start + T)

    def per_layer(rows, merged):
        return [
            np.concatenate((rows[li, :, image], merged[li], rows[li, :, protected]), axis=1)
            for li in range(n_layers)
        ]

    return CompressedCache(
        keys=per_layer(cache.keys, bucket_keys),
        values=per_layer(cache.values, bucket_values),
        length=start + k + 2,
        image_len=start,
    )
