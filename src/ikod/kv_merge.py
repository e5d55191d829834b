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
from functools import cached_property

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

    @cached_property
    def bucket_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_layers, k) bucket starts and ends, checked to tile the mergeable
        range 0..T-3 in order, with the same bucket count k in every layer.

        Built on first use, so a malformed hand-built plan fails where it is
        merged; build_merge_plan seeds it with the arrays it computed.
        """
        counts = [len(lp.buckets) for lp in self.layers]
        for li, count in enumerate(counts):
            if count == 0:
                raise ValueError(f"merge plan layer {li} has no buckets")
            if count != counts[0]:
                raise ValueError(
                    f"merge plan layer {li} has {count} buckets, layer 0 has {counts[0]}"
                )
        bounds = np.array([lp.buckets for lp in self.layers], dtype=np.int64)
        return _checked_bounds(bounds[..., 0], bounds[..., 1], self.text_len)


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


def _anchor_rows(
    scores: np.ndarray,
    anchor_ratio: float,
    strategy: AnchorStrategy,
    rng: Rng | None,
) -> np.ndarray:
    """(n_layers, k) anchors, ascending in each row; see select_anchors."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be (n_layers, text_len)")
    strategy = AnchorStrategy(strategy)
    T = scores.shape[1]
    k = anchor_count(T, anchor_ratio)
    domain = T - 2
    if strategy is AnchorStrategy.RANDOM:
        if rng is None:
            raise ValueError("random anchor selection needs an rng")
        chosen = np.empty((scores.shape[0], k), dtype=np.int64)
        for li in range(scores.shape[0]):
            pool = list(range(domain))
            for i in range(k):
                j = i + rng.next_below(domain - i)
                pool[i], pool[j] = pool[j], pool[i]
            chosen[li] = pool[:k]
    else:
        # One stable sort over all layers ranks score ties by index, lowest first.
        key = scores[:, :domain]
        if strategy is AnchorStrategy.HIGH_ATTENTION:
            key = -key
        chosen = np.argsort(key, axis=1, kind="stable")[:, :k]
    return np.sort(chosen, axis=1)


def select_anchors(
    scores: np.ndarray,
    anchor_ratio: float,
    strategy: AnchorStrategy = AnchorStrategy.LOW_ATTENTION,
    rng: Rng | None = None,
) -> list[list[int]]:
    """Per-layer sorted anchor indices drawn from the mergeable range 0..T-3.

    LOW_ATTENTION keeps the lowest-scoring tokens, HIGH_ATTENTION the highest;
    score ties break toward the lower index. RANDOM draws without replacement
    from the supplied generator, layer by layer.
    """
    return _anchor_rows(scores, anchor_ratio, strategy, rng).tolist()


def _bucket_arrays(anchors: np.ndarray, text_len: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) inclusive bucket bounds for each row of ascending anchors,
    split at the floored midpoints between neighbouring anchors."""
    mid = (anchors[:, :-1] + anchors[:, 1:]) // 2
    n = anchors.shape[0]
    lo = np.concatenate((np.zeros((n, 1), dtype=np.int64), mid + 1), axis=1)
    hi = np.concatenate((mid, np.full((n, 1), text_len - 3, dtype=np.int64)), axis=1)
    return lo, hi


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
    lo, hi = _bucket_arrays(np.array([ts], dtype=np.int64), text_len)
    return list(zip(lo[0].tolist(), hi[0].tolist()))


def build_merge_plan(
    scores: np.ndarray,
    anchor_ratio: float,
    strategy: AnchorStrategy = AnchorStrategy.LOW_ATTENTION,
    rng: Rng | None = None,
) -> MergePlan:
    """Anchors and buckets of every layer, computed in one pass over all layers."""
    anchors = _anchor_rows(scores, anchor_ratio, strategy, rng)
    T = np.shape(scores)[1]
    lo, hi = _bucket_arrays(anchors, T)
    # tuple(list(...)) sizes each tuple once: tuple(zip(...)) grows it step by
    # step, and over a long decode that fragments the small-object heap.
    layers = tuple(
        LayerPlan(anchors=tuple(a), buckets=tuple(list(zip(starts, ends))))
        for a, starts, ends in zip(anchors.tolist(), lo.tolist(), hi.tolist())
    )
    plan = MergePlan(
        layers=layers,
        text_len=T,
        protected=(T - 2, T - 1),
        anchor_ratio=float(anchor_ratio),
        strategy=AnchorStrategy(strategy),
    )
    # The bounds already exist as arrays: check them once and seed the cache.
    vars(plan)["bucket_bounds"] = _checked_bounds(lo, hi, T)
    return plan


def _checked_bounds(
    lo: np.ndarray, hi: np.ndarray, text_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), read-only, once they are checked to tile the mergeable range
    0..T-3 in order in every layer."""
    top = text_len - 3
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
    lo.flags.writeable = hi.flags.writeable = False
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
    rows are bit-identical to it. Gathers and scatters index the caches and
    the block as flat (rows, d_head) arrays, with one index array each.
    """
    start = layout.l_image
    T = plan.text_len
    if layout.text_len != T:
        raise ValueError(f"plan text length {T} != layout text length {layout.text_len}")
    if start + T != cache.length:
        raise ValueError(
            f"cache holds {cache.length} positions, layout describes {start + T}"
        )
    n_layers, n_heads, capacity, d_head = cache.keys.shape
    if len(plan.layers) != n_layers:
        raise ValueError("plan layer count does not match the cache")
    lo, hi = plan.bucket_bounds
    k = lo.shape[1]
    # Flat row indices: lane (layer * n_heads + head), then the cache row
    # lane * capacity + position and the block row lane * k + bucket.
    key_rows = cache.keys.reshape(-1, d_head)
    value_rows = cache.values.reshape(-1, d_head)
    lanes = np.arange(n_layers * n_heads).reshape(n_layers, n_heads)
    bucket_first = lanes[..., None] * capacity + start + lo[:, None, :]  # (n_layers, n_heads, k)
    bucket_keys = key_rows[bucket_first]  # (n_layers, n_heads, k, d_head)
    bucket_values = value_rows[bucket_first]
    merged_keys = bucket_keys.reshape(-1, d_head)  # views of the blocks
    merged_values = bucket_values.reshape(-1, d_head)

    # (layer, bucket) pairs sorted by bucket length, cut into equal-length runs.
    sizes = (hi - lo + 1).ravel()
    order = np.argsort(sizes, kind="stable")
    sizes = sizes[order]
    layer, bucket = np.divmod(order, k)
    lane = lanes[layer]  # (pairs, n_heads)
    pair_first = lane * capacity + start + lo.ravel()[order][:, None]
    slot = lane * k + bucket[:, None]
    cuts = (np.flatnonzero(np.diff(sizes)) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, sizes.size]):
        m = int(sizes[a])
        if m == 1:
            continue
        rows = pair_first[a:b, :, None] + np.arange(m)
        # What .mean(axis=2) computes, without its Python wrapper.
        merged_keys[slot[a:b]] = np.add.reduce(key_rows[rows], axis=2) / m
        merged_values[slot[a:b]] = np.add.reduce(value_rows[rows], axis=2) / m

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
