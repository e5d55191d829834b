"""Attention-guided cache compression.

Per layer: score text tokens by their head-averaged image attention, pick
anchors, partition the mergeable text range into one bucket per anchor at the
midpoints between neighbouring anchors (each position joins its closest
anchor, ties going left), and average each bucket's key and value rows. Image
rows and the last two text rows (the query token and its predecessor) pass
through untouched.

Indices inside plans are text-sequence indices: 0 is the first non-image
token. With text length T the mergeable range is 0..T-3 and positions T-2 and
T-1 are protected. The compressed cache is derived from the live cache and
never feeds back into it; a generation keeps one and updates it each step,
rebuilding only the buckets whose bounds changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import LayeredKvCache
from .numerics import Rng

__all__ = [
    "AnchorStrategy",
    "CompressedCache",
    "MergePlan",
    "anchor_count",
    "build_buckets",
    "build_merge_plan",
    "layer_scores",
    "merge_cache",
]


class AnchorStrategy(str, Enum):
    LOW_ATTENTION = "low_attention"
    HIGH_ATTENTION = "high_attention"
    RANDOM = "random"


@dataclass(frozen=True, eq=False)
class MergePlan:
    """Anchors and inclusive bucket bounds of every layer, as read-only int64
    (n_layers, k) arrays: layer li keeps anchors[li] and merges text rows
    starts[li, b]..ends[li, b] into bucket b. Checked when the plan is built
    to tile the mergeable range 0..T-3 in order in every layer."""

    anchors: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    text_len: int
    anchor_ratio: float
    strategy: AnchorStrategy

    def __post_init__(self):
        arrays = [np.array(a, dtype=np.int64) for a in (self.anchors, self.starts, self.ends)]
        shapes = [a.shape for a in arrays]
        if len(shapes[0]) != 2 or 0 in shapes[0] or shapes.count(shapes[0]) != 3:
            raise ValueError(
                f"merge plan needs anchors, starts and ends of one (n_layers, k) shape "
                f"with k >= 1, got {shapes}"
            )
        for name, array in zip(("anchors", "starts", "ends"), arrays):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        _checked_bounds(self.starts, self.ends, self.text_len)

    @property
    def protected(self) -> tuple[int, int]:
        return self.text_len - 2, self.text_len - 1

    def to_json_dict(self) -> dict:
        protected = list(self.protected)
        return {
            "anchor_ratio": self.anchor_ratio,
            "strategy": self.strategy.value,
            "text_len": self.text_len,
            "layers": [
                {
                    "layer": li,
                    "anchors": anchors,
                    "buckets": [[lo, hi] for lo, hi in zip(starts, ends)],
                    "protected": protected,
                }
                for li, (anchors, starts, ends) in enumerate(
                    zip(self.anchors.tolist(), self.starts.tolist(), self.ends.tolist())
                )
            ],
        }


@dataclass(eq=False)
class CompressedCache:
    """Merged rows of every layer: image block, one averaged row per bucket of
    plan, then the two protected text rows, in original positional order.

    keys and values are (n_layers, n_heads, length, d_head) views of two
    blocks with as many rows as the source cache, allocated by the first merge
    of a generation and updated in place by each merge given this one as
    previous. Such a merge marks this one superseded: its rows are no longer
    its own, and it cannot be given as previous again."""

    keys: np.ndarray
    values: np.ndarray
    length: int
    plan: MergePlan
    source: LayeredKvCache = field(repr=False)
    superseded: bool = False


def layer_scores(cache: LayeredKvCache) -> np.ndarray:
    """Per layer and text token, the head-mean of the token's image attention,
    which the cache took when it recorded the token."""
    T = cache.length - cache.l_image
    if T < 1:
        raise ValueError("cache holds no text tokens")
    return cache.text_scores[:, :T].copy()


def anchor_count(text_len: int, anchor_ratio: float) -> int:
    """Anchors kept per layer: floor(ratio * (T - 2)), at least 1."""
    if text_len < 3:
        raise ValueError(f"text sequence of {text_len} tokens is too short to merge")
    if not 0.0 < anchor_ratio <= 1.0:
        raise ValueError("anchor_ratio must be in (0, 1]")
    return max(1, math.floor(anchor_ratio * (text_len - 2)))


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
    """Anchors and buckets of every layer, computed in one pass over all layers.

    Each layer's anchors are drawn from the mergeable range 0..T-3 and kept
    sorted. LOW_ATTENTION keeps the lowest-scoring tokens, HIGH_ATTENTION the
    highest; score ties break toward the lower index. RANDOM draws without
    replacement from the supplied generator, layer by layer.
    """
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
    anchors = np.sort(chosen, axis=1)
    starts, ends = _bucket_arrays(anchors, T)
    return MergePlan(anchors, starts, ends, T, float(anchor_ratio), strategy)


def _checked_bounds(lo: np.ndarray, hi: np.ndarray, text_len: int) -> None:
    """Raise ValueError naming the first layer whose (lo, hi) bucket bounds do
    not tile the mergeable range 0..T-3 in order."""
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


def merge_cache(
    cache: LayeredKvCache, plan: MergePlan, previous: CompressedCache | None = None
) -> CompressedCache:
    """The compressed cache: image rows verbatim, each bucket's rows averaged
    into one, the two protected rows verbatim.

    previous, when given, is the merge this cache returned last; its blocks
    are reused, and it is superseded. Recorded rows never change, so a bucket
    whose (start, end) equals the previous plan's at the same slot keeps its
    row, and the image rows are copied only by the first merge. Every other
    bucket of every layer is built here: the (layer, bucket) pairs are grouped
    by bucket length, with one gather and one mean per distinct length (a
    singleton is a gather). A group is gathered as (pairs, n_heads, length, d_head), the
    layout of one bucket's rows in the cache, so each mean sums its rows in
    the same order as a per-bucket `.mean(axis=1)` and the merged rows are
    bit-identical to it. Gathers and scatters index the cache and the blocks
    as flat (rows, d_head) arrays, with one index array each.
    """
    start = cache.l_image
    T = plan.text_len
    if start + T != cache.length:
        raise ValueError(
            f"plan text length {T} != cache text length {cache.length - start}"
        )
    n_layers, n_heads, capacity, d_head = cache.keys.shape
    lo, hi = plan.starts, plan.ends
    if lo.shape[0] != n_layers:
        raise ValueError("plan layer count does not match the cache")
    k = lo.shape[1]
    build = np.ones((n_layers, k), dtype=bool)
    if previous is None:
        keys, values = np.empty(cache.keys.shape), np.empty(cache.values.shape)
        keys[:, :, :start] = cache.keys[:, :, :start]
        values[:, :, :start] = cache.values[:, :, :start]
    else:
        if previous.source is not cache:
            raise ValueError("previous merge was made from another cache")
        if previous.superseded:
            raise ValueError("previous merge was already superseded by a later one")
        previous.superseded = True
        keys, values = previous.keys.base, previous.values.base  # the blocks
        kept = min(k, previous.plan.starts.shape[1])
        build[:, :kept] = (lo[:, :kept] != previous.plan.starts[:, :kept]) | (
            hi[:, :kept] != previous.plan.ends[:, :kept]
        )
    # Flat row indices: lane (layer * n_heads + head), then the row
    # lane * capacity + position in the cache and in the blocks alike.
    key_rows, value_rows = cache.keys.reshape(-1, d_head), cache.values.reshape(-1, d_head)
    block_keys, block_values = keys.reshape(-1, d_head), values.reshape(-1, d_head)
    lanes = np.arange(n_layers * n_heads).reshape(n_layers, n_heads) * capacity + start

    # (layer, bucket) pairs to build, sorted by bucket length and cut into
    # equal-length runs.
    layer, bucket = np.nonzero(build)
    sizes = (hi - lo + 1)[layer, bucket]
    order = np.argsort(sizes, kind="stable")
    sizes, layer, bucket = sizes[order], layer[order], bucket[order]
    lane = lanes[layer]  # (pairs, n_heads)
    pair_first = lane + lo[layer, bucket][:, None]
    slot = lane + bucket[:, None]
    cuts = (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, sizes.size]):
        if a == b:  # no bucket to build
            break
        m = int(sizes[a])
        if m == 1:
            block_keys[slot[a:b]] = np.take(key_rows, pair_first[a:b], axis=0)
            block_values[slot[a:b]] = np.take(value_rows, pair_first[a:b], axis=0)
            continue
        rows = pair_first[a:b, :, None] + np.arange(m)
        # What .mean(axis=2) computes, without its Python wrapper.
        block_keys[slot[a:b]] = np.add.reduce(np.take(key_rows, rows, axis=0), axis=2) / m
        block_values[slot[a:b]] = np.add.reduce(np.take(value_rows, rows, axis=0), axis=2) / m

    n = start + k + 2
    keys[:, :, start + k : n] = cache.keys[:, :, start + T - 2 : start + T]
    values[:, :, start + k : n] = cache.values[:, :, start + T - 2 : start + T]
    return CompressedCache(keys[:, :, :n], values[:, :, :n], n, plan, cache)
