"""Attention-guided cache compression.

Per layer: score text tokens by their head-averaged image attention, pick
anchors, partition the mergeable text range into one bucket per anchor at the
midpoints between neighbouring anchors (each position joins its closest
anchor, ties going left), and average each bucket's key and value rows. Image
rows and the last two text rows (the query token and its predecessor) pass
through untouched.

Indices inside plans are text-sequence indices: 0 is the first non-image
token. With text length T the mergeable range is 0..T-3 and positions T-2 and
T-1 are protected. A plan is its anchors and T, and its bucket bounds are
derived from them. The compressed cache is derived from the live cache and
never feeds back into it; a generation keeps one and updates it each step,
rebuilding only the buckets whose bounds changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import CapacityError, LayeredKvCache
from .numerics import Rng, _require_type, require_array, require_float, require_int
from .numerics import require_member

__all__ = [
    "AnchorStrategy",
    "CompressedCache",
    "MergePlan",
    "anchor_count",
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
    """Anchors of every layer, as a read-only int64 (n_layers, k) array whose
    rows ascend strictly within the mergeable range 0..T-3, checked when the
    plan is built. The bucket bounds follow from the anchors: layer li merges
    text rows starts[li, b]..ends[li, b] (inclusive, derived read-only arrays
    of the same shape) into bucket b, the rows nearest anchors[li, b]."""

    anchors: np.ndarray
    text_len: int
    starts: np.ndarray = field(init=False)
    ends: np.ndarray = field(init=False)

    def __post_init__(self):
        text_len = require_int(self.text_len, "text_len")
        anchors, starts, ends = _anchor_buckets(self.anchors, text_len)
        for name, value in zip(
            ("text_len", "anchors", "starts", "ends"), (text_len, anchors, starts, ends)
        ):
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        """This plan in the merge_plans/ format, less its policy's anchor_ratio
        and strategy, which the plan does not store and its writer adds."""
        return {
            "text_len": self.text_len,
            "layers": [
                {
                    "layer": li,
                    "anchors": anchors,
                    "buckets": [[lo, hi] for lo, hi in zip(starts, ends)],
                    "protected": [self.text_len - 2, self.text_len - 1],
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
    plan: MergePlan
    source: LayeredKvCache = field(repr=False)
    superseded: bool = False

    @property
    def length(self) -> int:
        return self.keys.shape[2]


def layer_scores(cache: LayeredKvCache, upcoming: bool = False) -> np.ndarray:
    """Per layer and text token, the mean over heads of the image attention
    the cache recorded for the token, summed in head order. upcoming adds a
    NaN column for the position about to be written: a plan over that text
    length reads only its mergeable range 0..T-3, which the cache holds."""
    _require_type(cache, LayeredKvCache, "cache")
    T = cache.length - cache.l_image
    if T < 1:
        raise ValueError("cache holds no text tokens")
    n_layers, n_heads, _ = cache.image_att.shape
    text = cache.image_att[:, :, cache.l_image : cache.length]
    # numpy adds whole text rows head after head, but sums a lone column
    # along the heads, pairwise from eight on; accumulating keeps head order.
    sums = np.add.reduce(text, axis=1) if T > 1 else np.add.accumulate(text, axis=1)[:, -1]
    scores = np.empty((n_layers, T + upcoming))
    scores[:, :T] = sums / n_heads
    scores[:, T:] = np.nan
    return scores


def _require_anchor_ratio(value) -> float:
    """value as a float in (0, 1]; anything else is a ValueError naming it."""
    return require_float(value, "anchor_ratio", most=1.0, above=0.0)


def anchor_count(text_len: int, anchor_ratio: float) -> int:
    """Anchors kept per layer: floor(ratio * (T - 2)), at least 1."""
    anchor_ratio, text_len = _require_anchor_ratio(anchor_ratio), require_int(text_len, "text_len")
    if text_len < 3:
        raise ValueError(f"text sequence of {text_len} tokens is too short to merge")
    return max(1, math.floor(anchor_ratio * (text_len - 2)))


def _anchor_buckets(anchors, text_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """anchors as a read-only int64 (n_layers, k) copy, and the read-only
    inclusive bucket bounds (starts, ends) of its rows, split at the floored
    midpoints between neighbouring anchors. Raises ValueError unless there is
    a layer and an anchor and every row ascends strictly within 0..T-3."""
    hi_max = text_len - 3
    if hi_max < 0:
        raise ValueError(f"text sequence of {text_len} tokens has no mergeable range")
    given = require_array(anchors, "anchors", ("n_layers", "k"), dtype=None)
    if given.size == 0:
        raise ValueError("need at least one layer and at least one anchor")
    if given.dtype.kind not in "iu":
        raise ValueError(f"anchors must be integers, got {given.dtype}")
    anchors = given.astype(np.int64)
    if (anchors[:, 1:] <= anchors[:, :-1]).any():
        raise ValueError("anchors must be strictly ascending")
    if anchors[:, 0].min() < 0 or anchors[:, -1].max() > hi_max:
        raise ValueError(f"anchors must lie within 0..{hi_max}")
    mid = (anchors[:, :-1] + anchors[:, 1:]) // 2
    n = anchors.shape[0]
    starts = np.concatenate((np.zeros((n, 1), dtype=np.int64), mid + 1), axis=1)
    ends = np.concatenate((mid, np.full((n, 1), hi_max, dtype=np.int64)), axis=1)
    for array in (anchors, starts, ends):
        array.flags.writeable = False
    return anchors, starts, ends


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
    scores = require_array(scores, "scores", ("n_layers", "text_len"))
    strategy = require_member(AnchorStrategy, strategy, "strategy")
    T = scores.shape[1]
    k = anchor_count(T, anchor_ratio)
    domain = T - 2
    if strategy is AnchorStrategy.RANDOM:
        if rng is None:
            raise ValueError("random anchor selection needs an rng")
        _require_type(rng, Rng, "rng")
        # The scalar Fisher-Yates loop's n_layers * k draws as one block: draw
        # i of a layer swaps pool slot i with slot i + next_u64() % (domain - i).
        n_layers = scores.shape[0]
        draws = rng.next_u64_block(n_layers * k).reshape(n_layers, k)
        offsets = np.arange(k)
        swaps = (draws % (domain - offsets).astype(np.uint64)).astype(np.int64) + offsets
        chosen = np.empty((n_layers, k), dtype=np.int64)
        for li, row in enumerate(swaps.tolist()):
            pool = list(range(domain))
            for i, j in enumerate(row):
                pool[i], pool[j] = pool[j], pool[i]
            chosen[li] = pool[:k]
    else:
        # One stable sort over all layers ranks score ties by index, lowest first.
        key = scores[:, :domain]
        if strategy is AnchorStrategy.HIGH_ATTENTION:
            key = -key
        chosen = np.argsort(key, axis=1, kind="stable")[:, :k]
    return MergePlan(np.sort(chosen, axis=1), T)


def merge_cache(
    cache: LayeredKvCache,
    plan: MergePlan,
    previous: CompressedCache | None = None,
    upcoming: bool = False,
) -> CompressedCache:
    """The compressed cache: image rows verbatim, each bucket's rows averaged
    into one, the two protected rows verbatim.

    upcoming merges for the position about to be written: the plan's text
    length is one more than the cache's, and the last protected row is left
    for the step that writes the position to fill (forward_step's merged).

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
    _require_type(plan, MergePlan, "plan")
    _require_type(cache, LayeredKvCache, "cache")
    start = cache.l_image
    T = plan.text_len
    if start + T != cache.length + upcoming:
        raise ValueError(
            f"plan text length {T} != cache text length {cache.length - start}"
            + " + 1" * upcoming
        )
    n_layers, n_heads, capacity, d_head = cache.keys.shape
    if start + T > capacity:
        raise CapacityError(f"cache is full at {cache.length} of {capacity} positions")
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
    keys[:, :, start + k : n - upcoming] = cache.keys[:, :, start + T - 2 : cache.length]
    values[:, :, start + k : n - upcoming] = cache.values[:, :, start + T - 2 : cache.length]
    return CompressedCache(keys[:, :, :n], values[:, :, :n], plan, cache)
