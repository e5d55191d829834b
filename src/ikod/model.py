"""Deterministic toy multimodal decoder with incremental KV-cached evaluation.

The decoder is a plain residual transformer: per layer, multi-head causal
self-attention followed by a ReLU feed-forward block, each wrapped in a
residual connection and with no layer normalization. Sinusoidal absolute
positions are added to the input embeddings, so positional information is
baked into keys before any downstream cache surgery.

All weights are drawn from one SplitMix64 stream in a documented order
(uniform in [-s, +s] with s = 1/sqrt(d_model)), so a model is byte-exact
reproducible from its (config, seed) and nothing saves or loads weights.
Each matrix is one block draw (Rng.next_uniform_block with scale s),
bit-identical to filling it row-major with (2 * Rng.next_uniform() - 1) * s.
The draw runs in cache-sized windows and writes each matrix's one array
directly, with no full-size temporaries.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum

import numpy as np

from .numerics import _NOT_FINITE, Rng, _cache_aligned_empty, _require_type, require_array
from .numerics import _softmax_causal_block, require_int, require_seed, softmax_rows

__all__ = [
    "CapacityError",
    "FullOutput",
    "LayeredKvCache",
    "ModelConfig",
    "StepOutput",
    "TinyDecoder",
    "json_fields",
    "make_image_embeddings",
    "read_config",
    "sinusoidal_positions",
]


class CapacityError(RuntimeError):
    """The sequence no longer fits in the cache."""


def read_config(cls, value, name: str):
    """The dataclass cls built from the JSON object value found under the key
    name ("" for a file's top level); fields typed as dataclasses are read the
    same way from nested objects. A non-object, unknown or missing keys and
    each field's error raise a ValueError naming the key, as in
    policy.base.k."""
    where, prefix = name or "config", f"{name}." if name else ""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    declared = {f.name: f for f in fields(cls)}
    unknown = set(value) - set(declared)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    missing = [
        key for key, f in declared.items()
        if key not in value and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"missing {where} keys: {missing}")
    types = typing.get_type_hints(cls)
    given = {
        key: read_config(types[key], v, prefix + key) if is_dataclass(types[key]) else v
        for key, v in value.items()
    }
    try:
        return cls(**given)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


def json_fields(obj) -> dict:
    """The dataclass obj as a JSON object, the inverse of read_config: fields
    in declaration order, None left out, enums by value, nested dataclasses
    as objects."""
    if not is_dataclass(obj) or isinstance(obj, type):
        raise ValueError(f"obj must be a dataclass instance, got {obj!r}")
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = json_fields(value)
        elif isinstance(value, Enum):
            value = value.value
        if value is not None:
            out[f.name] = value
    return out


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    vocab_size: int
    max_seq: int
    seed: int = 0

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "d_ff", "vocab_size", "max_seq"):
            least = 2 if name == "vocab_size" else 1
            object.__setattr__(self, name, require_int(getattr(self, name), name, least))
        object.__setattr__(self, "seed", require_seed(self.seed, "seed"))
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_json_dict(self) -> dict:
        return json_fields(self)


@dataclass(frozen=True)
class LayerWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_ff1: np.ndarray
    w_ff2: np.ndarray


@dataclass
class StepOutput:
    """One incremental step: next-token logits plus this query's attention row
    per layer and head over every cached position (itself included)."""

    logits: np.ndarray
    attention_rows: np.ndarray  # (n_layers, n_heads, cache_length)
    merged: tuple | None = None  # the merged query's (logits, rows), when run alongside


@dataclass
class FullOutput:
    logits: np.ndarray  # (n, vocab_size)
    attention: np.ndarray  # (n_layers, n_heads, n, n), zero above the diagonal


class LayeredKvCache:
    """Per position, its key/value rows in every layer and head, and
    image_att[:, :, n], the (n_layers, n_heads) mass row n puts on the l_image
    image positions, gathered by index when the position is recorded.
    ImageAttentionStat reports it and layer_scores averages it over heads.
    It is stored layer-major, so the text positions of one (layer, head) are
    contiguous. Positions are recorded continuously from empty, so step index
    and position coincide.
    """

    def __init__(self, n_layers: int, n_heads: int, d_head: int, capacity: int, l_image: int):
        n_layers, n_heads = require_int(n_layers, "n_layers", 1), require_int(n_heads, "n_heads", 1)
        d_head, capacity = require_int(d_head, "d_head", 0), require_int(capacity, "capacity", 0)
        l_image = require_int(l_image, "l_image", 0)
        if l_image > capacity:
            raise ValueError(f"l_image must be at most capacity {capacity}, got {l_image}")
        self.keys = np.zeros((n_layers, n_heads, capacity, d_head))
        self.values = np.zeros((n_layers, n_heads, capacity, d_head))
        self.l_image = l_image
        self.image_att = np.empty((n_layers, n_heads, capacity))
        self.length = 0
        self._image_cols = np.arange(l_image)

    def record(self, rows: np.ndarray) -> None:
        """Take the image attention of the (n_layers, n_heads, length + 1)
        attention rows of position length, whose key/value rows are written,
        and advance length past it."""
        n = self.length
        if n >= self.image_att.shape[2]:
            raise CapacityError(f"cache is full at {n} of {self.image_att.shape[2]} positions")
        rows = require_array(rows, "rows", (*self.image_att.shape[:2], n + 1))
        # An index gather lays the columns out as a boolean-mask gather does,
        # and sums them in its order.
        self.image_att[:, :, n] = np.add.reduce(rows[..., self._image_cols[: n + 1]], axis=-1)
        self.length = n + 1

    def position(self, pos: int) -> tuple:
        """Views of what forward_step writes for position pos."""
        return self.keys[:, :, pos], self.values[:, :, pos], self.image_att[:, :, pos]


def sinusoidal_positions(length: int, width: int) -> np.ndarray:
    length, width = require_int(length, "length", 0), require_int(width, "width", 0)
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(width)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / width)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


# Prompt positions per prefill attention block. A block scores its positions
# against every column up to its last one, so a larger block computes more of
# the masked upper triangle, and a smaller one pays numpy's per-call cost more
# often. Its temporaries are about 2 * _PREFILL_BLOCK / (n_layers * length)
# of the attention rows the prefill keeps for the whole prompt.
_PREFILL_BLOCK = 24


# Bytes of a weight matrix _row_times runs every row through at a time. A
# larger matrix does not stay in a core's L2 cache while the rows stream it,
# so it is split into column blocks of at most this size; 512 KiB measured
# fastest at cold_start's shape (d_model 256, d_ff 1024).
_ROW_TIMES_BYTES = 512 * 1024


def _column_blocks(rows: int, cols: int) -> list[tuple[int, int]]:
    """The (start, end) column ranges _row_times splits a larger rows x cols
    matrix into: a width of a multiple of 16 columns that fits
    _ROW_TIMES_BYTES, at least 16, with the remainder joined to the last
    block, so no block is narrower than the width (or than cols)."""
    width = max(16, _ROW_TIMES_BYTES // (8 * rows) // 16 * 16)
    edges = [*range(0, max(cols // width, 1) * width, width), cols]
    return list(zip(edges[:-1], edges[1:]))


def _row_times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row of x times w, every row bit-identical to x[i] @ w: numpy runs
    the stacked (n, 1, d) product as one matrix-vector product per row. A 2-D
    x @ w runs one matrix-matrix product, which sums in another order.

    A matrix larger than _ROW_TIMES_BYTES runs one column block at a time
    (_column_blocks), every row through a block before the next, so the block
    stays cached while the rows read it. Each block is first copied into a
    cache-line-aligned buffer: for 80 rows of a (256, 1024) matrix, strided
    256-column views took 4.9 ms against 4.8 ms for the whole matrix, and
    copied blocks 1.8 ms. Each column keeps the bits of x[i] @ w because no
    block is narrower than the width: with a separate narrow last block, the
    final 1-3 columns changed bits in 73 of 400 random shapes at width 16,
    each with cols % 8 != 0.
    """
    if w.nbytes <= _ROW_TIMES_BYTES:
        return np.matmul(x[:, None, :], w)[:, 0]
    rows, cols = w.shape
    blocks = _column_blocks(rows, cols)
    buffer = _cache_aligned_empty(rows * (cols - blocks[-1][0]))
    out = np.empty((len(x), cols))
    for start, end in blocks:
        block = buffer[: rows * (end - start)].reshape(rows, end - start)
        np.copyto(block, w[:, start:end])
        out[:, start:end] = np.matmul(x[:, None, :], block)[:, 0]
    return out


def _mix(att: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The (n_heads, length) attention rows att mixing the (n_heads, length,
    d_head) values, as one row of n_heads * d_head."""
    return np.einsum("ht,htd->hd", att, values).reshape(-1)


def _uniform_matrix(rng: Rng, rows: int, cols: int, scale: float) -> np.ndarray:
    return rng.next_uniform_block(rows * cols, scale).reshape(rows, cols)


def make_image_embeddings(count: int, d_model: int, seed: int) -> np.ndarray:
    """Deterministic stand-in embeddings for the image block.

    Entries are drawn row-major from one stream, so a longer request shares
    its prefix with a shorter one under the same seed. count may be 0 for
    text-only runs.
    """
    count, d_model = require_int(count, "count", 0), require_int(d_model, "d_model", 1)
    return _uniform_matrix(Rng(seed), count, d_model, 1.0 / math.sqrt(d_model))


class TinyDecoder:
    """Decoder-only toy transformer over a mixed image/text sequence.

    Weight draw order: token embedding table, then per layer w_q, w_k, w_v,
    w_o, w_ff1, w_ff2, then the unembedding matrix; each matrix is filled
    row-major.
    """

    def __init__(self, config: ModelConfig):
        self.config = _require_type(config, ModelConfig, "config")
        rng, s = Rng(config.seed), 1.0 / math.sqrt(config.d_model)
        d, f = config.d_model, config.d_ff
        shapes = [(d, d), (d, d), (d, d), (d, d), (d, f), (f, d)]  # LayerWeights order
        self.embedding = _uniform_matrix(rng, config.vocab_size, d, s)
        self.layers = tuple(
            LayerWeights(*[_uniform_matrix(rng, rows, cols, s) for rows, cols in shapes])
            for _ in range(config.n_layers)
        )
        self.unembedding = _uniform_matrix(rng, d, config.vocab_size, s)
        self.positions = sinusoidal_positions(config.max_seq, config.d_model)

    def new_cache(self, l_image: int) -> LayeredKvCache:
        cfg = self.config
        return LayeredKvCache(cfg.n_layers, cfg.n_heads, cfg.d_head, cfg.max_seq, l_image)

    def content_embedding(self, inp) -> np.ndarray:
        """Map a token id or a raw d_model vector to the content embedding."""
        if isinstance(inp, (int, np.integer)):
            token = require_int(inp, "token")
            if not 0 <= token < self.config.vocab_size:
                raise ValueError(f"token {token} outside vocabulary of {self.config.vocab_size}")
            return self.embedding[token]
        return require_array(inp, "inp", (self.config.d_model,))

    def open_position(self, cache: LayeredKvCache) -> int:
        """The position forward_step fills next; CapacityError when the cache is full."""
        cfg, shape = self.config, _require_type(cache, LayeredKvCache, "cache").keys.shape
        sizes = (cfg.n_layers, cfg.n_heads, shape[2], cfg.d_head)
        if shape != sizes:  # shapes only: every step runs this
            raise ValueError(f"cache must be of the model's shape {sizes}, got {shape}")
        pos, capacity = cache.length, min(cfg.max_seq, shape[2])
        if pos >= capacity:
            raise CapacityError(f"cache is full at {pos} of {capacity} positions")
        return pos

    def forward_step(self, cache: LayeredKvCache, inp, merged=None) -> StepOutput:
        """Append one position to the cache, recording its attention rows, and
        return logits plus the query's rows over every cached position.

        merged, when given, is the (keys, values) pair of a merged view of the
        cache, (n_layers, n_heads, length, d_head) arrays whose last row is
        reserved for this position. The step writes the position's key/value
        rows there as well, and runs the same query over that view in the
        same layer loop; the output's merged holds its (logits, rows), as
        forward_query would return them.
        """
        pos = self.open_position(cache)
        x = self.content_embedding(inp) + self.positions[pos]
        views = [(cache.keys[:, :, : pos + 1], cache.values[:, :, : pos + 1])]
        if merged is not None:
            try:
                keys, values = merged
            except (TypeError, ValueError):
                raise ValueError(f"merged must be a (keys, values) pair, got {merged!r}") from None
            self._check_view(keys, values)
            views.append(merged)
        logits, rows = self._layers([x] * len(views), views, step=True)
        cache.record(rows[0])
        return StepOutput(logits[0], rows[0], None if merged is None else (logits[1], rows[1]))

    def forward_prompt(self, cache: LayeredKvCache, inputs) -> np.ndarray:
        """Run inputs (token ids or d_model vectors) into the empty cache one
        layer at a time, record every position's attention rows in order, and
        return the logits after the last position.

        Byte-identical to one forward_step per input: each projection and
        feed-forward row is computed as forward_step computes it (_row_times),
        a matrix larger than _ROW_TIMES_BYTES one column block at a time for
        every row, so each block is read from memory once per layer.
        Attention runs a block of positions at a time: each score is the dot
        _attend takes, the softmax is _softmax_causal_block, and each row mixes
        its values through _mix, as _attend does.
        """
        cfg = self.config
        if _require_type(cache, LayeredKvCache, "cache").length != 0:
            raise ValueError(f"cache must be empty, holds {cache.length} positions")
        if len(_require_type(inputs, list, "inputs")) < 1:
            raise ValueError("need at least one position")
        self.open_position(cache)  # the cache has the model's sizes
        capacity = min(cfg.max_seq, cache.keys.shape[2])
        x = np.array([self.content_embedding(inp) for inp in inputs[:capacity]])
        n = len(x)
        if len(inputs) > n:
            raise CapacityError(f"cache is full at {n} of {capacity} positions")
        x = x + self.positions[:n]
        # Each block of positions keeps its attention rows in one array,
        # (positions, n_layers, n_heads, columns up to its last position).
        blocks = []
        for start in range(0, n, _PREFILL_BLOCK):
            end = min(start + _PREFILL_BLOCK, n)
            blocks.append((start, np.empty((end - start, cfg.n_layers, cfg.n_heads, end))))
        heads = (n, cfg.n_heads, cfg.d_head)
        scale = 1.0 / math.sqrt(cfg.d_head)
        for li, lw in enumerate(self.layers):
            q = _row_times(x, lw.w_q).reshape(heads)
            keys, values = cache.keys[li], cache.values[li]
            keys[:, :n] = _row_times(x, lw.w_k).reshape(heads).transpose(1, 0, 2)
            values[:, :n] = _row_times(x, lw.w_v).reshape(heads).transpose(1, 0, 2)
            mixed = np.empty((n, cfg.d_model))
            for start, att in blocks:
                end = att.shape[-1]
                scores = np.einsum("phd,htd->pht", q[start:end], keys[:, :end]) * scale
                _softmax_causal_block(scores, start, att[:, li])
                for p in range(start, end):
                    mixed[p] = _mix(att[p - start, li, :, : p + 1], values[:, : p + 1])
            x = x + _row_times(mixed, lw.w_o)
            x = x + _row_times(np.maximum(_row_times(x, lw.w_ff1), 0.0), lw.w_ff2)
        for start, att in blocks:
            for i, position_rows in enumerate(att):
                cache.record(position_rows[..., : start + i + 1])
        return x[-1] @ self.unembedding

    def _attend(self, qh, keys, values):
        """The (n_heads, length) attention rows of the per-head query qh over
        keys, and the values they mix, as one d_model row."""
        cfg = self.config
        att = softmax_rows(np.einsum("hd,htd->ht", qh, keys) * (1.0 / math.sqrt(cfg.d_head)))
        return att, _mix(att, values)

    def _layers(self, xs, views, step: bool = False):
        """Run the query rows xs through every layer, each weight matrix
        applied to every row in turn while it is hot. Each row keeps the
        expressions of a run on its own, so it has the same bits. Row i
        attends over views[i] = (keys, values), whose [layer] is the
        (n_heads, length, d_head) rows ending at its own position. A step
        first writes that last row of every view in each layer, projected from
        row 0: the rows share their input and position, row 0 runs over the
        cache, and the views are arrays. Returns each row's logits and
        (n_layers, n_heads, length) attention rows."""
        cfg = self.config
        heads = (cfg.n_heads, cfg.d_head)
        xs, paths = list(xs), range(len(xs))
        q, mixed, hidden = [None] * len(xs), [None] * len(xs), [None] * len(xs)
        rows = [np.empty((cfg.n_layers, cfg.n_heads, keys[0].shape[1])) for keys, _ in views]
        for li, lw in enumerate(self.layers):
            if step:
                k, v = (xs[0] @ lw.w_k).reshape(heads), (xs[0] @ lw.w_v).reshape(heads)
                for keys, values in views:
                    keys[li, :, -1], values[li, :, -1] = k, v
            for i in paths:
                q[i] = (xs[i] @ lw.w_q).reshape(heads)
            for i in paths:
                keys, values = views[i]
                rows[i][li], mixed[i] = self._attend(q[i], keys[li], values[li])
            for i in paths:
                xs[i] = xs[i] + mixed[i] @ lw.w_o
            for i in paths:
                hidden[i] = np.maximum(xs[i] @ lw.w_ff1, 0.0)
            for i in paths:
                xs[i] = xs[i] + hidden[i] @ lw.w_ff2
        return [x @ self.unembedding for x in xs], rows

    def _check_view(self, keys, values) -> None:
        """Raise a ValueError unless keys and values are (n_layers, n_heads,
        length >= 1, d_head) arrays of one shape. Shapes only: every fused
        step and replayed query runs this, so it reads no row."""
        cfg = self.config
        shape, other = getattr(keys, "shape", ()), getattr(values, "shape", ())
        if len(shape) != 4 or shape != other or shape[2] < 1 or (
            (shape[0], shape[1], shape[3]) != (cfg.n_layers, cfg.n_heads, cfg.d_head)
        ):
            raise ValueError(
                f"keys and values must be ({cfg.n_layers}, {cfg.n_heads}, length, {cfg.d_head}) "
                f"arrays of one shape, got shapes {shape} and {other}"
            )

    def forward_query(self, keys, values, position: int, inp):
        """Evaluate one query against externally supplied per-layer key/value
        rows, without touching any cache.

        The supplied rows must already include the query's own position (it is
        one of the protected rows in a merged cache). Returns (logits, rows)
        where rows is the (n_layers, n_heads, length) attention rows.
        """
        cfg = self.config
        self._check_view(keys, values)
        position = require_int(position, "position")
        if not 0 <= position < cfg.max_seq:
            raise CapacityError(f"position {position} outside capacity {cfg.max_seq}")
        x = self.content_embedding(inp) + self.positions[position]
        logits, rows = self._layers([x], [(keys, values)])
        return logits[0], rows[0]

    def forward_full(self, embeddings) -> FullOutput:
        """Causal batch evaluation of a whole prefix; the oracle for the
        incremental path."""
        cfg = self.config
        e = require_array(embeddings, "embeddings", ("n", cfg.d_model))
        if not np.isfinite(e).all():  # forward_step's softmax raises on them
            raise ValueError(_NOT_FINITE)
        n = e.shape[0]
        if n < 1:
            raise ValueError("need at least one position")
        if n > cfg.max_seq:
            raise CapacityError(f"length {n} exceeds max_seq {cfg.max_seq}")
        x = e + self.positions[:n]
        att = np.zeros((cfg.n_layers, cfg.n_heads, n, n))
        causal = np.tril(np.ones((n, n), dtype=bool))
        scale = 1.0 / math.sqrt(cfg.d_head)
        for li, lw in enumerate(self.layers):
            q = (x @ lw.w_q).reshape(n, cfg.n_heads, cfg.d_head).transpose(1, 0, 2)
            k = (x @ lw.w_k).reshape(n, cfg.n_heads, cfg.d_head).transpose(1, 0, 2)
            v = (x @ lw.w_v).reshape(n, cfg.n_heads, cfg.d_head).transpose(1, 0, 2)
            scores = np.einsum("hqd,hkd->hqk", q, k) * scale
            if not (np.isfinite(scores) | ~causal).all():  # the masked entries are never read
                raise ValueError(_NOT_FINITE)
            scores = np.where(causal, scores, -np.inf)
            w = np.exp(scores - scores.max(axis=-1, keepdims=True))
            att_li = w / w.sum(axis=-1, keepdims=True)
            att[li] = att_li
            z = np.einsum("hqk,hkd->qhd", att_li, v).reshape(n, cfg.d_model)
            x = x + z @ lw.w_o
            x = x + np.maximum(x @ lw.w_ff1, 0.0) @ lw.w_ff2
        return FullOutput(logits=x @ self.unembedding, attention=att)

