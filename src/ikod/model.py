"""Deterministic toy multimodal decoder with incremental KV-cached evaluation.

The decoder is a plain residual transformer: per layer, multi-head causal
self-attention followed by a ReLU feed-forward block, each wrapped in a
residual connection and with no layer normalization. Sinusoidal absolute
positions are added to the input embeddings, so positional information is
baked into keys before any downstream cache surgery.

All weights are drawn from one SplitMix64 stream in a documented order
(uniform in [-s, +s] with s = 1/sqrt(d_model)), which makes models byte-exact
reproducible from (config, seed) and gives the checkpoint format a fixed
layout. Each matrix is one block draw (Rng.next_uniform_block), bit-identical
to filling it row-major with scalar Rng.next_uniform calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .numerics import Matrix, Rng, softmax_rows

__all__ = [
    "AttentionTrace",
    "CapacityError",
    "ConfigError",
    "FullOutput",
    "LayeredKvCache",
    "ModelConfig",
    "Role",
    "SequenceLayout",
    "StepOutput",
    "TinyDecoder",
    "TraceError",
    "load_checkpoint",
    "make_image_embeddings",
    "require_int",
    "save_checkpoint",
    "sinusoidal_positions",
]


class CapacityError(RuntimeError):
    """The sequence no longer fits in the cache."""


class ConfigError(ValueError):
    """Model configuration violates an invariant."""


class TraceError(ValueError):
    """An attention trace is missing required rows."""


def require_int(value, name: str) -> int:
    """value as an int when it is a whole number; booleans, fractions,
    non-finite numbers and non-numbers raise a ConfigError naming the field."""
    try:
        whole = not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


class Role(IntEnum):
    """Per-position token role. Codes are ordered so a valid layout is sorted."""

    IMAGE = 0
    OTHER = 1
    GENERATED = 2


@dataclass(frozen=True)
class SequenceLayout:
    """Role labels per position: image block, then instruction text, then
    generated text. The text segment (OTHER + GENERATED) is contiguous."""

    roles: np.ndarray

    def __post_init__(self):
        roles = np.asarray(self.roles, dtype=np.int8)
        if roles.ndim != 1:
            raise ValueError("roles must be a flat sequence")
        codes = roles.tolist()
        if sorted(codes) != codes:
            raise ValueError(
                "layout must be an image block, then other text, then generated text"
            )
        object.__setattr__(self, "roles", roles)

    @classmethod
    def from_counts(cls, l_image: int, l_others: int, l_gen: int = 0) -> "SequenceLayout":
        if min(l_image, l_others, l_gen) < 0:
            raise ValueError("counts must be non-negative")
        roles = np.concatenate(
            [
                np.full(l_image, Role.IMAGE, dtype=np.int8),
                np.full(l_others, Role.OTHER, dtype=np.int8),
                np.full(l_gen, Role.GENERATED, dtype=np.int8),
            ]
        )
        return cls(roles)

    def __len__(self) -> int:
        return int(self.roles.size)

    @property
    def l_image(self) -> int:
        return int(np.count_nonzero(self.roles == Role.IMAGE))

    @property
    def l_others(self) -> int:
        return int(np.count_nonzero(self.roles == Role.OTHER))

    @property
    def l_gen(self) -> int:
        return int(np.count_nonzero(self.roles == Role.GENERATED))

    @property
    def image_mask(self) -> np.ndarray:
        return self.roles == Role.IMAGE

    @property
    def text_len(self) -> int:
        """Instruction plus generated tokens (everything after the image block)."""
        return len(self) - self.l_image


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    vocab_size: int
    max_seq: int
    seed: int = 0
    d_head: int = 0  # 0 means "derive as d_model // n_heads"

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "d_ff", "vocab_size", "max_seq", "seed", "d_head"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        for name in ("n_layers", "n_heads", "d_model", "d_ff", "max_seq"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be at least 2")
        if self.d_head == 0:
            if self.d_model % self.n_heads:
                raise ConfigError(
                    f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}"
                )
            object.__setattr__(self, "d_head", self.d_model // self.n_heads)
        if self.d_head * self.n_heads != self.d_model:
            raise ConfigError(
                f"d_head {self.d_head} x n_heads {self.n_heads} != d_model {self.d_model}"
            )

    def to_json_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "d_model": self.d_model,
            "d_ff": self.d_ff,
            "vocab_size": self.vocab_size,
            "max_seq": self.max_seq,
            "seed": self.seed,
            "d_head": self.d_head,
        }


@dataclass(frozen=True)
class LayerWeights:
    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    w_o: Matrix
    w_ff1: Matrix
    w_ff2: Matrix


@dataclass
class StepOutput:
    """One incremental step: next-token logits plus this query's attention row
    per layer and head over every cached position (itself included)."""

    logits: np.ndarray
    attention_rows: np.ndarray  # (n_layers, n_heads, cache_length)


@dataclass
class FullOutput:
    logits: np.ndarray  # (n, vocab_size)
    attention: np.ndarray  # (n_layers, n_heads, n, n), zero above the diagonal


class LayeredKvCache:
    """Per-layer, per-head key/value rows sharing one length counter."""

    def __init__(self, n_layers: int, n_heads: int, d_head: int, max_seq: int):
        self.keys = np.zeros((n_layers, n_heads, max_seq, d_head))
        self.values = np.zeros((n_layers, n_heads, max_seq, d_head))
        self.length = 0

    @property
    def capacity(self) -> int:
        return self.keys.shape[2]

    def layer_keys(self, layer: int) -> np.ndarray:
        return self.keys[layer, :, : self.length]

    def layer_values(self, layer: int) -> np.ndarray:
        return self.values[layer, :, : self.length]

    def clone(self) -> "LayeredKvCache":
        out = LayeredKvCache(*self.keys.shape[:2], self.keys.shape[3], self.capacity)
        out.keys[...] = self.keys
        out.values[...] = self.values
        out.length = self.length
        return out


class AttentionTrace:
    """Attention rows recorded while each position was the query.

    Rows must be recorded continuously from an empty cache, so step index and
    cache position coincide. Recorded rows are never modified.
    """

    def __init__(self, n_layers: int, n_heads: int):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.rows: list[np.ndarray] = []
        # Image-mass ledger: column t holds row l_image + t's head-mean mass
        # on the first l_image positions; the first `_ledger_len` are filled.
        self._ledger_image = -1
        self._ledger = np.empty((n_layers, 0))
        self._ledger_len = 0

    def record(self, out: StepOutput) -> None:
        rows = out.attention_rows
        expected = (self.n_layers, self.n_heads, len(self.rows) + 1)
        if rows.shape != expected:
            raise TraceError(f"expected rows of shape {expected}, got {rows.shape}")
        self.rows.append(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def rows_for(self, position: int) -> np.ndarray:
        if not 0 <= position < len(self.rows):
            raise TraceError(f"no recorded row for position {position}")
        return self.rows[position]

    def image_mass(self, l_image: int, stop: int) -> np.ndarray:
        """(n_layers, stop - l_image) head-mean attention mass on positions
        0..l_image-1, for the rows of positions l_image..stop-1.

        Each row is summed once, the first time it is asked for, and kept in a
        ledger; asking with a different l_image rebuilds the ledger.
        """
        if not 0 <= l_image <= stop <= len(self.rows):
            raise TraceError(
                f"no image mass for rows {l_image}..{stop - 1} of a {len(self.rows)}-row trace"
            )
        if l_image != self._ledger_image:
            self._ledger_image, self._ledger_len = l_image, 0
        n = stop - l_image
        if n > self._ledger.shape[1]:
            grown = np.empty((self.n_layers, max(n, 2 * self._ledger.shape[1])))
            grown[:, : self._ledger_len] = self._ledger[:, : self._ledger_len]
            self._ledger = grown
        for t in range(self._ledger_len, n):
            rows = self.rows[l_image + t]  # (n_layers, n_heads, l_image + t + 1)
            self._ledger[:, t] = rows[..., :l_image].sum(axis=-1).mean(axis=-1)
        self._ledger_len = max(self._ledger_len, n)
        return self._ledger[:, :n].copy()


def sinusoidal_positions(length: int, width: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(width)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / width)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def _uniform_matrix(rng: Rng, rows: int, cols: int, scale: float) -> Matrix:
    flat = rng.next_uniform_block(rows * cols)
    return ((2.0 * flat - 1.0) * scale).reshape(rows, cols)


def make_image_embeddings(count: int, d_model: int, seed: int) -> np.ndarray:
    """Deterministic stand-in embeddings for the image block.

    Entries are drawn row-major from one stream, so a longer request shares
    its prefix with a shorter one under the same seed. count may be 0 for
    text-only runs.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if d_model < 1:
        raise ValueError("d_model must be at least 1")
    if count == 0:
        return np.zeros((0, d_model))
    return _uniform_matrix(Rng(seed), count, d_model, 1.0 / math.sqrt(d_model))


class TinyDecoder:
    """Decoder-only toy transformer over a mixed image/text sequence.

    Weight draw (and checkpoint) order: token embedding table, then per layer
    w_q, w_k, w_v, w_o, w_ff1, w_ff2, then the unembedding matrix; each matrix
    is filled row-major.
    """

    def __init__(self, config: ModelConfig, weights=None):
        self.config = config
        if weights is None:
            weights = self._draw_weights(config)
        self.embedding, self.layers, self.unembedding = weights
        self.positions = sinusoidal_positions(config.max_seq, config.d_model)

    @staticmethod
    def _draw_weights(cfg: ModelConfig):
        rng = Rng(cfg.seed)
        s = 1.0 / math.sqrt(cfg.d_model)
        embedding = _uniform_matrix(rng, cfg.vocab_size, cfg.d_model, s)
        layers = []
        for _ in range(cfg.n_layers):
            layers.append(
                LayerWeights(
                    w_q=_uniform_matrix(rng, cfg.d_model, cfg.d_model, s),
                    w_k=_uniform_matrix(rng, cfg.d_model, cfg.d_model, s),
                    w_v=_uniform_matrix(rng, cfg.d_model, cfg.d_model, s),
                    w_o=_uniform_matrix(rng, cfg.d_model, cfg.d_model, s),
                    w_ff1=_uniform_matrix(rng, cfg.d_model, cfg.d_ff, s),
                    w_ff2=_uniform_matrix(rng, cfg.d_ff, cfg.d_model, s),
                )
            )
        unembedding = _uniform_matrix(rng, cfg.d_model, cfg.vocab_size, s)
        return embedding, tuple(layers), unembedding

    def new_cache(self) -> LayeredKvCache:
        cfg = self.config
        return LayeredKvCache(cfg.n_layers, cfg.n_heads, cfg.d_head, cfg.max_seq)

    def content_embedding(self, inp) -> np.ndarray:
        """Map a token id or a raw d_model vector to the content embedding."""
        if isinstance(inp, (int, np.integer)):
            token = int(inp)
            if not 0 <= token < self.config.vocab_size:
                raise ValueError(f"token {token} outside vocabulary of {self.config.vocab_size}")
            return self.embedding[token]
        vec = np.asarray(inp, dtype=np.float64)
        if vec.shape != (self.config.d_model,):
            raise ValueError(f"embedding must have shape ({self.config.d_model},), got {vec.shape}")
        return vec

    def forward_step(self, cache: LayeredKvCache, inp) -> StepOutput:
        """Append one position to the cache and return logits plus the query's
        attention rows over every cached position."""
        cfg = self.config
        pos = cache.length
        if pos >= cfg.max_seq:
            raise CapacityError(f"cache is full at {pos} of {cfg.max_seq} positions")
        x = self.content_embedding(inp) + self.positions[pos]
        rows = np.empty((cfg.n_layers, cfg.n_heads, pos + 1))
        scale = 1.0 / math.sqrt(cfg.d_head)
        for li, lw in enumerate(self.layers):
            qh = (x @ lw.w_q).reshape(cfg.n_heads, cfg.d_head)
            cache.keys[li, :, pos] = (x @ lw.w_k).reshape(cfg.n_heads, cfg.d_head)
            cache.values[li, :, pos] = (x @ lw.w_v).reshape(cfg.n_heads, cfg.d_head)
            # Contiguous copies keep the arithmetic identical to a read-only
            # pass over a derived cache of the same values.
            keys = np.ascontiguousarray(cache.keys[li, :, : pos + 1])
            vals = np.ascontiguousarray(cache.values[li, :, : pos + 1])
            att = softmax_rows(np.einsum("hd,htd->ht", qh, keys) * scale)
            rows[li] = att
            x = x + np.einsum("ht,htd->hd", att, vals).reshape(cfg.d_model) @ lw.w_o
            x = x + np.maximum(x @ lw.w_ff1, 0.0) @ lw.w_ff2
        cache.length = pos + 1
        return StepOutput(logits=x @ self.unembedding, attention_rows=rows)

    def forward_query(self, keys, values, position: int, inp):
        """Evaluate one query against externally supplied per-layer key/value
        rows, without touching any cache.

        The supplied rows must already include the query's own position (it is
        one of the protected rows in a merged cache). Returns (logits, rows)
        where rows is a per-layer list of (n_heads, length) attention rows.
        """
        cfg = self.config
        if len(keys) != cfg.n_layers or len(values) != cfg.n_layers:
            raise ValueError("need key/value rows for every layer")
        if not 0 <= position < cfg.max_seq:
            raise CapacityError(f"position {position} outside capacity {cfg.max_seq}")
        x = self.content_embedding(inp) + self.positions[position]
        rows = []
        scale = 1.0 / math.sqrt(cfg.d_head)
        for li, lw in enumerate(self.layers):
            qh = (x @ lw.w_q).reshape(cfg.n_heads, cfg.d_head)
            att = softmax_rows(np.einsum("hd,htd->ht", qh, keys[li]) * scale)
            rows.append(att)
            x = x + np.einsum("ht,htd->hd", att, values[li]).reshape(cfg.d_model) @ lw.w_o
            x = x + np.maximum(x @ lw.w_ff1, 0.0) @ lw.w_ff2
        return x @ self.unembedding, rows

    def forward_full(self, embeddings) -> FullOutput:
        """Causal batch evaluation of a whole prefix; the oracle for the
        incremental path."""
        cfg = self.config
        e = np.asarray(embeddings, dtype=np.float64)
        if e.ndim != 2 or e.shape[1] != cfg.d_model:
            raise ValueError(f"embeddings must have shape (n, {cfg.d_model})")
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
            scores = np.where(causal, scores, -np.inf)
            w = np.exp(scores - scores.max(axis=-1, keepdims=True))
            att_li = w / w.sum(axis=-1, keepdims=True)
            att[li] = att_li
            z = np.einsum("hqk,hkd->qhd", att_li, v).reshape(n, cfg.d_model)
            x = x + z @ lw.w_o
            x = x + np.maximum(x @ lw.w_ff1, 0.0) @ lw.w_ff2
        return FullOutput(logits=x @ self.unembedding, attention=att)


_CHECKPOINT_FORMAT = "toy-decoder-v1"


def _weight_arrays(model: TinyDecoder):
    yield model.embedding
    for lw in model.layers:
        yield from (lw.w_q, lw.w_k, lw.w_v, lw.w_o, lw.w_ff1, lw.w_ff2)
    yield model.unembedding


def save_checkpoint(model: TinyDecoder, path) -> None:
    """JSON config line followed by raw little-endian float64 weight data in
    draw order; round trips byte-exactly."""
    header = {"format": _CHECKPOINT_FORMAT, "config": model.config.to_json_dict()}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for arr in _weight_arrays(model):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> TinyDecoder:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ConfigError(f"{path}: checkpoint has no header line")
    try:
        header = json.loads(raw[:nl].decode("ascii"))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: checkpoint header is not ASCII") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: checkpoint header is not JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ConfigError(f"{path}: checkpoint header is not a JSON object")
    if header.get("format") != _CHECKPOINT_FORMAT:
        raise ConfigError(f"unrecognized checkpoint format: {header.get('format')!r}")
    config = header.get("config")
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: checkpoint header has no config object")
    try:
        cfg = ModelConfig(**config)
    except TypeError as exc:
        raise ConfigError(f"{path}: bad checkpoint config ({exc})") from None
    body = np.frombuffer(raw[nl + 1 :], dtype="<f8")
    shapes = [(cfg.vocab_size, cfg.d_model)]
    for _ in range(cfg.n_layers):
        shapes += [
            (cfg.d_model, cfg.d_model),
            (cfg.d_model, cfg.d_model),
            (cfg.d_model, cfg.d_model),
            (cfg.d_model, cfg.d_model),
            (cfg.d_model, cfg.d_ff),
            (cfg.d_ff, cfg.d_model),
        ]
    shapes.append((cfg.d_model, cfg.vocab_size))
    expected = sum(r * c for r, c in shapes)
    if body.size != expected:
        raise ConfigError(f"checkpoint holds {body.size} values, expected {expected}")
    arrays = []
    offset = 0
    for r, c in shapes:
        arrays.append(body[offset : offset + r * c].reshape(r, c).copy())
        offset += r * c
    embedding = arrays[0]
    layers = tuple(
        LayerWeights(*arrays[1 + 6 * i : 7 + 6 * i]) for i in range(cfg.n_layers)
    )
    return TinyDecoder(cfg, weights=(embedding, layers, arrays[-1]))
