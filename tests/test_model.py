import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ikod.decode import BaseStrategy, DecodePolicy, Mode
from ikod.kv_merge import AnchorStrategy, layer_scores
from ikod.model import (
    CapacityError,
    ConfigError,
    LayeredKvCache,
    ModelConfig,
    TinyDecoder,
    TraceError,
    _column_blocks,
    _row_times,
    make_image_embeddings,
    read_config,
    require_float,
    require_int,
)
from ikod.numerics import Rng, _cache_aligned_empty


def small_config(**overrides) -> ModelConfig:
    base = dict(
        n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq=32, seed=3
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_config_derives_d_head():
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=8, vocab_size=4, max_seq=8)
    assert cfg.d_head == 4


def test_config_rejects_inconsistent_dims():
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=1, n_heads=3, d_model=8, d_ff=8, vocab_size=4, max_seq=8)
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=0, n_heads=2, d_model=8, d_ff=8, vocab_size=4, max_seq=8)
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=8, vocab_size=4, max_seq=0)
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=8, vocab_size=1, max_seq=8)


def test_same_config_gives_byte_identical_weights():
    a, b = TinyDecoder(small_config()), TinyDecoder(small_config())
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.unembedding, b.unembedding)
    for la, lb in zip(a.layers, b.layers):
        for name in ("w_q", "w_k", "w_v", "w_o", "w_ff1", "w_ff2"):
            assert np.array_equal(getattr(la, name), getattr(lb, name))


def test_first_embedding_entry_reproduces_the_stream():
    # d_model = 4 puts the embedding scale at 0.5, so the first table entry is
    # the first uniform draw mapped onto [-0.5, 0.5].
    cfg = ModelConfig(
        n_layers=1, n_heads=1, d_model=4, d_ff=4, vocab_size=4, max_seq=8, seed=42
    )
    model = TinyDecoder(cfg)
    expected = (2.0 * Rng(42).next_uniform() - 1.0) * 0.5
    assert model.embedding[0, 0] == expected
    assert -0.5 <= model.embedding[0, 0] <= 0.5


def _scalar_matrix(rng: Rng, rows: int, cols: int, scale: float) -> np.ndarray:
    """One matrix from scalar next_uniform() calls, row-major, mapped to [-s, s]."""
    flat = np.array([rng.next_uniform() for _ in range(rows * cols)], dtype=np.float64)
    return ((2.0 * flat - 1.0) * scale).reshape(rows, cols)


def test_every_weight_matrix_replays_the_scalar_stream():
    # Distinct d_model, d_ff and vocab sizes make a shape or order slip visible.
    # At d_model 130 each 130 x 130 matrix spans two windows of the block draw.
    for cfg in (
        small_config(d_ff=12, vocab_size=10, seed=17),
        small_config(n_layers=1, d_model=130, d_ff=12, vocab_size=10, seed=2**64 - 1),
    ):
        _assert_weights_replay_the_scalar_stream(cfg)


def _assert_weights_replay_the_scalar_stream(cfg: ModelConfig) -> None:
    model = TinyDecoder(cfg)
    rng, s = Rng(cfg.seed), 1.0 / math.sqrt(cfg.d_model)
    d, f = cfg.d_model, cfg.d_ff
    expected = [_scalar_matrix(rng, cfg.vocab_size, d, s)]
    for _ in range(cfg.n_layers):
        for rows, cols in [(d, d), (d, d), (d, d), (d, d), (d, f), (f, d)]:
            expected.append(_scalar_matrix(rng, rows, cols, s))
    expected.append(_scalar_matrix(rng, d, cfg.vocab_size, s))
    actual = [model.embedding]
    for lw in model.layers:
        actual += [lw.w_q, lw.w_k, lw.w_v, lw.w_o, lw.w_ff1, lw.w_ff2]
    actual.append(model.unembedding)
    assert len(actual) == len(expected) == 2 + 6 * cfg.n_layers
    for got, want in zip(actual, expected):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_decoder_takes_only_a_model_config():
    with pytest.raises(ValueError, match="^config must be a ModelConfig, got None$"):
        TinyDecoder(None)


def test_drawn_matrices_start_on_a_cache_line():
    model = TinyDecoder(small_config(d_model=130, d_ff=12, vocab_size=10))
    arrays = [make_image_embeddings(3, 130, seed=1), model.embedding, model.unembedding]
    arrays += [getattr(lw, f.name) for lw in model.layers for f in fields(lw)]
    for a in arrays:
        assert a.ctypes.data % 64 == 0 and a.flags.c_contiguous


def test_image_embeddings_replay_the_scalar_stream():
    got = make_image_embeddings(5, 8, seed=11)
    want = _scalar_matrix(Rng(11), 5, 8, 1.0 / math.sqrt(8))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_image_embeddings_deterministic_and_prefix_stable():
    a = make_image_embeddings(3, 8, seed=5)
    b = make_image_embeddings(3, 8, seed=5)
    longer = make_image_embeddings(5, 8, seed=5)
    assert a.shape == (3, 8)
    assert np.array_equal(a, b)
    assert np.array_equal(longer[:3], a)
    assert make_image_embeddings(0, 8, seed=5).shape == (0, 8)


def test_first_step_attention_is_a_point_mass():
    model = TinyDecoder(small_config())
    out = model.forward_step(model.new_cache(0), 1)
    assert out.attention_rows.shape == (2, 2, 1)
    assert np.all(out.attention_rows == 1.0)


def test_attention_rows_are_distributions():
    model = TinyDecoder(small_config())
    cache = model.new_cache(0)
    rng = np.random.default_rng(0)
    for tok in rng.integers(0, 16, size=10):
        out = model.forward_step(cache, int(tok))
        sums = out.attention_rows.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)
        assert np.all(out.attention_rows >= 0.0)


def test_cache_overflow_raises():
    model = TinyDecoder(small_config(max_seq=3))
    cache = model.new_cache(0)
    for _ in range(3):
        model.forward_step(cache, 0)
    with pytest.raises(CapacityError):
        model.forward_step(cache, 0)


def test_incremental_matches_full_recompute():
    rng = np.random.default_rng(7)
    for _ in range(5):
        model = TinyDecoder(small_config(seed=int(rng.integers(1 << 16))))
        n = int(rng.integers(2, 12))
        embeddings = rng.normal(size=(n, 8))
        full = model.forward_full(embeddings)
        cache = model.new_cache(0)
        for t in range(n):
            step = model.forward_step(cache, embeddings[t])
            np.testing.assert_allclose(step.logits, full.logits[t], atol=1e-5, rtol=0)
            np.testing.assert_allclose(
                step.attention_rows, full.attention[:, :, t, : t + 1], atol=1e-6, rtol=0
            )


def reference_step(model, cache, inp):
    """forward_step as it ran when every layer attended over contiguous
    copies of the cached rows: (logits, attention rows)."""
    cfg = model.config
    pos = cache.length
    x = model.content_embedding(inp) + model.positions[pos]
    rows = np.empty((cfg.n_layers, cfg.n_heads, pos + 1))
    for li, lw in enumerate(model.layers):
        cache.keys[li, :, pos] = (x @ lw.w_k).reshape(cfg.n_heads, cfg.d_head)
        cache.values[li, :, pos] = (x @ lw.w_v).reshape(cfg.n_heads, cfg.d_head)
        keys = np.ascontiguousarray(cache.keys[li, :, : pos + 1])
        vals = np.ascontiguousarray(cache.values[li, :, : pos + 1])
        q = (x @ lw.w_q).reshape(cfg.n_heads, cfg.d_head)
        rows[li], mixed = model._attend(q, keys, vals)
        x = x + mixed @ lw.w_o
        x = x + np.maximum(x @ lw.w_ff1, 0.0) @ lw.w_ff2
    cache.length = pos + 1
    return x @ model.unembedding, rows


@settings(max_examples=60, deadline=None)
@given(
    n_layers=st.integers(1, 3),
    n_heads=st.integers(1, 4),
    d_head=st.sampled_from([1, 2, 3, 4, 8, 16, 33]),
    d_ff=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    inputs=st.lists(st.integers(0, 7) | st.integers(100, 10**6), min_size=1, max_size=24),
)
def test_forward_step_over_cache_views_matches_contiguous_copies(
    n_layers, n_heads, d_head, d_ff, seed, inputs
):
    cfg = ModelConfig(
        n_layers=n_layers, n_heads=n_heads, d_model=n_heads * d_head, d_ff=d_ff,
        vocab_size=8, max_seq=32, seed=seed,
    )
    model = TinyDecoder(cfg)
    # Tokens below 8 are vocabulary ids; larger draws seed a raw embedding.
    feed = [
        i if i < 8 else np.random.default_rng(i).normal(size=cfg.d_model) for i in inputs
    ]
    ref_cache = model.new_cache(0)
    fresh = model.new_cache(0)
    sized = LayeredKvCache(n_layers, n_heads, d_head, len(feed), 0)  # a prompt-sized cache
    for inp in feed:
        logits, rows = reference_step(model, ref_cache, inp)
        for cache in (fresh, sized):
            out = model.forward_step(cache, inp)
            assert out.logits.tobytes() == logits.tobytes()
            assert out.attention_rows.shape == rows.shape
            assert out.attention_rows.tobytes() == rows.tobytes()
    for cache in (fresh, sized):
        n = cache.length
        assert cache.keys[:, :, :n].tobytes() == ref_cache.keys[:, :, :n].tobytes()
        assert cache.values[:, :, :n].tobytes() == ref_cache.values[:, :, :n].tobytes()
    with pytest.raises(CapacityError, match=f"cache is full at {len(feed)} of {len(feed)}"):
        model.forward_step(sized, 1)


@pytest.mark.parametrize(
    "n, d, cols",
    [(1, 1, 1), (3, 7, 5), (80, 256, 256), (80, 256, 1024), (80, 1024, 256), (144, 64, 256),
     (200, 400, 1200)],
)
def test_row_times_rows_equal_vector_products(n, d, cols):
    """Prefill's stacked product must give every row the bits of the vector
    product forward_step takes; a 2-D matrix product sums in another order.
    (80, 256, 1024) and (200, 400, 1200) exceed _ROW_TIMES_BYTES, so they run
    in column blocks."""
    rng = np.random.default_rng(n * d + cols)
    x, w = rng.uniform(-1, 1, size=(n, d)), rng.uniform(-1, 1, size=(d, cols))
    assert_rows_equal_vector_products(x, w)


def assert_rows_equal_vector_products(x, w) -> None:
    stacked = _row_times(x, w)
    assert stacked.shape == (len(x), w.shape[1])
    for i in range(len(x)):
        assert stacked[i].tobytes() == (x[i] @ w).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(1, 320),
    blocks=st.integers(0, 24),
    remainder=st.integers(0, 15),
    offset=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, d=125, blocks=16, remainder=3, offset=0, seed=0)  # a 3-column remainder
@example(n=2, d=300, blocks=0, remainder=5, offset=3, seed=1)  # one block narrower than 16
@example(n=3, d=64, blocks=4, remainder=1, offset=7, seed=2)
def test_row_times_in_16_column_blocks_keeps_every_row_bit(n, d, blocks, remainder, offset, seed):
    """With the budget at 0 every matrix runs in 16-column blocks, however
    many columns are left over and wherever the weights start relative to a
    cache line; each row keeps the bits of x[i] @ w."""
    cols = max(16 * blocks + remainder, 1)
    rng = np.random.default_rng(seed)
    w = _cache_aligned_empty(d * cols + offset)[offset:].reshape(d, cols)
    w[...] = rng.uniform(-1, 1, size=(d, cols))
    x = rng.uniform(-1, 1, size=(n, d))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ikod.model._ROW_TIMES_BYTES", 0)
        assert_rows_equal_vector_products(x, w)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 5000), cols=st.integers(1, 5000), budget=st.integers(0, 4 << 20))
@example(rows=256, cols=1024, budget=512 * 1024)  # cold_start's w_ff1: four 256-column blocks
@example(rows=1024, cols=256, budget=512 * 1024)  # w_ff2: four 64-column blocks
@example(rows=264, cols=264, budget=512 * 1024)  # 240 columns fit: one block of all 264
def test_column_blocks_are_never_narrower_than_the_width(rows, cols, budget):
    """The blocks tile the columns in order; every one but the last is the
    width, a multiple of 16 columns within the budget (16 if none fits), and
    the last takes the remainder, so none is narrower than the width, or than
    the whole matrix when that is narrower."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ikod.model._ROW_TIMES_BYTES", budget)
        blocks = _column_blocks(rows, cols)
    width = max(16, budget // (8 * rows) // 16 * 16)  # the widest multiple of 16 that fits
    assert [start for start, _ in blocks] == [0, *(end for _, end in blocks[:-1])]
    assert blocks[-1][1] == cols
    assert all(end - start == width for start, end in blocks[:-1])
    assert min(width, cols) <= blocks[-1][1] - blocks[-1][0] < 2 * width


def test_forward_prompt_needs_an_empty_cache_with_room():
    model = TinyDecoder(small_config(max_seq=4))
    cache = model.new_cache(0)
    model.forward_step(cache, 1)
    with pytest.raises(ValueError, match="cache must be empty, holds 1 positions"):
        model.forward_prompt(cache, [2])
    with pytest.raises(ValueError, match="at least one position"):
        model.forward_prompt(model.new_cache(0), [])
    with pytest.raises(CapacityError, match="cache is full at 4 of 4 positions"):
        model.forward_prompt(model.new_cache(0), [1, 2, 3, 4, 5])
    # A bad input inside the capacity is named first, as forward_step would.
    with pytest.raises(ValueError, match="token 99 outside vocabulary"):
        model.forward_prompt(model.new_cache(0), [1, 99, 3, 4, 5])


def test_forward_query_reads_its_position_as_an_integer():
    model = TinyDecoder(small_config())
    cache = model.new_cache(0)
    model.forward_step(cache, 1)
    keys, values = cache.keys[:, :, :1], cache.values[:, :, :1]
    with pytest.raises(ConfigError, match="^position must be an integer, got 2.5$"):
        model.forward_query(keys, values, 2.5, 1)


@pytest.mark.parametrize(
    "keys_shape, values_shape",
    [((2, 2, 3, 3), (2, 2, 3, 3)), ((2, 2, 3, 4), (2, 2, 2, 4)), ((2, 2, 0, 4), (2, 2, 0, 4))],
    ids=["wrong-d_head", "lengths-differ", "no-rows"],
)
def test_forward_query_checks_the_row_shapes(keys_shape, values_shape):
    model = TinyDecoder(small_config())  # 2 layers, 2 heads of d_head 4
    with pytest.raises(ValueError, match=r"^keys and values must be \(2, 2, length, 4\) arrays"):
        model.forward_query(np.zeros(keys_shape), np.zeros(values_shape), 2, 1)


def test_forward_step_checks_the_merged_view_shapes():
    model = TinyDecoder(small_config())  # 2 layers, 2 heads of d_head 4
    cache = model.new_cache(0)
    merged = (np.zeros((2, 2, 3, 3)), np.zeros((2, 2, 3, 3)))
    with pytest.raises(ValueError, match=r"^keys and values must be \(2, 2, length, 4\) arrays"):
        model.forward_step(cache, 1, merged=merged)
    assert cache.length == 0


def test_forward_step_rejects_a_boolean_token():
    model = TinyDecoder(small_config())
    with pytest.raises(ConfigError, match="^token must be an integer, got True$"):
        model.forward_step(model.new_cache(0), True)


def test_full_pass_rejects_non_finite_embeddings_as_the_step_does():
    model = TinyDecoder(small_config())
    emb = np.zeros((2, 8))
    emb[1, 3] = math.inf
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        model.forward_step(model.new_cache(0), emb[1])
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        model.forward_full(emb)


def test_single_position_full_equals_first_step():
    model = TinyDecoder(small_config())
    emb = np.linspace(-1.0, 1.0, 8)
    full = model.forward_full(emb[None, :])
    step = model.forward_step(model.new_cache(0), emb)
    np.testing.assert_array_equal(step.logits, full.logits[0])


def test_causality_future_positions_do_not_affect_past():
    model = TinyDecoder(small_config())
    rng = np.random.default_rng(3)
    embeddings = rng.normal(size=(6, 8))
    base = model.forward_full(embeddings)
    permuted = embeddings.copy()
    permuted[[4, 5]] = permuted[[5, 4]]
    after = model.forward_full(permuted)
    np.testing.assert_array_equal(base.logits[:4], after.logits[:4])


def test_trace_requires_continuous_recording():
    model = TinyDecoder(small_config())
    cache = LayeredKvCache(2, 2, 4, 3, 0)
    model.forward_step(cache, 1)
    out = model.forward_step(cache, 2)
    with pytest.raises(TraceError):
        cache.record(out.attention_rows)  # duplicate row no longer matches the next position
    model.forward_step(cache, 3)
    with pytest.raises(CapacityError, match="full at 3"):
        cache.record(np.full((2, 2, 4), 0.25))


@pytest.mark.parametrize(
    "sizes, name",
    [
        ((0, 1, 0, 3, 0), "n_layers must be at least 1"),
        ((1, 0, 0, 3, 0), "n_heads must be at least 1"),
        ((1, 1, -1, 3, 0), "d_head must be at least 0"),
        ((1, 1, 0, -1, 0), "capacity must be at least 0"),
        ((1, 1, 0, 3, -1), "l_image must be at least 0"),
        ((1, 1, 0, 3, 5), "l_image must be at most capacity 3"),
        ((True, 1, 0, 3, 0), "n_layers must be an integer"),
        ((1, 1, 0, 2.5, 0), "capacity must be an integer"),
    ],
)
def test_cache_rejects_sizes_it_cannot_hold(sizes, name):
    with pytest.raises(ConfigError, match=name):
        LayeredKvCache(*sizes)


def test_cache_takes_whole_number_sizes_as_ints():
    cache = LayeredKvCache(np.int64(2), 1.0, 0, 3.0, np.int64(3))
    assert cache.image_att.shape == (2, 1, 3) and cache.l_image == 3
    assert type(cache.l_image) is int


def reference_image_att(rows: np.ndarray, l_image: int) -> np.ndarray:
    """Image mass of one row as ImageAttentionStat.from_trace summed it from
    stored rows: a boolean-mask gather."""
    return rows[..., np.arange(rows.shape[-1]) < l_image].sum(axis=-1)


def reference_text_score(rows: np.ndarray, l_image: int) -> np.ndarray:
    """Score of one text row as layer_scores derives it: the head mean of
    reference_image_att, its heads summed in head order."""
    mass = reference_image_att(rows, l_image)
    total = mass[:, 0]
    for h in range(1, mass.shape[1]):
        total = total + mass[:, h]
    return total / mass.shape[1]


@settings(max_examples=80, deadline=None)
@given(
    n_layers=st.integers(1, 3),
    n_heads=st.integers(1, 5),
    n_rows=st.integers(1, 40),
    l_image=st.integers(0, 45),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_layers=1, n_heads=1, n_rows=30, l_image=20, seed=0)  # the gather is contiguous
@example(n_layers=2, n_heads=3, n_rows=12, l_image=0, seed=1)
@example(n_layers=2, n_heads=3, n_rows=12, l_image=12, seed=2)  # no text row
@example(n_layers=3, n_heads=2, n_rows=10, l_image=40, seed=3)  # image block beyond the rows
def test_trace_summaries_equal_the_stored_row_reductions(n_layers, n_heads, n_rows, l_image, seed):
    rng = np.random.default_rng(seed)
    rows = [
        rng.normal(size=(n_layers, n_heads, n + 1)) * 10.0 ** rng.uniform(-3, 3, size=n + 1)
        for n in range(n_rows)
    ]
    trace = LayeredKvCache(n_layers, n_heads, 0, max(n_rows, l_image), l_image)
    for row in rows:
        trace.record(row)
    assert trace.length == n_rows
    scores = layer_scores(trace) if n_rows > l_image else None
    for n, row in enumerate(rows):
        want = reference_image_att(row, l_image)
        assert trace.image_att[:, :, n].tobytes() == want.tobytes()
        if n >= l_image:
            want = reference_text_score(row, l_image)
            assert scores[:, n - l_image].tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["n_layers", "n_heads", "max_seq", "seed"])
def test_config_rejects_booleans(name):
    with pytest.raises(ConfigError, match=name):
        small_config(**{name: True})


def test_config_rejects_non_numbers():
    with pytest.raises(ConfigError, match="d_model"):
        small_config(d_model=None)
    with pytest.raises(ConfigError, match="d_ff"):
        small_config(d_ff="16")


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
def test_require_int_accepts_whole_numbers(value):
    out = require_int(value, "field")
    assert out == 3 and type(out) is int


@pytest.mark.parametrize(
    "value", [2.7, True, np.bool_(False), None, "3", [3], float("inf"), float("nan")]
)
def test_require_int_rejects_non_integers(value):
    with pytest.raises(ConfigError, match="field must be an integer"):
        require_int(value, "field")


@pytest.mark.parametrize("value", [2, 2.5, np.int64(2), np.float32(0.5), -1e308])
def test_require_float_accepts_finite_numbers(value):
    out = require_float(value, "field")
    assert out == float(value) and type(out) is float


@pytest.mark.parametrize(
    "value",
    [True, np.bool_(True), None, "0.1", [0.1], float("inf"), -float("inf"), float("nan"), 10**400],
)
def test_require_float_rejects_non_finite_and_non_numbers(value):
    with pytest.raises(ConfigError, match="field must be a finite number"):
        require_float(value, "field")


temperatures = st.none() | st.floats(0.0, 1e308, exclude_min=True)
config_objects = st.builds(
    lambda n_layers, n_heads, d_head, rest: ModelConfig(n_layers, n_heads, n_heads * d_head, *rest),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 64),
    st.tuples(
        st.integers(1, 4096), st.integers(2, 10**6), st.integers(1, 10**6), st.integers(0, 2**64 - 1)
    ),
) | st.builds(
    DecodePolicy,
    mode=st.sampled_from(Mode),
    base=st.just(BaseStrategy())
    | st.builds(
        BaseStrategy, kind=st.just("top_k"), k=st.integers(1, 10**6), temperature=temperatures
    )
    | st.builds(
        BaseStrategy, kind=st.just("top_p"), p=st.floats(0.0, 1.0, exclude_min=True),
        temperature=temperatures,
    )
    | st.builds(BaseStrategy, kind=st.just("top_p"), p=st.just(1.0), temperature=temperatures),
    alpha=st.floats(0.0, 1e308),
    beta=st.floats(0.0, 1.0),
    anchor_ratio=st.floats(0.0, 1.0, exclude_min=True),
    anchor_strategy=st.sampled_from(AnchorStrategy),
    max_new_tokens=st.integers(1, 10**9),
    seed=st.integers(0, 2**64 - 1),
)


def written_keys(obj) -> list[str]:
    return [f.name for f in fields(obj) if getattr(obj, f.name) is not None]


@settings(max_examples=300, deadline=None)
@given(obj=config_objects)
def test_config_objects_round_trip_through_their_json(obj):
    doc = json.loads(json.dumps(obj.to_json_dict()))
    assert read_config(type(obj), doc, "section") == obj
    assert list(doc) == written_keys(obj)
    if isinstance(obj, ModelConfig):  # d_head is derived, so never written
        assert "d_head" not in doc and obj.d_head == obj.d_model // obj.n_heads
    if isinstance(obj, DecodePolicy):
        assert list(doc["base"]) == written_keys(obj.base)
        assert doc["mode"] == obj.mode.value and doc["anchor_strategy"] == obj.anchor_strategy.value


@pytest.mark.parametrize(
    "call, error, problem",
    [
        (lambda model: make_image_embeddings(-1, 8, 0), ConfigError,
         "count must be at least 0, got -1"),
        (lambda model: make_image_embeddings(1, 0, 0), ConfigError,
         "d_model must be at least 1, got 0"),
        (lambda model: model.content_embedding(np.zeros(3)), ValueError,
         "embedding must have shape (8,), got (3,)"),
        (lambda model: model.forward_query(np.zeros((2, 2, 1, 4)), np.zeros((2, 2, 1, 4)), 32, 1),
         CapacityError, "position 32 outside capacity 32"),
        (lambda model: model.forward_full(np.zeros((2, 3))), ValueError,
         "embeddings must have shape (n, 8)"),
        (lambda model: model.forward_full(np.zeros((0, 8))), ValueError,
         "need at least one position"),
        (lambda model: model.forward_full(np.zeros((33, 8))), CapacityError,
         "length 33 exceeds max_seq 32"),
    ],
    ids=["image-count", "image-d_model", "embedding-shape", "query-position", "full-shape",
         "full-empty", "full-too-long"],
)
def test_model_errors_pin_their_messages(call, error, problem):
    with pytest.raises(error, match=f"^{re.escape(problem)}$"):
        call(TinyDecoder(small_config()))
