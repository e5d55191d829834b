import math

import numpy as np
import pytest

from ikod.model import (
    AttentionTrace,
    CapacityError,
    ConfigError,
    ModelConfig,
    Role,
    SequenceLayout,
    TinyDecoder,
    TraceError,
    load_checkpoint,
    make_image_embeddings,
    require_int,
    save_checkpoint,
)
from ikod.numerics import Rng


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
        ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=8, vocab_size=4, max_seq=8, d_head=3)
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
    cfg = small_config(d_ff=12, vocab_size=10, seed=17)
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
    out = model.forward_step(model.new_cache(), 1)
    assert out.attention_rows.shape == (2, 2, 1)
    assert np.all(out.attention_rows == 1.0)


def test_attention_rows_are_distributions():
    model = TinyDecoder(small_config())
    cache = model.new_cache()
    rng = np.random.default_rng(0)
    for tok in rng.integers(0, 16, size=10):
        out = model.forward_step(cache, int(tok))
        sums = out.attention_rows.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)
        assert np.all(out.attention_rows >= 0.0)


def test_cache_overflow_raises():
    model = TinyDecoder(small_config(max_seq=3))
    cache = model.new_cache()
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
        cache = model.new_cache()
        for t in range(n):
            step = model.forward_step(cache, embeddings[t])
            np.testing.assert_allclose(step.logits, full.logits[t], atol=1e-5, rtol=0)
            np.testing.assert_allclose(
                step.attention_rows, full.attention[:, :, t, : t + 1], atol=1e-6, rtol=0
            )


def test_single_position_full_equals_first_step():
    model = TinyDecoder(small_config())
    emb = np.linspace(-1.0, 1.0, 8)
    full = model.forward_full(emb[None, :])
    step = model.forward_step(model.new_cache(), emb)
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


def test_checkpoint_round_trip(tmp_path):
    model = TinyDecoder(small_config(seed=11))
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    again = tmp_path / "again.bin"
    save_checkpoint(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    emb = np.ones(8) * 0.1
    np.testing.assert_array_equal(
        model.forward_full(emb[None, :]).logits, loaded.forward_full(emb[None, :]).logits
    )


def test_checkpoint_rejects_truncated_file(tmp_path):
    model = TinyDecoder(small_config())
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_layout_counts_and_order():
    layout = SequenceLayout.from_counts(2, 3, 4)
    assert (layout.l_image, layout.l_others, layout.l_gen) == (2, 3, 4)
    assert len(layout) == 9
    assert layout.text_len == 7
    assert layout.image_mask.sum() == 2
    with pytest.raises(ValueError):
        SequenceLayout(np.array([Role.OTHER, Role.IMAGE], dtype=np.int8))


def test_trace_requires_continuous_recording():
    model = TinyDecoder(small_config())
    cache = model.new_cache()
    trace = AttentionTrace(2, 2)
    trace.record(model.forward_step(cache, 1))
    out = model.forward_step(cache, 2)
    trace.record(out)
    with pytest.raises(TraceError):
        trace.record(out)  # duplicate row no longer matches the next position
    with pytest.raises(TraceError):
        trace.rows_for(5)


@pytest.mark.parametrize("name", ["n_layers", "n_heads", "max_seq", "seed", "d_head"])
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


@pytest.mark.parametrize(
    "raw, problem",
    [
        (b'{"format": "toy-decoder-v1"}', "no header line"),
        (b'{"format": "toy-decoder-v1", "x": "\xc3\xa9"}\n', "not ASCII"),
        (b"not json\n", "not JSON"),
        (b"[1, 2]\n", "not a JSON object"),
        (b'{"format": "toy-decoder-v1"}\n', "no config object"),
        (b'{"format": "toy-decoder-v1", "config": {"n_layers": 1}}\n', "bad checkpoint config"),
        (b'{"format": "other"}\n', "unrecognized checkpoint format"),
    ],
)
def test_checkpoint_rejects_malformed_headers(tmp_path, raw, problem):
    path = tmp_path / "model.bin"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match=problem):
        load_checkpoint(path)
