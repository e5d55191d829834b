import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ikod.kv_merge import (
    AnchorStrategy,
    MergePlan,
    anchor_count,
    build_merge_plan,
    layer_scores,
    merge_cache,
)
from ikod.model import CapacityError, ConfigError, LayeredKvCache, ModelConfig, TinyDecoder
from ikod.numerics import Rng


def test_layer_scores_head_mean():
    # Two image positions, one text token whose heads put 0.2 and 0.4 on them.
    trace = LayeredKvCache(1, 2, 0, 3, 2)
    trace.record(np.full((1, 2, 1), 1.0))
    trace.record(np.full((1, 2, 2), 0.5))
    text_row = np.array([[[0.15, 0.05, 0.8], [0.3, 0.1, 0.6]]])
    trace.record(text_row)
    scores = layer_scores(trace)
    assert scores.shape == (1, 1)
    assert scores[0, 0] == pytest.approx(0.3)


def test_layer_scores_single_head_passthrough():
    trace = LayeredKvCache(1, 1, 0, 2, 1)
    trace.record(np.full((1, 1, 1), 1.0))
    trace.record(np.array([[[0.7, 0.3]]]))
    assert layer_scores(trace)[0, 0] == pytest.approx(0.7)


def test_layer_scores_saturate_when_attention_sits_on_the_image():
    trace = LayeredKvCache(1, 2, 0, 5, 3)
    for step in range(5):
        row = np.zeros((1, 2, step + 1))
        on_image = min(step + 1, 3)
        row[..., :on_image] = 1.0 / on_image
        trace.record(row)
    scores = layer_scores(trace)
    np.testing.assert_allclose(scores, 1.0, atol=1e-6)


def test_layer_scores_incomplete_trace():
    trace = LayeredKvCache(1, 1, 0, 3, 1)
    trace.record(np.full((1, 1, 1), 1.0))
    with pytest.raises(ValueError, match="no text tokens"):
        layer_scores(trace)


def test_layer_scores_names_a_cache_of_the_wrong_type():
    with pytest.raises(ValueError, match="^cache must be a LayeredKvCache, got None$"):
        layer_scores(None)


def test_anchor_count_rounding():
    assert anchor_count(6, 0.5) == 2
    assert anchor_count(6, 1.0) == 4
    assert anchor_count(6, 0.01) == 1  # clamped to at least one anchor
    with pytest.raises(ValueError):
        anchor_count(2, 0.5)
    with pytest.raises(ValueError):
        anchor_count(6, 0.0)


@pytest.mark.parametrize("ratio", ["0.5", None, True, float("inf")], ids=["str", "none", "bool", "inf"])
def test_anchor_ratio_must_be_a_number(ratio):
    with pytest.raises(ValueError, match="anchor_ratio must be a finite number, got"):
        anchor_count(6, ratio)
    with pytest.raises(ValueError, match="anchor_ratio must be a finite number, got"):
        build_merge_plan(np.zeros((2, 6)), ratio)


def plan_anchors(scores, ratio, strategy=AnchorStrategy.LOW_ATTENTION, rng=None) -> list:
    """Per-layer anchors of the plan build_merge_plan makes, as lists."""
    return build_merge_plan(scores, ratio, strategy, rng).anchors.tolist()


def test_select_anchors_low_attention_hand_case():
    scores = np.array([[0.9, 0.1, 0.5, 0.3, 0.0, 0.0]])  # last two are protected
    assert plan_anchors(scores, 0.5, AnchorStrategy.LOW_ATTENTION) == [[1, 3]]


def test_select_anchors_high_attention_hand_case():
    scores = np.array([[0.9, 0.1, 0.5, 0.3, 0.0, 0.0]])
    assert plan_anchors(scores, 0.5, AnchorStrategy.HIGH_ATTENTION) == [[0, 2]]


def test_select_anchors_full_ratio_keeps_whole_domain():
    scores = np.random.default_rng(0).uniform(size=(2, 9))
    assert plan_anchors(scores, 1.0) == [list(range(7)), list(range(7))]


def test_select_anchors_ties_break_to_lower_index():
    scores = np.zeros((1, 6))
    assert plan_anchors(scores, 0.5, AnchorStrategy.LOW_ATTENTION) == [[0, 1]]
    assert plan_anchors(scores, 0.5, AnchorStrategy.HIGH_ATTENTION) == [[0, 1]]


def test_select_anchors_random_is_seeded_and_without_replacement():
    scores = np.zeros((3, 20))
    a = plan_anchors(scores, 0.4, AnchorStrategy.RANDOM, Rng(5))
    b = plan_anchors(scores, 0.4, AnchorStrategy.RANDOM, Rng(5))
    assert a == b
    for layer in a:
        assert layer == sorted(set(layer))
        assert all(0 <= i <= 17 for i in layer)
    with pytest.raises(ValueError):
        plan_anchors(scores, 0.4, AnchorStrategy.RANDOM)


def test_select_anchors_rejects_short_text():
    with pytest.raises(ValueError):
        plan_anchors(np.zeros((1, 2)), 0.5)


def one_layer_buckets(anchors, text_len: int) -> list[tuple[int, int]]:
    """The inclusive (start, end) buckets of a one-layer plan over anchors."""
    plan = MergePlan([anchors], text_len)
    return list(zip(plan.starts[0].tolist(), plan.ends[0].tolist()))


def test_build_buckets_hand_case():
    assert one_layer_buckets([2, 5, 7], 10) == [(0, 3), (4, 6), (7, 7)]


def test_build_buckets_single_anchor():
    assert one_layer_buckets([0], 4) == [(0, 1)]


def test_build_buckets_consecutive_anchors_are_singletons():
    buckets = one_layer_buckets(list(range(6)), 8)
    assert buckets == [(i, i) for i in range(6)]


def test_build_buckets_validation():
    with pytest.raises(ValueError):
        one_layer_buckets([], 10)
    with pytest.raises(ValueError):
        one_layer_buckets([3, 3], 10)
    with pytest.raises(ValueError):
        one_layer_buckets([8], 10)  # 8 exceeds the mergeable range 0..7


def brute_nearest_anchor(anchors: list[int], text_len: int) -> list[list[int]]:
    """Assign each mergeable position to its closest anchor, ties to the left."""
    groups: dict[int, list[int]] = {a: [] for a in anchors}
    for pos in range(text_len - 2):
        best = min(anchors, key=lambda a: (abs(pos - a), a))
        groups[best].append(pos)
    return [groups[a] for a in anchors]


def test_buckets_match_nearest_anchor_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        text_len = int(rng.integers(3, 60))
        domain = text_len - 2
        k = int(rng.integers(1, domain + 1))
        anchors = sorted(rng.choice(domain, size=k, replace=False).tolist())
        buckets = one_layer_buckets(anchors, text_len)
        expanded = [list(range(lo, hi + 1)) for lo, hi in buckets]
        assert expanded == brute_nearest_anchor(anchors, text_len)
        flat = [p for group in expanded for p in group]
        assert flat == list(range(domain))  # disjoint cover in order


@settings(max_examples=30, deadline=None)
@given(
    T=st.integers(201, 2048),
    n_layers=st.integers(1, 3),
    ratio=st.floats(0.001, 1.0),
    strategy=st.sampled_from(list(AnchorStrategy)),
    seed=st.integers(0, 2**32 - 1),
)
def test_long_text_buckets_match_nearest_anchor_oracle(T, n_layers, ratio, strategy, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(size=(n_layers, T))
    # A built plan, and a plan of k anchors per layer drawn uniformly from 0..T-3.
    k = int(rng.integers(1, T - 1))
    drawn = [np.sort(rng.choice(T - 2, size=k, replace=False)) for _ in range(n_layers)]
    plans = build_merge_plan(scores, ratio, strategy, Rng(seed)), MergePlan(drawn, T)
    positions = np.arange(T - 2)
    for plan in plans:
        for anchors, lo, hi in zip(plan.anchors, plan.starts, plan.ends):
            # Brute force: each position joins the nearest anchor, the left one on ties.
            nearest = np.argmin(np.abs(positions[:, None] - anchors[None, :]), axis=1)
            assert lo[0] == 0 and hi[-1] == T - 3 and np.array_equal(lo[1:], hi[:-1] + 1)
            assert np.array_equal(np.repeat(np.arange(anchors.size), hi - lo + 1), nearest)


def hand_cache() -> LayeredKvCache:
    # One image row then five text rows with recognizable values.
    cache = LayeredKvCache(n_layers=1, n_heads=1, d_head=2, capacity=8, l_image=1)
    rows = np.array(
        [[9.0, 9.0], [1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 10.0]]
    )
    cache.keys[0, 0, : len(rows)] = rows
    cache.values[0, 0, : len(rows)] = rows * 10.0
    cache.length = len(rows)
    return cache


def test_merge_cache_averages_bucket_rows():
    cache = hand_cache()
    plan = build_merge_plan(np.array([[0.0, 0.5, 0.9, 0.0, 0.0]]), 0.4)
    assert plan.anchors.tolist() == [[0]]
    assert (plan.starts.tolist(), plan.ends.tolist()) == ([[0]], [[2]])
    merged = merge_cache(cache, plan)
    assert merged.length == 4  # image + one bucket + two protected
    np.testing.assert_array_equal(merged.keys[0][0, 0], [9.0, 9.0])
    np.testing.assert_array_equal(merged.keys[0][0, 1], [3.0, 4.0])  # mean of three rows
    np.testing.assert_array_equal(merged.keys[0][0, 2:], [[7.0, 8.0], [9.0, 10.0]])
    np.testing.assert_array_equal(merged.values[0][0, 1], [30.0, 40.0])


def test_merge_cache_full_ratio_is_identity():
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq=16, seed=1)
    model = TinyDecoder(cfg)
    cache = model.new_cache(2)
    rng = np.random.default_rng(0)
    for _ in range(2):
        model.forward_step(cache, rng.normal(size=8))
    last = None
    for tok in (3, 5, 1, 7):
        out = model.forward_step(cache, tok)
        last = out
    plan = build_merge_plan(layer_scores(cache), 1.0)
    merged = merge_cache(cache, plan)
    for li in range(2):
        np.testing.assert_array_equal(merged.keys[li], cache.keys[li, :, :cache.length])
        np.testing.assert_array_equal(merged.values[li], cache.values[li, :, :cache.length])
    logits, _ = model.forward_query(merged.keys, merged.values, cache.length - 1, 7)
    np.testing.assert_allclose(logits, last.logits, atol=1e-9, rtol=0)


def test_merge_cache_identical_rows_average_to_themselves():
    cache = LayeredKvCache(n_layers=1, n_heads=1, d_head=2, capacity=8, l_image=0)
    cache.keys[0, 0, :5] = np.array([0.5, -0.25])
    cache.values[0, 0, :5] = np.array([1.5, 2.5])
    cache.length = 5
    plan = build_merge_plan(np.zeros((1, 5)), 0.4)
    merged = merge_cache(cache, plan)
    np.testing.assert_array_equal(merged.keys[0][0, 0], [0.5, -0.25])


def test_compressed_length_grows_with_ratio():
    cache = LayeredKvCache(n_layers=1, n_heads=1, d_head=2, capacity=64, l_image=2)
    cache.length = 32
    scores = np.random.default_rng(1).uniform(size=(1, 30))
    lengths = []
    for ratio in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        merged = merge_cache(cache, build_merge_plan(scores, ratio))
        lengths.append(merged.length)
        assert merged.length == 2 + anchor_count(30, ratio) + 2
    assert lengths == sorted(lengths)
    assert all(a < b for a, b in zip(lengths, lengths[1:]))


@pytest.mark.parametrize(
    "call, given",
    [
        (lambda T: anchor_count(T, 0.5), "5"),
        (lambda T: anchor_count(T, 0.5), 5.5),
        (lambda T: MergePlan([[0, 2]], T), "8"),
    ],
    ids=["anchor-count-string", "anchor-count-fraction", "buckets-string"],
)
def test_text_lengths_are_read_as_integers(call, given):
    with pytest.raises(ConfigError, match=f"^text_len must be an integer, got {given!r}$"):
        call(given)


def test_merge_cache_rejects_a_plan_that_is_not_one():
    with pytest.raises(ValueError, match="^plan must be a MergePlan, got None$"):
        merge_cache(hand_cache(), None)


def test_merge_cache_rejects_mismatched_layout():
    cache = hand_cache()
    plan = build_merge_plan(np.zeros((1, 5)), 0.4)
    with pytest.raises(ValueError):
        merge_cache(cache, build_merge_plan(np.zeros((1, 4)), 0.4))
    cache.length = 5
    with pytest.raises(ValueError):
        merge_cache(cache, plan)


def test_merge_plan_json_shape():
    plan = build_merge_plan(np.array([[0.4, 0.2, 0.6, 0.0, 0.0]]), 0.4)
    doc = plan.to_json_dict(0.4, AnchorStrategy.LOW_ATTENTION)
    assert doc["layers"][0]["protected"] == [3, 4]
    assert doc["layers"][0]["anchors"] == [1]
    assert doc["layers"][0]["buckets"] == [[0, 2]]
    assert doc["strategy"] == "low_attention"


def fixed_case(n_layers, n_heads, d_head, l_image, T, layer_anchors):
    cache = LayeredKvCache(n_layers, n_heads, d_head, l_image + T, l_image)
    rng = np.random.default_rng(T)
    cache.keys[...] = rng.normal(size=cache.keys.shape) * 1e3
    cache.values[...] = rng.normal(size=cache.values.shape)
    cache.length = l_image + T
    return cache, MergePlan(layer_anchors, T)


@pytest.mark.parametrize(
    "anchors, problem",
    [
        pytest.param([[0, 3, 5], [3, 1, 5]], "strictly ascending", id="descending"),
        pytest.param([[0, 3, 5], [1, 3, 3]], "strictly ascending", id="duplicate"),
        pytest.param([[0, 3, 5], [-1, 3, 5]], "within 0..5", id="below-0"),
        pytest.param([[0, 3, 5], [0, 3, 6]], "within 0..5", id="above-T-3"),  # T-3 = 5
        pytest.param([[], []], "at least one anchor", id="no-anchors"),
        pytest.param([[]], "at least one anchor", id="one-layer-no-anchors"),
        pytest.param([0, 3, 5], "an \\(n_layers, k\\) array", id="wrong-ndim"),
        pytest.param(np.zeros((0, 2), dtype=np.int64), "an \\(n_layers, k\\)", id="no-layers"),
        pytest.param([[0.0, 3.0]], "must be integers", id="not-integers"),
        pytest.param([[0, 3], [1]], "an \\(n_layers, k\\) array, got ragged rows", id="ragged"),
    ],
)
def test_merge_plan_rejects_malformed_anchors(anchors, problem):
    # The plan is checked when it is built, so no such plan reaches merge_cache.
    with pytest.raises(ValueError, match=problem):
        MergePlan(anchors, 8)


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("text_len", 8.5, "text_len must be an integer"),
        ("text_len", True, "text_len must be an integer"),
        ("text_len", 2, "no mergeable range"),
        ("anchor_ratio", 0.0, "anchor_ratio must lie in"),
        ("anchor_ratio", 1.5, "anchor_ratio must lie in"),
        ("anchor_ratio", float("nan"), "anchor_ratio must be a finite number"),
        ("anchor_ratio", "0.5", "anchor_ratio must be a finite number"),
        ("strategy", "x", "strategy must be one of low_attention, high_attention, random"),
    ],
)
def test_merge_plan_rejects_malformed_scalars(field, value, problem):
    # text_len is the plan's own; the policy's anchor_ratio and strategy are
    # read when the plan is written.
    given = dict(text_len=8, anchor_ratio=0.5, strategy="low_attention")
    given[field] = value
    with pytest.raises(ValueError, match=problem):
        plan = MergePlan([[0, 3]], given["text_len"])
        plan.to_json_dict(given["anchor_ratio"], given["strategy"])


def test_merge_plan_reads_its_scalars():
    plan = MergePlan([[0, 3]], 8.0)
    assert type(plan.text_len) is int
    doc = plan.to_json_dict(1, "random")
    assert [layer["protected"] for layer in doc["layers"]] == [[6, 7]]
    assert (doc["text_len"], doc["anchor_ratio"], doc["strategy"]) == (8, 1.0, "random")
    assert type(doc["anchor_ratio"]) is float


def test_merge_plan_keeps_read_only_copies():
    anchors = np.array([[1, 4]])
    plan = MergePlan(anchors, 8)
    anchors[0, 0] = 0  # the caller's array stays the caller's
    assert plan.anchors.tolist() == [[1, 4]]
    assert (plan.starts.tolist(), plan.ends.tolist()) == ([[0, 3]], [[2, 5]])
    for array in (plan.anchors, plan.starts, plan.ends):
        assert array.dtype == np.int64
        with pytest.raises(ValueError):
            array[0, 0] = 0


def reference_merge(cache, plan):
    """Per-bucket `.mean(axis=1)`: the summation order merged rows must keep."""
    start, T = cache.l_image, plan.text_len
    keys, values = [], []
    for li, (starts, ends) in enumerate(zip(plan.starts.tolist(), plan.ends.tolist())):
        for out, src in ((keys, cache.keys[li, :, :cache.length]), (values, cache.values[li, :, :cache.length])):
            parts = [src[:, :start]]
            parts += [
                src[:, start + lo : start + hi + 1].mean(axis=1, keepdims=True)
                for lo, hi in zip(starts, ends)
            ]
            parts.append(src[:, start + T - 2 : start + T])
            out.append(np.concatenate(parts, axis=1))
    return keys, values


@st.composite
def drawn_plans(draw):
    """A random cache and a plan whose layers hold the same anchor count but
    independently drawn anchors."""
    n_layers = draw(st.integers(1, 3))
    n_heads = draw(st.integers(1, 3))
    d_head = draw(st.integers(1, 4))
    l_image = draw(st.integers(0, 4))
    T = draw(st.integers(3, 40))
    k = draw(st.integers(1, T - 2))
    layers = [
        sorted(draw(st.sets(st.integers(0, T - 3), min_size=k, max_size=k)))
        for _ in range(n_layers)
    ]
    plan = MergePlan(layers, T)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = l_image + T
    cache = LayeredKvCache(n_layers, n_heads, d_head, n + draw(st.integers(0, 3)), l_image)
    scale = 10.0 ** rng.uniform(-6, 6, size=(n_layers, n_heads, n, 1))
    cache.keys[:, :, :n] = rng.normal(size=(n_layers, n_heads, n, d_head)) * scale
    cache.values[:, :, :n] = rng.normal(size=(n_layers, n_heads, n, d_head)) * scale
    cache.length = n
    return cache, plan


@settings(max_examples=150, deadline=None)
@given(drawn_plans())
@example(fixed_case(1, 1, 1, 0, 3, [[0]]))  # T = 3: one singleton bucket
@example(fixed_case(2, 3, 1, 2, 40, [[0], [37]]))  # one bucket spans 0..T-3
@example(fixed_case(2, 2, 2, 1, 30, [list(range(28))] * 2))  # all singletons
@example(fixed_case(2, 4, 1, 3, 40, [[4, 13], [22, 37]]))  # d_head = 1, cuts after 8 and 29
def test_merge_cache_matches_per_bucket_mean_bit_for_bit(case):
    cache, plan = case
    merged = merge_cache(cache, plan)
    ref_keys, ref_values = reference_merge(cache, plan)
    n_layers, k = plan.starts.shape
    assert merged.length == cache.l_image + k + 2
    for li in range(n_layers):
        assert merged.keys[li].shape[1] == merged.length
        assert np.array_equal(merged.keys[li], ref_keys[li])
        assert np.array_equal(merged.values[li], ref_values[li])


@settings(max_examples=60, deadline=None)
@given(
    n_layers=st.integers(1, 3),
    l_image=st.integers(0, 6),
    T=st.integers(3, 60),
    ratio=st.floats(0.01, 1.0),
    strategy=st.sampled_from(list(AnchorStrategy)),
    seed=st.integers(0, 2**32 - 1),
)
def test_merged_length_is_image_plus_anchors_plus_two(n_layers, l_image, T, ratio, strategy, seed):
    rng = np.random.default_rng(seed)
    cache = LayeredKvCache(n_layers, 2, 2, l_image + T, l_image)
    cache.length = l_image + T
    plan = build_merge_plan(rng.uniform(size=(n_layers, T)), ratio, strategy, Rng(seed))
    merged = merge_cache(cache, plan)
    expected = l_image + anchor_count(T, ratio) + 2
    assert merged.length == expected
    assert [merged.keys[li].shape[1] for li in range(n_layers)] == [expected] * n_layers
    assert [merged.values[li].shape[1] for li in range(n_layers)] == [expected] * n_layers


def random_rows(rng, n_layers, n_heads, n_rows) -> list[np.ndarray]:
    rows = [rng.uniform(size=(n_layers, n_heads, step + 1)) for step in range(n_rows)]
    return [row / row.sum(axis=-1, keepdims=True) for row in rows]


def direct_scores(rows: list[np.ndarray], start: int, text_len: int) -> np.ndarray:
    """The scores as layer_scores derives them from stored rows: each text
    row's image mass, gathered as the cache gathers it, summed over heads in
    head order and divided by the head count."""
    out = np.empty((rows[0].shape[0], text_len))
    for t in range(text_len):
        row = rows[start + t]
        mass = row[..., np.arange(row.shape[-1]) < start].sum(axis=-1)
        total = mass[:, 0]
        for h in range(1, mass.shape[1]):
            total = total + mass[:, h]
        out[:, t] = total / mass.shape[1]
    return out


@settings(max_examples=60, deadline=None)
@given(
    n_layers=st.integers(1, 3),
    n_heads=st.integers(1, 9),
    l_image=st.integers(0, 10),
    first=st.integers(1, 20),
    growth=st.lists(st.integers(0, 12), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_layers=2, n_heads=9, l_image=3, first=1, growth=[0, 4], seed=1)  # a lone text column
def test_layer_scores_ledger_tracks_a_growing_trace(
    n_layers, n_heads, l_image, first, growth, seed
):
    rng = np.random.default_rng(seed)
    total = l_image + first + sum(growth)
    rows = random_rows(rng, n_layers, n_heads, total)
    trace = LayeredKvCache(n_layers, n_heads, 0, total, l_image)
    text = first
    for row in rows[: l_image + text]:
        trace.record(row)
    for extra in [0, *growth]:
        for row in rows[l_image + text : l_image + text + extra]:
            trace.record(row)
        text += extra
        scores = layer_scores(trace)
        assert scores.tobytes() == direct_scores(rows, l_image, text).tobytes()
        scores[...] = -1.0  # the caller owns the returned array
        assert layer_scores(trace).tobytes() == direct_scores(rows, l_image, text).tobytes()


def reference_plan_layers(scores, anchor_ratio, strategy, rng):
    """Per-layer anchors and buckets as they were built before the all-layer
    pass: one lexsort (or one scalar Fisher-Yates loop of
    next_u64() % (domain - i) draws) per layer, then a midpoint loop."""
    T = scores.shape[1]
    k, domain = anchor_count(T, anchor_ratio), T - 2
    anchors, buckets = [], []
    for s in scores[:, :domain]:
        if strategy is AnchorStrategy.RANDOM:
            pool = list(range(domain))
            for i in range(k):
                j = i + rng.next_u64() % (domain - i)
                pool[i], pool[j] = pool[j], pool[i]
            chosen = pool[:k]
        else:
            key = s if strategy is AnchorStrategy.LOW_ATTENTION else -s
            chosen = np.lexsort((np.arange(domain), key))[:k]
        ts = sorted(int(i) for i in chosen)
        layer = []
        for i in range(k):
            lo = 0 if i == 0 else (ts[i - 1] + ts[i]) // 2 + 1
            hi = T - 3 if i == k - 1 else (ts[i] + ts[i + 1]) // 2
            layer.append((lo, hi))
        anchors.append(ts)
        buckets.append(layer)
    return anchors, buckets


# Few distinct values, signed zeros among them, so score ties are common.
tie_prone_scores = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(-1.0, 1.0, allow_nan=False)
)


@st.composite
def score_matrices(draw):
    n_layers = draw(st.integers(1, 4))
    T = draw(st.integers(3, 40))
    cells = draw(st.lists(tie_prone_scores, min_size=n_layers * T, max_size=n_layers * T))
    return np.array(cells, dtype=np.float64).reshape(n_layers, T)


@settings(max_examples=200, deadline=None)
@given(
    scores=score_matrices(),
    ratio=st.floats(0.01, 1.0),
    strategy=st.sampled_from(list(AnchorStrategy)),
    seed=st.integers(0, 2**64 - 1),
)
@example(np.zeros((2, 3)), 1.0, AnchorStrategy.LOW_ATTENTION, 0)  # T = 3
@example(np.array([[0.0, -0.0, 0.0, -0.0, 0.0, 0.0]]), 0.5, AnchorStrategy.HIGH_ATTENTION, 0)
@example(np.array([[-0.0, 0.0, -0.0, 0.0, 1.0, 1.0]]), 0.5, AnchorStrategy.LOW_ATTENTION, 0)
def test_plan_matches_the_per_layer_reference(scores, ratio, strategy, seed):
    block_rng, scalar_rng = Rng(seed), Rng(seed)
    plan = build_merge_plan(scores, ratio, strategy, block_rng)
    anchors, buckets = reference_plan_layers(scores, ratio, strategy, scalar_rng)
    assert plan.anchors.tolist() == anchors
    # The block draw leaves the stream where the scalar draws do.
    assert block_rng.state == scalar_rng.state
    starts, ends = plan.starts.tolist(), plan.ends.tolist()
    assert [list(zip(lo, hi)) for lo, hi in zip(starts, ends)] == buckets
    for ts, layer in zip(anchors, buckets):
        assert one_layer_buckets(ts, scores.shape[1]) == layer
    # A plan built by hand from the reference anchors writes the same JSON.
    rebuilt = MergePlan(anchors, plan.text_len)
    assert rebuilt.to_json_dict(ratio, strategy) == plan.to_json_dict(ratio, strategy)


@settings(max_examples=100, deadline=None)
@given(
    scores=score_matrices(),
    n_heads=st.integers(1, 3),
    d_head=st.integers(1, 4),
    l_image=st.integers(0, 4),
    spare=st.integers(0, 3),
    ratio=st.floats(0.01, 1.0),
    strategy=st.sampled_from(list(AnchorStrategy)),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_cache_on_a_built_plan_matches_the_reference(
    scores, n_heads, d_head, l_image, spare, ratio, strategy, seed
):
    n_layers, T = scores.shape
    n = l_image + T
    rng = np.random.default_rng(seed)
    cache = LayeredKvCache(n_layers, n_heads, d_head, n + spare, l_image)
    cache.keys[:, :, :n] = rng.normal(size=(n_layers, n_heads, n, d_head))
    cache.values[:, :, :n] = rng.normal(size=(n_layers, n_heads, n, d_head))
    cache.length = n
    plan = build_merge_plan(scores, ratio, strategy, Rng(seed))
    merged = merge_cache(cache, plan)
    ref_keys, ref_values = reference_merge(cache, plan)
    for li in range(n_layers):
        for got, want in ((merged.keys[li], ref_keys[li]), (merged.values[li], ref_values[li])):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    scores=score_matrices(),
    n_heads=st.integers(1, 3),
    d_head=st.integers(1, 4),
    l_image=st.integers(0, 4),
    ratio=st.floats(0.01, 1.0),
    strategy=st.sampled_from(list(AnchorStrategy)),
    seed=st.integers(0, 2**32 - 1),
)
def test_merged_rows_stay_in_bucket_hull(scores, n_heads, d_head, l_image, ratio, strategy, seed):
    n_layers, T = scores.shape
    n = l_image + T
    rng = np.random.default_rng(seed)
    cache = LayeredKvCache(n_layers, n_heads, d_head, n, l_image)
    scale = 10.0 ** rng.uniform(-6, 6, size=(n_layers, n_heads, n, 1))
    cache.keys[...] = rng.normal(size=cache.keys.shape) * scale
    cache.values[...] = rng.normal(size=cache.values.shape) * scale
    cache.length = n
    plan = build_merge_plan(scores, ratio, strategy, Rng(seed))
    merged = merge_cache(cache, plan)
    for li in range(n_layers):
        for b, (lo, hi) in enumerate(zip(plan.starts[li], plan.ends[li])):
            for src, out in ((cache.keys, merged.keys), (cache.values, merged.values)):
                rows = src[li, :, l_image + lo : l_image + hi + 1]
                slack = 1e-12 * np.abs(rows).max(axis=1)  # a mean rounds
                got = out[li][:, l_image + b]
                assert np.all(got >= rows.min(axis=1) - slack)
                assert np.all(got <= rows.max(axis=1) + slack)


def changed_plan(plan: MergePlan, T: int, change: str) -> MergePlan:
    """plan's anchors carried to text length T >= plan.text_len, which
    stretches the last bucket to T-3 ("stay"); then an anchor added at T-3 or
    the last one dropped, which splits the last bucket or joins it to the one
    before ("grow", "shrink"), or the first anchor moved so that the cut after
    the leading bucket moves ("move"). A change that some layer has no room
    for is left out in every layer."""
    layers = plan.anchors.tolist()
    if change == "grow" and all(row[-1] < T - 3 for row in layers):
        for row in layers:
            row.append(T - 3)
    elif change == "shrink" and len(layers[0]) > 1:
        for row in layers:
            row.pop()
    elif change == "move" and len(layers[0]) > 1 and all(row[1] >= 3 for row in layers):
        for row in layers:  # the cut lies between row[1] // 2 and row[1] - 1
            cut = (row[0] + row[1]) // 2
            row[0] = 0 if row[1] // 2 != cut else row[1] - 1
    return MergePlan(layers, T)


@st.composite
def growing_merges(draw):
    """A cache that grows step by step, and per step the plan to merge it
    with: built from the prefix of one score matrix, or the previous step's
    plan changed by hand."""
    n_layers, n_heads = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d_head, l_image = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    lengths = [draw(st.integers(3, 12))]
    for extra in draw(st.lists(st.integers(0, 4), min_size=1, max_size=8)):
        lengths.append(lengths[-1] + extra)
    scores = draw(st.lists(tie_prone_scores, min_size=n_layers * lengths[-1],
                           max_size=n_layers * lengths[-1]))
    changes = draw(st.lists(st.sampled_from(["built", "stay", "grow", "shrink", "move"]),
                            min_size=len(lengths), max_size=len(lengths)))
    capacity = l_image + lengths[-1] + draw(st.integers(0, 3))
    cache = LayeredKvCache(n_layers, n_heads, d_head, capacity, l_image)
    return (
        cache,
        np.array(scores, dtype=np.float64).reshape(n_layers, lengths[-1]),
        list(zip(lengths, changes)),
        draw(st.floats(0.01, 1.0)),
        draw(st.sampled_from(list(AnchorStrategy))),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(growing_merges())
def test_merge_from_the_previous_step_matches_a_fresh_merge(case):
    cache, scores, steps, ratio, strategy, seed = case
    rng, data = Rng(seed), np.random.default_rng(seed)
    previous = None
    for T, change in steps:
        while cache.length < cache.l_image + T:  # record rows one by one, as forward_step does
            for array in (cache.keys, cache.values):
                row = data.normal(size=array.shape[:2] + array.shape[3:])
                array[:, :, cache.length] = row * 10.0 ** data.uniform(-6, 6)
            cache.length += 1
        if change == "built" or previous is None:
            plan = build_merge_plan(scores[:, :T], ratio, strategy, rng)
        else:
            plan = changed_plan(previous.plan, T, change)
        before = cache.keys.tobytes(), cache.values.tobytes()
        merged = merge_cache(cache, plan, previous)
        fresh = merge_cache(cache, plan)
        assert (cache.keys.tobytes(), cache.values.tobytes()) == before
        assert merged.plan is plan and merged.source is cache
        assert merged.length == fresh.length
        ref_keys, ref_values = reference_merge(cache, plan)
        for want in ((fresh.keys, fresh.values), (np.stack(ref_keys), np.stack(ref_values))):
            for got, rows in zip((merged.keys, merged.values), want):
                assert got.shape == rows.shape and got.tobytes() == rows.tobytes()
        previous = merged


def test_merge_rejects_a_previous_merge_of_another_cache_or_a_superseded_one():
    cache, plan = fixed_case(2, 2, 3, 2, 8, [[1, 3, 5]] * 2)
    twin, _ = fixed_case(2, 2, 3, 2, 8, [[1, 3, 5]] * 2)
    other_image, other_plan = fixed_case(2, 2, 3, 3, 7, [[1, 4]] * 2)
    with pytest.raises(ValueError, match="another cache"):
        merge_cache(cache, plan, merge_cache(twin, plan))
    with pytest.raises(ValueError, match="another cache"):
        merge_cache(cache, plan, merge_cache(other_image, other_plan))
    first = merge_cache(cache, plan)
    merge_cache(cache, plan, first)
    with pytest.raises(ValueError, match="already superseded"):
        merge_cache(cache, plan, first)


@st.composite
def upcoming_steps(draw):
    """A small model, a prompt of at least three text tokens, the tokens fed
    after it, and the plan settings of every step."""
    n_heads, d_head = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n_image = draw(st.integers(0, 4))
    prompt = draw(st.lists(st.integers(1, 11), min_size=3, max_size=6))
    fed = draw(st.lists(st.integers(0, 11), min_size=1, max_size=6))
    cfg = ModelConfig(
        n_layers=draw(st.integers(1, 3)), n_heads=n_heads, d_model=n_heads * d_head,
        d_ff=draw(st.integers(1, 12)), vocab_size=12,
        max_seq=n_image + len(prompt) + len(fed) + draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return (
        TinyDecoder(cfg), n_image, prompt, fed,
        draw(st.floats(0.01, 1.0)), draw(st.sampled_from(list(AnchorStrategy))),
        draw(st.integers(0, 2**32 - 1)), draw(st.booleans()),
    )


@settings(max_examples=100, deadline=None)
@given(upcoming_steps())
def test_a_merge_finished_by_the_step_equals_a_merge_of_the_grown_cache(case):
    """A merge made for the position about to be written, whose last row the
    fused step fills, holds the bytes of a fresh merge of the grown cache,
    and the step's merged query gives what forward_query gives over it."""
    model, n_image, prompt, fed, ratio, strategy, seed, chained = case
    cache = model.new_cache(n_image)
    rng = np.random.default_rng(seed)
    for inp in [*rng.normal(size=(n_image, model.config.d_model)), *prompt]:
        model.forward_step(cache, inp)
    draws, previous = Rng(seed), None
    for token in fed:
        plan = build_merge_plan(layer_scores(cache, upcoming=True), ratio, strategy, draws)
        assert plan.text_len == cache.length - n_image + 1
        merged = merge_cache(cache, plan, previous if chained else None, upcoming=True)
        twin = model.new_cache(n_image)
        for name in ("keys", "values", "image_att"):
            getattr(twin, name)[...] = getattr(cache, name)
        twin.length = cache.length
        alone = model.forward_step(twin, token)
        out = model.forward_step(cache, token, (merged.keys, merged.values))
        fresh = merge_cache(cache, plan)
        assert (merged.keys.tobytes(), merged.values.tobytes()) == (
            fresh.keys.tobytes(), fresh.values.tobytes()
        )
        logits, rows = model.forward_query(fresh.keys, fresh.values, cache.length - 1, token)
        assert out.merged[0].tobytes() == logits.tobytes()
        assert [r.tobytes() for r in out.merged[1]] == [r.tobytes() for r in rows]
        # The full path is untouched by the query run alongside it.
        assert out.logits.tobytes() == alone.logits.tobytes()
        assert out.attention_rows.tobytes() == alone.attention_rows.tobytes()
        for name in ("keys", "values", "image_att"):
            assert getattr(cache, name).tobytes() == getattr(twin, name).tobytes()
        previous = merged


def test_a_merge_for_the_upcoming_position_needs_room_and_the_next_length():
    cache = hand_cache()  # five text rows, room for two more positions
    with pytest.raises(ValueError, match="plan text length 5 != cache text length 5 \\+ 1"):
        merge_cache(cache, build_merge_plan(np.zeros((1, 5)), 0.4), upcoming=True)
    merged = merge_cache(cache, build_merge_plan(np.zeros((1, 6)), 0.4), upcoming=True)
    assert merged.length == 1 + 1 + 2 and merged.plan.text_len == 6
    # The row of text position 4 is recorded; position 5's row is the step's.
    np.testing.assert_array_equal(merged.keys[0, 0, 2], cache.keys[0, 0, 5])
    cache.length = 8  # full
    with pytest.raises(CapacityError, match="cache is full at 8 of 8"):
        merge_cache(cache, build_merge_plan(np.zeros((1, 8)), 0.4), upcoming=True)


def test_upcoming_scores_add_one_unread_column():
    cache = LayeredKvCache(2, 1, 1, 8, 1)
    for n in range(4):
        cache.record(np.full((2, 1, n + 1), 1.0 / (n + 1)))
    recorded = layer_scores(cache)
    upcoming = layer_scores(cache, upcoming=True)
    assert recorded.shape == (2, 3) and upcoming.shape == (2, 4)
    assert upcoming[:, :3].tobytes() == recorded.tobytes()
    assert np.isnan(upcoming[:, 3]).all()


@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda: build_merge_plan(np.ones(6), 0.5), "scores must be (n_layers, text_len)"),
        (lambda: merge_cache(hand_cache(), MergePlan([[0], [1]], 5)),
         "plan layer count does not match the cache"),
    ],
    ids=["plan-1d-scores", "merge-layer-count"],
)
def test_merge_errors_pin_their_messages(call, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        call()
