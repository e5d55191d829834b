import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ikod import decode
from ikod.attn_analysis import ImageAttentionStat, degradation_report, segment_averages
from ikod.decode import (
    EOS_TOKEN,
    BaseStrategy,
    DecodePolicy,
    GenerationResult,
    Mode,
    Prompt,
    Step,
    base_select,
    collaborative_combine,
    ikod_generate,
    plausibility_mask,
    prefill,
)
from ikod.kv_merge import AnchorStrategy, MergePlan, build_merge_plan, layer_scores, merge_cache
from ikod.model import (
    CapacityError,
    LayeredKvCache,
    ModelConfig,
    TinyDecoder,
    make_image_embeddings,
)
from ikod.numerics import Rng, softmax_rows


def test_plausibility_hand_case():
    mask = plausibility_mask([0.5, 0.3, 0.15, 0.05], beta=0.5)
    assert mask.tolist() == [True, True, False, False]


def test_plausibility_zero_beta_keeps_everything():
    assert plausibility_mask([0.7, 0.2, 0.1, 0.0], beta=0.0).all()


def test_plausibility_full_beta_keeps_argmax_ties_only():
    mask = plausibility_mask([0.4, 0.4, 0.2], beta=1.0)
    assert mask.tolist() == [True, True, False]


@pytest.mark.parametrize(
    "p_orig", [[], [np.nan, 0.2], [0.2, np.inf], [-np.inf, 0.2], [[0.1, 0.2]], 0.5, ["a", "b"],
               [[0.1], [0.2, 0.3]], None],
)
def test_plausibility_mask_rejects_what_is_not_a_finite_distribution(p_orig):
    problem = r"^p_orig must be a (non-empty 1-D array of finite numbers|\(n\) array, got )"
    with pytest.raises(ValueError, match=problem):
        plausibility_mask(p_orig, 0.5)


@pytest.mark.parametrize(
    "beta, message",
    [("0.5", "beta must be a finite number"), (None, "beta must be a finite number"),
     (True, "beta must be a finite number"), (np.nan, "beta must be a finite number, got nan"),
     (1.5, r"beta must be at most 1\.0, got 1\.5"),
     (-0.5, r"beta must be at least 0\.0, got -0\.5")],
)
def test_plausibility_mask_rejects_a_beta_that_is_not_a_number_in_range(beta, message):
    with pytest.raises(ValueError, match=message):
        plausibility_mask([0.1, 0.2], beta)


def test_plausibility_always_contains_argmax():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = softmax_rows(rng.normal(size=(1, 17)))[0]
        for beta in (0.0, 0.3, 0.9, 1.0):
            assert plausibility_mask(p, beta)[int(np.argmax(p))]


def test_combine_hand_case():
    scores = collaborative_combine(
        [0.6, 0.4], [0.2, 0.8], alpha=1.0, v_head=[True, True]
    )
    np.testing.assert_allclose(scores, [0.8, 1.2])
    assert int(np.argmax(scores)) == 1


def test_combine_masks_outside_admissible_set():
    scores = collaborative_combine([0.6, 0.4], [0.2, 0.8], 1.0, [True, False])
    np.testing.assert_allclose(scores, [0.8, 0.0])


def test_combine_alpha_zero_matches_baseline_greedy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = softmax_rows(rng.normal(size=(1, 9)))[0]
        q = softmax_rows(rng.normal(size=(1, 9)))[0]
        scores = collaborative_combine(p, q, 0.0, plausibility_mask(p, 0.0))
        assert int(np.argmax(scores)) == int(np.argmax(p))


def test_combine_equal_paths_keep_the_argmax():
    rng = np.random.default_rng(2)
    p = softmax_rows(rng.normal(size=(1, 9)))[0]
    for alpha in (0.0, 0.5, 2.0, 10.0):
        scores = collaborative_combine(p, p, alpha, plausibility_mask(p, 0.1))
        assert int(np.argmax(scores)) == int(np.argmax(p))


def test_combine_size_mismatch():
    with pytest.raises(ValueError, match=r"^p_aug must be a \(2\) array, got shape \(1,\)$"):
        collaborative_combine([0.5, 0.5], [1.0], 1.0, [True, True])


def test_greedy_picks_argmax_and_low_index_on_ties():
    assert base_select([0.1, 0.7, 0.2], BaseStrategy(), Rng(0)) == 1
    assert base_select([0.4, 0.4, 0.2], BaseStrategy(), Rng(0)) == 0


def test_top_k_one_is_greedy():
    scores = np.array([0.1, 0.7, 0.2])
    for seed in range(20):
        assert base_select(scores, BaseStrategy(kind="top_k", k=1), Rng(seed)) == 1


def test_top_p_full_mass_samples_whole_distribution():
    # p = 1.0 keeps every token; over many draws each one should appear.
    scores = np.array([0.25, 0.25, 0.25, 0.25])
    rng = Rng(3)
    seen = {base_select(scores, BaseStrategy(kind="top_p", p=1.0), rng) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_top_p_truncates_to_smallest_prefix():
    # 0.6 + 0.3 reaches p = 0.9, so the 0.1 token can never be drawn.
    scores = np.array([0.6, 0.3, 0.1])
    rng = Rng(11)
    seen = {base_select(scores, BaseStrategy(kind="top_p", p=0.9), rng) for _ in range(200)}
    assert seen == {0, 1}


def test_top_k_excludes_small_tokens():
    scores = np.array([0.5, 0.3, 0.2])
    rng = Rng(4)
    seen = {base_select(scores, BaseStrategy(kind="top_k", k=2), rng) for _ in range(200)}
    assert seen == {0, 1}


def test_temperature_sharpens_and_flattens():
    scores = np.array([0.7, 0.2, 0.1])
    cold_base, hot_base = (BaseStrategy(kind="top_k", k=3, temperature=t) for t in (0.05, 50.0))
    cold = [base_select(scores, cold_base, Rng(s)) for s in range(50)]
    assert set(cold) == {0}
    hot = [base_select(scores, hot_base, Rng(s)) for s in range(200)]
    assert set(hot) == {0, 1, 2}


@pytest.mark.parametrize(
    "base",
    [BaseStrategy(kind="top_k", k=1), BaseStrategy(kind="top_p", p=0.9)],
    ids=["top_k", "top_p"],
)
def test_sampling_without_an_rng_raises_a_value_error_naming_it(base):
    with pytest.raises(ValueError, match=f"^{base.kind} selection needs an rng$"):
        base_select(np.array([0.2, 0.8]), base, None)
    assert base_select(np.array([0.2, 0.8]), BaseStrategy(), None) == 1


def test_base_select_rejects_bad_scores():
    with pytest.raises(ValueError):
        base_select([0.0, 0.0], BaseStrategy(), Rng(0))
    with pytest.raises(ValueError):
        base_select([-0.1, 1.0], BaseStrategy(), Rng(0))


temperatures = st.none() | st.floats(0.0, 1e308, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(
    scores=st.lists(st.just(0.0) | st.floats(0.0, 1e3), min_size=1, max_size=12).filter(
        lambda s: sum(s) > 0.0
    ),
    base=st.just(BaseStrategy())
    | st.builds(
        BaseStrategy, kind=st.just("top_k"), k=st.integers(1, 16), temperature=temperatures
    )
    | st.builds(
        BaseStrategy, kind=st.just("top_p"), p=st.floats(0.0, 1.0, exclude_min=True),
        temperature=temperatures,
    ),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_base_select_never_picks_a_zero_score_token(scores, base, u):
    class FixedDraw(Rng):  # the one uniform base_select asks for, edges included
        def next_uniform(self):
            return u

    assert scores[base_select(np.array(scores), base, FixedDraw(0))] > 0.0


def test_base_strategy_validation():
    with pytest.raises(ValueError):
        BaseStrategy(kind="beam")
    with pytest.raises(ValueError, match="^k must be at least 1, got 0$"):
        BaseStrategy(kind="top_k", k=0)
    with pytest.raises(ValueError, match="^k must be set for top_k$"):
        BaseStrategy(kind="top_k")
    with pytest.raises(ValueError, match=r"^p must be above 0\.0, got 0\.0$"):
        BaseStrategy(kind="top_p", p=0.0)
    with pytest.raises(ValueError, match="^p must be set for top_p$"):
        BaseStrategy(kind="top_p")
    with pytest.raises(ValueError, match=r"^temperature must be above 0\.0, got -1\.0$"):
        BaseStrategy(kind="top_k", k=5, temperature=-1.0)
    with pytest.raises(ValueError, match=r"^temperature must be above 0\.0, got 0\.0$"):
        BaseStrategy(kind="top_p", p=0.9, temperature=0.0)
    # A value out of range is named before a field its kind does not read.
    with pytest.raises(ValueError, match=r"^p must be at most 1\.0, got 1\.5$"):
        BaseStrategy(kind="greedy", p=1.5)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"^temperature must be a finite number, got {bad}$"):
            BaseStrategy(kind="top_p", p=0.9, temperature=bad)
    assert BaseStrategy(kind="top_p", p=1).p == 1.0
    with pytest.raises(ValueError, match="^kind must be greedy, top_k or top_p, got 'nucleus'$"):
        BaseStrategy(kind="nucleus")


@pytest.mark.parametrize(
    "given, problem",
    [
        ({"kind": "top_p", "p": 0.9, "k": 3}, "k must be unset for top_p"),
        ({"kind": "top_k", "k": 3, "p": 0.5}, "p must be unset for top_k"),
        ({"kind": "greedy", "p": 1.0}, "p must be unset for greedy"),
        ({"kind": "greedy", "k": 3}, "k must be unset for greedy"),
        ({"kind": "greedy", "k": 3, "p": 0.5}, "k must be unset for greedy"),
    ],
)
def test_base_strategy_rejects_fields_its_kind_does_not_read(given, problem):
    with pytest.raises(ValueError, match=problem):
        BaseStrategy(**given)


@pytest.mark.parametrize("alpha", [float("inf"), float("nan"), -0.5])
def test_policy_rejects_negative_and_non_finite_alpha(alpha):
    rule = "be at least 0.0" if alpha < 0 else "be a finite number"
    with pytest.raises(ValueError, match=f"^alpha must {rule}, got {alpha}$"):
        DecodePolicy(alpha=alpha)


def make_model(seed=7, max_seq=96) -> TinyDecoder:
    return TinyDecoder(
        ModelConfig(
            n_layers=2, n_heads=2, d_model=16, d_ff=32,
            vocab_size=32, max_seq=max_seq, seed=seed,
        )
    )


def make_prompt(model: TinyDecoder, n_image=4, image_seed=11) -> Prompt:
    images = make_image_embeddings(n_image, model.config.d_model, image_seed)
    return Prompt(image_embeddings=images, tokens=(5, 9, 3, 14))


def greedy_reference(model: TinyDecoder, prompt: Prompt, max_new: int) -> list[int]:
    cache = model.new_cache(len(prompt.image_embeddings))
    out = None
    for emb in prompt.image_embeddings:
        out = model.forward_step(cache, emb)
    for tok in prompt.tokens:
        out = model.forward_step(cache, tok)
    tokens = []
    for _ in range(max_new):
        token = int(np.argmax(out.logits))
        tokens.append(token)
        out = model.forward_step(cache, token)
        if token == EOS_TOKEN:
            break
    return tokens


def test_baseline_reproduces_plain_greedy():
    model = make_model()
    prompt = make_prompt(model)
    result = ikod_generate(
        model, prompt, DecodePolicy(mode=Mode.BASELINE, max_new_tokens=12, seed=0)
    )
    assert result.tokens == greedy_reference(model, prompt, 12)


def test_full_ratio_matches_baseline_token_for_token():
    model = make_model()
    prompt = make_prompt(model)
    baseline = ikod_generate(
        model, prompt, DecodePolicy(mode=Mode.BASELINE, max_new_tokens=12, seed=0)
    )
    merged = ikod_generate(
        model, prompt,
        DecodePolicy(mode=Mode.IKOD, anchor_ratio=1.0, alpha=3.7, max_new_tokens=12, seed=0),
    )
    assert merged.tokens == baseline.tokens
    for step in merged.steps:
        np.testing.assert_allclose(step.p_aug, step.p_orig, atol=1e-9, rtol=0)


def test_zero_alpha_zero_beta_matches_baseline():
    model = make_model()
    prompt = make_prompt(model)
    baseline = ikod_generate(
        model, prompt, DecodePolicy(mode=Mode.BASELINE, max_new_tokens=10, seed=0)
    )
    degenerate = ikod_generate(
        model, prompt,
        DecodePolicy(mode=Mode.IKOD, alpha=0.0, beta=0.0, anchor_ratio=0.4,
                     max_new_tokens=10, seed=0),
    )
    assert degenerate.tokens == baseline.tokens


def test_augmented_path_never_touches_the_cache():
    model = make_model()
    prompt = make_prompt(model)
    result = ikod_generate(
        model, prompt,
        DecodePolicy(mode=Mode.IKOD, anchor_ratio=0.3, max_new_tokens=10, seed=2),
    )
    # Replay exactly the chosen tokens through the plain incremental path.
    cache = model.new_cache(len(prompt.image_embeddings))
    for emb in prompt.image_embeddings:
        model.forward_step(cache, emb)
    for tok in prompt.tokens:
        model.forward_step(cache, tok)
    for tok in result.tokens:
        model.forward_step(cache, tok)
    assert cache.length == result.cache.length
    np.testing.assert_array_equal(
        result.cache.keys[:, :, : cache.length], cache.keys[:, :, : cache.length]
    )
    np.testing.assert_array_equal(
        result.cache.values[:, :, : cache.length], cache.values[:, :, : cache.length]
    )


def test_modes_are_deterministic_under_fixed_seeds():
    model = make_model()
    prompt = make_prompt(model)
    for mode in Mode:
        bases = BaseStrategy(), BaseStrategy(kind="top_k", k=8), BaseStrategy(kind="top_p", p=0.9)
        for base in bases:
            policy = DecodePolicy(mode=mode, base=base, max_new_tokens=8, seed=13)
            a = ikod_generate(model, prompt, policy)
            b = ikod_generate(model, prompt, policy)
            assert a.tokens == b.tokens


def step_scores(step: Step, policy: DecodePolicy) -> np.ndarray:
    """The scores a pick was drawn from, recomputed from its record."""
    if policy.mode is Mode.BASELINE:
        return step.p_orig
    if policy.mode is Mode.IKOD:
        return collaborative_combine(step.p_orig, step.p_aug, policy.alpha, step.v_head)
    return np.where(step.v_head, step.p_aug, 0.0)


def test_no_od_mode_differs_and_respects_the_mask():
    model = make_model()
    prompt = make_prompt(model)
    policy = DecodePolicy(
        mode=Mode.IKOD_NO_OD, anchor_ratio=0.3, beta=0.2, max_new_tokens=8, seed=0
    )
    result = ikod_generate(model, prompt, policy)
    for step in result.steps:
        assert step.p_aug is not None
        # The pick is the merged path's argmax inside the mask.
        assert step.v_head[step.chosen]
        assert step.chosen == int(np.argmax(step_scores(step, policy)))


def test_generation_requires_three_text_tokens_for_merging():
    model = make_model()
    prompt = Prompt(make_image_embeddings(2, 16, 0), (5, 9))
    with pytest.raises(ValueError):
        ikod_generate(model, prompt, DecodePolicy(mode=Mode.IKOD, max_new_tokens=4))
    # Baseline has no such requirement.
    result = ikod_generate(
        model, prompt, DecodePolicy(mode=Mode.BASELINE, max_new_tokens=4)
    )
    assert len(result.tokens) >= 1


def test_generation_rejects_oversized_requests():
    model = make_model(max_seq=10)
    prompt = make_prompt(model)  # prefill is 8 positions
    with pytest.raises(CapacityError):
        ikod_generate(model, prompt, DecodePolicy(mode=Mode.BASELINE, max_new_tokens=4))


def test_text_only_prompt_runs_without_images():
    model = make_model()
    prompt = Prompt(np.zeros((0, 16)), (5, 9, 3, 14))
    result = ikod_generate(
        model, prompt, DecodePolicy(mode=Mode.IKOD, anchor_ratio=0.5, max_new_tokens=6, seed=0)
    )
    assert len(result.tokens) >= 1
    assert all(step.aug_image_attention == 0.0 for step in result.steps)


def test_random_anchor_strategy_is_deterministic():
    model = make_model()
    prompt = make_prompt(model)
    policy = DecodePolicy(
        mode=Mode.IKOD, anchor_strategy=AnchorStrategy.RANDOM, anchor_ratio=0.4,
        max_new_tokens=8, seed=21,
    )
    assert ikod_generate(model, prompt, policy).tokens == ikod_generate(model, prompt, policy).tokens


def test_generation_stops_after_end_token():
    # Seed chosen so top_p sampling at p = 1.0 emits the end token mid-run.
    model = make_model()
    prompt = make_prompt(model)
    stopped = False
    for seed in range(40):
        policy = DecodePolicy(
            mode=Mode.BASELINE, base=BaseStrategy(kind="top_p", p=1.0), max_new_tokens=64,
            seed=seed,
        )
        result = ikod_generate(model, prompt, policy)
        if EOS_TOKEN in result.tokens:
            assert result.tokens[-1] == EOS_TOKEN
            assert EOS_TOKEN not in result.tokens[:-1]
            stopped = True
            break
    assert stopped, "no seed in range produced the end token"


def assert_same_trace(a, b):
    """Bit-for-bit equality of the image attention two caches recorded."""
    n = a.length
    assert n == b.length and a.l_image == b.l_image
    assert a.image_att[:, :, :n].tobytes() == b.image_att[:, :, :n].tobytes()


def assert_same_generation(a, b, policy: DecodePolicy):
    """Bit-for-bit equality of everything two generations under policy
    return, the scores each pick was drawn from included; a greedy pick is
    the argmax of those scores."""
    assert a.tokens == b.tokens
    assert len(a.steps) == len(b.steps)
    merged = policy.mode is not Mode.BASELINE
    for sa, sb in zip(a.steps, b.steps):
        assert sa.chosen == sb.chosen
        for name in ("p_orig", "p_aug", "v_head", "aug_image_attention", "anchors"):
            x, y = getattr(sa, name), getattr(sb, name)
            assert (x is not None) == (y is not None) == (merged or name == "p_orig")
            if x is not None:
                x, y = np.asarray(x), np.asarray(y)
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        scores = step_scores(sa, policy)
        assert scores.tobytes() == step_scores(sb, policy).tobytes()
        if policy.base.kind == "greedy":
            assert sa.chosen == int(np.argmax(scores))
    assert_same_trace(a.cache, b.cache)
    n = a.cache.length
    assert n == b.cache.length
    assert a.cache.keys[:, :, :n].tobytes() == b.cache.keys[:, :, :n].tobytes()
    assert a.cache.values[:, :, :n].tobytes() == b.cache.values[:, :, :n].tobytes()


@pytest.mark.parametrize("strategy", list(AnchorStrategy))
@pytest.mark.parametrize(
    "base", [BaseStrategy(), BaseStrategy(kind="top_p", p=0.9, temperature=0.7)]
)
def test_merges_updated_step_to_step_match_merges_built_afresh(monkeypatch, strategy, base):
    # A large vocabulary keeps sampling off the end token for all 64 steps.
    model = TinyDecoder(replace(make_model().config, vocab_size=256))
    prompt = make_prompt(model)
    policy = DecodePolicy(base=base, anchor_strategy=strategy, max_new_tokens=64)
    updated = ikod_generate(model, prompt, policy)
    merge = decode.merge_cache
    monkeypatch.setattr(
        decode, "merge_cache",
        lambda cache, plan, previous, upcoming: merge(cache, plan, upcoming=upcoming),
    )
    fresh = ikod_generate(model, prompt, policy)
    assert len(updated.tokens) == 64
    assert_same_generation(updated, fresh, policy)


policies = st.builds(
    DecodePolicy,
    mode=st.sampled_from(list(Mode)),
    base=st.just(BaseStrategy())
    | st.builds(
        BaseStrategy, kind=st.just("top_p"), p=st.floats(0.05, 1.0),
        temperature=st.floats(0.1, 5.0),
    )
    | st.builds(
        BaseStrategy, kind=st.just("top_k"), k=st.integers(1, 8),
        temperature=st.floats(0.1, 5.0),
    ),
    alpha=st.floats(0.0, 4.0),
    beta=st.floats(0.0, 1.0),
    anchor_ratio=st.floats(0.01, 1.0),
    anchor_strategy=st.sampled_from(list(AnchorStrategy)),
    max_new_tokens=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


@st.composite
def prompts(draw):
    """A small model and a prompt that leaves room for six new tokens."""
    n_heads, d_head = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    vocab = draw(st.integers(4, 24))
    n_image = draw(st.integers(0, 5))
    tokens = tuple(draw(st.lists(st.integers(1, vocab - 1), min_size=3, max_size=6)))
    cfg = ModelConfig(
        n_layers=draw(st.integers(1, 2)), n_heads=n_heads, d_model=n_heads * d_head,
        d_ff=draw(st.integers(1, 16)), vocab_size=vocab,
        max_seq=n_image + len(tokens) + 6 + draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    images = make_image_embeddings(n_image, cfg.d_model, draw(st.integers(0, 2**32 - 1)))
    return TinyDecoder(cfg), Prompt(images, tokens)


@st.composite
def policy_sequences(draw):
    """Two to five policies in order, drawn from a pool of one to three, so
    repeats are common."""
    pool = draw(st.lists(policies, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5))


@settings(max_examples=60, deadline=None)
@given(case=prompts(), sequence=policy_sequences())
def test_forked_prefill_matches_fresh_generation(case, sequence):
    """Later generations replay from the Prefill what earlier ones decoded;
    each still equals its own run on a fresh prefill, bit for bit."""
    model, prompt = case
    prefix = prefill(model, prompt)
    c = prefix.cache
    arrays = [c.keys, c.values, prefix.logits, c.image_att]
    before = [a.copy() for a in arrays]
    for policy in sequence:
        shared = ikod_generate(model, prefix, policy)
        alone = ikod_generate(model, prefill(model, prompt), policy)
        assert_same_generation(shared, alone, policy)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, before))


def unfused_generate(model, prompt: Prompt, policy: DecodePolicy) -> GenerationResult:
    """The decode loop with its two paths run one after the other: each pick
    plans and merges over the cache as it stands, runs the merged query on
    its own through forward_query, and then feeds the pick to forward_step."""
    prefix = prefill(model, prompt)
    cache = prefix.fork()
    logits, current_input = prefix.logits, prefix.last_input
    rng = Rng(policy.seed)
    result = GenerationResult([], cache)
    merged = None
    for _ in range(policy.max_new_tokens):
        p_orig = softmax_rows(logits[None, :])[0]
        p_aug = v_head = aug_att = anchors = None
        scores = p_orig
        if policy.mode is not Mode.BASELINE:
            plan = build_merge_plan(
                layer_scores(cache), policy.anchor_ratio, policy.anchor_strategy, rng
            )
            merged = merge_cache(cache, plan, merged)
            aug_logits, aug_rows = model.forward_query(
                merged.keys, merged.values, cache.length - 1, current_input
            )
            p_aug = softmax_rows(aug_logits[None, :])[0]
            v_head = plausibility_mask(p_orig, policy.beta)
            if policy.mode is Mode.IKOD:
                scores = collaborative_combine(p_orig, p_aug, policy.alpha, v_head)
            else:
                scores = np.where(v_head, p_aug, 0.0)
            aug_att = float(np.mean([r[:, : cache.l_image].sum(axis=1) for r in aug_rows]))
            anchors = plan.anchors
        token = base_select(scores, policy.base, rng)
        result.steps.append(Step(token, p_orig, p_aug, v_head, aug_att, anchors))
        logits = model.forward_step(cache, token).logits
        current_input = token
        if token == EOS_TOKEN:
            break
    return result


def assert_matches_unfused(model, prompt, source, policy) -> GenerationResult:
    """ikod_generate from source (prompt or one of its Prefills) equals the
    unfused loop on prompt, bit for bit."""
    fused = ikod_generate(model, source, policy)
    assert_same_generation(fused, unfused_generate(model, prompt, policy), policy)
    return fused


@settings(max_examples=60, deadline=None)
@given(case=prompts(), sequence=policy_sequences())
def test_fused_generation_matches_the_unfused_loop(case, sequence):
    """Running each step's merged query through the step that feeds the
    previous pick changes no byte and no random draw: over policy sequences
    on one shared Prefill (so later generations replay steps it recorded)
    every generation equals the loop that runs the two paths apart."""
    model, prompt = case
    prefix = prefill(model, prompt)
    assert_matches_unfused(model, prompt, prompt, sequence[0])
    for policy in sequence:
        assert_matches_unfused(model, prompt, prefix, policy)


def test_fused_generation_matches_the_unfused_loop_in_every_mode_and_strategy():
    """A d_head = 1 model with a small vocabulary, so sampled runs end on the
    end token early, in every mode, strategy and base, at one new token and
    at twelve; each policy twice on one Prefill, missing and then hitting
    its step records."""
    cfg = ModelConfig(n_layers=2, n_heads=3, d_model=3, d_ff=8, vocab_size=6, max_seq=24, seed=0)
    model = TinyDecoder(cfg)
    prompt = Prompt(make_image_embeddings(5, 3, 2), (1, 4, 2, 5))
    prefix = prefill(model, prompt)
    lengths = set()
    for mode in Mode:
        for strategy in AnchorStrategy:
            for base in (BaseStrategy(), BaseStrategy(kind="top_p", p=0.9, temperature=1.5)):
                for new in (1, 12):
                    policy = DecodePolicy(
                        mode=mode, base=base, anchor_ratio=0.5, anchor_strategy=strategy,
                        max_new_tokens=new, seed=new,
                    )
                    for _ in range(2):
                        result = assert_matches_unfused(model, prompt, prefix, policy)
                    lengths.add((new, len(result.tokens)))
    # Some twelve-token runs end on the end token early, and some do not.
    assert (12, 12) in lengths and any(n < new for new, n in lengths)


def test_merged_query_runs_alone_only_on_first_picks_and_replays(monkeypatch):
    model = make_model()
    prompt = make_prompt(model)
    calls = []
    query = TinyDecoder.forward_query
    monkeypatch.setattr(
        TinyDecoder, "forward_query",
        lambda self, *args: calls.append(1) or query(self, *args),
    )
    prefix = prefill(model, prompt)
    for source, replayed in ((prompt, False), (prefix, False), (prefix, True)):
        calls.clear()
        result = ikod_generate(model, source, DecodePolicy(max_new_tokens=12))
        # A step decoded afresh runs the next pick's merged query alongside.
        assert len(calls) == (len(result.tokens) if replayed else 1)
    calls.clear()
    ikod_generate(model, prompt, DecodePolicy(mode=Mode.BASELINE, max_new_tokens=12))
    assert calls == []


def test_prefill_is_read_only_and_records_the_prompt():
    model = make_model()
    prompt = make_prompt(model)
    prefix = prefill(model, prompt)
    c = prefix.cache
    assert (c.l_image, c.length, prefix.last_input) == (4, 8, 14)
    assert c.keys.shape == (2, 2, 8, 8)
    assert c.image_att.shape == (2, 2, 8)
    for array in (c.keys, c.values, prefix.logits, c.image_att):
        with pytest.raises(ValueError):
            array[...] = 0.0


@pytest.mark.parametrize(
    "field, build",
    [
        ("max_new_tokens", lambda: DecodePolicy(max_new_tokens=2.5)),
        ("seed", lambda: DecodePolicy(seed=1.5)),
        ("k", lambda: BaseStrategy(kind="top_k", k=2.5)),
    ],
    ids=["max_new_tokens", "seed", "k"],
)
def test_policy_rejects_fractional_counts(field, build):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
        build()


@pytest.mark.parametrize(
    "field, build",
    [
        ("alpha", lambda: DecodePolicy(alpha=True)),
        ("beta", lambda: DecodePolicy(beta="0.1")),
        ("anchor_ratio", lambda: DecodePolicy(anchor_ratio=None)),
        ("p", lambda: BaseStrategy(kind="top_p", p=True)),
        ("temperature", lambda: BaseStrategy(kind="top_k", k=2, temperature="2")),
    ],
    ids=["alpha-bool", "beta-string", "anchor_ratio-none", "p-bool", "temperature-string"],
)
def test_policy_rejects_booleans_and_non_numbers(field, build):
    with pytest.raises(ValueError, match=f"{field} must be a finite number, got"):
        build()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seeds_outside_the_generator_range_are_rejected(seed):
    """Were a seed's low 64 bits kept, -1 would alias 2**64 - 1 and 2**64 + 5
    would alias 5; the configs and the image draw refuse such seeds instead."""
    bound = "at least 0" if seed < 0 else f"at most {2**64 - 1}"
    message = f"^seed must be {bound}, got {seed}$"
    for build in (
        lambda s: make_model(seed=s),
        lambda s: DecodePolicy(seed=s),
        lambda s: make_image_embeddings(2, 4, s),
    ):
        with pytest.raises(ValueError, match=message):
            build(seed)
        build(seed % 2**64)


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 4, True), "seed must be an integer, got True"),
        ((2, 4, 1.5), "seed must be an integer, got 1.5"),
        ((2.5, 4, 0), "count must be an integer, got 2.5"),
        ((2, "4", 0), "d_model must be an integer, got '4'"),
    ],
)
def test_image_embeddings_reject_non_integer_arguments(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_image_embeddings(*args)


def test_base_select_rejects_non_finite_scores():
    """NaN passes a test for negatives and +inf one for a zero total, so
    each would pick a token unchecked."""
    for scores in ([np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [0.0, np.inf]):
        for base in (BaseStrategy(), BaseStrategy(kind="top_p", p=1.0)):
            with pytest.raises(ValueError):
                base_select(np.array(scores), base, Rng(0))


def test_combine_rejects_a_mask_of_another_shape():
    for mask in ([True], [True, False, True], [[True, False]]):
        with pytest.raises(ValueError, match=r"^v_head must be a \(2\) array, got shape "):
            collaborative_combine([0.5, 0.5], [0.5, 0.5], 1.0, mask)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.5])
def test_combine_rejects_negative_and_non_finite_alpha(alpha):
    rule = "be at least 0.0" if alpha < 0 else "be a finite number"
    with pytest.raises(ValueError, match=f"^alpha must {rule}, got {alpha}$"):
        collaborative_combine([0.5, 0.5], [0.5, 0.5], alpha, [True, True])


@pytest.mark.parametrize("alpha", ["2", True, None])
def test_combine_reads_alpha_as_the_policy_does(alpha):
    with pytest.raises(ValueError, match=f"^alpha must be a finite number, got {alpha!r}$"):
        collaborative_combine([0.5, 0.5], [0.5, 0.5], alpha, [True, True])
    assert collaborative_combine([0.5, 0.5], [0.5, 0.5], 1, [True, False]).tolist() == [1.0, 0.0]


def test_a_request_that_is_not_a_prompt_is_rejected_by_name():
    model = make_model()
    with pytest.raises(ValueError, match="^prompt must be a Prompt or a Prefill, got 'hi'$"):
        ikod_generate(model, "hi", DecodePolicy())


NOT_A_MODEL = "model must be a TinyDecoder, got 'm'"


@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda model, prompt: ikod_generate("m", prompt, DecodePolicy()), NOT_A_MODEL),
        (lambda model, prompt: prefill("m", prompt), NOT_A_MODEL),
        (lambda model, prompt: prefill(model, "hi"), "prompt must be a Prompt, got 'hi'"),
    ],
    ids=["ikod_generate-model", "prefill-model", "prefill-prompt"],
)
def test_a_request_names_a_model_or_prompt_of_the_wrong_type(call, problem):
    model = make_model()
    with pytest.raises(ValueError, match=f"^{problem}$"):
        call(model, make_prompt(model))


NOT_A_CACHE = "cache must be a LayeredKvCache, got None"


@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda model, cache: segment_averages(None),
         "stat must be an ImageAttentionStat, got None"),
        (lambda model, cache: merge_cache(None, MergePlan([[0]], 3)), NOT_A_CACHE),
        (lambda model, cache: model.forward_step(None, 1), NOT_A_CACHE),
        (lambda model, cache: model.forward_prompt(None, [1]), NOT_A_CACHE),
        (lambda model, cache: base_select(np.ones(3), None, None),
         "base must be a BaseStrategy, got None"),
        (lambda model, cache: model.forward_step(cache, 1, merged=5),
         "merged must be a (keys, values) pair, got 5"),
        (lambda model, cache: DecodePolicy(base="greedy"),
         "base must be a BaseStrategy, got 'greedy'"),
    ],
    ids=["segment_averages-stat", "merge_cache-cache", "forward_step-cache",
         "forward_prompt-cache", "base_select-base", "forward_step-merged", "policy-base"],
)
def test_library_calls_name_an_argument_of_the_wrong_type(call, problem):
    model = make_model()
    cache = model.new_cache(0)
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        call(model, cache)
    assert cache.length == 0


NO_TOKENS = "tokens must be a list or tuple of token ids, got None"


@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda model: prefill(model, Prompt(np.zeros((0, 16)), None)), NO_TOKENS),
        (lambda model: base_select(np.ones(3), BaseStrategy("top_k", k=1), "x"),
         "rng must be a Rng, got 'x'"),
        (lambda model: build_merge_plan(np.ones((2, 6)), 0.5, "random", "x"),
         "rng must be a Rng, got 'x'"),
        (lambda model: degradation_report(ImageAttentionStat(None, None)),
         "values must be a (n_steps, n_layers, n_heads) array, got ragged rows or non-numbers"),
        (lambda model: ImageAttentionStat(np.zeros((3, 1, 1)), np.ones(2, dtype=bool)),
         "n_generated must be an integer, got array([ True,  True])"),
    ],
    ids=["prefill-tokens", "base_select-rng", "build_merge_plan-rng",
         "stat-values", "stat-generated"],
)
def test_library_calls_name_a_malformed_field_or_rng(call, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        call(make_model())


@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda model: base_select(np.ones((2, 2)), BaseStrategy(), None),
         "scores must be a (n) array, got shape (2, 2)"),
        (lambda model: prefill(model, Prompt(np.zeros((2, 3)), (1, 2))),
         "image_embeddings must be a (n, 16) array, got shape (2, 3)"),
        (lambda model: prefill(model, Prompt(np.zeros((0, 16)), ())),
         "prompt needs at least one text token"),
        (lambda model: decode.check_counts(96, 0, 0, DecodePolicy()),
         "prompt needs at least one text token"),
    ],
    ids=["base_select-2d-scores", "prompt-image-shape", "prefill-no-tokens", "counts-no-tokens"],
)
def test_decode_errors_pin_their_messages(call, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        call(make_model())


def test_a_request_without_a_policy_is_rejected_by_name():
    model = make_model()
    with pytest.raises(ValueError, match="^policy must be a DecodePolicy, got None$"):
        ikod_generate(model, make_prompt(model), None)


def test_base_strategy_error_names_every_accepted_kind():
    with pytest.raises(ValueError) as err:
        BaseStrategy(kind="beam")
    assert str(err.value) == "kind must be greedy, top_k or top_p, got 'beam'"


def test_policy_takes_numbers_as_floats():
    policy = DecodePolicy(
        alpha=2, beta=0, anchor_ratio=np.float64(0.5), base=BaseStrategy(kind="top_p", p=1)
    )
    values = (policy.alpha, policy.beta, policy.anchor_ratio, policy.base.p)
    assert values == (2.0, 0.0, 0.5, 1.0) and all(type(v) is float for v in values)


def test_policy_takes_whole_numbers_as_ints():
    policy = DecodePolicy(
        max_new_tokens=3.0, seed=np.int64(7), base=BaseStrategy(kind="top_k", k=2.0)
    )
    assert (policy.max_new_tokens, policy.seed, policy.base.k) == (3, 7, 2)
    assert all(type(v) is int for v in (policy.max_new_tokens, policy.seed, policy.base.k))


def test_prefill_rejects_fractional_prompt_tokens(monkeypatch):
    model = make_model()
    prompt = Prompt(make_prompt(model).image_embeddings, (5, 9.7, 3, 14))
    calls = count_forward_steps(monkeypatch)
    with pytest.raises(ValueError, match=r"prompt token \[1\] must be an integer, got 9.7"):
        ikod_generate(model, prompt, DecodePolicy(max_new_tokens=2))
    assert calls == []


def test_prefill_of_another_model_is_rejected():
    model, twin = make_model(), make_model()  # equal weights, different objects
    prefix = prefill(model, make_prompt(model))
    with pytest.raises(ValueError, match="different model"):
        ikod_generate(twin, prefix, DecodePolicy(max_new_tokens=2))


def test_request_errors_come_before_any_forward_step(monkeypatch):
    model = make_model(max_seq=12)
    prompt = make_prompt(model)  # prefill is 8 positions
    short = Prompt(prompt.image_embeddings, (5, 9))
    prefixes = (prefill(model, prompt), prefill(model, short))
    calls = count_forward_steps(monkeypatch)
    for source in (prompt, prefixes[0]):
        with pytest.raises(CapacityError):
            ikod_generate(model, source, DecodePolicy(max_new_tokens=5))
    for source in (short, prefixes[1]):
        with pytest.raises(ValueError, match="three prompt text tokens"):
            ikod_generate(model, source, DecodePolicy(mode=Mode.IKOD, max_new_tokens=2))
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(case=prompts(), policy=policies)
def test_generation_matches_a_plain_forward_step_replay(case, policy):
    """In every mode the cache and the trace of a generation are those of the
    prompt and the emitted tokens fed through forward_step on a fresh cache:
    neither the prefill fork nor the merged path leaves a mark on them."""
    model, prompt = case
    result = ikod_generate(model, prompt, policy)
    cache = model.new_cache(len(prompt.image_embeddings))
    for inp in [*prompt.image_embeddings, *prompt.tokens, *result.tokens]:
        model.forward_step(cache, inp)
    assert result.cache.length == cache.length
    assert result.cache.keys.tobytes() == cache.keys.tobytes()
    assert result.cache.values.tobytes() == cache.values.tobytes()
    assert_same_trace(result.cache, cache)


@settings(max_examples=80, deadline=None)
@given(
    n_layers=st.integers(1, 3),
    n_heads=st.integers(1, 3),
    d_head=st.integers(1, 5),
    d_ff=st.integers(1, 17),
    n_image=st.integers(0, 6),
    token_draws=st.lists(st.integers(0, 2**16), min_size=1, max_size=8),
    seed=st.integers(0, 2**64 - 1),
)
@example(n_layers=2, n_heads=3, d_head=1, d_ff=7, n_image=0, token_draws=[5], seed=1)
def test_prefill_matches_a_forward_step_replay(
    n_layers, n_heads, d_head, d_ff, n_image, token_draws, seed
):
    """The layer-major prefill pass replays one forward_step per prompt
    position (assert_prefill_replays)."""
    vocab = 2 + seed % 23
    cfg = ModelConfig(
        n_layers=n_layers, n_heads=n_heads, d_model=n_heads * d_head, d_ff=d_ff,
        vocab_size=vocab, max_seq=n_image + len(token_draws) + 1, seed=seed,
    )
    images = make_image_embeddings(n_image, cfg.d_model, seed % 2**32)
    assert_prefill_replays(TinyDecoder(cfg), Prompt(images, tuple(t % vocab for t in token_draws)))


def assert_prefill_replays(model: TinyDecoder, prompt: Prompt) -> None:
    """prefill writes the bytes one forward_step per prompt position writes,
    and ends on the same logits. Entries past cache.length are never
    written, so they are not compared."""
    prefix = prefill(model, prompt)
    cache = model.new_cache(len(prompt.image_embeddings))
    for inp in [*prompt.image_embeddings, *prompt.tokens]:
        out = model.forward_step(cache, inp)
    n = cache.length
    assert prefix.cache.keys.tobytes() == cache.keys[:, :, :n].tobytes()
    assert prefix.cache.values.tobytes() == cache.values[:, :, :n].tobytes()
    assert_same_trace(prefix.cache, cache)
    assert prefix.logits.tobytes() == out.logits.tobytes()


# Prefill attention runs blocks of positions; a block of one position is the
# per-position pass it replaced. A budget of 0 bytes runs every prefill
# product in 16-column blocks of its weight matrix.
prefill_blocks = pytest.mark.parametrize(
    "constants",
    [{"_PREFILL_BLOCK": 1}, {}, {"_ROW_TIMES_BYTES": 0}],
    ids=["one-position-blocks", "default-blocks", "16-column-blocks"],
)


def set_model_constants(monkeypatch, constants: dict) -> None:
    for name, value in constants.items():
        monkeypatch.setattr(f"ikod.model.{name}", value)


@prefill_blocks
@pytest.mark.parametrize(
    "n_heads, d_head, n_image, n_tokens",
    [(3, 1, 0, 9), (2, 4, 24, 16), (2, 32, 100, 36), (4, 1, 128, 5)],
    ids=["9-positions", "40-positions", "136-positions", "133-positions"],
)
def test_prefill_matches_a_forward_step_replay_at_fixed_lengths(
    monkeypatch, constants, n_heads, d_head, n_image, n_tokens
):
    """Rows of 9 or more and of more than 128 columns, where numpy's pairwise
    sum runs eight accumulators or splits the row, and so where a row sum
    over a longer, masked row would take another order."""
    set_model_constants(monkeypatch, constants)
    cfg = ModelConfig(
        n_layers=2, n_heads=n_heads, d_model=n_heads * d_head, d_ff=24, vocab_size=40,
        max_seq=n_image + n_tokens, seed=n_image + d_head,
    )
    images = make_image_embeddings(n_image, cfg.d_model, d_head)
    tokens = tuple((7 * i + 3) % cfg.vocab_size for i in range(n_tokens))
    assert_prefill_replays(TinyDecoder(cfg), Prompt(images, tokens))


@prefill_blocks
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prefill_of_a_non_finite_image_raises_as_a_step_replay_does(monkeypatch, constants, bad):
    set_model_constants(monkeypatch, constants)
    model = make_model()
    images = make_image_embeddings(30, model.config.d_model, 3)
    images[27, 5] = bad
    cache = model.new_cache(len(images))
    with pytest.raises(ValueError) as step_error:
        for inp in [*images, 5, 9]:
            model.forward_step(cache, inp)
    assert cache.length == 27
    with pytest.raises(ValueError) as prefill_error:
        prefill(model, Prompt(images, (5, 9)))
    assert type(prefill_error.value) is type(step_error.value)
    assert str(prefill_error.value) == str(step_error.value) == "matrix entries must be finite"


def count_forward_steps(monkeypatch) -> list:
    """The calls into the model's cache-filling arithmetic from here on:
    forward_step and forward_prompt, the prefill pass."""
    calls = []
    for name in ("forward_step", "forward_prompt"):
        method = getattr(TinyDecoder, name)
        monkeypatch.setattr(
            TinyDecoder, name,
            lambda self, *args, method=method: calls.append(1) or method(self, *args),
        )
    return calls


def token_prefixes(tokens) -> set:
    return {tuple(tokens[: i + 1]) for i in range(len(tokens))}


def test_shared_prefill_decodes_each_token_prefix_once(monkeypatch):
    model = make_model()
    prompt = make_prompt(model)
    # A sampled policy that emits the end token before its last step.
    stops_early = next(
        policy
        for seed in range(40)
        for policy in [DecodePolicy(base=BaseStrategy("top_p", p=1.0), max_new_tokens=12, seed=seed)]
        if len(ikod_generate(model, prompt, policy).tokens) < 12
    )
    sequence = [
        DecodePolicy(mode=Mode.BASELINE, max_new_tokens=12),
        DecodePolicy(mode=Mode.IKOD, anchor_ratio=0.4, max_new_tokens=12),
        DecodePolicy(mode=Mode.IKOD, anchor_ratio=0.8, alpha=0.5, max_new_tokens=16),
        DecodePolicy(mode=Mode.IKOD_NO_OD, anchor_strategy=AnchorStrategy.RANDOM, max_new_tokens=12),
        stops_early,
        DecodePolicy(mode=Mode.BASELINE, max_new_tokens=12),
        stops_early,
    ]
    expected = [ikod_generate(model, prefill(model, prompt), p) for p in sequence]
    prefix = prefill(model, prompt)
    calls = count_forward_steps(monkeypatch)
    decoded: set = set()
    for policy, reference in zip(sequence, expected):
        before = len(calls)
        result = ikod_generate(model, prefix, policy)
        assert_same_generation(result, reference, policy)
        new = token_prefixes(result.tokens) - decoded
        assert len(calls) - before == len(new)
        decoded |= new
    assert len(calls) - before == 0  # a repeated policy runs no forward step
    assert len(calls) == len(decoded) == len(prefix.step_rows)
    assert len(decoded) < sum(len(r.tokens) for r in expected)  # some prefixes were shared


def test_a_prompt_request_records_no_steps(monkeypatch):
    """No other generation can reach a Prompt request's own Prefill, so its
    step records stay empty and unallocated."""
    model = make_model()
    made = []
    real_prefill = decode.prefill
    monkeypatch.setattr(decode, "prefill", lambda *args: made.append(real_prefill(*args)) or made[-1])
    for mode in Mode:
        ikod_generate(model, make_prompt(model), DecodePolicy(mode=mode, max_new_tokens=6))
    assert len(made) == len(Mode)
    assert all(not p.step_blocks and not p.step_rows for p in made)


def test_step_tree_fills_to_max_seq_rows_then_keeps_replaying(monkeypatch):
    model = make_model(max_seq=20)
    prompt = make_prompt(model)  # prefill is 8 positions, so 12 new tokens fit
    prefix = prefill(model, prompt)
    sampled = [
        DecodePolicy(
            mode=(Mode.BASELINE, Mode.IKOD)[seed % 2],
            base=BaseStrategy(kind="top_p", p=1.0, temperature=2.0), max_new_tokens=12,
            seed=seed,
        )
        for seed in range(30)
    ]
    for policy in sampled:
        alone = ikod_generate(model, prefill(model, prompt), policy)
        assert_same_generation(ikod_generate(model, prefix, policy), alone, policy)
    assert len(prefix.step_rows) == model.config.max_seq
    assert list(prefix.step_rows.values()) == list(range(len(prefix.step_rows)))
    for block in prefix.step_blocks:
        assert len(block) == model.config.max_seq
    # The first generation recorded its whole path into empty records.
    calls = count_forward_steps(monkeypatch)
    ikod_generate(model, prefix, sampled[0])
    assert calls == []
    assert len(prefix.step_rows) == model.config.max_seq


@settings(max_examples=60, deadline=None)
@given(case=prompts(), policy=policies, extra=st.integers(-3, 2))
def test_decoding_never_exceeds_max_seq(case, policy, extra):
    """Around capacity, a Prompt and a Prefill whose records already hold the
    path both raise CapacityError before any step, or both stay in max_seq."""
    model, prompt = case
    max_seq = model.config.max_seq
    room = max_seq - len(prompt.image_embeddings) - len(prompt.tokens)
    prefix = prefill(model, prompt)
    warm = ikod_generate(model, prefix, replace(policy, max_new_tokens=room))
    used = len(prefix.step_rows)
    requested = replace(policy, max_new_tokens=max(1, room + extra))
    outcomes = []
    for source in (prompt, prefix):
        try:
            outcomes.append(ikod_generate(model, source, requested))
        except CapacityError:
            outcomes.append(CapacityError)
    assert len(prefix.step_rows) == used == len(warm.tokens)
    if requested.max_new_tokens > room:
        assert outcomes == [CapacityError, CapacityError]
        return
    assert_same_generation(*outcomes, requested)
    for result in outcomes:
        assert result.cache.length <= max_seq


@settings(max_examples=60, deadline=None)
@given(case=prompts(), policy=policies, data=st.data())
def test_replayed_step_raises_where_forward_step_would(case, policy, data):
    """Into a cache with no room left, a replayed step raises the error
    forward_step raises; with room, it writes the same bytes."""
    model, prompt = case
    cfg = model.config
    prefix = prefill(model, prompt)
    tokens = ikod_generate(model, prefix, policy).tokens
    k = data.draw(st.integers(0, len(tokens) - 1), label="step")
    parent = -1
    for token in tokens[:k]:
        parent = prefix.step_rows[(parent, token)]
    length = len(prompt.image_embeddings) + len(prompt.tokens) + k
    cache_room = data.draw(st.integers(0, 1), label="cache room")
    outcomes = []
    for replay in (True, False):
        cache = LayeredKvCache(
            cfg.n_layers, cfg.n_heads, cfg.d_head, length + cache_room, prefix.cache.l_image
        )
        for inp in [*prompt.image_embeddings, *prompt.tokens, *tokens[:k]]:
            model.forward_step(cache, inp)
        try:
            if replay:
                logits = prefix.step(cache, parent, tokens[k])[1]
            else:
                logits = model.forward_step(cache, tokens[k]).logits
        except CapacityError as exc:
            outcomes.append(type(exc))
            continue
        n = cache.length
        outcomes.append((
            logits.tobytes(), n,
            cache.keys[:, :, :n].tobytes(), cache.values[:, :, :n].tobytes(),
            cache.image_att[:, :, :n].tobytes(),
        ))
    assert outcomes[0] == outcomes[1]
    assert cache_room or outcomes[0] is CapacityError


@pytest.mark.parametrize(
    "sizes", [(1, 2, 4), (3, 2, 4), (2, 1, 4), (2, 2, 5)],
    ids=["fewer-layers", "more-layers", "fewer-heads", "wider-heads"],
)
def test_a_cache_of_other_sizes_is_rejected_before_any_row_is_written(sizes):
    """forward_step, forward_prompt and a replayed step reject a cache whose
    layer, head or d_head count is not the model's, naming the cache, and
    write no row of it."""
    model = TinyDecoder(ModelConfig(2, 2, 8, 16, vocab_size=16, max_seq=8))
    prefix = prefill(model, Prompt(np.zeros((0, 8)), (1, 2, 3)))
    token = ikod_generate(model, prefix, DecodePolicy(max_new_tokens=1)).tokens[0]
    runs = {
        "forward_step": lambda cache: model.forward_step(cache, 1),
        "forward_prompt": lambda cache: model.forward_prompt(cache, [1, 2]),
        "replay": lambda cache: prefix.step(cache, -1, token),
    }
    for name, run in runs.items():
        cache = LayeredKvCache(*sizes, 8, 0)
        problem = f"cache must be of the model's shape (2, 2, 8, 4), got {cache.keys.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            run(cache)
        assert cache.length == 0, name
        assert not cache.keys.any() and not cache.values.any(), name
