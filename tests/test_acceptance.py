"""Acceptance suite: one test per release criterion.

Each test prints a verdict line; run with `pytest tests/test_acceptance.py -v -s`
to see them. Property checks use seeded generators, so every run exercises the
same instances.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from ikod.attn_analysis import (
    ImageAttentionStat,
    degradation_report,
    kde2d,
    synthetic_uniform_trace,
    uniform_attention_prediction,
)
from ikod.cli import main
from ikod.cost import growth_rate_closed_form, growth_rate_exact
from ikod.decode import (
    DecodePolicy,
    Mode,
    Prompt,
    collaborative_combine,
    ikod_generate,
    plausibility_mask,
)
from ikod.kv_merge import MergePlan, build_merge_plan, layer_scores, merge_cache
from ikod.metrics import BinaryOutcomes, CaptionRecord, binary_metrics, chair_scores
from ikod.model import ModelConfig, TinyDecoder, make_image_embeddings
from ikod.numerics import softmax_rows


def verdict(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:2d} ({name}): PASS")


def test_criterion_1_partition_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240811)
    for _ in range(1000):
        text_len = int(rng.integers(3, 201))
        domain = text_len - 2
        k = int(rng.integers(1, domain + 1))
        anchors = np.sort(rng.choice(domain, size=k, replace=False))
        plan = MergePlan(anchors[None, :], text_len)
        buckets = zip(plan.starts[0].tolist(), plan.ends[0].tolist())
        # Brute-force oracle: each position joins the nearest anchor;
        # argmin returns the first (left) anchor on distance ties.
        positions = np.arange(domain)
        assignment = np.argmin(np.abs(positions[:, None] - anchors[None, :]), axis=1)
        covered = 0
        for b, (lo, hi) in enumerate(buckets):
            assert lo == covered, "buckets must tile the domain without gaps"
            assert lo <= hi
            assert np.all(assignment[lo : hi + 1] == b)
            covered = hi + 1
        assert covered == domain
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"partition oracle took {elapsed:.2f}s"
    verdict(1, "bucket partition matches nearest-anchor oracle")


def test_criterion_2_full_ratio_identity_chain():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(50):
        cfg = ModelConfig(
            n_layers=int(rng.integers(1, 3)),
            n_heads=2,
            d_model=16,
            d_ff=32,
            vocab_size=24,
            max_seq=64,
            seed=int(rng.integers(1 << 20)),
        )
        model = TinyDecoder(cfg)
        n_image = int(rng.integers(0, 5))
        n_text = int(rng.integers(3, 7))
        prompt = Prompt(
            image_embeddings=make_image_embeddings(n_image, 16, int(rng.integers(1 << 20))),
            tokens=tuple(int(t) for t in rng.integers(1, 24, size=n_text)),
        )

        # Identity of the merged cache itself, checked right after prefill.
        cache = model.new_cache(n_image)
        for emb in prompt.image_embeddings:
            model.forward_step(cache, emb)
        last = None
        for tok in prompt.tokens:
            last = model.forward_step(cache, int(tok))
        plan = build_merge_plan(layer_scores(cache), 1.0)
        merged = merge_cache(cache, plan)
        for li in range(cfg.n_layers):
            assert np.array_equal(merged.keys[li], cache.keys[li, :, :cache.length])
            assert np.array_equal(merged.values[li], cache.values[li, :, :cache.length])
        logits, _ = model.forward_query(
            merged.keys, merged.values, cache.length - 1, int(prompt.tokens[-1])
        )
        np.testing.assert_allclose(logits, last.logits, atol=1e-9, rtol=0)

        # Full-pipeline equality, token for token.
        baseline = ikod_generate(
            model, prompt, DecodePolicy(mode=Mode.BASELINE, max_new_tokens=8, seed=trial)
        )
        full_ratio = ikod_generate(
            model,
            prompt,
            DecodePolicy(
                mode=Mode.IKOD, anchor_ratio=1.0, alpha=2.0, beta=0.1,
                max_new_tokens=8, seed=trial,
            ),
        )
        assert full_ratio.tokens == baseline.tokens
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"identity chain took {elapsed:.2f}s"
    verdict(2, "full-ratio merge is the identity end to end")


def test_criterion_3_incremental_matches_full_recompute():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n_heads = int(rng.integers(1, 5))
        d_head = int(rng.choice([2, 4, 8]))  # d_model caps at 32
        d_model = n_heads * d_head
        cfg = ModelConfig(
            n_layers=int(rng.integers(1, 5)),
            n_heads=n_heads,
            d_model=d_model,
            d_ff=int(rng.integers(4, 33)),
            vocab_size=12,
            max_seq=64,
            seed=int(rng.integers(1 << 20)),
        )
        model = TinyDecoder(cfg)
        n = int(rng.integers(2, 65))
        embeddings = rng.normal(size=(n, cfg.d_model))
        full = model.forward_full(embeddings)
        cache = model.new_cache(0)
        worst = 0.0
        for t in range(n):
            step = model.forward_step(cache, embeddings[t])
            worst = max(worst, float(np.abs(step.logits - full.logits[t]).max()))
        assert worst <= 1e-5, f"incremental/full divergence {worst:.3e}"
    verdict(3, "incremental decoding equals full recompute within 1e-5")


def test_criterion_4_uniform_attention_prediction():
    l_image, l_others, l_gen = 6, 4, 40
    trace = synthetic_uniform_trace(l_image, l_others, l_gen, n_layers=2, n_heads=3)
    stat = ImageAttentionStat.from_trace(trace, l_gen)
    att = stat.att_avg[stat.generated]
    for t in range(1, l_gen + 1):
        predicted = uniform_attention_prediction(l_image, l_others, t)
        measured = att[t - 1]
        assert measured == pytest.approx(predicted, rel=1e-13), (t, measured, predicted)
    column = [a for _, a in degradation_report(stat)]
    assert all(a > b for a, b in zip(column, column[1:])), "column must strictly decrease"
    verdict(4, "uniform rows reproduce the analytic image share, strictly decreasing")


def test_criterion_5_cost_model():
    assert growth_rate_exact(2, 8, 4, 4, 0.5) == 0.703125
    rng = np.random.default_rng(5)
    for _ in range(1000):
        layers = int(rng.integers(1, 9))
        seq_len = int(rng.integers(2, 4097))
        hidden = int(rng.integers(1, 513))
        text_len = int(rng.integers(1, seq_len))
        ratio = float(rng.uniform(1e-6, 1.0))
        exact = growth_rate_exact(layers, seq_len, hidden, text_len, ratio)
        closed = growth_rate_closed_form(seq_len, hidden, text_len, ratio)
        assert abs(closed - exact) <= 1e-12 * abs(exact)
        if ratio < 1.0:
            assert exact < 1.0
    verdict(5, "cost model: hand value exact, closed form matches, growth below 1")


def test_criterion_6_plausibility_and_combination_algebra():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    vocab = 16
    for _ in range(10000):
        p_orig = softmax_rows(rng.normal(scale=2.0, size=(1, vocab)))[0]
        p_aug = softmax_rows(rng.normal(scale=2.0, size=(1, vocab)))[0]
        assert plausibility_mask(p_orig, 0.0).all()
        top_only = plausibility_mask(p_orig, 1.0)
        assert np.array_equal(top_only, p_orig == p_orig.max())
        zero_alpha = collaborative_combine(p_orig, p_aug, 0.0, plausibility_mask(p_orig, 0.3))
        assert int(np.argmax(zero_alpha)) == int(np.argmax(p_orig))
        alpha = float(rng.uniform(0.0, 4.0))
        beta = float(rng.uniform(0.0, 1.0))
        scale = float(10.0 ** rng.uniform(-3.0, 3.0))
        pick = int(
            np.argmax(collaborative_combine(p_orig, p_aug, alpha, plausibility_mask(p_orig, beta)))
        )
        scaled_pick = int(
            np.argmax(
                collaborative_combine(
                    scale * p_orig, scale * p_aug, alpha, plausibility_mask(scale * p_orig, beta)
                )
            )
        )
        assert pick == scaled_pick
        assert plausibility_mask(p_orig, beta)[int(np.argmax(p_orig))]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"algebra trials took {elapsed:.2f}s"
    verdict(6, "plausibility and combination algebra over 10k random trials")


def test_criterion_7_kde():
    single = kde2d([(0.0, 0.0)], [(0.0, 0.0)], h_x=0.5, h_y=0.5)
    assert abs(single[0] - 2.0 / math.pi) <= 1e-9
    rng = np.random.default_rng(3)
    axis = np.arange(-5.0, 6.0, 0.1)
    grid = np.array([(x, y) for x in axis for y in axis])
    cell = 0.1 * 0.1
    for _ in range(100):
        n = int(rng.integers(1, 41))
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        total = kde2d(pts, grid).sum() * cell
        assert abs(total - 1.0) <= 0.02, f"integral {total:.4f}"
    verdict(7, "KDE: closed-form point value and unit integral")


def test_criterion_8_metrics():
    records = [
        CaptionRecord(frozenset({"dog", "frisbee", "tree"}), frozenset({"dog", "frisbee"})),
        CaptionRecord(frozenset({"cat"}), frozenset({"cat"})),
    ]
    chair_s, chair_i = chair_scores(records)
    assert chair_s == 0.5
    assert chair_i == 0.25
    m = binary_metrics(BinaryOutcomes(tp=3, fp=1, fn=2, tn=4))
    assert m.precision == 0.75
    assert m.recall == 0.6
    assert m.f1 == pytest.approx(2 / 3)
    assert binary_metrics(BinaryOutcomes(1, 0, 0, 1)) == (1.0, 1.0, 1.0, 1.0)
    verdict(8, "hallucination and binary metrics reproduce the hand cases")


ACCEPTANCE_CONFIG = {
    "model": {
        "n_layers": 2,
        "n_heads": 2,
        "d_model": 16,
        "d_ff": 32,
        "vocab_size": 32,
        "max_seq": 96,
        "seed": 5,
    },
    "image_count": 6,
    "image_seed": 9,
    "prompt_tokens": [5, 9, 3, 14, 2],
    "policy": {
        "mode": "ikod",
        "base": {"kind": "greedy"},
        "alpha": 2.0,
        "beta": 0.1,
        "anchor_ratio": 0.4,
        "anchor_strategy": "low_attention",
        "max_new_tokens": 12,
        "seed": 3,
    },
}


def test_criterion_9_decode_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(ACCEPTANCE_CONFIG), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["decode", "--config", str(cfg), "--out", str(out_a), "--emit-merge-plans"]) == 0
    assert main(["decode", "--config", str(cfg), "--out", str(out_b), "--emit-merge-plans"]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    verdict(9, "repeated decode runs are byte-identical")


def test_criterion_10_sweep_attention_report(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(ACCEPTANCE_CONFIG), encoding="utf-8")
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--config", str(cfg), "--out", str(out),
            "--lambdas", "0.2,0.4,0.6,0.8,1.0", "--include-baseline",
        ]
    )
    assert code == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    idx = {name: i for i, name in enumerate(rows[0])}
    body = rows[1:]
    assert len(body) == 6
    baseline = body[0]
    assert baseline[idx["mode"]] == "baseline"
    base_att = float(baseline[idx["mean_image_att"]])
    for row in body[1:]:
        lam = float(row[idx["anchor_ratio"]])
        assert row[idx["mode"]] == "ikod"
        if lam < 1.0:
            aug = float(row[idx["mean_aug_image_att"]])
            assert aug >= base_att, (lam, aug, base_att)
    verdict(10, "sweep reports higher merged-path image attention below full ratio")
