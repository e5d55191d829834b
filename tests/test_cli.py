import csv
import json

import pytest

from ikod.cli import _read_trace_csv, main
from ikod.model import ConfigError

BASE_CONFIG = {
    "model": {
        "n_layers": 2,
        "n_heads": 2,
        "d_model": 16,
        "d_ff": 32,
        "vocab_size": 32,
        "max_seq": 96,
        "seed": 5,
    },
    "image_count": 4,
    "image_seed": 9,
    "prompt_tokens": [5, 9, 3, 14],
    "policy": {
        "mode": "ikod",
        "base": {"kind": "greedy"},
        "alpha": 2.0,
        "beta": 0.1,
        "anchor_ratio": 0.4,
        "anchor_strategy": "low_attention",
        "max_new_tokens": 8,
        "seed": 3,
    },
}


def write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_decode_writes_expected_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["decode", "--config", str(cfg), "--out", str(out)]) == 0
    gen = json.loads((out / "generation.json").read_text())
    assert gen["request"]["image_count"] == 4
    assert gen["request"]["policy"]["mode"] == "ikod"
    assert len(gen["result"]["tokens"]) >= 1
    step = gen["result"]["per_step"][0]
    assert len(step["p_orig_top5"]) == 5
    assert len(step["p_aug_top5"]) == 5
    assert step["v_head_size"] >= 1
    rows = read_csv(out / "trace.csv")
    assert rows[0] == ["step", "layer", "head", "att_image"]
    n_steps = 4 + 4 + len(gen["result"]["tokens"])
    assert len(rows) - 1 == n_steps * 2 * 2


def test_decode_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["decode", "--config", str(cfg), "--out", str(out_a), "--emit-merge-plans"]) == 0
    assert main(["decode", "--config", str(cfg), "--out", str(out_b), "--emit-merge-plans"]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_decode_full_ratio_matches_baseline_tokens(tmp_path):
    cfg_ikod = write_config(tmp_path, policy={"anchor_ratio": 1.0})
    out_i = tmp_path / "ikod"
    main(["decode", "--config", str(cfg_ikod), "--out", str(out_i)])
    cfg_base = write_config(tmp_path, policy={"mode": "baseline"})
    out_b = tmp_path / "base"
    main(["decode", "--config", str(cfg_base), "--out", str(out_b)])
    tokens_i = json.loads((out_i / "generation.json").read_text())["result"]["tokens"]
    tokens_b = json.loads((out_b / "generation.json").read_text())["result"]["tokens"]
    assert tokens_i == tokens_b


def test_decode_missing_config_exits_2(tmp_path, capsys):
    assert main(["decode", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_decode_bad_policy_exits_2(tmp_path):
    cfg = write_config(tmp_path, policy={"anchor_ratio": 0.0})
    assert main(["decode", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"image_count": 2.7}, "image_count"),
        ({"image_count": True}, "image_count"),
        ({"image_seed": None}, "image_seed"),
        ({"prompt_tokens": [1.5, 3]}, "prompt_tokens[0]"),
        ({"prompt_tokens": [5, True, 3]}, "prompt_tokens[1]"),
        ({"prompt_tokens": [None]}, "prompt_tokens[0]"),
        ({"prompt_tokens": 5}, "prompt_tokens"),
        ({"policy": {"max_new_tokens": 2.9}}, "policy.max_new_tokens"),
        ({"policy": {"seed": None}}, "policy.seed"),
        ({"policy": {"base": {"kind": "top_k", "k": 2.5}}}, "policy.base.k"),
        ({"policy": [1]}, "policy"),
        ({"policy": {"base": "greedy"}}, "policy.base"),
    ],
)
def test_decode_rejects_malformed_fields(tmp_path, capsys, overrides, field):
    path = write_config(tmp_path, **overrides)
    assert main(["decode", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be" in err or f"bad policy: {field} must be" in err
    assert not (tmp_path / "x").exists()


def test_decode_capacity_exits_3(tmp_path):
    cfg = write_config(tmp_path, model={"max_seq": 10})
    assert main(["decode", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3


def test_decode_emits_merge_plans(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    main(["decode", "--config", str(cfg), "--out", str(out), "--emit-merge-plans"])
    gen = json.loads((out / "generation.json").read_text())
    plans = sorted((out / "merge_plans").glob("step_*.json"))
    assert len(plans) == len(gen["result"]["tokens"])
    doc = json.loads(plans[0].read_text())
    assert doc["layers"][0]["buckets"]


def test_analyze_run_dir(tmp_path):
    cfg = write_config(tmp_path, policy={"max_new_tokens": 10})
    run = tmp_path / "run"
    main(["decode", "--config", str(cfg), "--out", str(run)])
    out = tmp_path / "analysis"
    assert main(["analyze", str(run), "--out", str(out), "--kde", "--kde-grid", "11"]) == 0
    degradation = read_csv(out / "degradation.csv")
    assert degradation[0] == ["relative_position", "att_avg"]
    gen_count = len(json.loads((run / "generation.json").read_text())["result"]["tokens"])
    assert len(degradation) - 1 == gen_count
    assert float(degradation[-1][0]) == 1.0
    kde = read_csv(out / "kde.csv")
    assert kde[0] == ["x", "y", "density"]
    assert len(kde) - 1 == 11 * 11
    segments = read_csv(out / "segments.csv")
    assert segments[0] == ["layer", "head", "att_first", "att_last", "segment_len"]
    assert len(segments) - 1 == 2 * 2


def test_analyze_synthetic_uniform_matches_prediction(tmp_path):
    out = tmp_path / "analysis"
    code = main(
        [
            "analyze", "--synthetic-uniform", "--image-count", "6",
            "--other-count", "3", "--gen-count", "8", "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "degradation.csv")[1:]
    assert len(rows) == 8
    for t, (rel, att) in enumerate(rows, start=1):
        assert float(rel) == pytest.approx(t / 8)
        assert float(att) == pytest.approx(6 / (6 + 3 + t), rel=1e-13)


def test_analyze_short_run_warns_and_skips_segments(tmp_path, capsys):
    out = tmp_path / "analysis"
    code = main(
        [
            "analyze", "--synthetic-uniform", "--image-count", "2",
            "--other-count", "3", "--gen-count", "3", "--out", str(out),
        ]
    )
    assert code == 0
    assert "segment summary omitted" in capsys.readouterr().err
    assert not (out / "segments.csv").exists()


def test_analyze_without_input_exits_2(tmp_path):
    assert main(["analyze", "--out", str(tmp_path / "x")]) == 2


def test_analyze_empty_trace_exits_2(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "generation.json").write_text(
        json.dumps({"request": {"image_count": 0, "prompt_tokens": []}, "result": {"tokens": []}})
    )
    (run / "trace.csv").write_text("step,layer,head,att_image\n")
    assert main(["analyze", str(run), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "body, problem",
    [
        ("0,0,0,0.5\n0,0,1,0.5\n1,0,0,0.5\n", "missing cell step 1, layer 0, head 1"),
        ("0,0,0,0.5\n0,0,0,0.25\n", "duplicate cell step 0, layer 0, head 0"),
        ("0,0,-1,0.5\n", "negative"),
    ],
)
def test_analyze_rejects_incomplete_trace(tmp_path, capsys, body, problem):
    run = tmp_path / "run"
    run.mkdir()
    (run / "generation.json").write_text(
        json.dumps({"request": {"image_count": 1, "prompt_tokens": []}, "result": {"tokens": [3]}})
    )
    (run / "trace.csv").write_text("step,layer,head,att_image\n" + body)
    with pytest.raises(ConfigError, match=problem):
        _read_trace_csv(run / "trace.csv")
    assert main(["analyze", str(run), "--out", str(tmp_path / "x")]) == 2
    assert problem in capsys.readouterr().err


def test_sweep_rows_and_full_ratio_equals_baseline(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--config", str(cfg), "--out", str(out),
            "--lambdas", "0.2,0.4,0.6,0.8,1.0", "--include-baseline",
        ]
    )
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    header, body = rows[0], rows[1:]
    assert len(body) == 6  # baseline + five grid points
    idx = {name: i for i, name in enumerate(header)}
    baseline = body[0]
    assert baseline[idx["mode"]] == "baseline"
    lam_rows = {float(r[idx["anchor_ratio"]]): r for r in body[1:]}
    assert lam_rows[1.0][idx["tokens"]] == baseline[idx["tokens"]]
    assert lam_rows[1.0][idx["generated_len"]] == baseline[idx["generated_len"]]
    base_att = float(baseline[idx["mean_image_att"]])
    for lam, row in lam_rows.items():
        if lam < 1.0:
            assert float(row[idx["mean_aug_image_att"]]) >= base_att


def test_sweep_single_point_matches_decode_tokens(tmp_path):
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    main(["decode", "--config", str(cfg), "--out", str(run)])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2
    tokens = json.loads((run / "generation.json").read_text())["result"]["tokens"]
    assert rows[1][-1] == " ".join(str(t) for t in tokens)


def test_sweep_respects_thread_env(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("IKOD_THREADS", "4")
    out_par = tmp_path / "par"
    main(["sweep", "--config", str(cfg), "--out", str(out_par), "--lambdas", "0.2,0.5,1.0"])
    monkeypatch.delenv("IKOD_THREADS")
    out_seq = tmp_path / "seq"
    main(["sweep", "--config", str(cfg), "--out", str(out_seq), "--lambdas", "0.2,0.5,1.0"])
    assert (out_par / "sweep.csv").read_bytes() == (out_seq / "sweep.csv").read_bytes()
    monkeypatch.setenv("IKOD_THREADS", "zebra")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "z")]) == 2


def test_sweep_strategy_grid_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--config", str(cfg), "--out", str(out),
            "--strategies", "low_attention,high_attention,random",
        ]
    )
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert [r[5] for r in rows[1:]] == ["low_attention", "high_attention", "random"]


def test_sweep_empty_grid_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x"), "--lambdas", " "]) == 2


def test_sweep_ground_truth_column(tmp_path):
    cfg = write_config(tmp_path)
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps(list(range(32))), encoding="utf-8")
    out = tmp_path / "sweep"
    main(["sweep", "--config", str(cfg), "--out", str(out), "--ground-truth-tokens", str(gt)])
    rows = read_csv(out / "sweep.csv")
    idx = rows[0].index("halluc_rate")
    assert float(rows[1][idx]) == 0.0  # every token id is in the ground truth


@pytest.mark.parametrize(
    "tokens, problem",
    [([True, 1.5], "[0] must be an integer, got True"), ([3, None], "[1] must be an integer, got None")],
)
def test_sweep_rejects_non_integer_ground_truth(tmp_path, capsys, tokens, problem):
    cfg = write_config(tmp_path)
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps(tokens), encoding="utf-8")
    out = tmp_path / "sweep"
    args = ["sweep", "--config", str(cfg), "--out", str(out), "--ground-truth-tokens", str(gt)]
    assert main(args) == 2
    assert f"ground truth token {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_flops_reproduces_hand_case(tmp_path, capsys):
    out_file = tmp_path / "cost.json"
    code = main(
        [
            "flops", "--layers", "2", "--seq-len", "8", "--hidden", "4",
            "--text-len", "4", "--lam", "0.5", "--out", str(out_file),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["original"] == 8192
    assert doc["ikod"] == 8192 + 5760
    assert doc["exact_g"] == 0.703125
    assert doc["closed_g"] == 0.703125
    assert json.loads(out_file.read_text()) == doc


def test_flops_full_ratio_costs_one_pass(capsys):
    main(["flops", "--layers", "2", "--seq-len", "8", "--hidden", "4", "--text-len", "4", "--lam", "1.0"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact_g"] == pytest.approx(1.0)


def test_flops_rejects_text_not_shorter_than_sequence(capsys):
    code = main(
        ["flops", "--layers", "2", "--seq-len", "8", "--hidden", "4", "--text-len", "8", "--lam", "0.5"]
    )
    assert code == 2


def test_metrics_chair_and_binary(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text(
        '{"mentioned": ["dog", "frisbee", "tree"], "ground_truth": ["dog", "frisbee"]}\n'
        '{"mentioned": ["cat"], "ground_truth": ["cat"]}\n',
        encoding="utf-8",
    )
    code = main(["metrics", "--records", str(records), "--binary", "3,1,2,4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chair_s"] == 0.5
    assert doc["chair_i"] == 0.25
    assert doc["records"] == 2
    assert doc["precision"] == 0.75
    assert doc["recall"] == 0.6


def test_metrics_without_inputs_exits_2():
    assert main(["metrics"]) == 2
