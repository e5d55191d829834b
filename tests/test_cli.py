import csv
import json
import os
import sys

import pytest

from ikod import cli, decode
from ikod.attn_analysis import (
    ImageAttentionStat,
    degradation_report,
    read_trace_csv,
    segment_averages,
)
from ikod.cli import _build_prompt, _write_csv, load_run_config, main
from ikod.decode import EOS_TOKEN, ikod_generate, prefill
from ikod.model import CapacityError, TinyDecoder

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


def test_decode_needs_an_output_directory(tmp_path, capsys):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


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
        ({"policy": {"alpha": None}}, "policy.alpha"),
        ({"policy": {"alpha": True}}, "policy.alpha"),
        ({"policy": {"alpha": float("inf")}}, "policy.alpha"),
        ({"policy": {"beta": "0.1"}}, "policy.beta"),
        ({"policy": {"anchor_ratio": [0.4]}}, "policy.anchor_ratio"),
        ({"policy": {"base": {"kind": "top_p", "p": True}}}, "policy.base.p"),
        (
            {"policy": {"base": {"kind": "top_p", "p": 0.9, "temperature": "2"}}},
            "policy.base.temperature",
        ),
    ],
)
def test_decode_rejects_malformed_fields(tmp_path, capsys, overrides, field):
    path = write_config(tmp_path, **overrides)
    assert main(["decode", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be" in err or f"bad policy: {field} must be" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "policy, problem",
    [
        ({"mode": "fast"}, "policy.mode must be one of baseline, ikod, ikod_no_od, got 'fast'"),
        ({"anchor_strategy": None}, "policy.anchor_strategy must be one of"),
        ({"beta": 1.5}, "policy.beta must be at most 1.0, got 1.5"),
        ({"max_new_tokens": 0}, "policy.max_new_tokens must be at least 1"),
        ({"base": {"kind": "beam"}},
         "policy.base.kind must be greedy, top_k or top_p, got 'beam'"),
        ({"base": {"kind": "top_k"}}, "policy.base.k must be set for top_k"),
        ({"base": {"kind": "top_p", "p": 1.5}}, "policy.base.p must be at most 1.0, got 1.5"),
        ({"base": {"kind": "greedy", "p": 0.5}}, "policy.base.p must be unset for greedy"),
        ({"base": {"kind": "top_p", "p": 1, "temperature": 0}}, "policy.base.temperature must be"),
        ({"gamma": 1}, "unknown policy keys: ['gamma']"),
        ({"base": {"kind": "top_k", "k": 2, "n": 1}}, "unknown policy.base keys: ['n']"),
        ({"base": {"kind": "top_p", "p": 0.9, "k": 3}}, "policy.base.k must be unset for top_p"),
        ({"base": {"kind": "nucleus"}},
         "policy.base.kind must be greedy, top_k or top_p, got 'nucleus'"),
    ],
)
def test_decode_policy_errors_name_the_field(tmp_path, capsys, policy, problem):
    path = write_config(tmp_path, policy=policy)
    assert main(["decode", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert f"error: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "edit, problem",
    [
        (
            lambda cfg: cfg.update(imagecount=6, polcy={"mode": "baseline"}),
            "unknown config keys: ['imagecount', 'polcy']",
        ),
        (lambda cfg: cfg.pop("model"), "missing config keys: ['model']"),
        (lambda cfg: cfg.update(model=[]), "model must be a JSON object, got []"),
        (lambda cfg: cfg["model"].pop("max_seq"), "missing model keys: ['max_seq']"),
        (lambda cfg: cfg["model"].update(width=8), "unknown model keys: ['width']"),
        (lambda cfg: cfg["model"].update(n_heads=0), "model.n_heads must be at least 1"),
        # d_head is derived from d_model and n_heads, not a key.
        (lambda cfg: cfg["model"].update(d_head=8), "unknown model keys: ['d_head']"),
        # The output directory is decode's --out, not a key.
        (lambda cfg: cfg.update(output_dir="run"), "unknown config keys: ['output_dir']"),
    ],
    ids=["unknown-top-level", "no-model", "model-array", "missing-model-key", "unknown-model-key",
         "model-field", "model-d_head", "output_dir"],
)
def test_decode_rejects_malformed_config_objects(tmp_path, capsys, edit, problem):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["decode", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert f"error: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_decode_writes_whole_number_policy_values_as_floats(tmp_path):
    policy = {"alpha": 2, "beta": 0, "base": {"kind": "top_p", "p": 1}}
    path = write_config(tmp_path, policy=policy)
    assert main(["decode", "--config", str(path), "--out", str(tmp_path / "x")]) == 0
    written = (tmp_path / "x" / "generation.json").read_text()
    assert '"alpha": 2.0' in written and '"beta": 0.0' in written and '"p": 1.0' in written


def test_decode_writes_a_whole_number_image_count_as_an_int(tmp_path):
    runs = []
    for name, image_count in (("float", 6.0), ("int", 6)):
        (tmp_path / name).mkdir()
        path = write_config(tmp_path / name, image_count=image_count)
        assert main(["decode", "--config", str(path), "--out", str(tmp_path / name / "x")]) == 0
        runs.append((tmp_path / name / "x" / "generation.json").read_text())
    assert '"image_count": 6,' in runs[0] and runs[0] == runs[1]


@pytest.mark.parametrize(
    "overrides, error, problem",
    [
        ({"model": {"max_seq": 10}}, CapacityError,
         "prompt of 8 plus 8 new tokens exceeds max_seq 10"),
        ({"prompt_tokens": [5, 9]}, ValueError,
         "merged decoding needs at least three prompt text tokens"),
    ],
)
def test_load_run_config_raises_the_fit_errors(tmp_path, overrides, error, problem):
    """A config whose request cannot run is rejected when it is read, before
    any model is built."""
    with pytest.raises(error, match=f"^{problem}$"):
        load_run_config(write_config(tmp_path, **overrides))


def test_decode_capacity_exits_3(tmp_path):
    cfg = write_config(tmp_path, model={"max_seq": 10})
    assert main(["decode", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("command", ["decode", "sweep"])
def test_capacity_is_checked_before_any_array_is_sized(tmp_path, capsys, monkeypatch, command):
    def no_images(*args):
        raise AssertionError("image embeddings drawn before the capacity check")

    monkeypatch.setattr("ikod.cli.make_image_embeddings", no_images)
    cfg = write_config(tmp_path, image_count=10**12, model={"max_seq": 32})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "error: prompt of 1000000000004 plus 8 new tokens exceeds max_seq 32" in err
    assert not (tmp_path / "x").exists()


# The first plan file of a decode of BASE_CONFIG: the plan's anchors, bounds
# and text length under the policy's anchor_ratio and strategy.
FIRST_PLAN = """{
  "anchor_ratio": 0.4,
  "layers": [
    {
      "anchors": [
        1
      ],
      "buckets": [
        [
          0,
          1
        ]
      ],
      "layer": 0,
      "protected": [
        2,
        3
      ]
    },
    {
      "anchors": [
        1
      ],
      "buckets": [
        [
          0,
          1
        ]
      ],
      "layer": 1,
      "protected": [
        2,
        3
      ]
    }
  ],
  "strategy": "low_attention",
  "text_len": 4
}
"""


def test_decode_emits_merge_plans(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    main(["decode", "--config", str(cfg), "--out", str(out), "--emit-merge-plans"])
    gen = json.loads((out / "generation.json").read_text())
    plans = sorted((out / "merge_plans").glob("step_*.json"))
    assert len(plans) == len(gen["result"]["tokens"])
    assert plans[0].read_text(encoding="utf-8") == FIRST_PLAN


PLAN_CASES = {
    # A small vocabulary under sampling: every strategy's run emits the end
    # token within a few picks.
    "early-eos": {
        "model": {"vocab_size": 8},
        "prompt_tokens": [5, 1, 3, 4],
        "policy": {
            "base": {"kind": "top_p", "p": 0.9, "temperature": 1.5}, "max_new_tokens": 24, "seed": 5,
        },
    },
    "one-token": {"policy": {"max_new_tokens": 1}},
    "replay": {"policy": {}},
}


@pytest.mark.parametrize("strategy", ["low_attention", "high_attention", "random"])
@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_plan_files_are_the_plans_the_decode_loop_built(tmp_path, monkeypatch, case, strategy):
    """decode --emit-merge-plans writes each pick's plan from its step record:
    step_{i}.json is, byte for byte, the i-th plan build_merge_plan returned
    inside the loop, over text of the prompt and the picks before it. The
    replay case decodes on a shared Prefill whose step records already hold
    every step."""
    overrides = {**PLAN_CASES[case]}
    overrides["policy"] = {**overrides["policy"], "anchor_strategy": strategy}
    cfg = write_config(tmp_path, **overrides)
    built = []
    build = decode.build_merge_plan
    monkeypatch.setattr(
        decode, "build_merge_plan", lambda *args: built.append(build(*args)) or built[-1]
    )
    if case == "replay":
        def replayed(model, prompt, policy):
            prefix = prefill(model, prompt)
            ikod_generate(model, prefix, policy)
            built.clear()
            result = ikod_generate(model, prefix, policy)
            assert len(prefix.step_rows) == len(result.tokens)  # no step decoded afresh
            return result

        monkeypatch.setattr(cli, "ikod_generate", replayed)
    out = tmp_path / "run"
    assert main(["decode", "--config", str(cfg), "--out", str(out), "--emit-merge-plans"]) == 0
    tokens = json.loads((out / "generation.json").read_text())["result"]["tokens"]
    if case == "early-eos":
        assert 1 < len(tokens) < 24 and tokens[-1] == EOS_TOKEN
    elif case == "one-token":
        assert len(tokens) == 1
    else:
        assert len(tokens) == 8
    files = sorted((out / "merge_plans").iterdir())
    assert [path.name for path in files] == [f"step_{i:04d}.json" for i in range(1, len(tokens) + 1)]
    assert len(built) == len(tokens)
    prompt_len = len(load_run_config(cfg).prompt_tokens)
    for i, (path, plan) in enumerate(zip(files, built)):
        assert plan.text_len == prompt_len + i
        # The plan's own fields, and the anchor_ratio and strategy of its policy.
        doc = plan.to_json_dict()
        doc.update(anchor_ratio=BASE_CONFIG["policy"]["anchor_ratio"], strategy=strategy)
        written = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == written.encode("utf-8")


def test_baseline_decode_writes_no_plan_files(tmp_path):
    cfg = write_config(tmp_path, policy={"mode": "baseline"})
    out = tmp_path / "run"
    assert main(["decode", "--config", str(cfg), "--out", str(out), "--emit-merge-plans"]) == 0
    assert list((out / "merge_plans").iterdir()) == []


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
@pytest.mark.parametrize(
    "where, field",
    [("model", "model.seed"), ("policy", "policy.seed"), ("image_seed", "image_seed")],
)
def test_decode_rejects_seeds_outside_the_generator_range(tmp_path, capsys, seed, where, field):
    """The generator keeps a seed's low 64 bits; a seed it would alias to
    another exits 2 naming the field and the bound it breaks, before any file."""
    if where == "image_seed":
        path = write_config(tmp_path, image_seed=seed)
    else:
        path = write_config(tmp_path, **{where: {"seed": seed}})
    assert main(["decode", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    bound = "at least 0" if seed < 0 else f"at most {2**64 - 1}"
    assert f"error: {field} must be {bound}, got {seed}\n" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--bandwidth", "nan"],
        ["--bandwidth", "inf"],
        ["--bandwidth", "0"],
        ["--bandwidth", "1e-320"],
        ["--kde-grid", "0"],
        ["--kde-grid", "100000"],
    ],
)
@pytest.mark.filterwarnings("error")
def test_analyze_rejects_kde_arguments_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "analysis"
    argv = ["analyze", "--synthetic-uniform", "--gen-count", "8", "--kde", *flags]
    assert main([*argv, "--out", str(out)]) == 2
    assert flags[0] in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flag", ["--image-count", "--other-count", "--gen-count"])
def test_analyze_rejects_negative_synthetic_counts_before_writing(tmp_path, capsys, flag):
    out = tmp_path / "analysis"
    assert main(["analyze", "--synthetic-uniform", flag, "-1", "--out", str(out)]) == 2
    assert f"error: {flag} must be" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_rejects_a_synthetic_trace_too_large_for_memory(tmp_path, capsys):
    out = tmp_path / "analysis"
    argv = ["analyze", "--synthetic-uniform", "--gen-count", "1000000000000", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in ("--image-count", "--other-count", "--gen-count"))
    assert "1000000000012 positions" in err
    assert not out.exists()


def test_analyze_accepts_a_synthetic_trace_at_the_position_bound(tmp_path, capsys):
    out = tmp_path / "analysis"
    # The default 8 image and 4 prompt positions fill the rest of the bound.
    gen_count = cli.SYNTHETIC_POSITIONS_MAX - 12
    argv = ["analyze", "--synthetic-uniform", "--out", str(out), "--gen-count"]
    assert main([*argv, str(gen_count + 1)]) == 2
    assert f"{cli.SYNTHETIC_POSITIONS_MAX + 1} positions" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, str(gen_count)]) == 0
    assert len(read_csv(out / "degradation.csv")) - 1 == gen_count


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
        # Each id names the cell that is missing or repeated.
        pytest.param(
            "0,0,0,0.5\n0,0,1,0.5\n1,0,0,0.5\n",
            "row 4 should be step 1, layer 0, head 1, found the end of the file",
            id="0,0,0,0.5\n0,0,1,0.5\n1,0,0,0.5\n-missing cell step 1, layer 0, head 1",
        ),
        # Rejected before any array is sized by the step index.
        pytest.param(
            "0,0,0,0.5\n1000000000000,0,0,0.5\n",
            "row 2 should be step 1, layer 0, head 0, found step 1000000000000, layer 0, head 0",
            id="0,0,0,0.5\n1000000000000,0,0,0.5\n-missing cell step 1, layer 0, head 0",
        ),
        pytest.param(
            "0,0,0,0.5\n0,0,0,0.25\n",
            "row 2 should be the end of the file, found step 0, layer 0, head 0",
            id="0,0,0,0.5\n0,0,0,0.25\n-duplicate cell step 0, layer 0, head 0",
        ),
        # Rows in another order than decode writes them.
        ("1,0,0,0.5\n0,0,0,0.5\n",
         "row 1 should be step 0, layer 0, head 0, found step 1, layer 0, head 0"),
        ("0,0,-1,0.5\n", "negative"),
        # Non-finite cells in the last, generated, step.
        ("0,0,0,0.5\n1,0,0,nan\n", "non-finite att_image nan at step 1, layer 0, head 0"),
        ("0,0,0,0.5\n1,0,0,inf\n", "non-finite att_image inf at step 1, layer 0, head 0"),
        ("0,0,0,0.5\n1,0,0,-inf\n", "non-finite att_image -inf at step 1, layer 0, head 0"),
    ],
)
def test_analyze_rejects_incomplete_trace(tmp_path, capsys, body, problem):
    run = tmp_path / "run"
    run.mkdir()
    (run / "generation.json").write_text(
        json.dumps({"request": {"image_count": 1, "prompt_tokens": []}, "result": {"tokens": [3]}})
    )
    (run / "trace.csv").write_text("step,layer,head,att_image\n" + body)
    with pytest.raises(ValueError, match=problem):
        read_trace_csv(run / "trace.csv")
    assert main(["analyze", str(run), "--out", str(tmp_path / "x")]) == 2
    assert problem in capsys.readouterr().err


def decoded_run(tmp_path, **policy):
    """Directory of a 10-token decode of the base config and its generation.json."""
    cfg = write_config(tmp_path, policy={"max_new_tokens": 10, **policy})
    run = tmp_path / "run"
    assert main(["decode", "--config", str(cfg), "--out", str(run)]) == 0
    return run, json.loads((run / "generation.json").read_text())


def test_analyze_rejects_extra_trace_steps(tmp_path, capsys):
    run, gen = decoded_run(tmp_path)
    request = gen["request"]
    steps = request["image_count"] + len(request["prompt_tokens"]) + len(gen["result"]["tokens"])
    extra = "".join(f"{steps + s},{li},{h},0.999\n" for s in range(6) for li in (0, 1) for h in (0, 1))
    with open(run / "trace.csv", "a", encoding="utf-8") as fh:
        fh.write(extra)
    assert main(["analyze", str(run), "--out", str(tmp_path / "x")]) == 2
    assert f"holds {steps + 6} steps, generation.json describes {steps}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "section, field, edit",
    [
        ("request", "image_count", lambda v: 3.7),
        ("request", "image_count", lambda v: True),
        ("request", "image_count", lambda v: "4"),
        ("request", "image_count", lambda v: -4),
        # Objects with as many keys as the arrays had, so the counts still add up.
        ("request", "prompt_tokens", lambda v: dict(enumerate(v))),
        ("result", "tokens", lambda v: dict(enumerate(v))),
    ],
    ids=["fraction", "boolean", "string", "negative", "prompt_tokens-object", "tokens-object"],
)
def test_analyze_rejects_malformed_generation_fields(tmp_path, capsys, section, field, edit):
    run, gen = decoded_run(tmp_path)
    gen[section][field] = edit(gen[section][field])
    (run / "generation.json").write_text(json.dumps(gen), encoding="utf-8")
    assert main(["analyze", str(run), "--out", str(tmp_path / "x")]) == 2
    assert f"{section}.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("policy", [{}, {"mode": "baseline", "base": {"kind": "top_p", "p": 0.9}}])
def test_analyze_run_dir_matches_the_library_on_the_generation(tmp_path, policy):
    run, _ = decoded_run(tmp_path, **policy)
    out = tmp_path / "analysis"
    assert main(["analyze", str(run), "--out", str(out)]) == 0

    rc = load_run_config(tmp_path / "config.json")
    result = ikod_generate(TinyDecoder(rc.model), _build_prompt(rc), rc.policy)
    stat = ImageAttentionStat.from_trace(result.cache, len(result.tokens))
    expected = tmp_path / "expected"
    expected.mkdir()
    _write_csv(
        expected / "degradation.csv", ["relative_position", "att_avg"], degradation_report(stat)
    )
    _write_csv(
        expected / "segments.csv",
        ["layer", "head", "att_first", "att_last", "segment_len"],
        segment_averages(stat),
    )
    for name in ("degradation.csv", "segments.csv"):
        assert (out / name).read_bytes() == (expected / name).read_bytes()


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


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_sweep_rejects_non_finite_alpha(tmp_path, capsys, alpha):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--alphas", alpha]) == 2
    err = capsys.readouterr().err
    assert f"error: --alphas: alpha must be a finite number, got {alpha}\n" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, problem",
    [
        ("--strategies", "low,random",
         "--strategies: anchor_strategy must be one of low_attention, high_attention, random, "
         "got 'low'"),
        ("--alphas", "1,inf", "--alphas: alpha must be a finite number, got inf"),
        ("--alphas", "1,x", "--alphas: bad list value"),
        ("--lambdas", "0.5,0", "--lambdas: anchor_ratio must be above 0.0, got 0.0"),
        ("--betas", "1.5", "--betas: beta must be at most 1.0, got 1.5"),
    ],
)
def test_sweep_grid_errors_name_the_flag(tmp_path, capsys, flag, value, problem):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), flag, value]) == 2
    assert f"error: {problem}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["decode", "sweep"])
@pytest.mark.parametrize(
    "model",
    [{"max_seq": 10**15}, {"d_model": 10**15}, {"d_ff": 10**15}, {"vocab_size": 10**15}],
)
def test_model_too_large_for_memory_exits_2(tmp_path, capsys, command, model):
    # Each size is beyond the address space, so the allocation fails at once.
    cfg = write_config(tmp_path, model=model)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "error: model of max_seq" in err and "too large to hold in memory" in err
    assert not (tmp_path / "x").exists()


def test_sweep_capacity_exits_3(tmp_path):
    cfg = write_config(tmp_path, model={"max_seq": 10})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    assert not (tmp_path / "x").exists()


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


def test_flops_reproduces_hand_case(capsys):
    assert main(flops_argv()) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["original"] == 8192
    assert doc["ikod"] == 8192 + 5760
    assert doc["exact_g"] == 0.703125
    assert doc["closed_g"] == 0.703125


def test_flops_full_ratio_costs_one_pass(capsys):
    main(["flops", "--layers", "2", "--seq-len", "8", "--hidden", "4", "--text-len", "4", "--lam", "1.0"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact_g"] == pytest.approx(1.0)


def test_flops_rejects_text_not_shorter_than_sequence(capsys):
    code = main(
        ["flops", "--layers", "2", "--seq-len", "8", "--hidden", "4", "--text-len", "8", "--lam", "0.5"]
    )
    assert code == 2


@pytest.mark.parametrize("flag", ["--layers", "--seq-len", "--hidden"])
def test_flops_rejects_numbers_too_large_for_a_float(capsys, flag):
    args = {"--layers": "2", "--seq-len": "8", "--hidden": "4", "--text-len": "4", "--lam": "0.5"}
    args[flag] = "1" + "0" * 400
    assert main(["flops", *[item for pair in args.items() for item in pair]]) == 2
    err = capsys.readouterr().err
    assert "error: --layers, --seq-len, --hidden and --text-len give costs too large" in err


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


@pytest.mark.parametrize("field", ["mentioned", "ground_truth"])
def test_metrics_rejects_labels_that_are_not_arrays(tmp_path, capsys, field):
    # A string would be split into characters and scored as one label each.
    record = {"mentioned": ["cat"], "ground_truth": ["cat"], field: "cat"}
    records = tmp_path / "records.jsonl"
    records.write_text(
        '{"mentioned": ["dog"], "ground_truth": ["dog"]}\n' + json.dumps(record) + "\n",
        encoding="utf-8",
    )
    assert main(["metrics", "--records", str(records)]) == 2
    assert f"records.jsonl:2: record.{field} must be a JSON array, got 'cat'" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "line, problem",
    [
        (
            '{"mentioned": ["cat"], "ground_truth": ["cat"], "extra": 1}',
            "unknown record keys: ['extra']",
        ),
        ('[["cat"], ["cat"]]', "record must be a JSON object, got [['cat'], ['cat']]"),
        ('"cat"', "record must be a JSON object, got 'cat'"),
        ('{"mentioned": ["cat"]}', "missing record keys: ['ground_truth']"),
        ('{"mentioned": ["cat"], ', "bad record (Expecting property name"),
    ],
)
def test_metrics_record_errors_name_the_key_or_type(tmp_path, capsys, line, problem):
    records = tmp_path / "records.jsonl"
    good = '{"mentioned": ["dog"], "ground_truth": ["dog"]}'
    records.write_text(good + "\n" + line + "\n", encoding="utf-8")
    assert main(["metrics", "--records", str(records)]) == 2
    out, err = capsys.readouterr()
    assert f"error: {records}:2: {problem}" in err and "Traceback" not in err
    assert out == ""  # no report


def test_metrics_without_inputs_exits_2():
    assert main(["metrics"]) == 2


def run_dir(tmp_path, generation: str | bytes, trace: str | bytes | None) -> str:
    """A decode output directory holding these generation.json and trace.csv
    texts (bytes are written as they are); no trace.csv when trace is None."""
    run = tmp_path / "run"
    run.mkdir()
    for name, text in (("generation.json", generation), ("trace.csv", trace)):
        if text is not None:
            (run / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return str(run)


def flops_argv(**flags) -> list[str]:
    """An ikod flops command line: the hand case with these flags changed."""
    values = {"layers": "2", "seq_len": "8", "hidden": "4", "text_len": "4", "lam": "0.5", **flags}
    return ["flops", *(item for k, v in values.items() for item in (f"--{k.replace('_', '-')}", v))]


ONE_TOKEN_RUN = json.dumps(
    {"request": {"image_count": 0, "prompt_tokens": [1]}, "result": {"tokens": [2]}}
)
TRACE_HEADER = "step,layer,head,att_image\n"
ONE_TOKEN_TRACE = TRACE_HEADER + "0,0,0,0.5\n1,0,0,0.5\n"  # ONE_TOKEN_RUN's two steps


def trace_dir_run(tmp_path) -> str:
    """A decode output directory whose trace.csv is a directory."""
    run = run_dir(tmp_path, ONE_TOKEN_RUN, None)
    (tmp_path / "run" / "trace.csv").mkdir()
    return run


def json_file(tmp_path, text: str | bytes) -> str:
    """tmp_path/given.json holding text (bytes are written as they are)."""
    path = tmp_path / "given.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return str(path)


NOT_UTF8 = "not UTF-8 text (invalid start byte at byte 0)"


@pytest.mark.parametrize(
    "argv, problem",
    [
        (lambda tmp: ["decode", "--config", str(write_config(tmp, image_count=-1))],
         "image_count must be at least 0, got -1"),
        (lambda tmp: ["decode", "--config", json_file(tmp, "{")],
         "{tmp}/given.json: invalid JSON (Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1))"),
        (lambda tmp: ["analyze", run_dir(tmp, ONE_TOKEN_RUN, "a,b\n")],
         "{tmp}/run/trace.csv: not a trace file (header ['a', 'b'])"),
        (lambda tmp: ["analyze", run_dir(tmp, ONE_TOKEN_RUN, None)],
         "cannot use {tmp}/run/trace.csv: No such file or directory"),
        (lambda tmp: ["analyze", run_dir(tmp, ONE_TOKEN_RUN, TRACE_HEADER + "0,0,x,1\n")],
         "{tmp}/run/trace.csv: malformed trace (invalid literal for int() with base 10: 'x')"),
        (lambda tmp: ["analyze", run_dir(tmp, '{"request": {}}', None)],
         "{tmp}/run/generation.json: malformed ('result')"),
        (lambda tmp: ["sweep", "--config", str(write_config(tmp)),
                      "--ground-truth-tokens", json_file(tmp, '{"tokens": [1]}')],
         "ground truth file must hold a JSON array of token ids"),
        (lambda tmp: ["metrics", "--binary", "1,2,3"],
         "--binary needs four comma-separated counts: tp,fp,fn,tn"),
        (lambda tmp: ["metrics", "--binary", "1,x,3,4"],
         "--binary: bad list value: invalid literal for int() with base 10: 'x'"),
        (lambda tmp: ["metrics", "--binary=-1,0,0,0"], "--binary: tp must be at least 0, got -1"),
        (lambda tmp: ["metrics", "--binary", "0,0,0,0"], "--binary: no outcomes"),
        (lambda tmp: ["metrics", "--records", str(tmp / "missing.jsonl")],
         "cannot use {tmp}/missing.jsonl: No such file or directory"),
        (lambda tmp: flops_argv(lam="0"), "--lam: anchor_ratio must be above 0.0, got 0.0"),
        (lambda tmp: flops_argv(lam="nan"), "--lam: anchor_ratio must be a finite number, got nan"),
        (lambda tmp: flops_argv(layers="0"),
         "--layers: n_layers must be a positive finite number, got 0"),
        (lambda tmp: flops_argv(seq_len="-1"),
         "--seq-len: seq_len must be a positive finite number, got -1"),
        (lambda tmp: flops_argv(hidden="0"),
         "--hidden: hidden must be a positive finite number, got 0"),
        (lambda tmp: flops_argv(text_len="0"),
         "--text-len: text_len must be a positive finite number, got 0"),
        (lambda tmp: flops_argv(text_len="8", seq_len="8"),
         "--text-len 8 must be smaller than --seq-len 8"),
        (lambda tmp: ["decode", "--config", str(tmp)], "cannot use {tmp}: Is a directory"),
        (lambda tmp: ["metrics", "--records", str(tmp)], "cannot use {tmp}: Is a directory"),
        (lambda tmp: ["sweep", "--config", str(write_config(tmp)),
                      "--ground-truth-tokens", str(tmp)],
         "cannot use {tmp}: Is a directory"),
        (lambda tmp: ["analyze", trace_dir_run(tmp)],
         "cannot use {tmp}/run/trace.csv: Is a directory"),
        (lambda tmp: ["analyze", run_dir(tmp, ONE_TOKEN_RUN, None), "--synthetic-uniform"],
         "pass a decode output directory or --synthetic-uniform, not both"),
        (lambda tmp: ["decode", "--config", str(tmp / "missing.json")],
         "cannot use {tmp}/missing.json: No such file or directory"),
        (lambda tmp: ["decode", "--config", json_file(tmp, b"\xff")],
         "{tmp}/given.json: " + NOT_UTF8),
        (lambda tmp: ["metrics", "--records", json_file(tmp, b"\xff")],
         "{tmp}/given.json: " + NOT_UTF8),
        (lambda tmp: ["sweep", "--config", str(write_config(tmp)),
                      "--ground-truth-tokens", json_file(tmp, b"\xff")],
         "{tmp}/given.json: " + NOT_UTF8),
        (lambda tmp: ["analyze", run_dir(tmp, b"\xff", None)],
         "{tmp}/run/generation.json: " + NOT_UTF8),
        (lambda tmp: ["analyze", run_dir(tmp, ONE_TOKEN_RUN, b"\xff")],
         "{tmp}/run/trace.csv: " + NOT_UTF8),
        # A run that analyzes, given flags of a mode that is off.
        (lambda tmp: ["analyze", run_dir(tmp, ONE_TOKEN_RUN, ONE_TOKEN_TRACE),
                      "--image-count", "99", "--gen-count", "3"],
         "--image-count needs --synthetic-uniform"),
        (lambda tmp: ["analyze", run_dir(tmp, ONE_TOKEN_RUN, ONE_TOKEN_TRACE),
                      "--kde-grid", "5", "--bandwidth", "0.2"],
         "--kde-grid needs --kde"),
        (lambda tmp: ["analyze", run_dir(tmp, ONE_TOKEN_RUN, ONE_TOKEN_TRACE), "--bandwidth", "0.2"],
         "--bandwidth needs --kde"),
        # An empty value names no file and lists nothing; it is not an absent flag.
        (lambda tmp: ["decode", "--config", ""], "--config must not be empty"),
        (lambda tmp: ["sweep", "--config", ""], "--config must not be empty"),
        (lambda tmp: ["analyze", ""], "run_dir must not be empty"),
        (lambda tmp: ["metrics", "--records", "", "--binary", "1,2,3,4"],
         "--records must not be empty"),
        (lambda tmp: ["sweep", "--config", str(write_config(tmp)), "--ground-truth-tokens", ""],
         "--ground-truth-tokens must not be empty"),
        (lambda tmp: ["sweep", "--config", str(write_config(tmp)), "--lambdas", ""],
         "--lambdas must not be empty"),
        (lambda tmp: ["sweep", "--config", str(write_config(tmp)), "--alphas", ""],
         "--alphas must not be empty"),
        (lambda tmp: ["sweep", "--config", str(write_config(tmp)), "--betas", ""],
         "--betas must not be empty"),
        (lambda tmp: ["sweep", "--config", str(write_config(tmp)), "--strategies", ""],
         "--strategies must not be empty"),
        (lambda tmp: ["metrics", "--binary", ""], "--binary must not be empty"),
    ],
    ids=["config-image-count", "config-invalid-json", "trace-header", "trace-missing",
         "trace-malformed-row", "generation-malformed", "ground-truth-not-array",
         "binary-three-counts", "binary-not-a-count", "binary-negative", "binary-no-outcomes",
         "records-missing", "flops-lam-zero", "flops-lam-nan", "flops-layers", "flops-seq-len",
         "flops-hidden", "flops-text-len", "flops-text-not-shorter", "config-directory",
         "records-directory", "ground-truth-directory", "trace-directory", "analyze-both-inputs",
         "config-missing", "config-not-utf8", "records-not-utf8", "ground-truth-not-utf8",
         "generation-not-utf8", "trace-not-utf8", "analyze-counts-without-synthetic",
         "analyze-kde-grid-without-kde", "analyze-bandwidth-without-kde", "decode-config-empty",
         "sweep-config-empty", "analyze-run-dir-empty", "records-empty", "ground-truth-empty",
         "lambdas-empty", "alphas-empty", "betas-empty", "strategies-empty", "binary-empty"],
)
def test_cli_errors_pin_their_messages(tmp_path, capsys, argv, problem):
    """Each error exits 2 with one message line, and writes no output: no
    --out directory (decode, analyze, sweep) and no report (flops, metrics)."""
    argv, out = argv(tmp_path), tmp_path / "out"
    if argv[0] in ("decode", "analyze", "sweep"):
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {problem.format(tmp=tmp_path)}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["decode", "sweep", "analyze"])
def test_an_empty_out_writes_nothing_to_the_working_directory(tmp_path, monkeypatch, capsys,
                                                              command):
    """Path('') is the working directory, so an empty --out exits 2 before
    any file is read or written."""
    run = tmp_path / "work"
    run.mkdir()
    monkeypatch.chdir(run)
    source = ["--config", str(write_config(tmp_path))] if command != "analyze" else [str(run)]
    assert main([command, *source, "--out", ""]) == 2
    assert capsys.readouterr() == ("", "error: --out must not be empty\n")
    assert list(run.iterdir()) == []


class ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self) -> int:
        return self.fd


def test_a_closed_stdout_exits_1_with_no_message(tmp_path, monkeypatch, capsys):
    """A report to a stdout whose reader closed it exits 1, prints no error
    line, and points stdout's descriptor at os.devnull, so the flush at exit
    does not raise again."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedStdout(fd))
        assert main(["metrics", "--binary", "1,2,3,4"]) == 1
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_metrics_writes_its_report_to_out(capsys):
    """The report goes to stdout, as sorted JSON indented by 2 ending in a
    newline, so redirecting it gives the report file."""
    assert main(["metrics", "--binary", "1,2,3,4"]) == 0
    printed = capsys.readouterr().out
    assert printed == json.dumps(json.loads(printed), indent=2, sort_keys=True) + "\n"
    precision, recall = 1 / 3, 1 / 4
    f1 = 2 * precision * recall / (precision + recall)
    assert json.loads(printed) == {
        "accuracy": 0.5, "precision": precision, "recall": recall, "f1": f1
    }
