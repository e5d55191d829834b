"""Command-line harness: decoding runs, trace analysis, parameter sweeps, cost
estimates, and metric reports. Everything is deterministic under fixed seeds;
rerunning a command reproduces its output files byte for byte.

Exit codes: 0 success, 2 usage or config error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attn_analysis import (
    ImageAttentionStat,
    degradation_report,
    kde2d,
    synthetic_uniform_trace,
    trace_image_attention,
)
from .cost import growth_rate_closed_form, growth_rate_exact, ikod_flops, original_flops
from .decode import BaseStrategy, DecodePolicy, Mode, Prompt, ikod_generate
from .kv_merge import AnchorStrategy
from .metrics import BinaryOutcomes, CaptionRecord, binary_metrics, chair_scores, load_caption_records
from .model import (
    CapacityError,
    ConfigError,
    ModelConfig,
    TinyDecoder,
    make_image_embeddings,
    require_int,
)

EXIT_USAGE = 2
EXIT_CAPACITY = 3


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    image_count: int
    image_seed: int
    prompt_tokens: tuple[int, ...]
    policy: DecodePolicy
    output_dir: str | None


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def _require_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def parse_base_strategy(d: dict) -> BaseStrategy:
    d = _require_object(d, "policy.base")
    unknown = set(d) - {"kind", "k", "p", "temperature"}
    if unknown:
        raise ConfigError(f"unknown base strategy keys: {sorted(unknown)}")
    kind = d.get("kind", "greedy")
    temperature = d.get("temperature")
    k = d.get("k")
    if k is not None:
        k = require_int(k, "policy.base.k")
    try:
        if kind == "nucleus":
            return BaseStrategy.nucleus(temperature=temperature)
        return BaseStrategy(kind=kind, k=k, p=d.get("p"), temperature=temperature)
    except ValueError as exc:
        raise ConfigError(f"bad base strategy: {exc}") from None


def parse_policy(d: dict) -> DecodePolicy:
    d = _require_object(d, "policy")
    known = {
        "mode", "base", "alpha", "beta", "anchor_ratio", "anchor_strategy",
        "max_new_tokens", "seed",
    }
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown policy keys: {sorted(unknown)}")
    max_new_tokens = require_int(d.get("max_new_tokens", 16), "policy.max_new_tokens")
    seed = require_int(d.get("seed", 0), "policy.seed")
    try:
        return DecodePolicy(
            mode=Mode(d.get("mode", "ikod")),
            base=parse_base_strategy(d.get("base", {})),
            alpha=float(d.get("alpha", 2.0)),
            beta=float(d.get("beta", 0.1)),
            anchor_ratio=float(d.get("anchor_ratio", 0.4)),
            anchor_strategy=AnchorStrategy(d.get("anchor_strategy", "low_attention")),
            max_new_tokens=max_new_tokens,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"bad policy: {exc}") from None


def load_run_config(path) -> RunConfig:
    raw = _load_json(path)
    if not isinstance(raw, dict) or "model" not in raw:
        raise ConfigError(f"{path}: expected an object with a 'model' section")
    try:
        model = ModelConfig(**raw["model"])
    except TypeError as exc:
        raise ConfigError(f"bad model config: {exc}") from None
    image_count = require_int(raw.get("image_count", 0), "image_count")
    if image_count < 0:
        raise ConfigError("image_count must be non-negative")
    tokens = raw.get("prompt_tokens", [])
    if not isinstance(tokens, list):
        raise ConfigError(f"prompt_tokens must be a JSON array of token ids, got {tokens!r}")
    return RunConfig(
        model=model,
        image_count=image_count,
        image_seed=require_int(raw.get("image_seed", model.seed), "image_seed"),
        prompt_tokens=tuple(require_int(t, f"prompt_tokens[{i}]") for i, t in enumerate(tokens)),
        policy=parse_policy(raw.get("policy", {})),
        output_dir=raw.get("output_dir"),
    )


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _top5(p: np.ndarray) -> list[list]:
    order = np.argsort(-p, kind="stable")[:5]
    return [[int(i), float(p[i])] for i in order]


def _build_prompt(rc: RunConfig) -> Prompt:
    embeddings = make_image_embeddings(rc.image_count, rc.model.d_model, rc.image_seed)
    return Prompt(image_embeddings=embeddings, tokens=rc.prompt_tokens)


def cmd_decode(args) -> int:
    rc = load_run_config(args.config)
    policy = rc.policy if args.seed is None else replace(rc.policy, seed=args.seed)
    out = args.out or rc.output_dir
    if not out:
        raise ConfigError("no output directory: pass --out or set output_dir in the config")
    out_dir = Path(out)
    model = TinyDecoder(rc.model)
    result = ikod_generate(model, _build_prompt(rc), policy, record_merge_plans=args.emit_merge_plans)

    out_dir.mkdir(parents=True, exist_ok=True)
    per_step = [
        {
            "chosen": step.chosen,
            "p_orig_top5": _top5(step.p_orig),
            "p_aug_top5": None if step.p_aug is None else _top5(step.p_aug),
            "v_head_size": None if step.v_head is None else int(step.v_head.sum()),
        }
        for step in result.steps
    ]
    _write_json(
        out_dir / "generation.json",
        {
            "request": {
                "image_count": rc.image_count,
                "policy": policy.to_json_dict(),
                "prompt_tokens": list(rc.prompt_tokens),
                "seed": policy.seed,
            },
            "result": {"per_step": per_step, "tokens": result.tokens},
        },
    )
    _write_csv(
        out_dir / "trace.csv",
        ["step", "layer", "head", "att_image"],
        trace_image_attention(result.trace, result.layout),
    )
    if args.emit_merge_plans and result.merge_plans is not None:
        plan_dir = out_dir / "merge_plans"
        plan_dir.mkdir(exist_ok=True)
        for i, plan in enumerate(result.merge_plans, start=1):
            _write_json(plan_dir / f"step_{i:04d}.json", plan.to_json_dict())
    print(f"generated {len(result.tokens)} tokens -> {out_dir}")
    return 0


def _read_trace_csv(path: Path) -> np.ndarray:
    """Trace CSV back into an (n_steps, n_layers, n_heads) array."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["step", "layer", "head", "att_image"]:
                raise ConfigError(f"{path}: not a trace file (header {header})")
            entries = [(int(s), int(li), int(h), float(a)) for s, li, h, a in reader]
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed trace ({exc})") from None
    if not entries:
        raise ConfigError(f"{path}: empty trace")
    if min(min(e[:3]) for e in entries) < 0:
        raise ConfigError(f"{path}: negative step, layer or head index")
    shape = tuple(max(e[i] for e in entries) + 1 for i in range(3))
    values = np.zeros(shape)
    seen = np.zeros(shape, dtype=bool)
    for s, li, h, a in entries:
        if seen[s, li, h]:
            raise ConfigError(f"{path}: duplicate cell step {s}, layer {li}, head {h}")
        seen[s, li, h] = True
        values[s, li, h] = a
    if not seen.all():
        s, li, h = np.argwhere(~seen)[0].tolist()
        raise ConfigError(f"{path}: missing cell step {s}, layer {li}, head {h}")
    return values


def cmd_analyze(args) -> int:
    out_dir = Path(args.out)
    if args.synthetic_uniform:
        if args.gen_count < 1:
            raise ConfigError("--gen-count must be at least 1")
        trace, layout = synthetic_uniform_trace(
            args.image_count, args.other_count, args.gen_count
        )
        report = degradation_report(trace, layout)
        values = ImageAttentionStat.from_trace(trace, layout).values
        prefill = args.image_count + args.other_count
    else:
        if not args.run_dir:
            raise ConfigError("pass a decode output directory or --synthetic-uniform")
        run_dir = Path(args.run_dir)
        gen = _load_json(run_dir / "generation.json")
        try:
            request = gen["request"]
            prefill = int(request["image_count"]) + len(request["prompt_tokens"])
            n_gen = len(gen["result"]["tokens"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{run_dir}/generation.json: malformed ({exc})") from None
        values = _read_trace_csv(run_dir / "trace.csv")
        if n_gen < 1 or values.shape[0] < prefill + n_gen:
            raise ConfigError("trace holds no generated steps")
        att_avg = values.mean(axis=(1, 2))
        report = [((i + 1) / n_gen, float(att_avg[prefill + i])) for i in range(n_gen)]

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "degradation.csv", ["relative_position", "att_avg"], report)

    gen_values = values[prefill:]
    n_gen = gen_values.shape[0]
    if n_gen >= 5:
        w = n_gen // 5
        seg_rows = [
            (li, h, float(gen_values[:w, li, h].mean()), float(gen_values[-w:, li, h].mean()), w)
            for li in range(gen_values.shape[1])
            for h in range(gen_values.shape[2])
        ]
        _write_csv(
            out_dir / "segments.csv",
            ["layer", "head", "att_first", "att_last", "segment_len"],
            seg_rows,
        )
    else:
        print(
            f"warning: only {n_gen} generated tokens, segment summary omitted (needs >= 5)",
            file=sys.stderr,
        )

    if args.kde:
        axis = np.linspace(0.0, 1.0, args.kde_grid)
        grid = np.array([(x, y) for x in axis for y in axis])
        density = kde2d(report, grid, h_x=args.bandwidth, h_y=args.bandwidth)
        _write_csv(
            out_dir / "kde.csv",
            ["x", "y", "density"],
            [(float(x), float(y), float(d)) for (x, y), d in zip(grid, density)],
        )
    print(f"analyzed {n_gen} generated steps -> {out_dir}")
    return 0


def _parse_list(text: str, convert):
    items = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return [convert(part) for part in items]
    except ValueError as exc:
        raise ConfigError(f"bad list value: {exc}") from None


def _worker_count(n_points: int) -> int:
    env = os.environ.get("IKOD_THREADS")
    if env is None:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise ConfigError(f"IKOD_THREADS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ConfigError("IKOD_THREADS must be at least 1")
    return min(workers, n_points)


def cmd_sweep(args) -> int:
    rc = load_run_config(args.config)
    base_policy = rc.policy if args.seed is None else replace(rc.policy, seed=args.seed)
    lambdas = _parse_list(args.lambdas, float) if args.lambdas else [base_policy.anchor_ratio]
    alphas = _parse_list(args.alphas, float) if args.alphas else [base_policy.alpha]
    betas = _parse_list(args.betas, float) if args.betas else [base_policy.beta]
    if args.strategies:
        try:
            strategies = [AnchorStrategy(s) for s in _parse_list(args.strategies, str)]
        except ValueError as exc:
            raise ConfigError(f"bad strategy: {exc}") from None
    else:
        strategies = [base_policy.anchor_strategy]
    grid = list(itertools.product(lambdas, alphas, betas, strategies))
    if not grid:
        raise ConfigError("empty sweep grid")

    gt_tokens: set[str] | None = None
    if args.ground_truth_tokens:
        gt = _load_json(args.ground_truth_tokens)
        if not isinstance(gt, list):
            raise ConfigError("ground truth file must hold a JSON array of token ids")
        gt_tokens = {str(require_int(t, f"ground truth token [{i}]")) for i, t in enumerate(gt)}
    model = TinyDecoder(rc.model)
    prompt = _build_prompt(rc)

    def run_policy(policy: DecodePolicy) -> list:
        result = ikod_generate(model, prompt, policy)
        stat = ImageAttentionStat.from_trace(result.trace, result.layout)
        mean_orig = float(stat.att_avg[stat.generated].mean())
        mean_aug = (
            float(np.mean(result.aug_image_attention)) if result.aug_image_attention else ""
        )
        halluc = ""
        if gt_tokens is not None and result.tokens:
            record = CaptionRecord(
                mentioned=frozenset(str(t) for t in result.tokens),
                ground_truth=frozenset(gt_tokens),
            )
            halluc = float(chair_scores([record])[1])
        return [
            policy.mode.value,
            float(policy.anchor_ratio),
            float(policy.alpha),
            float(policy.beta),
            policy.anchor_strategy.value,
            len(result.tokens),
            mean_orig,
            mean_aug,
            halluc,
            " ".join(str(t) for t in result.tokens),
        ]

    policies = [
        replace(base_policy, anchor_ratio=lam, alpha=alpha, beta=beta, anchor_strategy=strat)
        for lam, alpha, beta, strat in grid
    ]
    if args.include_baseline:
        policies = [replace(base_policy, mode=Mode.BASELINE)] + policies

    workers = _worker_count(len(policies))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_policy, policies))
    else:
        rows = [run_policy(p) for p in policies]
    indexed = [[i, *row] for i, row in enumerate(rows)]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "sweep.csv",
        [
            "grid_index", "mode", "anchor_ratio", "alpha", "beta", "strategy",
            "generated_len", "mean_image_att", "mean_aug_image_att", "halluc_rate",
            "tokens",
        ],
        indexed,
    )
    print(f"swept {len(policies)} policies -> {out_dir / 'sweep.csv'}")
    return 0


def cmd_flops(args) -> int:
    if args.text_len >= args.seq_len:
        raise ConfigError(
            f"text length {args.text_len} must be smaller than sequence length {args.seq_len}"
        )
    try:
        doc = {
            "original": original_flops(args.layers, args.seq_len, args.hidden),
            "ikod": ikod_flops(args.layers, args.seq_len, args.hidden, args.text_len, args.lam),
            "exact_g": growth_rate_exact(
                args.layers, args.seq_len, args.hidden, args.text_len, args.lam
            ),
            "closed_g": growth_rate_closed_form(
                args.seq_len, args.hidden, args.text_len, args.lam
            ),
        }
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_metrics(args) -> int:
    doc: dict = {}
    if args.records:
        records = load_caption_records(args.records)
        try:
            chair_s, chair_i = chair_scores(records)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        doc.update({"chair_s": chair_s, "chair_i": chair_i, "records": len(records)})
    if args.binary:
        counts = _parse_list(args.binary, int)
        if len(counts) != 4:
            raise ConfigError("--binary needs four comma-separated counts: tp,fp,fn,tn")
        try:
            m = binary_metrics(BinaryOutcomes(*counts))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        doc.update(
            {"accuracy": m.accuracy, "precision": m.precision, "recall": m.recall, "f1": m.f1}
        )
    if not doc:
        raise ConfigError("nothing to compute: pass --records and/or --binary")
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikod",
        description="Toy multimodal decoding engine with attention-guided cache merging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decode", help="run one generation and write its artifacts")
    d.add_argument("--config", required=True, help="run config JSON")
    d.add_argument("--out", help="output directory (defaults to the config's output_dir)")
    d.add_argument("--seed", type=int, help="override the policy seed")
    d.add_argument("--emit-merge-plans", action="store_true", help="write per-step merge plans")
    d.set_defaults(func=cmd_decode)

    a = sub.add_parser("analyze", help="derive attention tables from a decode run")
    a.add_argument("run_dir", nargs="?", help="directory written by decode")
    a.add_argument("--out", required=True, help="output directory")
    a.add_argument("--kde", action="store_true", help="also write a density grid")
    a.add_argument("--kde-grid", type=int, default=41, help="grid points per axis")
    a.add_argument("--bandwidth", type=float, default=0.5, help="kernel bandwidth for both axes")
    a.add_argument(
        "--synthetic-uniform",
        action="store_true",
        help="analyze an analytically uniform trace instead of a run directory",
    )
    a.add_argument("--image-count", type=int, default=8)
    a.add_argument("--other-count", type=int, default=4)
    a.add_argument("--gen-count", type=int, default=16)
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("sweep", help="run a policy grid and tabulate the results")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--lambdas", help="comma-separated anchor ratios")
    s.add_argument("--alphas", help="comma-separated alpha values")
    s.add_argument("--betas", help="comma-separated beta values")
    s.add_argument("--strategies", help="comma-separated anchor strategies")
    s.add_argument("--include-baseline", action="store_true", help="prepend a baseline row")
    s.add_argument("--seed", type=int, help="override the policy seed")
    s.add_argument("--ground-truth-tokens", help="JSON array of token ids for hallucination rates")
    s.set_defaults(func=cmd_sweep)

    f = sub.add_parser("flops", help="analytic cost of one dual-path step")
    f.add_argument("--layers", type=int, required=True)
    f.add_argument("--seq-len", type=int, required=True)
    f.add_argument("--hidden", type=int, required=True)
    f.add_argument("--text-len", type=int, required=True)
    f.add_argument("--lam", type=float, required=True, help="anchor ratio")
    f.add_argument("--out", help="also write the JSON report here")
    f.set_defaults(func=cmd_flops)

    m = sub.add_parser("metrics", help="hallucination and binary classification metrics")
    m.add_argument("--records", help="JSONL caption records")
    m.add_argument("--binary", help="tp,fp,fn,tn counts")
    m.add_argument("--out", help="also write the JSON report here")
    m.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
