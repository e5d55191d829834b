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
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .attn_analysis import (
    TRACE_HEADER,
    ImageAttentionStat,
    _require_bandwidth,
    degradation_report,
    kde2d,
    read_trace_csv,
    segment_averages,
    synthetic_uniform_trace,
    trace_image_attention,
)
from .cost import _check_positive, growth_rate_closed_form, growth_rate_exact, ikod_flops
from .cost import original_flops
from .decode import DecodePolicy, Mode, Prompt, check_counts, ikod_generate, prefill
from .kv_merge import MergePlan, _require_anchor_ratio
from .metrics import BinaryOutcomes, CaptionRecord, binary_metrics, chair_scores, load_caption_records
from .model import CapacityError, ModelConfig, TinyDecoder, make_image_embeddings, read_config
from .numerics import _read_text, require_int, require_seed

EXIT_USAGE = 2
EXIT_CAPACITY = 3
# Largest --kde-grid: a 1000 x 1000 grid is a million kde.csv rows.
KDE_GRID_MAX = 1000
# Most positions in a --synthetic-uniform trace, whose time grows with their square.
SYNTHETIC_POSITIONS_MAX = 1 << 14
# The analyze flags that only one mode reads, with their defaults under it.
_MODE_FLAGS = {"kde": {"kde_grid": 41, "bandwidth": 0.5},
               "synthetic_uniform": {"image_count": 8, "other_count": 4, "gen_count": 16}}


_MODEL_SEED = object()  # image_seed's default: the model's seed


@dataclass(frozen=True)
class RunConfig:
    """A decode or sweep config file, read by load_run_config; check_counts checks its request."""

    model: ModelConfig
    image_count: int = 0
    image_seed: int = _MODEL_SEED
    prompt_tokens: tuple[int, ...] = ()
    policy: DecodePolicy = field(default_factory=DecodePolicy)

    def __post_init__(self):
        object.__setattr__(self, "image_count", require_int(self.image_count, "image_count", 0))
        seed = self.model.seed if self.image_seed is _MODEL_SEED else self.image_seed
        object.__setattr__(self, "image_seed", require_seed(seed, "image_seed"))
        tokens = self.prompt_tokens
        if not isinstance(tokens, (list, tuple)):
            raise ValueError(f"prompt_tokens must be a JSON array of token ids, got {tokens!r}")
        tokens = tuple(require_int(t, f"prompt_tokens[{i}]") for i, t in enumerate(tokens))
        object.__setattr__(self, "prompt_tokens", tokens)
        check_counts(self.model.max_seq, self.image_count, len(tokens), self.policy)


def _load_json(path) -> dict:
    try:
        return json.load(_read_text(path, "path"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None


def load_run_config(path) -> RunConfig:
    return read_config(RunConfig, _load_json(path), "")


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


def _build_model(cfg: ModelConfig) -> TinyDecoder:
    try:
        return TinyDecoder(cfg)
    except MemoryError:
        raise ValueError(
            f"model of max_seq {cfg.max_seq}, d_model {cfg.d_model}, d_ff {cfg.d_ff} and "
            f"vocab_size {cfg.vocab_size} is too large to hold in memory"
        ) from None


def cmd_decode(args) -> int:
    rc = load_run_config(args.config)
    policy = rc.policy
    out_dir = Path(args.out)
    model = _build_model(rc.model)
    result = ikod_generate(model, _build_prompt(rc), policy)

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
    stat = ImageAttentionStat.from_trace(result.cache, len(result.tokens))
    _write_csv(out_dir / "trace.csv", TRACE_HEADER, trace_image_attention(stat))
    if args.emit_merge_plans:
        plan_dir = out_dir / "merge_plans"
        plan_dir.mkdir(exist_ok=True)
        for i, step in enumerate(result.steps):
            if step.anchors is not None:  # a baseline pick runs no plan
                # Pick i's plan spans the prompt text and the i picks before it.
                doc = MergePlan(step.anchors, len(rc.prompt_tokens) + i).to_json_dict()
                doc.update(anchor_ratio=policy.anchor_ratio, strategy=policy.anchor_strategy.value)
                _write_json(plan_dir / f"step_{i + 1:04d}.json", doc)
    print(f"generated {len(result.tokens)} tokens -> {out_dir}")
    return 0


def _read_run(run_dir: Path) -> ImageAttentionStat:
    """A decode run's trace.csv as image attention, its last len(result.tokens)
    steps the generated ones."""
    gen = _load_json(run_dir / "generation.json")
    try:
        request, tokens = gen["request"], gen["result"]["tokens"]
        image_count, prompt_tokens = request["image_count"], request["prompt_tokens"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{run_dir}/generation.json: malformed ({exc})") from None
    image_count = require_int(image_count, "request.image_count", 0)
    for name, value in (("request.prompt_tokens", prompt_tokens), ("result.tokens", tokens)):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a JSON array, got {value!r}")
    values = read_trace_csv(run_dir / "trace.csv")
    steps = image_count + len(prompt_tokens) + len(tokens)
    if values.shape[0] != steps:
        raise ValueError(
            f"{run_dir}/trace.csv holds {values.shape[0]} steps, generation.json describes {steps}"
        )
    return ImageAttentionStat(values, len(tokens))


def cmd_analyze(args) -> int:
    out_dir = Path(args.out)
    # Every argument is checked before the first file is written.
    for mode, defaults in _MODE_FLAGS.items():
        for name, default in defaults.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif not getattr(args, mode):
                raise ValueError(f"--{name.replace('_', '-')} needs --{mode.replace('_', '-')}")
    require_int(args.kde_grid, "--kde-grid", 1, KDE_GRID_MAX)
    _require_bandwidth(args.bandwidth, "--bandwidth")
    if args.synthetic_uniform and args.run_dir:
        raise ValueError("pass a decode output directory or --synthetic-uniform, not both")
    if args.synthetic_uniform:
        require_int(args.image_count, "--image-count", 0)
        require_int(args.other_count, "--other-count", 0)
        require_int(args.gen_count, "--gen-count", 1)
        total = args.image_count + args.other_count + args.gen_count
        if total > SYNTHETIC_POSITIONS_MAX:
            raise ValueError(
                f"--image-count, --other-count and --gen-count describe {total} positions, "
                f"more than the {SYNTHETIC_POSITIONS_MAX} a synthetic trace may hold"
            )
        trace = synthetic_uniform_trace(args.image_count, args.other_count, args.gen_count)
        stat = ImageAttentionStat.from_trace(trace, args.gen_count)
    elif args.run_dir:
        stat = _read_run(Path(args.run_dir))
    else:
        raise ValueError("pass a decode output directory or --synthetic-uniform")
    report = degradation_report(stat)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "degradation.csv", ["relative_position", "att_avg"], report)

    n_gen = len(report)
    if n_gen >= 5:
        header = ["layer", "head", "att_first", "att_last", "segment_len"]
        _write_csv(out_dir / "segments.csv", header, segment_averages(stat))
    else:
        print(
            f"warning: only {n_gen} generated tokens, segment summary omitted (needs >= 5)",
            file=sys.stderr,
        )

    if args.kde:
        axis = np.linspace(0.0, 1.0, args.kde_grid)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        density = kde2d(report, grid, args.bandwidth)
        _write_csv(
            out_dir / "kde.csv",
            ["x", "y", "density"],
            zip(grid[:, 0].tolist(), grid[:, 1].tolist(), density.tolist()),
        )
    print(f"analyzed {n_gen} generated steps -> {out_dir}")
    return 0


def _parse_list(text: str, convert):
    items = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return [convert(part) for part in items]
    except ValueError as exc:
        raise ValueError(f"bad list value: {exc}") from None


def _flagged(flag: str, call, *args, **kwargs):
    """call(*args, **kwargs), whose ValueError names the flag that carried
    the arguments."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _sweep_axis(text: str | None, flag: str, policy: DecodePolicy, name: str) -> list:
    """The values of the policy field name listed by the sweep flag, each
    checked as that field of policy, with errors naming the flag; the
    policy's own value when the flag is absent."""
    if not text:
        return [getattr(policy, name)]
    values = _flagged(flag, _parse_list, text, str if name == "anchor_strategy" else float)
    return [getattr(_flagged(flag, replace, policy, **{name: v}), name) for v in values]


def cmd_sweep(args) -> int:
    rc = load_run_config(args.config)
    axes = (
        (args.lambdas, "--lambdas", "anchor_ratio"),
        (args.alphas, "--alphas", "alpha"),
        (args.betas, "--betas", "beta"),
        (args.strategies, "--strategies", "anchor_strategy"),
    )
    grid = list(itertools.product(*(_sweep_axis(t, f, rc.policy, n) for t, f, n in axes)))
    if not grid:
        raise ValueError("empty sweep grid")

    policies = [
        replace(rc.policy, anchor_ratio=lam, alpha=alpha, beta=beta, anchor_strategy=strat)
        for lam, alpha, beta, strat in grid
    ]
    if args.include_baseline:
        policies = [replace(rc.policy, mode=Mode.BASELINE)] + policies

    gt_tokens: set[str] | None = None
    if args.ground_truth_tokens:
        gt = _load_json(args.ground_truth_tokens)
        if not isinstance(gt, list):
            raise ValueError("ground truth file must hold a JSON array of token ids")
        gt_tokens = {str(require_int(t, f"ground truth token [{i}]")) for i, t in enumerate(gt)}
    model = _build_model(rc.model)
    # Every grid point forks this one prefill of the shared prompt.
    prefix = prefill(model, _build_prompt(rc))

    def run_policy(policy: DecodePolicy) -> list:
        result = ikod_generate(model, prefix, policy)
        tokens = result.tokens
        stat = ImageAttentionStat.from_trace(result.cache, len(tokens))
        aug_att = [step.aug_image_attention for step in result.steps if step.p_aug is not None]
        halluc = ""
        if gt_tokens is not None:
            record = CaptionRecord(frozenset(str(t) for t in tokens), frozenset(gt_tokens))
            halluc = float(chair_scores([record])[1])
        return [
            policy.mode.value, policy.anchor_ratio, policy.alpha, policy.beta,
            policy.anchor_strategy.value, len(tokens), float(stat.att_avg[stat.generated].mean()),
            float(np.mean(aug_att)) if aug_att else "", halluc, " ".join(map(str, tokens)),
        ]

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


def _report(doc: dict) -> int:
    """Print the JSON report doc."""
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_flops(args) -> int:
    _flagged("--layers", _check_positive, n_layers=args.layers)
    _flagged("--seq-len", _check_positive, seq_len=args.seq_len)
    _flagged("--hidden", _check_positive, hidden=args.hidden)
    _flagged("--text-len", _check_positive, text_len=args.text_len)
    _flagged("--lam", _require_anchor_ratio, args.lam)
    if args.text_len >= args.seq_len:
        raise ValueError(f"--text-len {args.text_len} must be smaller than --seq-len {args.seq_len}")
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
    except OverflowError:
        raise ValueError(
            "--layers, --seq-len, --hidden and --text-len give costs too large for a float"
        ) from None
    return _report(doc)


def cmd_metrics(args) -> int:
    doc: dict = {}
    if args.records:
        records = load_caption_records(args.records)
        chair_s, chair_i = chair_scores(records)
        doc.update({"chair_s": chair_s, "chair_i": chair_i, "records": len(records)})
    if args.binary:
        counts = _flagged("--binary", _parse_list, args.binary, int)
        if len(counts) != 4:
            raise ValueError("--binary needs four comma-separated counts: tp,fp,fn,tn")
        m = _flagged("--binary", lambda: binary_metrics(BinaryOutcomes(*counts)))
        doc.update(
            {"accuracy": m.accuracy, "precision": m.precision, "recall": m.recall, "f1": m.f1}
        )
    if not doc:
        raise ValueError("nothing to compute: pass --records and/or --binary")
    return _report(doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikod",
        description="Toy multimodal decoding engine with attention-guided cache merging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decode", help="run one generation and write its artifacts")
    d.add_argument("--config", required=True, help="run config JSON")
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--emit-merge-plans", action="store_true", help="write per-step merge plans")
    d.set_defaults(func=cmd_decode)

    a = sub.add_parser("analyze", help="derive attention tables from a decode run")
    a.add_argument("run_dir", nargs="?", help="directory written by decode")
    a.add_argument("--out", required=True, help="output directory")
    a.add_argument("--kde", action="store_true", help="also write a density grid")
    a.add_argument("--kde-grid", type=int, help="grid points per axis")
    a.add_argument("--bandwidth", type=float, help="kernel bandwidth for both axes")
    a.add_argument(
        "--synthetic-uniform",
        action="store_true",
        help="analyze an analytically uniform trace instead of a run directory",
    )
    a.add_argument("--image-count", type=int)
    a.add_argument("--other-count", type=int)
    a.add_argument("--gen-count", type=int)
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("sweep", help="run a policy grid and tabulate the results")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--lambdas", help="comma-separated anchor ratios")
    s.add_argument("--alphas", help="comma-separated alpha values")
    s.add_argument("--betas", help="comma-separated beta values")
    s.add_argument("--strategies", help="comma-separated anchor strategies")
    s.add_argument("--include-baseline", action="store_true", help="prepend a baseline row")
    s.add_argument("--ground-truth-tokens", help="JSON array of token ids for hallucination rates")
    s.set_defaults(func=cmd_sweep)

    f = sub.add_parser("flops", help="analytic cost of one dual-path step")
    f.add_argument("--layers", type=int, required=True)
    f.add_argument("--seq-len", type=int, required=True)
    f.add_argument("--hidden", type=int, required=True)
    f.add_argument("--text-len", type=int, required=True)
    f.add_argument("--lam", type=float, required=True, help="anchor ratio")
    f.set_defaults(func=cmd_flops)

    m = sub.add_parser("metrics", help="hallucination and binary classification metrics")
    m.add_argument("--records", help="JSONL caption records")
    m.add_argument("--binary", help="tp,fp,fn,tn counts")
    m.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a file or directory the command cannot read or write
        reason = f"cannot use {exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
