"""ikod benchmark: one workload per invocation, in one single-threaded process.

    python3 perfbench/run.py --workload decode_long --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; ikod is imported from its src/. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics with
no wrapper installed; --trace 1 reports the per-layer metrics, tracing every
other iteration and leaving the rest untraced to measure the overhead. The
lines before it give the environment, operation counts and details. Exit code
2 means the benchmark could not run (for example, no src/ikod to import).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0  # the seed whose output digests are in expected_digests.json
MIN_ITERATIONS = 4  # two traced and two untraced in a --trace 1 run

# One process, one thread: pin the BLAS pool and the sweep's worker pool
# before numpy or ikod is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "IKOD_THREADS")
INHERITED = {var: os.environ.get(var) for var in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "baseline_ms_per_token": "ms",
    "ikod_ms_per_token": "ms",
    "ikod_first_token_ms": "ms",
    "op_s": "s",
}

# Span metrics are per traced iteration: .calls counts, .self_s seconds.
SPAN_COUNTS = [
    "numerics.softmax_rows", "model.forward_step", "model.forward_query",
    "kv_merge.layer_scores", "kv_merge.merge_cache", "kv_merge.build_merge_plan",
    "attn_analysis.from_trace", "metrics.chair_scores",
]
SPAN_SELF = SPAN_COUNTS + [
    "attn_analysis.trace_image_attention", "decode.ikod_generate", "decode.base_select",
    "decode.combine", "cli.main",
]
PER_LAYER = {
    **{f"{n}.calls": "count" for n in SPAN_COUNTS},
    **{f"{n}.self_s": "s" for n in SPAN_SELF},
    "model.build_s": "s",
    "model.image_embeddings_s": "s",
    "model.prefill_s": "s",
    "kv_merge.kept_fraction": "ratio",
    "decode.step_ms.p50": "ms",
    "decode.step_ms.p99": "ms",
    "decode.pick_changed_frac": "ratio",
    "decode.measured_overhead": "ratio",
    "cost.predicted_overhead": "ratio",
    "trace.overhead_frac": "ratio",
}


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_ikod():
    """Import ikod from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ikod
    except ImportError as exc:
        _fail(f"cannot import ikod from {src}: {exc}")
    if not Path(ikod.__file__).resolve().is_relative_to(src.resolve()):
        _fail(f"ikod was imported from {ikod.__file__}, not {src}")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _per_token_ms(op) -> float:
    return 1e3 * op.wall / max(1, len(op.tokens))


def _end_to_end(w, ops, iteration_walls, setup_walls) -> dict:
    good = {}
    for op in ops:
        if op.error is None:
            good.setdefault(op.kind, []).append(op)
    op_walls = iteration_walls if w.main_op is None else [op.wall for op in good.get(w.main_op, [])]
    # Operation timings are means over the run: on a shared host CPU speed
    # drifts over seconds, and the means of a run's samples vary less from
    # run to run than their medians. Set-up repeats few times: median.
    return {
        "setup_s": _median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "baseline_ms_per_token": _mean([_per_token_ms(op) for op in good.get("baseline", [])]),
        "ikod_ms_per_token": _mean([_per_token_ms(op) for op in good.get("ikod", [])]),
        "ikod_first_token_ms": _mean([1e3 * op.wall for op in good.get("first_token", [])]),
        "op_s": _mean(op_walls),
    }


def _per_layer(w, tracer, ops, traced_its, walls) -> dict:
    import ikod
    import numpy as np
    import workloads

    n = max(1, len(traced_its))
    values = {f"{name}.calls": tracer.calls.get(name, 0) / n for name in SPAN_COUNTS}
    values.update({f"{name}.self_s": tracer.self_s.get(name, 0.0) / n for name in SPAN_SELF})
    values["model.build_s"] = _median(tracer.durations.get("model.build", []))
    values["model.image_embeddings_s"] = _median(tracer.durations.get("model.image_embeddings", []))
    values["model.prefill_s"] = tracer.prefill_s / n
    values["kv_merge.kept_fraction"] = tracer.merged_len / tracer.cache_len if tracer.cache_len else 0.0
    steps = tracer.step_ms
    values["decode.step_ms.p50"] = float(np.percentile(steps, 50)) if steps else 0.0
    values["decode.step_ms.p99"] = float(np.percentile(steps, 99)) if steps else 0.0
    values["decode.pick_changed_frac"] = tracer.picks_changed / tracer.picks if tracer.picks else 0.0

    pairs = {}
    for op in ops:
        if op.error is None and op.iteration not in traced_its and op.kind in ("baseline", "ikod"):
            pairs.setdefault(op.iteration, {})[op.kind] = _per_token_ms(op)
    ratios = [p["ikod"] / p["baseline"] for p in pairs.values() if len(p) == 2]
    values["decode.measured_overhead"] = _median(ratios)

    # cost.py's full-pass model at the final shape of the ikod request.
    ikod_op = next((op for op in ops if op.kind == "ikod" and op.error is None), None)
    growth = getattr(getattr(ikod, "cost", None), "growth_rate_exact", None)
    values["cost.predicted_overhead"] = 0.0
    if ikod_op is not None and growth is not None:
        text = w.n_prompt + len(ikod_op.tokens)
        values["cost.predicted_overhead"] = 1.0 + growth(
            w.n_layers, w.n_image + text, w.d_model, text, workloads.LAMBDA
        )

    # The first iteration warms up; leave it out when others exist.
    untraced = [wall for it, wall in enumerate(walls) if it not in traced_its]
    traced = [wall for it, wall in enumerate(walls) if it in traced_its]
    base = _median(untraced[1:] or untraced)
    values["trace.overhead_frac"] = _median(traced) / base - 1.0 if base else 0.0
    return values


def _environment(seed) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "IKOD_THREADS": os.environ.get("IKOD_THREADS"),
        "inherited": INHERITED,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_ikod()
    import spans
    import workloads

    w = workloads.WORKLOADS.get(workload)
    if w is None:
        _fail(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    inp = workloads.make_inputs(w, seed)
    tracer = spans.Tracer() if trace else None
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=scratch) as tmp:
            work = Path(tmp)
            setup_walls = []
            for _ in range(w.setup_reps):
                if tracer:
                    tracer.install()
                start = perf_counter()
                try:
                    session = workloads.setup(w, inp, work)
                finally:
                    setup_walls.append(perf_counter() - start)
                    if tracer:
                        tracer.remove()

            ops, walls, traced_its = [], [], set()
            loop_start = perf_counter()
            while True:
                it = len(walls)
                traced = tracer is not None and it % 2 == 1
                if traced:
                    traced_its.add(it)
                    tracer.install()
                start = perf_counter()
                try:
                    ops.extend(workloads.run_iteration(w, inp, session, work, it))
                finally:
                    walls.append(perf_counter() - start)
                    if traced:
                        tracer.remove()
                elapsed = perf_counter() - loop_start
                if len(walls) >= MIN_ITERATIONS and elapsed + _median(walls) > seconds:
                    break
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass

    recorded = {}
    if seed == DEFAULT_SEED:
        recorded = json.loads((BENCH_DIR / "expected_digests.json").read_text()).get(workload, {})
    notes = workloads.check_outputs(w, session, ops, recorded)
    if seed == DEFAULT_SEED and not recorded:
        notes.append(f"no recorded digests for {workload}; default-seed check skipped")
    failed = sum(op.error is not None for op in ops)
    if trace:
        metrics, units = _per_layer(w, tracer, ops, traced_its, walls), PER_LAYER
    else:
        untraced_walls = [wall for it, wall in enumerate(walls) if it not in traced_its]
        metrics, units = _end_to_end(w, ops, untraced_walls, setup_walls), END_TO_END

    counts, digests, lengths = {}, {}, {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
        if op.digest is not None:
            digests.setdefault(op.kind, op.digest)
        if op.tokens is not None:
            lengths.setdefault(op.kind, len(op.tokens))
    details = {
        "workload": workload,
        "why": w.why,
        "environment": _environment(seed),
        "inputs": {
            "model_seed": inp.model_seed, "image_seed": inp.image_seed,
            "prompt_tokens": list(inp.prompt), "policy_seed": inp.policy_seed,
        },
        "operations": counts,
        "iterations": {"untraced": len(walls) - len(traced_its), "traced": len(traced_its)},
        "loop_s": elapsed,
        "setup_reps": len(setup_walls),
        "tokens_generated": lengths,
        "digests": digests,
        "notes": notes,
    }
    if trace:
        details["absent_spans"] = tracer.absent
        details["step_samples"] = len(tracer.step_ms)
        details["cost.predicted_overhead"] = "cost.py full-pass model: 1 + growth_rate_exact"
    print("details " + json.dumps(details, sort_keys=True))
    for name, value in metrics.items():
        print(f"{workload:12s} {name:44s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
