"""Check traced benchmark runs against the call counts recorded for seed 0.

Usage: python scripts/check_traced_runs.py TRACED_OUTPUT...

Each TRACED_OUTPUT is the standard output of one
`python3 perfbench/run.py --workload W --seconds 1 --trace 1` run at the
default seed, and together they must cover decode_long, sweep_grid and
cold_start; each file's workload is read from its `details` record. A run
passes when it is correct, every span target still exists (`absent_spans` is
empty), and its span call counts, step samples and pick_changed_frac equal
the values below. The script prints each workload's verdict and the values
that differ, and exits 1 if any run fails or a workload is missing.
"""

from __future__ import annotations

import json
import sys

# Calls per traced iteration at seed 0, in the order softmax_rows,
# forward_step, forward_query, then layer_scores, merge_cache and
# build_merge_plan (one count for all three, one per merged query),
# from_trace, chair_scores. A call routed around a traced function or
# method changes one of them. Prefill runs the prompt through
# forward_prompt, so forward_step counts decoded tokens only, and
# forward_prompt takes its softmax a block of positions at a time
# (_softmax_causal_block), so softmax_rows counts decode-time rows only.
# sweep_grid's grid points replay the decoded prefixes they share from
# the Prefill's step records instead of calling forward_step again. A
# merged query runs inside the forward_step that feeds the previous
# pick, so forward_query counts only each generation's first pick and
# the picks after a replayed step.
# Last, the step samples per traced iteration: the gaps between base
# selections inside traced ikod_generate calls, so a generation that
# stops going through ikod_generate lowers it.
COUNTS = {
    "decode_long": (3870, 515, 4, 259, 0, 0, 255),
    "sweep_grid": (4030, 187, 446, 531, 11, 11, 517),
    "cold_start": (378, 25, 3, 17, 1, 0, 14),
}
# The share of merged-mode picks that differ from argmax p_orig, which
# perfbench derives from each generation's step records: a record that
# stops carrying the picks the loop made changes it.
PICK_CHANGED = {"decode_long": 16 / 259, "sweep_grid": 5 / 531, "cold_start": 0.0}


def check(lines: list[str]) -> tuple[str, bool]:
    """Print the verdict of one traced run's output lines; return its
    workload and whether it passed."""
    result = json.loads(lines[-1])
    details = json.loads(next(l for l in lines if l.startswith("details "))[len("details "):])
    workload = details["workload"]
    softmax, step, query, merged, from_trace, chair, samples = COUNTS[workload]
    expected = {
        "numerics.softmax_rows": softmax, "model.forward_step": step,
        "model.forward_query": query, "kv_merge.layer_scores": merged,
        "kv_merge.merge_cache": merged, "kv_merge.build_merge_plan": merged,
        "attn_analysis.from_trace": from_trace, "metrics.chair_scores": chair,
    }
    calls = {name: result["metrics"][name + ".calls"]["value"] for name in expected}
    wrong = {name: (calls[name], count) for name, count in expected.items() if calls[name] != count}
    per_iteration = details["step_samples"] / details["iterations"]["traced"]
    if per_iteration != samples:
        wrong["step_samples per traced iteration"] = (per_iteration, samples)
    changed = result["metrics"]["decode.pick_changed_frac"]["value"]
    if changed != PICK_CHANGED[workload]:
        wrong["decode.pick_changed_frac"] = (changed, PICK_CHANGED[workload])
    print(workload, "correct", result["correct"], "absent_spans", details["absent_spans"])
    print(workload, "calls (got, expected) where they differ:", wrong)
    return workload, result["correct"] is True and details["absent_spans"] == [] and not wrong


def main(paths: list[str]) -> int:
    checked, failed = set(), False
    for path in paths:
        with open(path) as f:
            workload, ok = check(f.read().splitlines())
        checked.add(workload)
        failed |= not ok
    missing = sorted(COUNTS.keys() - checked)
    if missing:
        print("no traced run of", ", ".join(missing))
    return 1 if failed or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
