"""Byte-compare what two ikod source trees write over one fixed grid of runs.

Usage: python scripts/compare_outputs.py SRC_A SRC_B

Each SRC is a directory holding the `ikod` package, such as a checkout's
`src/`. For each tree, one subprocess with that tree on its import path runs
every job of the grid through `ikod.cli.main`, in a fresh directory:
`decode --emit-merge-plans` and `analyze --kde` for every config, and a
`sweep` for every sixth config. The grid is two models (the second with
d_head = 1) x 0, 6 and 24 images x three modes x greedy and top_p 0.9 at
temperature 0.7 x three anchor strategies x seeds 0 and 17, or 216 configs,
each decoding 10 tokens. At 8 or fewer image positions every order of summing
the image mass gives the same bits, so only the 24-image runs tell summation
orders apart. The merge scores are each text token's image mass averaged
over heads; with two heads every order of that sum gives the same bits, but
the second model has four, so each of its merged-mode cells compares the
order of the head sum, through the merge plans the scores rank (the scores
themselves are written nowhere). A long grid decodes 100 tokens (max_seq 160, 24 images, a
vocabulary large enough that sampling rarely ends early) in the two merged
modes x both bases x the low_attention and random strategies x both seeds,
16 configs, so that merges carried across many steps are compared too.
A long-prompt pair runs the same model on 24 images and 110 prompt tokens
(134 prefill rows, past the 128 where numpy's pairwise sum splits a row) and
decodes 20 tokens, greedy with low_attention anchors, in baseline and ikod,
so that a prefill over several blocks of positions is compared end to end.
A wide pair runs a 2-layer model with d_model 264 (8 heads of 33) and d_ff
1030 on 24 images and the 6 prompt tokens and decodes 6 tokens, greedy with
low_attention anchors, in baseline and ikod (the first with a sweep). Each of
its weight matrices is larger than the 512 KiB that the prefill multiplies in
one piece, so every prefill product runs through column blocks: the
feed-forward matrices split with a remainder, and each 545 KiB attention
projection is copied as one block.
Last come `analyze --synthetic-uniform` at four image/prompt/generated
counts (no images, fewer than five generated tokens, 16 generated) and at a
negative count, a `decode` of each of eleven malformed policies (one gives
`k` to a sampler that does not read it, one names an unknown base kind,
`nucleus`) and of a config with misspelled top-level keys, and a `decode`
and `analyze` of one policy whose alpha, beta and base.p are integers
(2, 0, 1). The error jobs write no
files; `exit_codes.json` holds each job's exit code, and for a job that
fails also the first line it wrote to stderr, so a changed message shows.

The job exit codes and every output file are then compared byte for byte.
The script prints the number of files compared and of files that differ or
exist on one side only, and exits 1 if there is any difference.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = {
    "d16": {"n_layers": 2, "n_heads": 2, "d_model": 16, "d_ff": 32, "vocab_size": 32,
            "max_seq": 48, "seed": 3},
    "dhead1": {"n_layers": 3, "n_heads": 4, "d_model": 4, "d_ff": 8, "vocab_size": 24,
               "max_seq": 48, "seed": 11},
}
LONG_MODEL = {"n_layers": 2, "n_heads": 2, "d_model": 16, "d_ff": 32, "vocab_size": 256,
              "max_seq": 160, "seed": 5}
WIDE_MODEL = {"n_layers": 2, "n_heads": 8, "d_model": 264, "d_ff": 1030, "vocab_size": 64,
              "max_seq": 36, "seed": 7}
IMAGE_COUNTS = (0, 6, 24)
BASES = {"greedy": {"kind": "greedy"}, "top_p": {"kind": "top_p", "p": 0.9, "temperature": 0.7}}
STRATEGIES = ("low_attention", "high_attention", "random")
MODES = ("baseline", "ikod", "ikod_no_od")
SEEDS = (0, 17)
PROMPT = [5, 9, 3, 17, 2, 11]
LONG_PROMPT = [1 + (7 * i + 3) % 255 for i in range(110)]
# (image, prompt, generated) counts of the synthetic-uniform analyses.
SYNTHETIC_COUNTS = ((0, 4, 16), (8, 4, 3), (8, 4, 16), (24, 0, 7))
# Policy fields every decode must reject with exit code 2.
MALFORMED_POLICIES = (
    {"alpha": True}, {"alpha": None}, {"beta": "0.1"}, {"anchor_ratio": 0},
    {"mode": "fast"}, {"gamma": 1}, {"base": {"kind": "top_p", "p": True}},
    {"base": {"kind": "top_k", "k": 2.5}}, {"base": {"kind": "greedy", "temperature": "2"}},
    {"base": {"kind": "top_p", "p": 0.9, "k": 3}}, {"base": {"kind": "nucleus", "p": 0.5}},
)
# Top-level keys every decode must reject with exit code 2.
MISSPELLED = {"imagecount": 6, "polcy": {"mode": "baseline"}}
INTEGER_POLICY = {"alpha": 2, "beta": 0, "base": {"kind": "top_p", "p": 1}}
SWEEP_ARGS = [
    "--lambdas", "0.2,0.6,1.0", "--alphas", "0,2", "--strategies", "low_attention,random",
    "--include-baseline", "--ground-truth-tokens", "configs/ground_truth.json",
]

# Runs in the subprocess, with the output directory as its working directory.
RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
import ikod.cli
src = Path(sys.argv[1]).resolve()
assert src in Path(ikod.cli.__file__).resolve().parents, ikod.cli.__file__
codes = []
for argv in json.loads(Path("jobs.json").read_text()):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = ikod.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    codes.append([code, err.getvalue().partition("\\n")[0]] if code else code)
Path("runs", "exit_codes.json").write_text(json.dumps(codes) + "\\n")
"""


def write_grid(root: Path) -> None:
    """Config files and jobs.json for the whole grid, under root."""
    (root / "configs").mkdir(parents=True)
    (root / "runs").mkdir()
    (root / "configs" / "ground_truth.json").write_text(json.dumps([3, 5, 9, 17]))
    jobs = []
    # Strategy and seed vary fastest, so the sweeps cover every model, image
    # count, mode and base; a sweep sets its own strategies.
    grid = [
        (model, MODELS[model], images, PROMPT, mode, base, strategy, seed, 10)
        for model, images, mode, base, strategy, seed
        in itertools.product(MODELS, IMAGE_COUNTS, MODES, BASES, STRATEGIES, SEEDS)
    ]
    long_grid = itertools.product(MODES[1:], BASES, ("low_attention", "random"), SEEDS)
    grid += [("long", LONG_MODEL, 24, PROMPT, *row, 100) for row in long_grid]
    grid += [("longprompt", LONG_MODEL, 24, LONG_PROMPT, mode, "greedy", "low_attention", 0, 20)
             for mode in MODES[:2]]
    grid += [("wide", WIDE_MODEL, 24, PROMPT, mode, "greedy", "low_attention", 0, 6)
             for mode in MODES[:2]]
    for i, (model, spec, images, prompt, mode, base, strategy, seed, new_tokens) in enumerate(grid):
        name = f"{i:03d}-{model}-img{images}-{base}-{strategy}-{mode}-s{seed}"
        config = f"configs/{name}.json"
        (root / config).write_text(json.dumps({
            "model": spec,
            "image_count": images,
            "prompt_tokens": prompt,
            "policy": {"mode": mode, "base": BASES[base], "anchor_strategy": strategy,
                       "max_new_tokens": new_tokens, "seed": seed},
        }))
        run = f"runs/{name}"
        jobs.append(["decode", "--config", config, "--out", f"{run}/decode", "--emit-merge-plans"])
        jobs.append(["analyze", f"{run}/decode", "--out", f"{run}/analyze", "--kde"])
        if i % 6 == 0:
            jobs.append(["sweep", "--config", config, "--out", f"{run}/sweep", *SWEEP_ARGS])
    for images, others, generated in SYNTHETIC_COUNTS:
        jobs.append(["analyze", "--synthetic-uniform", "--kde", "--image-count", str(images),
                     "--other-count", str(others), "--gen-count", str(generated),
                     "--out", f"runs/synthetic-{images}-{others}-{generated}"])
    jobs.append(["analyze", "--synthetic-uniform", "--image-count", "-1",
                 "--out", "runs/synthetic-negative"])
    configs = [(f"malformed-{i}", {"policy": p}) for i, p in enumerate(MALFORMED_POLICIES)]
    configs += [("misspelled", MISSPELLED), ("integer-policy", {"policy": INTEGER_POLICY})]
    for name, fields in configs:
        config = f"configs/{name}.json"
        (root / config).write_text(json.dumps({
            "model": MODELS["d16"], "image_count": 6, "prompt_tokens": PROMPT, **fields,
        }))
        jobs.append(["decode", "--config", config, "--out", f"runs/{name}/decode"])
    jobs.append(["analyze", "runs/integer-policy/decode", "--out", "runs/integer-policy/analyze"])
    (root / "jobs.json").write_text(json.dumps(jobs))


def run_grid(src: Path, root: Path) -> None:
    write_grid(root)
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", RUNNER, str(src)], cwd=root, env=env, check=True)


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sources = [Path(a).resolve() for a in argv]
    for src in sources:
        if not (src / "ikod" / "__init__.py").is_file():
            print(f"error: {src} holds no ikod package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for side, src in zip("ab", sources):
            run_grid(src, Path(tmp, side))
            trees.append(files_under(Path(tmp, side, "runs")))
    a, b = trees
    differ = sorted(name for name in a.keys() & b.keys() if a[name] != b[name])
    only = sorted(a.keys() ^ b.keys())
    print(f"compared {len(a.keys() | b.keys())} files: {len(differ)} differ, "
          f"{len(only)} exist on one side only")
    for name in (differ + only)[:20]:
        print(f"  {name}")
    return 1 if differ or only else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
