"""The benchmark's workloads: shapes, the reason each exists, its inputs and
its operations.

Every workload runs, per iteration, one greedy `baseline` request, one `ikod`
request and `first_token_requests` one-token `ikod` requests through the
library at its own shape. sweep_grid and cold_start then add their main
operation, an in-process `ikod.cli.main` call. All ikod callables are looked
up on their module at call time, so the traced run's wrappers see every call.

All requests use the greedy base strategy (the default config's), so the
reference outputs do not depend on how the sampling stream is laid out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import ikod
import ikod.cli

LAMBDA = 0.4
STRATEGY = "low_attention"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    vocab: int
    n_image: int
    n_prompt: int
    n_new: int
    main_op: str | None  # None, "sweep" or "decode"
    setup_reps: int
    # One on cold_start: there each is a half-second prefill at d=256, L=8.
    first_token_requests: int

    @property
    def max_seq(self) -> int:
        return self.n_image + self.n_prompt + self.n_new


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decode_long",
            why=(
                "text grows to 272 tokens, so kv_merge (merge plus O(T^2) rescoring) does "
                "about 43% of ikod time; baseline runs the same model arithmetic with zero "
                "kv_merge calls and is the control"
            ),
            d_model=128, n_layers=4, n_heads=4, d_ff=512, vocab=512,
            n_image=64, n_prompt=16, n_new=256,
            main_op=None, setup_reps=3, first_token_requests=3,
        ),
        Workload(
            name="sweep_grid",
            why=(
                "prefill dominates (1540 of 2068 forward_step calls per sweep), lambda runs "
                "from a few wide buckets to all singletons, and random draws anchors from Rng "
                "inside the decode loop"
            ),
            d_model=64, n_layers=4, n_heads=4, d_ff=256, vocab=256,
            n_image=128, n_prompt=12, n_new=48,
            main_op="sweep", setup_reps=5, first_token_requests=3,
        ),
        Workload(
            name="cold_start",
            why=(
                "drawing the weights one Rng.next_uniform at a time is about 90% of a cold "
                "ikod decode; kv_merge does little work; the only workload that writes "
                "generation.json and trace.csv"
            ),
            d_model=256, n_layers=8, n_heads=8, d_ff=1024, vocab=512,
            n_image=64, n_prompt=16, n_new=8,
            main_op="decode", setup_reps=2, first_token_requests=1,
        ),
    )
}

SWEEP_LAMBDAS = "0.2,0.4,0.6,0.8,1.0"
SWEEP_STRATEGIES = "low_attention,random"
GROUND_TRUTH_SIZE = 32


@dataclass(frozen=True)
class Inputs:
    """Everything the program receives, derived from the workload seed."""

    model_seed: int
    image_seed: int
    prompt: tuple[int, ...]
    policy_seed: int
    ground_truth: tuple[int, ...]


def make_inputs(w: Workload, seed: int) -> Inputs:
    r = random.Random(f"{w.name}/{seed}")
    # Token 0 is the end-of-sequence id, so prompts and ground truth avoid it.
    return Inputs(
        model_seed=r.getrandbits(32),
        image_seed=r.getrandbits(32),
        prompt=tuple(r.randrange(1, w.vocab) for _ in range(w.n_prompt)),
        policy_seed=r.getrandbits(32),
        ground_truth=tuple(sorted(r.sample(range(1, w.vocab), GROUND_TRUTH_SIZE))),
    )


def model_config(w: Workload, inp: Inputs):
    return ikod.ModelConfig(
        n_layers=w.n_layers, n_heads=w.n_heads, d_model=w.d_model, d_ff=w.d_ff,
        vocab_size=w.vocab, max_seq=w.max_seq, seed=inp.model_seed,
    )


def policy(w: Workload, inp: Inputs, mode: str, max_new_tokens: int):
    return ikod.DecodePolicy(
        mode=mode, anchor_ratio=LAMBDA, anchor_strategy=STRATEGY,
        max_new_tokens=max_new_tokens, seed=inp.policy_seed,
    )


@dataclass
class Session:
    """What set-up leaves for the timed loop."""

    model: object
    prompt: object
    config_path: Path
    ground_truth_path: Path


def setup(w: Workload, inp: Inputs, work: Path) -> Session:
    """Build the model and image embeddings in-process and write the CLI's
    input files: what a user does before the first request."""
    cfg = model_config(w, inp)
    model = ikod.TinyDecoder(cfg)
    images = ikod.make_image_embeddings(w.n_image, w.d_model, inp.image_seed)
    config = {
        "model": cfg.to_json_dict(),
        "image_count": w.n_image,
        "image_seed": inp.image_seed,
        "prompt_tokens": list(inp.prompt),
        "policy": policy(w, inp, "ikod", w.n_new).to_json_dict(),
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    ground_truth_path = work / "ground_truth.json"
    ground_truth_path.write_text(json.dumps(list(inp.ground_truth)) + "\n", encoding="utf-8")
    return Session(model, ikod.Prompt(images, inp.prompt), config_path, ground_truth_path)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


@dataclass
class Op:
    """One timed operation. tokens is set for library requests; digest
    identifies the output; a failed operation carries an error."""

    kind: str
    iteration: int
    wall: float = 0.0
    tokens: list | None = None
    digest: str | None = None
    error: str | None = None


def _request(w: Workload, inp: Inputs, s: Session, kind: str, it: int) -> Op:
    mode = "baseline" if kind == "baseline" else "ikod"
    new = 1 if kind == "first_token" else w.n_new
    op = Op(kind, it)
    start = perf_counter()
    try:
        result = ikod.ikod_generate(s.model, s.prompt, policy(w, inp, mode, new))
        op.wall = perf_counter() - start
        op.tokens = [int(t) for t in result.tokens]
        op.digest = _digest(json.dumps(op.tokens).encode())
    except Exception as exc:  # a failing operation is counted, not fatal
        op.error = f"{type(exc).__name__}: {exc}"
    return op


def _cli_argv(w: Workload, s: Session, out: Path) -> list[str]:
    if w.main_op == "sweep":
        return [
            "sweep", "--config", str(s.config_path), "--out", str(out),
            "--lambdas", SWEEP_LAMBDAS, "--strategies", SWEEP_STRATEGIES,
            "--include-baseline", "--ground-truth-tokens", str(s.ground_truth_path),
        ]
    return ["decode", "--config", str(s.config_path), "--out", str(out)]


CLI_ARTIFACTS = {"sweep": ("sweep.csv",), "decode": ("generation.json", "trace.csv")}


def _cli(w: Workload, s: Session, out: Path, it: int) -> Op:
    """One in-process ikod.cli.main call, its progress line swallowed."""
    op = Op(w.main_op, it)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = ikod.cli.main(_cli_argv(w, s, out))
        op.wall = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"ikod {w.main_op} exited with code {code}")
        op.digest = _digest(*((out / name).read_bytes() for name in CLI_ARTIFACTS[w.main_op]))
    except Exception as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return op


def run_iteration(w: Workload, inp: Inputs, s: Session, work: Path, it: int) -> list[Op]:
    kinds = ["baseline", "ikod"] + ["first_token"] * w.first_token_requests
    ops = [_request(w, inp, s, kind, it) for kind in kinds]
    if w.main_op is not None:
        ops.append(_cli(w, s, work / f"out_{it}", it))
    return ops


def oracle_mismatches(w: Workload, s: Session, tokens) -> int:
    """Greedy baseline tokens against argmax of TinyDecoder.forward_full logits
    under teacher forcing; returns how many positions disagree."""
    fed = list(s.prompt.tokens) + list(tokens)
    rows = [s.prompt.image_embeddings] + [s.model.content_embedding(t)[None, :] for t in fed]
    logits = s.model.forward_full(np.concatenate(rows, axis=0)).logits
    first = w.n_image + w.n_prompt - 1  # logits row that predicts the first new token
    return sum(int(np.argmax(logits[first + i])) != t for i, t in enumerate(tokens))


def check_outputs(w: Workload, s: Session, ops: list[Op], recorded: dict) -> list[str]:
    """Mark every operation that fails a check; returns notes on the failures.

    Each operation's output must equal the first repetition's, or the recorded
    digest when one is given for its kind; the first good baseline request must
    pass the incremental-versus-full oracle.
    """
    notes = []
    reference = {}
    for op in ops:
        if op.error is None:
            reference.setdefault(op.kind, op.digest)
    for kind, digest in recorded.items():
        if reference.get(kind) not in (None, digest):
            notes.append(f"{kind}: digest {reference[kind]} != recorded {digest}")
        reference[kind] = digest
    baseline = next((op for op in ops if op.kind == "baseline" and op.error is None), None)
    oracle_bad = baseline is not None and oracle_mismatches(w, s, baseline.tokens)
    if oracle_bad:
        notes.append(f"oracle: {oracle_bad} baseline tokens differ from forward_full argmax")
    for op in ops:
        if op.error is None and op.digest != reference.get(op.kind):
            op.error = "output differs from the reference"
        if op.error is None and op.kind == "baseline" and oracle_bad:
            op.error = "tokens fail the forward_full oracle"
        if op.error is not None and len(notes) < 20:
            notes.append(f"iteration {op.iteration} {op.kind}: {op.error}")
    return notes
