"""Generation strategies: base samplers, plausibility filtering, and the
dual-path loop that pairs full-cache decoding with a merged-cache view.

Per generated token the loop evaluates the last fed token twice: once by
the ordinary incremental step on the uncompressed cache, and once against
a cache merged under the image attention recorded so far (same content
embedding, same position). It combines the two probability vectors as
p_orig + alpha * p_aug restricted to tokens whose original probability is
at least beta times the original maximum. The merged query for the next
pick needs nothing the step produces but the token's own key/value rows,
and its plan reads only recorded scores. So when the model runs a picked
token's step, the loop first plans and merges for it, and one forward_step
runs both queries layer by layer, each weight matrix applied to both while
it is hot. The first pick, and a pick after a step replayed from the step
tree (below), plan over the cache and run the merged query on its own. The
merged view lives in one block per generation: each merge rebuilds only
the buckets whose bounds changed since the last one, and never mutates the
live cache.

The image and prompt positions are run once by prefill(), and every
generation forks the resulting Prefill: each fork copies the prompt's
key/value rows and recorded image attention into a fresh cache, so a policy
sweep over one prompt prefills it once. The Prefill's step tree keeps
what forward_step wrote for each token history a fork decoded, and later forks
copy it bit for bit, so a sweep also decodes each shared token prefix once.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kv_merge import (
    AnchorStrategy,
    _require_anchor_ratio,
    build_merge_plan,
    layer_scores,
    merge_cache,
)
from .model import CapacityError, LayeredKvCache, TinyDecoder, json_fields
from .numerics import Rng, _require_type, require_array, require_float, require_int
from .numerics import require_member, require_seed, softmax_rows

__all__ = [
    "EOS_TOKEN",
    "BaseStrategy",
    "DecodePolicy",
    "GenerationResult",
    "Mode",
    "Prefill",
    "Prompt",
    "Step",
    "base_select",
    "check_counts",
    "check_request",
    "collaborative_combine",
    "ikod_generate",
    "plausibility_mask",
    "prefill",
]

# Reserved end-of-sequence id; generation stops after emitting it.
EOS_TOKEN = 0


class Mode(str, Enum):
    BASELINE = "baseline"
    IKOD = "ikod"
    IKOD_NO_OD = "ikod_no_od"


@dataclass(frozen=True)
class BaseStrategy:
    """Base token-selection rule applied to the combined scores.

    kind is one of greedy | top_k | top_p; k is set only for top_k and p only
    for top_p, where p = 1.0 keeps the whole distribution.
    A temperature, when set, raises the probabilities to 1/t and renormalizes
    before any truncation.
    """

    kind: str = "greedy"
    k: int | None = None
    p: float | None = None
    temperature: float | None = None

    def __post_init__(self):
        checks = {
            "k": lambda k: require_int(k, "k", 1),
            "p": lambda p: require_float(p, "p", above=0.0, most=1.0),
            "temperature": lambda t: require_float(t, "temperature", above=0.0),
        }
        for name, check in checks.items():
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check(getattr(self, name)))
        if self.kind not in ("greedy", "top_k", "top_p"):
            raise ValueError(f"kind must be greedy, top_k or top_p, got {self.kind!r}")
        for name, kind in (("k", "top_k"), ("p", "top_p")):
            wanted = self.kind == kind
            if (getattr(self, name) is not None) != wanted:
                raise ValueError(f"{name} must be {'set' if wanted else 'unset'} for {self.kind}")


@dataclass(frozen=True)
class DecodePolicy:
    mode: Mode = Mode.IKOD
    base: BaseStrategy = field(default_factory=BaseStrategy)
    alpha: float = 2.0
    beta: float = 0.1
    anchor_ratio: float = 0.4
    anchor_strategy: AnchorStrategy = AnchorStrategy.LOW_ATTENTION
    max_new_tokens: int = 16
    seed: int = 0

    def __post_init__(self):
        for name, kind in (("mode", Mode), ("anchor_strategy", AnchorStrategy)):
            object.__setattr__(self, name, require_member(kind, getattr(self, name), name))
        _require_type(self.base, BaseStrategy, "base")
        max_new_tokens = require_int(self.max_new_tokens, "max_new_tokens", 1)
        object.__setattr__(self, "max_new_tokens", max_new_tokens)
        object.__setattr__(self, "seed", require_seed(self.seed, "seed"))
        object.__setattr__(self, "alpha", require_float(self.alpha, "alpha", least=0.0))
        object.__setattr__(self, "beta", require_float(self.beta, "beta", 0.0, 1.0))
        object.__setattr__(self, "anchor_ratio", _require_anchor_ratio(self.anchor_ratio))

    def to_json_dict(self) -> dict:
        return json_fields(self)


def plausibility_mask(p_orig, beta: float) -> np.ndarray:
    """Boolean mask of tokens whose probability reaches beta times the max.

    beta = 0 keeps everything; beta = 1 keeps only argmax ties. The argmax is
    always kept. p_orig must be a non-empty 1-D array of finite numbers.
    """
    beta = require_float(beta, "beta", 0.0, 1.0)
    p = require_array(p_orig, "p_orig", ("n",))
    if p.size == 0 or not np.isfinite(p).all():
        raise ValueError("p_orig must be a non-empty 1-D array of finite numbers")
    return p >= beta * p.max()


def collaborative_combine(p_orig, p_aug, alpha: float, v_head) -> np.ndarray:
    """p_orig + alpha * p_aug, zeroed outside the admissible set."""
    p_orig = require_array(p_orig, "p_orig", ("n",))
    p_aug = require_array(p_aug, "p_aug", p_orig.shape)
    v_head = require_array(v_head, "v_head", p_orig.shape, dtype=bool)
    alpha = require_float(alpha, "alpha", least=0.0)
    return np.where(v_head, p_orig + alpha * p_aug, 0.0)


def base_select(scores, base: BaseStrategy, rng: Rng | None) -> int:
    """Pick a token id from non-negative scores.

    Greedy takes the argmax (lowest index on ties) and reads no rng. Sampling
    modes renormalize the scores, optionally temper them, truncate to the k
    largest or to the smallest prefix of descending sorted mass reaching p,
    renormalize again, and draw by inverse CDF from the seeded generator rng.
    """
    _require_type(base, BaseStrategy, "base")
    s = require_array(scores, "scores", ("n",))
    if not (s >= 0).all():  # NaN fails the comparison too
        raise ValueError("scores must be non-negative numbers")
    total = s.sum()
    if total == 0.0:
        raise ValueError("scores are all zero")
    if total == math.inf:
        raise ValueError("scores must have a finite sum")
    if base.kind == "greedy":
        return int(np.argmax(s))
    if rng is None:
        raise ValueError(f"{base.kind} selection needs an rng")
    _require_type(rng, Rng, "rng")
    probs = s / total
    if base.temperature is not None:
        # Dividing by the max first keeps the top entry at 1.0, so sharp
        # temperatures cannot underflow the whole vector to zero.
        probs = (probs / probs.max()) ** (1.0 / base.temperature)
        probs = probs / probs.sum()
    order = np.argsort(-probs, kind="stable")
    if base.kind == "top_k":
        keep = order[: base.k]
    else:  # top_p
        cut = int(np.searchsorted(np.cumsum(probs[order]), base.p, side="left"))
        keep = order[: cut + 1]
    mask = np.zeros(probs.size, dtype=bool)
    mask[keep] = True
    probs = np.where(mask, probs, 0.0)
    probs = probs / probs.sum()
    u = rng.next_uniform()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    last_nonzero = int(np.flatnonzero(probs > 0.0)[-1])
    return min(idx, last_nonzero)


@dataclass(frozen=True)
class Prompt:
    """Synthetic image embeddings followed by instruction token ids."""

    image_embeddings: np.ndarray  # (n_image, d_model); zero rows allowed
    tokens: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.tokens, (list, tuple)):
            raise ValueError(f"tokens must be a list or tuple of token ids, got {self.tokens!r}")


@dataclass(frozen=True)
class Step:
    """One pick: the token chosen and the full-cache distribution p_orig;
    under a merged mode also the merged path's p_aug, the plausibility set
    v_head, the merged query's image attention (mean over layers and heads)
    and the (n_layers, k) anchors of the plan it ran on, all None under
    baseline. The pick was drawn from collaborative_combine(p_orig, p_aug,
    alpha, v_head) under ikod, or p_aug masked to v_head under ikod_no_od."""

    chosen: int
    p_orig: np.ndarray
    p_aug: np.ndarray | None = None
    v_head: np.ndarray | None = None
    aug_image_attention: float | None = None
    anchors: np.ndarray | None = None


@dataclass
class GenerationResult:
    """One Step per pick, in order, and the cache the generation filled."""

    steps: list[Step]
    cache: LayeredKvCache

    @property
    def tokens(self) -> list[int]:
        return [step.chosen for step in self.steps]


def _softmax_vec(logits: np.ndarray) -> np.ndarray:
    return softmax_rows(logits[None, :])[0]


def _prompt_images(model: TinyDecoder, prompt: Prompt) -> np.ndarray:
    return require_array(prompt.image_embeddings, "image_embeddings", ("n", model.config.d_model))


class _StepTree:
    """The decoded steps of the generations forked from one Prefill. Row r
    holds what forward_step wrote for one token fed after the history of its
    parent row (-1 is the prompt): the position's K/V rows and image_att
    entries, and the logits that follow.

    Rows, numbered in recording order, live in one max_seq-row block per
    field, allocated at the first record; once full, the tree records nothing
    more and keeps replaying. Like an Rng, a tree has one owner.
    """

    def __init__(self):
        self.children: dict[tuple[int, int], int] = {}
        self.blocks: tuple[np.ndarray, ...] | None = None

    def step(self, model: TinyDecoder, cache: LayeredKvCache, parent: int | None,
             token: int, merge_ahead: Callable[[], tuple] | None = None
             ) -> tuple[int | None, np.ndarray, tuple | None]:
        """Feed token to cache after the history at row parent (None: a
        history the tree does not hold). merge_ahead, when given, returns the
        (keys, values) of a merge for the position token takes, whose last row
        the step fills; only a step the model runs calls it, and runs the
        merged query on it too (forward_step's merged). Returns the token's
        row, or None, the logits that follow it, and the merged query's
        (logits, rows), or None when it did not run."""
        row = None if parent is None else self.children.get((parent, token))
        if row is not None:
            pos = model.open_position(cache)
            for view, block in zip(cache.position(pos), self.blocks):
                view[...] = block[row]
            cache.length = pos + 1
            return row, self.blocks[-1][row], None
        out = model.forward_step(cache, token, None if merge_ahead is None else merge_ahead())
        cfg, row = model.config, len(self.children)
        if parent is None or row == cfg.max_seq:
            return None, out.logits, out.merged
        if self.blocks is None:
            kv = (cfg.n_layers, cfg.n_heads, cfg.d_head)
            shapes = (kv, kv, kv[:2], (cfg.vocab_size,))
            self.blocks = tuple(np.empty((cfg.max_seq, *shape)) for shape in shapes)
        for view, block in zip((*cache.position(cache.length - 1), out.logits), self.blocks):
            block[row] = view
        self.children[(parent, token)] = row
        return row, out.logits, out.merged


@dataclass(frozen=True)
class Prefill:
    """The image and prompt positions of one Prompt, run through the model
    once into a prompt-sized cache whose arrays stay read-only. Each
    generation given a Prefill forks it (see fork) instead of running the
    prompt again, and replays from the step tree every token history an
    earlier fork decoded. The tree holds at most max_seq steps. Like an Rng,
    a Prefill has one owner: its generations run one after another."""

    model: TinyDecoder
    cache: LayeredKvCache
    logits: np.ndarray  # predicting the first new token
    last_input: int  # last prompt token, the merged path's first query
    tree: _StepTree = field(default_factory=_StepTree, repr=False, compare=False)

    def fork(self) -> LayeredKvCache:
        """A fresh cache holding the prompt's key/value rows and recorded image
        attention."""
        prompt, n = self.cache, self.cache.length
        cache = self.model.new_cache(prompt.l_image)
        cache.keys[:, :, :n] = prompt.keys
        cache.values[:, :, :n] = prompt.values
        cache.image_att[:, :, :n] = prompt.image_att
        cache.length = n
        return cache


def prefill(model: TinyDecoder, prompt: Prompt) -> Prefill:
    """Run the image embeddings, then the prompt tokens, through
    forward_prompt on a fresh cache sized to the prompt, for generations that
    fork the result. The Prefill holds that cache, with no copy."""
    _require_type(model, TinyDecoder, "model")
    _require_type(prompt, Prompt, "prompt")
    if len(prompt.tokens) < 1:
        raise ValueError("prompt needs at least one text token")
    tokens = [require_int(tok, f"prompt token [{i}]") for i, tok in enumerate(prompt.tokens)]
    cfg = model.config
    images = _prompt_images(model, prompt)
    cache = LayeredKvCache(
        cfg.n_layers, cfg.n_heads, cfg.d_head, images.shape[0] + len(tokens), images.shape[0]
    )
    logits = model.forward_prompt(cache, [*images, *tokens])
    for array in (cache.keys, cache.values, cache.image_att, logits):
        array.flags.writeable = False
    return Prefill(model, cache, logits, tokens[-1])


def check_request(model: TinyDecoder, prompt: Prompt | Prefill, policy: DecodePolicy) -> None:
    """Raise the error ikod_generate would raise for this request before it
    runs any forward step: ValueError or CapacityError."""
    _require_type(model, TinyDecoder, "model")
    if isinstance(prompt, Prefill):
        if prompt.model is not model:
            raise ValueError("prefill was computed by a different model")
        n_image, l_others = prompt.cache.l_image, prompt.cache.length - prompt.cache.l_image
    elif isinstance(prompt, Prompt):
        n_image, l_others = _prompt_images(model, prompt).shape[0], len(prompt.tokens)
    else:
        raise ValueError(f"prompt must be a Prompt or a Prefill, got {prompt!r}")
    check_counts(model.config.max_seq, n_image, l_others, policy)


def check_counts(max_seq: int, n_image: int, l_others: int, policy: DecodePolicy) -> None:
    """check_request on the counts alone: a prompt of n_image image and
    l_others text positions, for a model of max_seq positions."""
    _require_type(policy, DecodePolicy, "policy")
    if l_others < 1:
        raise ValueError("prompt needs at least one text token")
    if policy.mode is not Mode.BASELINE and l_others < 3:
        raise ValueError("merged decoding needs at least three prompt text tokens")
    length = n_image + l_others
    if length + policy.max_new_tokens > max_seq:
        raise CapacityError(
            f"prompt of {length} plus {policy.max_new_tokens} new tokens exceeds "
            f"max_seq {max_seq}"
        )


def ikod_generate(
    model: TinyDecoder,
    prompt: Prompt | Prefill,
    policy: DecodePolicy,
) -> GenerationResult:
    """Run the full generation loop under the given policy.

    prompt is either a Prefill of this model or a Prompt, which is prefilled
    first; either way the generation forks the Prefill. Only a Prefill the
    caller holds records the steps it decodes in its tree. Every emitted token
    (the final one and the end token included) is fed back through the
    incremental path, so the cache records the image attention of each
    generated token and is identical across modes for equal token sequences.
    """
    check_request(model, prompt, policy)
    node = -1  # the history's row in the prompt's step tree
    if isinstance(prompt, Prompt):
        # No other generation can reach this Prefill, so it records nothing.
        prompt, node = prefill(model, prompt), None
    cache = prompt.fork()
    logits, current_input = prompt.logits, prompt.last_input

    rng = Rng(policy.seed)
    steps: list[Step] = []
    merged = aug = None

    def plan_merge(upcoming: bool) -> None:
        nonlocal merged
        plan = build_merge_plan(
            layer_scores(cache, upcoming), policy.anchor_ratio, policy.anchor_strategy, rng
        )
        merged = merge_cache(cache, plan, merged, upcoming)

    def merge_ahead() -> tuple[np.ndarray, np.ndarray]:
        # The next pick's merged query is the token being fed at its
        # position, and its plan reads only recorded scores: merge for it
        # before the step that feeds the token, which runs the query too.
        plan_merge(upcoming=True)
        return merged.keys, merged.values

    for i in range(policy.max_new_tokens):
        p_orig = _softmax_vec(logits)
        scores = p_orig
        p_aug = v_head = aug_att = anchors = None  # baseline runs no merged path
        if policy.mode is not Mode.BASELINE:
            if aug is None:  # no model step ran it: the first pick, or one after a replay
                plan_merge(upcoming=False)
                aug = model.forward_query(
                    merged.keys, merged.values, cache.length - 1, current_input
                )
            aug_logits, aug_rows = aug
            p_aug = _softmax_vec(aug_logits)
            v_head = plausibility_mask(p_orig, policy.beta)
            if policy.mode is Mode.IKOD:
                scores = collaborative_combine(p_orig, p_aug, policy.alpha, v_head)
            else:
                scores = np.where(v_head, p_aug, 0.0)
            aug_att = float(aug_rows[:, :, : cache.l_image].sum(axis=2).mean())
            anchors = merged.plan.anchors  # the plan this pick's merged query ran on
        token = base_select(scores, policy.base, rng)
        steps.append(Step(token, p_orig, p_aug, v_head, aug_att, anchors))
        last = token == EOS_TOKEN or i == policy.max_new_tokens - 1
        ahead = None if last or policy.mode is Mode.BASELINE else merge_ahead
        node, logits, aug = prompt.tree.step(model, cache, node, token, ahead)
        current_input = token
        if last:
            break

    return GenerationResult(steps, cache)
