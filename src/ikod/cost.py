"""Analytic decode cost model: per-pass FLOPs and the added-cost ratio of the
dual-path strategy.

A single forward pass over a length-n sequence costs L * (24*n*d^2 + 4*n^2*d)
FLOPs (attention and feed-forward only). The merged second pass runs over the
shortened length n_hat = n + (lam - 1) * l, so its relative cost g is below 1
whenever any text is actually merged.

The decode loop does not run full passes: each step evaluates one cached
query, costing L * (8*d^2 + 4*d*d_ff + 4*n*d) against a cache of n rows
(step_flops). The dual path adds a second such query at every generated
token, against the rows merge_cache keeps: the image rows, anchor_count(T,
lam) anchors of the T text tokens and the two protected rows
(dual_path_overhead). The full-pass formulas use the paper's shortened
length instead (compressed_len).

Python integers never overflow, so integer inputs give exact counts; float
inputs propagate floats. Sizes are finite positive reals and the counts that
anchor_count or a loop reads are integers; anything else, booleans included,
raises a ValueError naming the argument.
"""

from __future__ import annotations

import math
import numbers

from .kv_merge import _require_anchor_ratio, anchor_count
from .numerics import require_int

__all__ = [
    "compressed_len",
    "dual_path_overhead",
    "growth_rate_closed_form",
    "growth_rate_exact",
    "ikod_flops",
    "original_flops",
    "step_flops",
]


def _check_positive(**kwargs) -> None:
    """Each value must be a finite positive real. An int is finite however
    large, so an oversized count overflows only where a float is formed."""
    for name, value in kwargs.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and 0 < value < math.inf):  # NaN fails the comparison too
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def original_flops(n_layers, seq_len, hidden):
    """FLOPs of one full-cache pass: L * (24*n*d^2 + 4*n^2*d)."""
    _check_positive(n_layers=n_layers, seq_len=seq_len, hidden=hidden)
    return n_layers * (24 * seq_len * hidden**2 + 4 * seq_len**2 * hidden)


def compressed_len(seq_len, text_len, anchor_ratio):
    """Sequence length after merging: n + (lam - 1) * l."""
    _check_positive(seq_len=seq_len, text_len=text_len)
    anchor_ratio = _require_anchor_ratio(anchor_ratio)
    if text_len > seq_len:
        raise ValueError(f"text length {text_len} exceeds sequence length {seq_len}")
    return seq_len + (anchor_ratio - 1.0) * text_len


def ikod_flops(n_layers, seq_len, hidden, text_len, anchor_ratio):
    """Total FLOPs of the dual-path step: the original pass plus the pass over
    the merged length."""
    n_hat = compressed_len(seq_len, text_len, anchor_ratio)
    return original_flops(n_layers, seq_len, hidden) + n_layers * (
        24 * n_hat * hidden**2 + 4 * n_hat**2 * hidden
    )


def growth_rate_exact(n_layers, seq_len, hidden, text_len, anchor_ratio):
    """Added cost relative to the original pass: total/original - 1."""
    total = ikod_flops(n_layers, seq_len, hidden, text_len, anchor_ratio)
    return total / original_flops(n_layers, seq_len, hidden) - 1.0


def growth_rate_closed_form(seq_len, hidden, text_len, anchor_ratio):
    """Closed form of the added-cost ratio.

    With c = (1 - lam) * l the ratio simplifies to
    1 - c * (2n - c + 6d) / (6nd + n^2), obtained by expanding the quadratic
    in the shortened length and dividing through by 4d.
    """
    _check_positive(seq_len=seq_len, hidden=hidden, text_len=text_len)
    anchor_ratio = _require_anchor_ratio(anchor_ratio)
    if text_len > seq_len:
        raise ValueError(f"text length {text_len} exceeds sequence length {seq_len}")
    c = (1.0 - anchor_ratio) * text_len
    return 1.0 - c * (2 * seq_len - c + 6 * hidden) / (6 * seq_len * hidden + seq_len**2)


def step_flops(n_layers, cache_len, d_model, d_ff):
    """FLOPs of one cached query: L * (8*d^2 + 4*d*d_ff + 4*n*d).

    Per layer: the four d x d projections (8d^2), the feed-forward block
    (4*d*d_ff) and the attention scores and weighted sum over n cached rows
    (4nd).
    """
    _check_positive(n_layers=n_layers, cache_len=cache_len, d_model=d_model, d_ff=d_ff)
    return n_layers * (8 * d_model**2 + 4 * d_model * d_ff + 4 * cache_len * d_model)


def dual_path_overhead(n_layers, d_model, d_ff, l_image, l_prompt, n_new, anchor_ratio):
    """1 + g_step summed over a generation: the dual path's FLOPs over the
    original path's, for n_new generated tokens after a prefill of l_image +
    l_prompt positions.

    The query that picks token i attends over n = l_image + l_prompt + i cached
    rows; its merged twin attends over the rows merge_cache keeps,
    l_image + k + 2, with k = anchor_count(l_prompt + i, lam) anchors kept from
    the l_prompt + i text tokens. Prefill is left out. l_image, l_prompt and
    n_new are integers.
    """
    l_image, l_prompt = require_int(l_image, "l_image", 0), require_int(l_prompt, "l_prompt")
    n_new = require_int(n_new, "n_new")
    _check_positive(l_prompt=l_prompt, n_new=n_new)
    original = merged = 0
    for i in range(n_new):
        n = l_image + l_prompt + i
        n_hat = l_image + anchor_count(l_prompt + i, anchor_ratio) + 2
        original += step_flops(n_layers, n, d_model, d_ff)
        merged += step_flops(n_layers, n_hat, d_model, d_ff)
    return 1.0 + merged / original
