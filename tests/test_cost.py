import math

import numpy as np
import pytest

from ikod.cost import (
    compressed_len,
    dual_path_overhead,
    growth_rate_closed_form,
    growth_rate_exact,
    ikod_flops,
    original_flops,
    step_flops,
)


def test_original_flops_hand_cases():
    assert original_flops(2, 8, 4) == 8192
    assert original_flops(1, 1, 1) == 28
    assert original_flops(4, 8, 4) == 2 * original_flops(2, 8, 4)


def test_original_flops_monotone_in_each_argument():
    base = original_flops(2, 64, 16)
    assert original_flops(3, 64, 16) > base
    assert original_flops(2, 65, 16) > base
    assert original_flops(2, 64, 17) > base


def test_original_flops_rejects_zero_inputs():
    with pytest.raises(ValueError):
        original_flops(0, 8, 4)
    with pytest.raises(ValueError):
        original_flops(2, 0, 4)


def test_compressed_len_hand_case():
    assert compressed_len(8, 4, 0.5) == pytest.approx(6.0)
    assert compressed_len(8, 4, 1.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        compressed_len(8, 9, 0.5)


def test_growth_rate_exact_hand_case():
    assert growth_rate_exact(2, 8, 4, 4, 0.5) == 0.703125
    assert ikod_flops(2, 8, 4, 4, 0.5) == pytest.approx(8192 + 5760)


def test_a_merged_pass_rounded_to_no_positions_costs_nothing():
    """A tiny anchor ratio rounds the merged length to 0.0, a valid input whose
    merged pass adds 0.0 to the original one."""
    for n, text, lam in ((8, 8, 1e-300), (1 << 60, (1 << 60) - 1, 1e-20)):
        assert compressed_len(n, text, lam) == 0.0
        total = ikod_flops(2, n, 4, text, lam)
        assert type(total) is float and total == original_flops(2, n, 4) + 0.0


def test_growth_rate_full_ratio_costs_one_extra_pass():
    assert growth_rate_exact(3, 16, 8, 6, 1.0) == pytest.approx(1.0)
    assert growth_rate_closed_form(16, 8, 6, 1.0) == pytest.approx(1.0)


def test_closed_form_hand_case():
    assert growth_rate_closed_form(8, 4, 4, 0.5) == 0.703125


def test_closed_form_matches_exact_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(500):
        layers = int(rng.integers(1, 9))
        seq_len = int(rng.integers(2, 4097))
        hidden = int(rng.integers(1, 513))
        text_len = int(rng.integers(1, seq_len))
        ratio = float(rng.uniform(1e-6, 1.0))
        exact = growth_rate_exact(layers, seq_len, hidden, text_len, ratio)
        closed = growth_rate_closed_form(seq_len, hidden, text_len, ratio)
        assert closed == pytest.approx(exact, rel=1e-12)


def test_growth_below_one_for_real_compression():
    rng = np.random.default_rng(1)
    for _ in range(200):
        seq_len = int(rng.integers(3, 2048))
        hidden = int(rng.integers(1, 256))
        text_len = int(rng.integers(1, seq_len))
        ratio = float(rng.uniform(1e-6, 1.0 - 1e-6))
        assert growth_rate_exact(1, seq_len, hidden, text_len, ratio) < 1.0


def test_growth_increasing_in_ratio():
    values = [growth_rate_exact(2, 64, 16, 32, r) for r in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_integer_inputs_stay_exact():
    # Python integers do not overflow, so integral configurations count exactly.
    big = original_flops(96, 1 << 20, 1 << 14)
    assert isinstance(big, int)
    assert big == 96 * (24 * (1 << 20) * (1 << 28) + 4 * (1 << 40) * (1 << 14))


def test_step_flops_hand_cases():
    # 2 * (8*16 + 4*4*8 + 4*3*4) = 2 * (128 + 128 + 48)
    assert step_flops(2, 3, 4, 8) == 608
    assert step_flops(1, 1, 1, 1) == 16
    # d_ff is an independent input, not 4 * d_model.
    assert step_flops(1, 5, 2, 3) - step_flops(1, 5, 2, 2) == 4 * 2
    with pytest.raises(ValueError):
        step_flops(1, 0, 4, 8)
    with pytest.raises(ValueError):
        step_flops(1, 3, 4, 0)


def test_dual_path_overhead_hand_case():
    # One image row, three prompt tokens, two new tokens, lambda 0.5, all
    # widths 1, so a step costs 12 + 4n. Pick 0: n = 4 and T = 3 keep one
    # anchor (n_hat = 4). Pick 1: n = 5 and T = 4 keep floor(0.5 * 2) = 1.
    original = (12 + 4 * 4) + (12 + 4 * 5)
    merged = (12 + 4 * 4) + (12 + 4 * 4)
    assert dual_path_overhead(1, 1, 1, 1, 3, 2, 0.5) == 1.0 + merged / original
    # A tiny ratio still keeps one anchor: eight text rows merge to 1 + 2.
    assert dual_path_overhead(1, 1, 1, 0, 8, 1, 1e-9) == 1.0 + (12 + 4 * 3) / (12 + 4 * 8)


def test_dual_path_overhead_bounds():
    # Full ratio merges nothing: the second query costs exactly the first.
    assert dual_path_overhead(2, 16, 64, 8, 6, 10, 1.0) == 2.0
    # The decode_long benchmark shape predicts about 1.9.
    assert dual_path_overhead(4, 128, 512, 64, 16, 256, 0.4) == pytest.approx(1.9126, abs=1e-4)
    with pytest.raises(ValueError):
        dual_path_overhead(1, 4, 8, 2, 2, 4, 0.5)  # too few prompt tokens to merge


@pytest.mark.parametrize(
    "call, args, message",
    [
        (step_flops, (True, 1, 1, 1), "n_layers must be a positive finite number, got True"),
        (step_flops, ("2", 1, 1, 1), "n_layers must be a positive finite number, got '2'"),
        (step_flops, (1, 1, np.True_, 1), "d_model must be a positive finite number, got "),
        (original_flops, (math.nan, 1, 1), "n_layers must be a positive finite number, got nan"),
        (original_flops, (1, 1, math.inf), "hidden must be a positive finite number, got inf"),
        (growth_rate_closed_form, (math.nan, 1, 1, 0.5),
         "seq_len must be a positive finite number, got nan"),
        (growth_rate_closed_form, (8, 4, 4, math.nan), "anchor_ratio must be a finite number"),
        (compressed_len, (10, 5, "0.5"), "anchor_ratio must be a finite number, got '0.5'"),
        (compressed_len, (10, 5, True), "anchor_ratio must be a finite number, got True"),
        (dual_path_overhead, (1, 1, 1, 0, 3, 2.5, 0.5), "n_new must be an integer, got 2.5"),
        (dual_path_overhead, (1, 1, 1, True, 3, 2, 0.5), "l_image must be an integer, got True"),
        (dual_path_overhead, (1, 1, 1, 0, 3.5, 2, 0.5), "l_prompt must be an integer, got 3.5"),
        (dual_path_overhead, (1, 1, 1, -1, 3, 2, 0.5), "l_image must be at least 0, got -1"),
        (dual_path_overhead, (1, 1, 1, 0, 0, 2, 0.5), "l_prompt must be a positive finite number"),
        (growth_rate_closed_form, (4, 4, 5, 0.5), "text length 5 exceeds sequence length 4"),
    ],
    ids=[
        "step-bool", "step-string", "step-numpy-bool", "original-nan", "original-inf",
        "closed-form-nan", "closed-form-nan-ratio", "compressed-string-ratio",
        "compressed-bool-ratio", "overhead-fractional-n-new",
        "overhead-bool-l-image", "overhead-fractional-l-prompt", "overhead-negative-l-image",
        "overhead-empty-prompt", "closed-form-text-past-sequence",
    ],
)
def test_cost_inputs_raise_a_value_error_naming_the_argument(call, args, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call(*args)


def test_float_sizes_propagate_floats():
    assert original_flops(2.0, 8, 4) == 8192.0
    assert isinstance(original_flops(2.0, 8, 4), float)
    assert step_flops(1, 1.5, 1, 1) == 18.0
    # Whole-number floats are read as the counts they name.
    whole = dual_path_overhead(1, 1, 1, 1.0, 3.0, 2.0, 0.5)
    assert whole == dual_path_overhead(1, 1, 1, 1, 3, 2, 0.5)
