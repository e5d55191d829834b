import math

import numpy as np
import pytest

from ikod.attn_analysis import (
    ImageAttentionStat,
    degradation_report,
    kde2d,
    segment_averages,
    synthetic_uniform_trace,
    trace_image_attention,
    uniform_attention_prediction,
)
from ikod.model import TraceError


def _stat_from_generated(series: np.ndarray) -> ImageAttentionStat:
    return ImageAttentionStat(
        values=np.asarray(series, dtype=np.float64).reshape(-1, 1, 1),
        generated=np.ones(len(series), dtype=bool),
    )


def test_segment_averages_windows_of_two():
    series = np.linspace(0.1, 1.0, 10)  # v1..v10 scaled
    summary = segment_averages(_stat_from_generated(series), 0, 0)
    assert summary.segment_len == 2
    assert summary.att_first == pytest.approx(series[:2].mean())
    assert summary.att_last == pytest.approx(series[-2:].mean())


def test_segment_averages_constant_series():
    summary = segment_averages(_stat_from_generated(np.full(12, 0.37)), 0, 0)
    assert summary.att_first == pytest.approx(0.37)
    assert summary.att_last == pytest.approx(0.37)


def test_segment_averages_minimum_length_windows_of_one():
    series = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    summary = segment_averages(_stat_from_generated(series), 0, 0)
    assert summary.segment_len == 1
    assert summary.att_first == pytest.approx(0.5)
    assert summary.att_last == pytest.approx(0.1)


def test_segment_averages_rejects_short_series():
    with pytest.raises(ValueError):
        segment_averages(_stat_from_generated(np.ones(4)), 0, 0)


def test_uniform_prediction_hand_cases():
    assert uniform_attention_prediction(10, 5, 5) == pytest.approx(0.5)
    assert uniform_attention_prediction(576, 40, 60) == pytest.approx(576 / 676)
    with pytest.raises(ValueError):
        uniform_attention_prediction(0, 0, 0)


def test_uniform_prediction_strictly_decreasing_in_generated_length():
    values = [uniform_attention_prediction(16, 8, g) for g in range(1, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_kde_single_point_closed_form():
    density = kde2d([(0.0, 0.0)], [(0.0, 0.0)], h_x=0.5, h_y=0.5)
    assert density[0] == pytest.approx(2.0 / math.pi, abs=1e-12)


def test_kde_far_query_decays():
    density = kde2d([(0.0, 0.0)], [(10.0, 10.0)], h_x=0.5, h_y=0.5)
    assert density[0] < 1e-10


def test_kde_shift_invariance():
    pts = [(0.1, 0.2), (0.4, -0.3), (-0.2, 0.5)]
    grid = [(0.0, 0.1), (0.3, 0.3)]
    base = kde2d(pts, grid)
    shifted = kde2d([(x + 3.0, y - 2.0) for x, y in pts], [(x + 3.0, y - 2.0) for x, y in grid])
    np.testing.assert_allclose(base, shifted, rtol=1e-12)


def test_kde_integrates_to_one():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    axis = np.arange(-5.0, 6.0, 0.1)
    grid = np.array([(x, y) for x in axis for y in axis])
    total = kde2d(pts, grid).sum() * 0.1 * 0.1
    assert total == pytest.approx(1.0, rel=0.02)


def test_kde_input_validation():
    with pytest.raises(ValueError):
        kde2d([], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        kde2d([(0.0, 0.0)], [(0.0, 0.0)], h_x=0.0)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, -0.5])
def test_kde_rejects_bandwidths_that_are_not_positive_and_finite(h):
    with pytest.raises(ValueError, match="positive and finite"):
        kde2d([(0.0, 0.0)], [(0.0, 0.0)], h_x=h)
    with pytest.raises(ValueError, match="positive and finite"):
        kde2d([(0.0, 0.0)], [(0.0, 0.0)], h_y=h)


def test_degradation_matches_uniform_prediction():
    trace = synthetic_uniform_trace(4, 3, 8)
    report = degradation_report(ImageAttentionStat.from_trace(trace, 8))
    assert len(report) == 8
    for t, (rel, att) in enumerate(report, start=1):
        assert rel == pytest.approx(t / 8)
        assert att == pytest.approx(uniform_attention_prediction(4, 3, t), rel=1e-13)


def test_degradation_single_token_has_relative_position_one():
    trace = synthetic_uniform_trace(2, 2, 1)
    report = degradation_report(ImageAttentionStat.from_trace(trace, 1))
    assert len(report) == 1
    assert report[0][0] == 1.0


def test_degradation_column_passes_through_monotone_series():
    trace = synthetic_uniform_trace(4, 3, 12)
    column = [att for _, att in degradation_report(ImageAttentionStat.from_trace(trace, 12))]
    assert all(a > b for a, b in zip(column, column[1:]))


def test_trace_table_covers_every_cell():
    trace = synthetic_uniform_trace(2, 2, 3, n_layers=2, n_heads=3)
    rows = trace_image_attention(trace, 3)
    assert len(rows) == 7 * 2 * 3
    steps = {r[0] for r in rows}
    assert steps == set(range(7))


@pytest.mark.parametrize("counts", [(-1, 2, 3), (2, -1, 3), (2, 2, -1)])
def test_synthetic_uniform_trace_rejects_negative_counts(counts):
    with pytest.raises(ValueError, match="non-negative"):
        synthetic_uniform_trace(*counts)


@pytest.mark.parametrize("l_image", [0, 3])
def test_from_trace_marks_the_last_n_generated_text_positions(l_image):
    trace = synthetic_uniform_trace(l_image, 2, 3)
    text_len = 5
    for n_generated in (0, 1, text_len):
        stat = ImageAttentionStat.from_trace(trace, n_generated)
        want = [False] * (l_image + text_len - n_generated) + [True] * n_generated
        assert stat.generated.tolist() == want
        assert stat.values.tobytes() == trace.image_att[: trace.length].tobytes()
    for n_generated in (-1, text_len + 1):
        with pytest.raises(TraceError, match=f"{n_generated} generated tokens"):
            ImageAttentionStat.from_trace(trace, n_generated)

