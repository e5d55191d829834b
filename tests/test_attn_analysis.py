import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ikod.attn_analysis import (
    TRACE_HEADER,
    ImageAttentionStat,
    degradation_report,
    kde2d,
    kde_peak,
    read_trace_csv,
    segment_averages,
    synthetic_uniform_trace,
    trace_image_attention,
    uniform_attention_prediction,
)
import ikod.attn_analysis as attn_analysis
from ikod.cli import _write_csv
from ikod.model import LayeredKvCache


def _stat_from_generated(series: np.ndarray) -> ImageAttentionStat:
    return ImageAttentionStat(np.asarray(series, dtype=np.float64).reshape(-1, 1, 1), len(series))


def test_segment_averages_windows_of_two():
    series = np.linspace(0.1, 1.0, 10)  # v1..v10 scaled
    [(layer, head, att_first, att_last, segment_len)] = segment_averages(
        _stat_from_generated(series)
    )
    assert (layer, head, segment_len) == (0, 0, 2)
    assert att_first == pytest.approx(series[:2].mean())
    assert att_last == pytest.approx(series[-2:].mean())


def test_segment_averages_constant_series():
    [(_, _, att_first, att_last, _)] = segment_averages(_stat_from_generated(np.full(12, 0.37)))
    assert att_first == pytest.approx(0.37)
    assert att_last == pytest.approx(0.37)


def test_segment_averages_minimum_length_windows_of_one():
    series = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    [(_, _, att_first, att_last, segment_len)] = segment_averages(_stat_from_generated(series))
    assert segment_len == 1
    assert att_first == pytest.approx(0.5)
    assert att_last == pytest.approx(0.1)


def test_segment_averages_rejects_short_series():
    with pytest.raises(ValueError):
        segment_averages(_stat_from_generated(np.ones(4)))


def test_uniform_prediction_hand_cases():
    assert uniform_attention_prediction(10, 5, 5) == pytest.approx(0.5)
    assert uniform_attention_prediction(576, 40, 60) == pytest.approx(576 / 676)
    with pytest.raises(ValueError):
        uniform_attention_prediction(0, 0, 0)


def test_uniform_prediction_strictly_decreasing_in_generated_length():
    values = [uniform_attention_prediction(16, 8, g) for g in range(1, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_kde_single_point_closed_form():
    density = kde2d([(0.0, 0.0)], [(0.0, 0.0)], h=0.5)
    assert density[0] == pytest.approx(2.0 / math.pi, abs=1e-12)


def test_kde_far_query_decays():
    density = kde2d([(0.0, 0.0)], [(10.0, 10.0)], h=0.5)
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
    with pytest.raises(ValueError, match=r"^h must be above 0\.0, got 0\.0$"):
        kde2d([(0.0, 0.0)], [(0.0, 0.0)], h=0.0)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, -0.5])
def test_kde_rejects_bandwidths_that_are_not_positive_and_finite(h):
    rule = "be above 0.0" if math.isfinite(h) else "be a finite number"
    with pytest.raises(ValueError, match=f"^h must {rule}, got {h}$"):
        kde2d([(0.0, 0.0)], [(0.0, 0.0)], h=h)


def test_kde_reads_bandwidths_as_numbers():
    with pytest.raises(ValueError, match="^h must be a finite number, got '1'$"):
        kde2d([(0.0, 0.0)], [(0.0, 0.0)], "1")


@pytest.mark.parametrize("name", ["points", "grid"])
def test_kde_rejects_non_finite_locations(name):
    given = {"points": [(0.0, 0.0)], "grid": [(0.0, 0.0)], name: [(0.0, math.nan)]}
    with pytest.raises(ValueError, match=f"^{name} must be finite numbers$"):
        kde2d(**given)


@pytest.mark.filterwarnings("error")
def test_kde_tiny_bandwidths_give_finite_densities_or_an_error():
    pts, grid = [(0.0, 0.0), (1.0, 1.0)], [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
    # 1e-154 squared is still a normal float; the kernels between distinct
    # locations overflow their exponent and are zero.
    density = kde2d(pts, grid, h=1e-154)
    assert density.tolist() == [kde_peak(1e-154) / 2, 0.0, kde_peak(1e-154) / 2]
    for h in (1e-160, 1e-320, 5e-324):
        assert kde_peak(h) == math.inf
        message = f"^h {h} is too small: the peak density 1/\\(2\\*pi\\*h\\*\\*2\\) overflows$"
        with pytest.raises(ValueError, match=message):
            kde2d(pts, grid, h=h)
    assert kde_peak(0.5) == pytest.approx(2.0 / math.pi)


def test_kde_in_blocks_matches_one_block(monkeypatch):
    rng = np.random.default_rng(3)
    pts, grid = rng.uniform(size=(7, 2)), rng.uniform(size=(50, 2))
    whole = kde2d(pts, grid)
    monkeypatch.setattr(attn_analysis, "_KDE_BLOCK_CELLS", 20)  # 2 locations per block
    assert kde2d(pts, grid).tobytes() == whole.tobytes()


@given(st.integers(0, 29), st.integers(0, 5), st.integers(1, 40))
@example(4, 3, 8)
@example(3, 0, 5)  # its second value is 1.9e-16 off the prediction
def test_degradation_matches_uniform_prediction(l_image, l_others, l_gen):
    """The synthetic column is the uniform prediction to within rounding, not
    exactly: it sums l_image rounded shares 1/n, where the prediction divides
    l_image by n once."""
    trace = synthetic_uniform_trace(l_image, l_others, l_gen)
    report = degradation_report(ImageAttentionStat.from_trace(trace, l_gen))
    assert len(report) == l_gen
    for t, (rel, att) in enumerate(report, start=1):
        assert rel == pytest.approx(t / l_gen)
        assert att == pytest.approx(uniform_attention_prediction(l_image, l_others, t), rel=1e-13)


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
    rows = trace_image_attention(ImageAttentionStat.from_trace(trace, 3))
    assert len(rows) == 7 * 2 * 3
    steps = {r[0] for r in rows}
    assert steps == set(range(7))


@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda: ImageAttentionStat.from_trace(None, 1), "cache must be a LayeredKvCache"),
        (lambda: degradation_report(None), "stat must be an ImageAttentionStat"),
        (lambda: trace_image_attention(None), "stat must be an ImageAttentionStat"),
    ],
    ids=["from_trace", "degradation_report", "trace_image_attention"],
)
def test_analysis_names_an_input_of_the_wrong_type(call, problem):
    with pytest.raises(ValueError, match=f"^{problem}, got None$"):
        call()


@pytest.mark.parametrize("n_generated", [1.5, True, "2", None])
def test_from_trace_reads_n_generated_as_an_integer(n_generated):
    trace = synthetic_uniform_trace(2, 2, 3)
    with pytest.raises(ValueError, match="n_generated must be an integer"):
        ImageAttentionStat.from_trace(trace, n_generated)
    with pytest.raises(ValueError, match="n_generated must be an integer"):
        ImageAttentionStat(np.zeros((7, 1, 1)), n_generated)


@pytest.mark.parametrize("name", ["l_image", "l_others", "l_gen", "n_layers", "n_heads"])
@pytest.mark.parametrize("bad", [True, 2.5])
def test_synthetic_uniform_trace_reads_counts_as_integers(name, bad):
    counts = dict(l_image=2, l_others=2, l_gen=3, n_layers=1, n_heads=1)
    counts[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        synthetic_uniform_trace(**counts)


def test_synthetic_uniform_trace_rejects_an_empty_layer_or_head_axis():
    for name in ("n_layers", "n_heads"):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            synthetic_uniform_trace(2, 2, 3, **{name: 0})


@pytest.mark.parametrize(
    "counts, name",
    [((2.5, 2, 3), "l_image"), ((2, True, 3), "l_others"), ((2, 2, "3"), "l_gen")],
)
def test_uniform_prediction_reads_counts_as_integers(counts, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        uniform_attention_prediction(*counts)


def test_from_trace_reads_each_position_of_the_layer_major_record():
    """The cache keeps image attention as (layer, head, position); the stat
    and the trace table read it position by position, cell for cell."""
    rng = np.random.default_rng(0)
    trace = LayeredKvCache(2, 3, 0, 6, 2)
    for n in range(6):
        trace.record(rng.uniform(size=(2, 3, n + 1)))
    stat = ImageAttentionStat.from_trace(trace, 2)
    assert stat.values.shape == (6, 2, 3)
    table = trace_image_attention(stat)
    for s, li, h, att in table:
        assert att == stat.values[s, li, h] == trace.image_att[li, h, s]
    assert [r[:3] for r in table] == [
        (s, li, h) for s in range(6) for li in range(2) for h in range(3)
    ]


@pytest.mark.parametrize("counts", [(-1, 2, 3), (2, -1, 3), (2, 2, -1)])
def test_synthetic_uniform_trace_rejects_negative_counts(counts):
    name = ("l_image", "l_others", "l_gen")[counts.index(-1)]
    with pytest.raises(ValueError, match=f"^{name} must be at least 0, got -1$"):
        synthetic_uniform_trace(*counts)


@pytest.mark.parametrize("l_image", [0, 3])
def test_from_trace_marks_the_last_n_generated_text_positions(l_image):
    trace = synthetic_uniform_trace(l_image, 2, 3)
    text_len = 5
    for n_generated in (0, 1, text_len):
        stat = ImageAttentionStat.from_trace(trace, n_generated)
        want = [False] * (l_image + text_len - n_generated) + [True] * n_generated
        marked = np.zeros(l_image + text_len, dtype=bool)
        marked[stat.generated] = True
        assert marked.tolist() == want
        assert stat.values.tobytes() == trace.image_att.transpose(2, 0, 1).tobytes()
    for n_generated in (-1, text_len + 1):
        with pytest.raises(ValueError, match=f"{n_generated} generated tokens"):
            ImageAttentionStat.from_trace(trace, n_generated)



@pytest.mark.parametrize(
    "call, error, problem",
    [
        (lambda: uniform_attention_prediction(-1, 2, 3), ValueError,
         "l_image must be at least 0, got -1"),
        (lambda: kde2d([(0.0, 0.0)], [(0.0, 0.0, 0.0)]), ValueError,
         "grid must be a (m, 2) array, got shape (1, 3)"),
        (lambda: kde2d(np.zeros((0, 2)), [(0.0, 0.0)]), ValueError, "need at least one point"),
        (lambda: degradation_report(
            ImageAttentionStat.from_trace(synthetic_uniform_trace(1, 2, 0), 0)
        ), ValueError, "need at least one generated token"),
        (lambda: ImageAttentionStat(np.zeros((3, 2)), 0), ValueError,
         "values must be a (n_steps, n_layers, n_heads) array, got shape (3, 2)"),
        (lambda: ImageAttentionStat(np.zeros((3, 1, 1)), -1), ValueError,
         "n_generated must be at least 0, got -1"),
        (lambda: ImageAttentionStat(np.zeros((3, 1, 1)), 4), ValueError,
         "n_generated must be at most 3, got 4"),
    ],
    ids=["uniform-negative-length", "kde-grid-shape", "kde-no-points", "report-no-generated",
         "stat-values-shape", "stat-negative-generated", "stat-too-many-generated"],
)
def test_analysis_errors_pin_their_messages(call, error, problem):
    with pytest.raises(error, match=f"^{re.escape(problem)}$"):
        call()


@pytest.mark.parametrize("n_generated", [0, 1, 3])
def test_generated_slices_the_last_n_generated_steps(n_generated):
    values = np.arange(3.0).reshape(3, 1, 1)
    stat = ImageAttentionStat(values, n_generated)
    assert values[stat.generated, 0, 0].tolist() == values[3 - n_generated :, 0, 0].tolist()
    assert stat.values is values


# Finite float64 traces: hypothesis' floats include +-0.0, subnormals and
# values near the largest float.
traces = arrays(
    np.float64,
    array_shapes(min_dims=3, max_dims=3, max_side=4),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(values=traces, where=st.integers(min_value=0))
@example(values=np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308]).reshape(2, 1, 2), where=1)
def test_trace_csv_reads_back_what_it_wrote_and_only_in_that_order(values, where):
    rows = trace_image_attention(ImageAttentionStat(values, 0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        _write_csv(path, TRACE_HEADER, rows)
        written = path.read_bytes()
        read = read_trace_csv(path)
        assert read.shape == values.shape and read.tobytes() == values.tobytes()
        _write_csv(path, TRACE_HEADER, trace_image_attention(ImageAttentionStat(read, 0)))
        assert path.read_bytes() == written
        if len(rows) < 2:
            return
        i = where % (len(rows) - 1)
        # (rows, the 0-based index of the first row out of order)
        corrupted = [
            (rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2 :], i),  # adjacent rows swapped
            (rows[: i + 1] + rows[i:], i + 1),  # row i repeated
            (rows[:i] + rows[i + 1 :], i),  # row i, not the last, dropped
        ]
        for bad, first in corrupted:
            _write_csv(path, TRACE_HEADER, bad)
            s, li, h, _ = rows[first]
            want = f"row {first + 1} should be step {s}, layer {li}, head {h}, found "
            with pytest.raises(ValueError, match=want):
                read_trace_csv(path)
