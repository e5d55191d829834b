import pytest

from ikod.metrics import (
    BinaryOutcomes,
    CaptionRecord,
    binary_metrics,
    chair_scores,
    load_caption_records,
)


def rec(mentioned, ground_truth) -> CaptionRecord:
    return CaptionRecord(frozenset(mentioned), frozenset(ground_truth))


def test_chair_hand_case():
    records = [
        rec({"dog", "frisbee", "tree"}, {"dog", "frisbee"}),
        rec({"cat"}, {"cat"}),
    ]
    chair_s, chair_i = chair_scores(records)
    assert chair_s == 0.5
    assert chair_i == 0.25


def test_chair_all_grounded():
    assert chair_scores([rec({"a", "b"}, {"a", "b", "c"})]) == (0.0, 0.0)


def test_chair_nothing_grounded():
    assert chair_scores([rec({"a", "b"}, {"c"})]) == (1.0, 1.0)


def test_chair_rejects_empty_inputs():
    with pytest.raises(ValueError):
        chair_scores([])
    with pytest.raises(ValueError):
        chair_scores([rec(set(), {"a"})])


def test_chair_clean_record_never_raises_scores():
    records = [rec({"a", "b"}, {"a"})]
    before = chair_scores(records)
    after = chair_scores(records + [rec({"c"}, {"c"})])
    assert after[0] <= before[0]
    assert after[1] <= before[1]


def test_binary_metrics_perfect():
    assert binary_metrics(BinaryOutcomes(1, 0, 0, 1)) == (1.0, 1.0, 1.0, 1.0)


def test_binary_metrics_hand_case():
    m = binary_metrics(BinaryOutcomes(tp=3, fp=1, fn=2, tn=4))
    assert m.accuracy == pytest.approx(0.7)
    assert m.precision == pytest.approx(0.75)
    assert m.recall == pytest.approx(0.6)
    assert m.f1 == pytest.approx(2 / 3)


def test_binary_metrics_rejects_what_is_not_an_outcome_count():
    with pytest.raises(ValueError, match="^outcomes must be a BinaryOutcomes, got None$"):
        binary_metrics(None)


def test_binary_metrics_degenerate_precision():
    m = binary_metrics(BinaryOutcomes(tp=0, fp=0, fn=3, tn=2))
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.f1 == 0.0


def test_binary_metrics_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        binary_metrics(BinaryOutcomes(0, 0, 0, 0))
    with pytest.raises(ValueError):
        BinaryOutcomes(-1, 0, 0, 1)


@pytest.mark.parametrize("count", [1.5, True, "1", None])
def test_binary_outcomes_reads_counts_as_integers(count):
    with pytest.raises(ValueError, match=f"^fn must be an integer, got {count!r}$"):
        BinaryOutcomes(1, 0, count, 0)
    assert type(BinaryOutcomes(2.0, 0, 0, 1).tp) is int


def test_f1_between_min_and_max_of_precision_recall():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(200):
        tp, fp, fn, tn = (int(x) for x in rng.integers(0, 20, size=4))
        if tp + fp + fn + tn == 0:
            continue
        m = binary_metrics(BinaryOutcomes(tp, fp, fn, tn))
        assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12


def test_load_caption_records(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"mentioned": ["dog", "tree"], "ground_truth": ["dog"]}\n'
        "\n"
        '{"mentioned": ["cat"], "ground_truth": ["cat"]}\n',
        encoding="utf-8",
    )
    records = load_caption_records(path)
    assert len(records) == 2
    assert records[0].hallucinated == {"tree"}
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"mentioned": ["x"]}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        load_caption_records(bad)
