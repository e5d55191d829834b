"""Object-hallucination rates over caption records and the standard binary
classification scores. Labels compare by exact string equality."""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .model import read_config
from .numerics import _require_type, require_int

__all__ = [
    "BinaryMetrics",
    "BinaryOutcomes",
    "CaptionRecord",
    "binary_metrics",
    "chair_scores",
    "load_caption_records",
]


@dataclass(frozen=True)
class CaptionRecord:
    """Object labels, held as frozensets of strings; each field also accepts
    a JSON array (list), but not a string, which would split into letters."""

    mentioned: frozenset[str]
    ground_truth: frozenset[str]

    def __post_init__(self):
        for name in ("mentioned", "ground_truth"):
            labels = getattr(self, name)
            if not isinstance(labels, (list, tuple, set, frozenset)):
                raise ValueError(f"{name} must be a JSON array, got {labels!r}")
            object.__setattr__(self, name, frozenset(str(x) for x in labels))

    @property
    def hallucinated(self) -> frozenset[str]:
        return self.mentioned - self.ground_truth


def chair_scores(records: Iterable[CaptionRecord]) -> tuple[float, float]:
    """(sentence rate, instance rate): the fraction of records mentioning any
    object missing from their ground truth, and the fraction of all mentions
    that are such objects."""
    records = list(_require_type(records, Iterable, "records"))
    if not records:
        raise ValueError("need at least one record")
    for i, record in enumerate(records):
        _require_type(record, CaptionRecord, f"records[{i}]")
    total_mentioned = sum(len(r.mentioned) for r in records)
    if total_mentioned == 0:
        raise ValueError("instance rate undefined: no objects mentioned")
    total_hallucinated = sum(len(r.hallucinated) for r in records)
    bad_records = sum(1 for r in records if r.hallucinated)
    return bad_records / len(records), total_hallucinated / total_mentioned


@dataclass(frozen=True)
class BinaryOutcomes:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            object.__setattr__(self, name, require_int(getattr(self, name), name, 0))


class BinaryMetrics(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float


def binary_metrics(outcomes: BinaryOutcomes) -> BinaryMetrics:
    """Accuracy, precision, recall, F1; degenerate denominators score 0."""
    _require_type(outcomes, BinaryOutcomes, "outcomes")
    total = outcomes.tp + outcomes.fp + outcomes.fn + outcomes.tn
    if total == 0:
        raise ValueError("no outcomes")
    accuracy = (outcomes.tp + outcomes.tn) / total
    precision = outcomes.tp / (outcomes.tp + outcomes.fp) if outcomes.tp + outcomes.fp else 0.0
    recall = outcomes.tp / (outcomes.tp + outcomes.fn) if outcomes.tp + outcomes.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return BinaryMetrics(accuracy, precision, recall, f1)


def load_caption_records(path) -> list[CaptionRecord]:
    """One JSON object per line: {"mentioned": [...], "ground_truth": [...]},
    read as read_config reads a config, so a non-object, unknown or missing
    keys and non-array labels raise a ValueError naming the line and key."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"file not found: {path}") from None
    records = []
    with fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(read_config(CaptionRecord, json.loads(line), "record"))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: bad record ({exc})") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    return records
