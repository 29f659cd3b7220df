"""Event extraction, timestamp-based scoring, and simulation.

Detections are compared to ground truth at event granularity: each
maximal run of positive frames becomes one event stamped at its first
frame, and an event counts as correct when its timestamp falls within a
tolerance (default one second) of a ground-truth interval. Per-sequence
precision/recall/F1 aggregate across sequences by median, which keeps a
single degenerate sequence from dominating the summary.

The simulation helpers drive the fusion pipeline with synthetic
classifier outputs from a deterministic PRNG so that statistical claims
about fused false-positive rates can be tested without trained models.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .ensemble import PredictionSeries, _series
from .errors import ValidationError, _is_finite_number

__all__ = [
    "SplitMix64",
    "simulate_predictor",
    "DetectionEvent",
    "events_from_series",
    "ScoreReport",
    "match_score",
    "median_report",
    "FrameMetrics",
    "frame_metrics",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG; tiny, seedable, identical output on every platform.

    Used wherever reproducibility across runs and machines matters more
    than statistical sophistication.
    """

    __slots__ = ("_state",)

    GOLDEN_GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + self.GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def spawn(self) -> "SplitMix64":
        """Derive an independent child generator.

        Seeding the child from a fresh output (rather than an offset of
        the parent seed) avoids correlated parent/child streams.
        """
        return SplitMix64(self.next_u64())


def simulate_predictor(
    truth: Sequence[bool],
    tpr: float,
    fpr: float,
    rng: SplitMix64 | int,
) -> PredictionSeries:
    """Synthesize per-frame classifier output with given error rates.

    ``rng`` is a generator or a plain integer seed. Each frame consumes
    exactly two draws, label then score, so the stream position after
    ``n`` frames is independent of the outcomes. Scores land in [0.5, 1)
    for predicted positives and [0, 0.5) for negatives, consistent with
    a 0.5 decision threshold.
    """
    for name, rate in (("tpr", tpr), ("fpr", fpr)):
        if not (0.0 <= rate <= 1.0):
            raise ValidationError(f"{name} must be in [0, 1], got {rate}")
    if isinstance(rng, int):
        rng = SplitMix64(rng)
    labels: list[bool] = []
    scores: list[float] = []
    for is_positive in truth:
        fire_p = tpr if is_positive else fpr
        label = rng.next_float() < fire_p
        v = rng.next_float()
        labels.append(label)
        scores.append(0.5 + v / 2.0 if label else v / 2.0)
    return _series(tuple(labels), tuple(scores))


@dataclass(frozen=True)
class DetectionEvent:
    """One maximal run of positive frames, stamped at its first frame."""

    start_frame: int
    end_frame: int
    timestamp_s: float
    peak_score: float

    def __post_init__(self) -> None:
        if self.start_frame < 0 or self.end_frame < self.start_frame:
            raise ValidationError(
                f"bad event frame range [{self.start_frame}, {self.end_frame}]"
            )
        if self.timestamp_s < 0:
            raise ValidationError(f"event timestamp must be >= 0, got {self.timestamp_s}")
        if not (0.0 <= self.peak_score <= 1.0):
            raise ValidationError(f"event peak score outside [0, 1]: {self.peak_score}")


def events_from_series(series: PredictionSeries, fps: float) -> tuple[DetectionEvent, ...]:
    """Collapse positive runs into events; timestamp = start_frame / fps."""
    if not 0 < fps < math.inf:
        raise ValidationError(f"fps must be positive and finite, got {fps}")
    events: list[DetectionEvent] = []
    labels = series.labels
    scores = series.scores
    n = len(labels)
    i = 0
    while i < n:
        if not labels[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and labels[j + 1]:
            j += 1
        events.append(
            DetectionEvent(
                start_frame=i,
                end_frame=j,
                timestamp_s=i / fps,
                peak_score=max(scores[i : j + 1]),
            )
        )
        i = j + 1
    return tuple(events)


@dataclass(frozen=True)
class ScoreReport:
    """Event-level scoring of one sequence against its ground truth.

    Metrics are ``None`` where the denominator is empty: precision with
    no detections, recall with no ground-truth intervals. Undefined
    metrics are skipped by :func:`median_report` rather than counted as
    zero.
    """

    precision: float | None
    recall: float | None
    f1: float | None
    events: int
    matched_events: int
    intervals: int
    matched_intervals: int
    video: str | None = None


def _interval_list(intervals: object) -> tuple[tuple[float, float], ...]:
    inner = getattr(intervals, "intervals", intervals)
    return tuple((float(a), float(b)) for a, b in inner)  # type: ignore[union-attr]


def _distance(t: float, start: float, end: float) -> float:
    if start <= t <= end:
        return 0.0
    return min(abs(t - start), abs(t - end))


def _check_tolerance(tolerance_s: object) -> None:
    """Raise :class:`ValidationError` unless ``tolerance_s`` is a finite number >= 0."""
    if not (_is_finite_number(tolerance_s) and tolerance_s >= 0):
        raise ValidationError(f"tolerance must be a finite number >= 0, got {tolerance_s!r}")


def _f1(precision: float | None, recall: float | None) -> float | None:
    """F1: None where precision or recall is undefined, 0.0 where both are 0."""
    if precision is None or recall is None:
        return None
    return 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0


def match_score(
    timestamps: Sequence[float | DetectionEvent],
    intervals: object,
    tolerance_s: float = 1.0,
    video: str | None = None,
) -> ScoreReport:
    """Score detection timestamps, in seconds, against ground-truth intervals.

    A detection matches an interval when its timestamp lies inside it or
    within ``tolerance_s`` of either endpoint. Precision counts matched
    detections, recall counts covered intervals; both sides of the matching
    are independent, so one detection can cover several adjacent intervals
    and vice versa. A :class:`DetectionEvent` stands for its ``timestamp_s``.
    """
    _check_tolerance(tolerance_s)
    times = [getattr(t, "timestamp_s", t) for t in timestamps]
    spans = _interval_list(intervals)
    matched_events = sum(
        1 for t in times if any(_distance(t, a, b) <= tolerance_s for a, b in spans)
    )
    matched_intervals = sum(
        1 for a, b in spans if any(_distance(t, a, b) <= tolerance_s for t in times)
    )
    precision = matched_events / len(times) if times else None
    recall = matched_intervals / len(spans) if spans else None
    return ScoreReport(
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        events=len(times),
        matched_events=matched_events,
        intervals=len(spans),
        matched_intervals=matched_intervals,
        video=video,
    )


def median_report(reports: Sequence[ScoreReport]) -> ScoreReport:
    """Aggregate per-sequence reports: median metrics, summed counts.

    Each metric's median is taken over the sequences where it is
    defined; if it is defined nowhere the aggregate is ``None`` too.
    """
    if not reports:
        raise ValidationError("median_report needs at least one report")

    def med(values: Iterable[float | None]) -> float | None:
        defined = [v for v in values if v is not None]
        return statistics.median(defined) if defined else None

    return ScoreReport(
        precision=med(r.precision for r in reports),
        recall=med(r.recall for r in reports),
        f1=med(r.f1 for r in reports),
        events=sum(r.events for r in reports),
        matched_events=sum(r.matched_events for r in reports),
        intervals=sum(r.intervals for r in reports),
        matched_intervals=sum(r.matched_intervals for r in reports),
        video=None,
    )


@dataclass(frozen=True)
class FrameMetrics:
    """Frame-level confusion counts and the usual derived rates.

    Rates are ``None`` when their denominator is zero.
    """

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def precision(self) -> float | None:
        fired = self.true_positives + self.false_positives
        return self.true_positives / fired if fired else None

    @property
    def recall(self) -> float | None:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else None

    @property
    def f1(self) -> float | None:
        return _f1(self.precision, self.recall)

    @property
    def false_positive_rate(self) -> float | None:
        negatives = self.false_positives + self.true_negatives
        return self.false_positives / negatives if negatives else None

    def to_json_obj(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "fpr": self.false_positive_rate,
        }


def frame_metrics(truth: Sequence[bool], predicted: Sequence[bool]) -> FrameMetrics:
    """Confusion counts of a predicted label stream against frame truth."""
    if len(truth) != len(predicted):
        raise ValidationError(
            f"truth and prediction lengths differ: {len(truth)} vs {len(predicted)}"
        )
    tp = fp = fn = tn = 0
    for t, p in zip(truth, predicted):
        if p:
            if t:
                tp += 1
            else:
                fp += 1
        elif t:
            fn += 1
        else:
            tn += 1
    return FrameMetrics(
        true_positives=tp, false_positives=fp, false_negatives=fn, true_negatives=tn
    )
