"""Events, timestamp scoring, and the simulation PRNG."""

from __future__ import annotations

import math
import random
import subprocess
import sys

import pytest

from verisemble import (
    DetectionEvent,
    FrameMetrics,
    GroundTruth,
    PredictionSeries,
    SplitMix64,
    ValidationError,
    events_from_series,
    frame_metrics,
    match_score,
    simulate_predictor,
)

import oracles


def mk(labels, scores=None) -> PredictionSeries:
    if scores is None:
        scores = tuple(0.9 if v else 0.1 for v in labels)
    return PredictionSeries(labels=tuple(labels), scores=tuple(scores))


class TestSplitMix64:
    def test_known_answer_seed_zero(self):
        # Published reference outputs for the standard SplitMix64 stream.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_known_answer_other_seed(self):
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 0x599ED017FB08FC85
        assert rng.next_u64() == 0x2C73F08458540FA5

    def test_deterministic_stream(self):
        a, b = SplitMix64(99), SplitMix64(99)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_seed_wraps_at_64_bits(self):
        assert SplitMix64(5 + (1 << 64)).next_u64() == SplitMix64(5).next_u64()

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(7)
        values = [rng.next_float() for _ in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert min(values) != max(values)

    def test_float_mean_near_half(self):
        rng = SplitMix64(8)
        values = [rng.next_float() for _ in range(20_000)]
        assert sum(values) / len(values) == pytest.approx(0.5, abs=0.01)

    def test_spawn_advances_parent_once(self):
        parent = SplitMix64(42)
        reference = SplitMix64(42)
        child_seed = reference.next_u64()
        child = parent.spawn()
        assert child.next_u64() == SplitMix64(child_seed).next_u64()
        assert parent.next_u64() == reference.next_u64()

    def test_spawned_streams_differ(self):
        parent = SplitMix64(1)
        a, b = parent.spawn(), parent.spawn()
        assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


class TestSimulatePredictor:
    def test_perfect_predictor_copies_truth(self):
        truth = [True, False, True, True, False]
        series = simulate_predictor(truth, tpr=1.0, fpr=0.0, rng=0)
        assert series.labels == tuple(truth)

    def test_silent_predictor_never_fires(self):
        truth = [True, False] * 10
        series = simulate_predictor(truth, tpr=0.0, fpr=0.0, rng=1)
        assert series.positive_count() == 0

    def test_trigger_happy_predictor_always_fires(self):
        truth = [False] * 20
        series = simulate_predictor(truth, tpr=1.0, fpr=1.0, rng=2)
        assert series.positive_count() == 20

    def test_scores_consistent_with_labels(self):
        truth = [i % 3 == 0 for i in range(200)]
        series = simulate_predictor(truth, tpr=0.7, fpr=0.2, rng=3)
        for label, score in zip(series.labels, series.scores):
            if label:
                assert 0.5 <= score < 1.0
            else:
                assert 0.0 <= score < 0.5

    def test_int_seed_equals_generator(self):
        truth = [True] * 50
        a = simulate_predictor(truth, 0.5, 0.5, rng=17)
        b = simulate_predictor(truth, 0.5, 0.5, rng=SplitMix64(17))
        assert a.labels == b.labels
        assert a.scores == b.scores

    def test_two_draws_per_frame_regardless_of_outcome(self):
        # After simulating n frames the generator must sit exactly 2n
        # draws in, so downstream consumers stay aligned.
        truth = [True, False] * 25
        rng = SplitMix64(23)
        simulate_predictor(truth, 0.9, 0.1, rng=rng)
        reference = SplitMix64(23)
        for _ in range(2 * len(truth)):
            reference.next_u64()
        assert rng.next_u64() == reference.next_u64()

    def test_false_positive_rate_close_to_requested(self):
        truth = [False] * 100_000
        series = simulate_predictor(truth, tpr=0.9, fpr=0.1, rng=5)
        rate = series.positive_count() / len(truth)
        assert rate == pytest.approx(0.1, abs=0.005)

    def test_true_positive_rate_close_to_requested(self):
        truth = [True] * 100_000
        series = simulate_predictor(truth, tpr=0.9, fpr=0.1, rng=6)
        rate = series.positive_count() / len(truth)
        assert rate == pytest.approx(0.9, abs=0.005)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValidationError, match="tpr"):
            simulate_predictor([True], tpr=1.5, fpr=0.0, rng=0)
        with pytest.raises(ValidationError, match="fpr"):
            simulate_predictor([True], tpr=0.5, fpr=-0.1, rng=0)

    def test_empty_truth(self):
        assert len(simulate_predictor([], 0.5, 0.5, rng=0)) == 0


class TestDetectionEvent:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DetectionEvent(start_frame=-1, end_frame=0, timestamp_s=0.0, peak_score=0.5)
        with pytest.raises(ValidationError):
            DetectionEvent(start_frame=3, end_frame=2, timestamp_s=0.0, peak_score=0.5)
        with pytest.raises(ValidationError):
            DetectionEvent(start_frame=0, end_frame=0, timestamp_s=-1.0, peak_score=0.5)
        with pytest.raises(ValidationError):
            DetectionEvent(start_frame=0, end_frame=0, timestamp_s=0.0, peak_score=1.5)


class TestEventsFromSeries:
    def test_single_run(self):
        series = mk([False, True, True, False], scores=(0.1, 0.8, 0.95, 0.2))
        events = events_from_series(series, fps=25.0)
        assert len(events) == 1
        event = events[0]
        assert (event.start_frame, event.end_frame) == (1, 2)
        assert event.timestamp_s == pytest.approx(0.04)
        assert event.peak_score == 0.95

    def test_no_positives_no_events(self):
        assert events_from_series(mk([False] * 5), fps=10.0) == ()

    def test_separate_runs_become_separate_events(self):
        series = mk([True, False, True])
        events = events_from_series(series, fps=10.0)
        assert [(e.start_frame, e.end_frame) for e in events] == [(0, 0), (2, 2)]

    def test_run_reaching_the_end(self):
        events = events_from_series(mk([False, True, True]), fps=10.0)
        assert [(e.start_frame, e.end_frame) for e in events] == [(1, 2)]

    def test_leading_run_at_time_zero(self):
        events = events_from_series(mk([True, True, False]), fps=30.0)
        assert events[0].timestamp_s == 0.0

    def test_timestamp_uses_first_frame(self):
        series = mk([False] * 50 + [True] * 10)
        events = events_from_series(series, fps=25.0)
        assert events[0].timestamp_s == 2.0

    def test_peak_score_is_run_maximum(self):
        series = mk(
            [True, True, True, False, True],
            scores=(0.6, 0.9, 0.7, 0.1, 0.55),
        )
        events = events_from_series(series, fps=10.0)
        assert [e.peak_score for e in events] == [0.9, 0.55]

    def test_bad_fps_rejected(self):
        with pytest.raises(ValidationError):
            events_from_series(mk([True]), fps=0.0)

    def test_empty_series(self):
        assert events_from_series(mk([]), fps=10.0) == ()

    def test_infinite_fps_rejected(self):
        with pytest.raises(ValidationError, match="fps must be positive"):
            events_from_series(mk([False, True]), fps=float("inf"))


class TestMatchScore:
    def test_event_inside_interval(self):
        report = match_score([10.5], [(10.0, 12.0)])
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
        assert report.matched_events == 1
        assert report.matched_intervals == 1

    def test_event_within_tolerance_before_start(self):
        report = match_score([9.1], [(10.0, 12.0)], tolerance_s=1.0)
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_event_too_early(self):
        report = match_score([5.0], [(10.0, 12.0)])
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_no_events_with_intervals(self):
        report = match_score([], [(0.0, 1.0)])
        assert report.precision is None
        assert report.recall == 0.0
        assert report.f1 is None
        assert report.events == 0

    def test_events_without_intervals(self):
        report = match_score([1.0], [])
        assert report.precision == 0.0
        assert report.recall is None
        assert report.f1 is None

    def test_nothing_at_all(self):
        report = match_score([], [])
        assert report.precision is None
        assert report.recall is None
        assert report.f1 is None

    def test_one_event_can_cover_adjacent_intervals(self):
        report = match_score(
            [10.0], [(9.5, 10.2), (10.4, 10.8)], tolerance_s=1.0
        )
        assert report.matched_events == 1
        assert report.matched_intervals == 2
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_zero_tolerance_requires_inside(self):
        inside = match_score([10.0], [(9.5, 10.5)], tolerance_s=0.0)
        outside = match_score([9.4], [(9.5, 10.5)], tolerance_s=0.0)
        assert inside.precision == 1.0
        assert outside.precision == 0.0

    def test_boundary_distance_exactly_tolerance_matches(self):
        report = match_score([9.0], [(10.0, 12.0)], tolerance_s=1.0)
        assert report.precision == 1.0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            match_score([], [], tolerance_s=-0.5)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, True])
    def test_tolerance_must_be_a_finite_number(self, tol):
        with pytest.raises(ValidationError, match="tolerance"):
            match_score([1.0], [(0.5, 1.5)], tolerance_s=tol)

    def test_accepts_ground_truth_object(self):
        truth = GroundTruth(intervals=((1.0, 2.0),))
        report = match_score([1.5], truth)
        assert report.recall == 1.0

    def test_video_name_carried(self):
        report = match_score([], [], video="clip_7")
        assert report.video == "clip_7"

    def test_events_scored_by_their_timestamps(self):
        events = events_from_series(mk([False, True, False, True, True]), fps=10.0)
        intervals = [(0.0, 0.15), (2.0, 3.0)]
        assert match_score(events, intervals) == match_score([0.1, 0.3], intervals)

    def test_f1_formula(self):
        report = match_score([1.0, 50.0], [(0.5, 1.5), (10.0, 11.0), (20.0, 21.0)])
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(1 / 3)
        assert report.f1 == pytest.approx(2 * 0.5 * (1 / 3) / (0.5 + 1 / 3))

    def test_matches_reference_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(50):
            times = [round(rng.uniform(0, 30), 2) for _ in range(rng.randint(0, 6))]
            intervals = []
            t = 0.0
            for _ in range(rng.randint(0, 4)):
                start = t + rng.uniform(0.1, 5.0)
                end = start + rng.uniform(0.1, 3.0)
                intervals.append((round(start, 2), round(end, 2)))
                t = end
            tol = rng.choice([0.0, 0.5, 1.0, 2.0])
            report = match_score(times, intervals, tolerance_s=tol)
            want_events, want_intervals = oracles.match_counts_ref(times, intervals, tol)
            assert report.matched_events == want_events
            assert report.matched_intervals == want_intervals


class TestFrameMetrics:
    def test_confusion_counts(self):
        truth = [True, True, False, False, True]
        pred = [True, False, True, False, True]
        m = frame_metrics(truth, pred)
        assert (m.true_positives, m.false_positives) == (2, 1)
        assert (m.false_negatives, m.true_negatives) == (1, 1)

    def test_rates(self):
        m = FrameMetrics(
            true_positives=8, false_positives=2, false_negatives=2, true_negatives=88
        )
        assert m.precision == 0.8
        assert m.recall == 0.8
        assert m.f1 == pytest.approx(0.8)
        assert m.false_positive_rate == pytest.approx(2 / 90)

    def test_undefined_rates(self):
        m = frame_metrics([False, False], [False, False])
        assert m.precision is None
        assert m.recall is None
        assert m.f1 is None
        assert m.false_positive_rate == 0.0

    def test_fpr_undefined_when_all_positive(self):
        m = frame_metrics([True, True], [True, True])
        assert m.false_positive_rate is None
        assert m.precision == 1.0

    def test_json_keys(self):
        m = frame_metrics([True, False], [True, False])
        assert m.to_json_obj() == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "fpr": 0.0}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            frame_metrics([True], [True, False])


def test_import_loads_no_statistics():
    """Scoring needs no ``statistics``, and luma is integer arithmetic with
    no ``fractions`` or ``decimal``; importing any of them with the package
    would lengthen every set-up."""
    code = (
        "import sys, verisemble; "
        "print([m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
