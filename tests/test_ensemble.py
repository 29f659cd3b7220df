"""Verification fusion: AND combine, majority packing, neighbor windows."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from verisemble import (
    FusionConfig,
    PredictionSeries,
    ValidationError,
    chain_fuse,
    events_from_series,
    neighbor_validate,
    pack_mode,
)
from verisemble.ensemble import _PrefixFold

import oracles


def mk(labels, scores=None) -> PredictionSeries:
    if scores is None:
        scores = tuple(0.9 if v else 0.1 for v in labels)
    return PredictionSeries(labels=tuple(labels), scores=tuple(scores))


def rand_series(rng: random.Random, n: int, p: float = 0.5) -> PredictionSeries:
    labels = tuple(rng.random() < p for _ in range(n))
    scores = tuple(
        0.5 + rng.random() / 2 if label else rng.random() / 2 for label in labels
    )
    return PredictionSeries(labels=labels, scores=scores)


class TestFusionConfig:
    def test_defaults(self):
        config = FusionConfig()
        assert config.pack_size == 3
        assert config.neighbor_window == 3
        assert [f.name for f in dataclasses.fields(config)] == ["pack_size", "neighbor_window"]

    def test_even_pack_size_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            FusionConfig(pack_size=2)
        with pytest.raises(ValidationError, match="odd"):
            FusionConfig(pack_size=4)

    def test_even_window_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            FusionConfig(neighbor_window=2)

    def test_non_positive_rejected(self):
        with pytest.raises(ValidationError):
            FusionConfig(pack_size=0)
        with pytest.raises(ValidationError):
            FusionConfig(neighbor_window=-1)

    def test_window_one_allowed(self):
        assert FusionConfig(neighbor_window=1).neighbor_window == 1

    def test_pack_size_one_allowed(self):
        assert FusionConfig(pack_size=1).pack_size == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pack_size", True),
            ("pack_size", 3.0),
            ("neighbor_window", True),
            ("neighbor_window", "3"),
        ],
    )
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            FusionConfig(**{field: value})


# A bool, a float, an even size and zero.
BAD_SIZES = [True, 3.0, 2, 0]


@pytest.mark.parametrize(
    "name, enter",
    [
        ("pack_size", lambda v: FusionConfig(pack_size=v)),
        ("neighbor_window", lambda v: FusionConfig(neighbor_window=v)),
        ("pack_size", lambda v: pack_mode(mk([True, False, True]), v)),
        ("window", lambda v: neighbor_validate(mk([True, False]), mk([False, True]), v)),
    ],
    ids=[
        "FusionConfig.pack_size", "FusionConfig.neighbor_window", "pack_mode", "neighbor_validate",
    ],
)
def test_every_pack_and_window_size_is_checked_by_one_rule(name, enter):
    """Wherever a pack or window size enters, the same values are refused
    with a :class:`ValidationError` and the same message."""
    messages = []
    for value in BAD_SIZES:
        with pytest.raises(ValidationError) as caught:
            enter(value)
        messages.append(str(caught.value))
    assert messages == [f"{name} must be an odd int >= 1, got {v!r}" for v in BAD_SIZES]


class TestPredictionSeries:
    def test_length_and_counts(self):
        series = mk([True, False, True])
        assert len(series) == 3
        assert series.positive_count() == 2
        assert series.positive_indices() == (0, 2)

    def test_empty(self):
        series = mk([])
        assert len(series) == 0
        assert series.positive_indices() == ()

    def test_coerces_types(self):
        series = PredictionSeries(labels=(1, 0), scores=(1, 0))
        assert series.labels == (True, False)
        assert series.scores == (1.0, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            PredictionSeries(labels=(True,), scores=(0.5, 0.5))

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="frame 1"):
            PredictionSeries(labels=(True, True), scores=(0.5, 1.5))
        with pytest.raises(ValidationError):
            PredictionSeries(labels=(True,), scores=(-0.1,))

    def test_immutable(self):
        series = mk([True])
        with pytest.raises(AttributeError):
            series.labels = (False,)


class TestVerifyCombine:
    def test_truth_table(self):
        primary = mk([True, True, False, False])
        verifier = mk([True, False, True, False])
        fused = neighbor_validate(primary, verifier, 1)
        assert fused.labels == (True, False, False, False)

    def test_scores_take_minimum(self):
        primary = mk([True, True], scores=(0.9, 0.3))
        verifier = mk([True, True], scores=(0.6, 0.8))
        fused = neighbor_validate(primary, verifier, 1)
        assert fused.scores == (0.6, 0.3)

    def test_verifier_cannot_add_positives(self):
        primary = mk([False, False, False])
        verifier = mk([True, True, True])
        assert neighbor_validate(primary, verifier, 1).positive_count() == 0

    def test_label_commutative(self):
        rng = random.Random(10)
        for _ in range(20):
            a, b = rand_series(rng, 8), rand_series(rng, 8)
            assert neighbor_validate(a, b, 1).labels == neighbor_validate(b, a, 1).labels
            assert neighbor_validate(a, b, 1).scores == neighbor_validate(b, a, 1).scores

    def test_self_combine_keeps_labels(self):
        series = rand_series(random.Random(11), 12)
        fused = neighbor_validate(series, series, 1)
        assert fused.labels == series.labels
        assert fused.scores == series.scores

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="lengths differ"):
            neighbor_validate(mk([True]), mk([True, True]), 1)

    def test_empty_series(self):
        fused = neighbor_validate(mk([]), mk([]), 1)
        assert len(fused) == 0


class TestPackMode:
    def test_majority_flips_minority(self):
        packed = pack_mode(mk([True, False, True]))
        assert packed.labels == (True, True, True)

    def test_minority_positive_erased(self):
        packed = pack_mode(mk([False, False, True]))
        assert packed.labels == (False, False, False)

    def test_packs_do_not_overlap(self):
        # Six frames form two independent packs.
        packed = pack_mode(mk([True, True, False, False, False, True]))
        assert packed.labels == (True, True, True, False, False, False)

    def test_trailing_single_frame_keeps_own_label(self):
        packed = pack_mode(mk([False, False, False, True]))
        assert packed.labels == (False, False, False, True)

    def test_trailing_pair_tie_is_negative(self):
        packed = pack_mode(mk([False, False, False, True, False]))
        assert packed.labels == (False, False, False, False, False)

    def test_trailing_pair_unanimous_positive(self):
        packed = pack_mode(mk([False, False, False, True, True]))
        assert packed.labels == (False, False, False, True, True)

    def test_scores_unchanged(self):
        series = rand_series(random.Random(12), 10)
        assert pack_mode(series).scores == series.scores

    def test_pack_size_one_is_identity(self):
        series = rand_series(random.Random(13), 7)
        packed = pack_mode(series, pack_size=1)
        assert packed.labels == series.labels

    def test_pack_size_five(self):
        labels = [True, True, True, False, False, False, True, False, False, False]
        packed = pack_mode(mk(labels), pack_size=5)
        assert packed.labels == (True,) * 5 + (False,) * 5

    def test_even_or_non_positive_pack_rejected(self):
        series = mk([True, False])
        with pytest.raises(ValidationError, match="odd"):
            pack_mode(series, pack_size=2)
        with pytest.raises(ValidationError):
            pack_mode(series, pack_size=0)

    def test_empty_series(self):
        assert len(pack_mode(mk([]))) == 0

    def test_constant_within_packs(self):
        rng = random.Random(14)
        for _ in range(30):
            n = rng.randint(0, 20)
            pack_size = rng.choice([1, 3, 5])
            series = rand_series(rng, n)
            packed = pack_mode(series, pack_size)
            for start in range(0, n, pack_size):
                chunk = packed.labels[start : start + pack_size]
                assert len(set(chunk)) <= 1

    def test_matches_reference(self):
        rng = random.Random(15)
        for _ in range(50):
            n = rng.randint(0, 16)
            pack_size = rng.choice([1, 3, 5, 7])
            series = rand_series(rng, n)
            want = oracles.pack_ref(list(series.labels), pack_size)
            assert list(pack_mode(series, pack_size).labels) == want


class TestNeighborValidate:
    def test_adjacent_support_confirms(self):
        primary = mk([False] * 5 + [True] + [False] * 3)
        for support_at in (4, 5, 6):
            verifier = mk([i == support_at for i in range(9)])
            fused = neighbor_validate(primary, verifier, window=3)
            assert fused.labels[5], f"support at {support_at}"
            assert fused.positive_indices() == (5,)

    def test_distant_support_does_not_confirm(self):
        primary = mk([False] * 5 + [True] + [False] * 3)
        for support_at in (3, 7):
            verifier = mk([i == support_at for i in range(9)])
            fused = neighbor_validate(primary, verifier, window=3)
            assert fused.positive_count() == 0, f"support at {support_at}"

    def test_wider_window_reaches_further(self):
        primary = mk([False] * 5 + [True] + [False] * 3)
        verifier = mk([i == 3 for i in range(9)])
        fused = neighbor_validate(primary, verifier, window=5)
        assert fused.positive_indices() == (5,)

    def test_window_clipped_at_start(self):
        primary = mk([True, False, False])
        verifier = mk([False, True, False])
        fused = neighbor_validate(primary, verifier, window=3)
        assert fused.labels[0]  # window {0, 1} sees the verifier at 1

    def test_window_clipped_at_end(self):
        primary = mk([False, False, True])
        verifier = mk([False, True, False])
        fused = neighbor_validate(primary, verifier, window=3)
        assert fused.labels[2]

    def test_negative_primary_stays_negative(self):
        primary = mk([False] * 5)
        verifier = mk([True] * 5)
        assert neighbor_validate(primary, verifier).positive_count() == 0

    def test_score_is_min_of_primary_and_window_best(self):
        primary = mk([True, True, True], scores=(0.9, 0.4, 0.9))
        verifier = mk([True, False, False], scores=(0.7, 0.2, 0.1))
        fused = neighbor_validate(primary, verifier, window=3)
        # Window maxima of verifier scores: 0.7, 0.7, 0.2.
        assert fused.scores == (0.7, 0.4, 0.2)

    def test_even_window_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            neighbor_validate(mk([True]), mk([True]), window=2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            neighbor_validate(mk([True]), mk([True, False]))

    def test_matches_reference(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 14)
            # The last two windows are wider than the sequence.
            window = rng.choice([1, 3, 5, 2 * n + 3, 2**64 + 1])
            a, b = rand_series(rng, n), rand_series(rng, n)
            want_labels, want_scores = oracles.validate_ref(
                list(a.labels), list(a.scores), list(b.labels), list(b.scores), window
            )
            fused = neighbor_validate(a, b, window)
            assert list(fused.labels) == want_labels
            assert list(fused.scores) == want_scores


class TestFuseVideo:
    def test_default_config_packs_and_validates(self):
        primary = mk([False, False, False, True, True, True, False, False, False])
        verifier = mk([False, False, False, False, True, False, False, False, False])
        fused = chain_fuse((primary, verifier))
        assert fused.labels == primary.labels

    def test_offset_verifier_confirms_only_window_reach(self):
        primary = mk([False, False, False, True, True, True, False, False, False])
        verifier = mk([False, False, False, False, False, False, True, False, False])
        fused = chain_fuse((primary, verifier))
        # Only frame 5 sees the verifier positive at 6 inside its window.
        assert fused.positive_indices() == (5,)

    def test_flicker_smoothed_then_confirmed(self):
        primary = mk([True, False, True])
        verifier = mk([False, True, False])
        fused = chain_fuse((primary, verifier))
        assert fused.labels == (True, True, True)

    def test_lone_primary_positive_erased_by_packing(self):
        primary = mk([False, True, False])
        verifier = mk([True, True, True])
        assert chain_fuse((primary, verifier)).positive_count() == 0

    def test_packing_disabled_is_plain_and(self):
        rng = random.Random(18)
        config = FusionConfig(pack_size=1, neighbor_window=1)
        for _ in range(30):
            n = rng.randint(0, 15)
            a, b = rand_series(rng, n), rand_series(rng, n)
            fused = chain_fuse((a, b), config)
            plain = neighbor_validate(a, b, 1)
            assert fused.labels == plain.labels
            assert fused.scores == plain.scores

    def test_all_negative_primary_never_fires(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(1, 20)
            primary = mk([False] * n)
            verifier = rand_series(rng, n)
            assert chain_fuse((primary, verifier)).positive_count() == 0

    def test_fused_positives_subset_of_packed_primary(self):
        rng = random.Random(20)
        for _ in range(50):
            n = rng.randint(1, 18)
            a, b = rand_series(rng, n), rand_series(rng, n)
            fused = chain_fuse((a, b))
            packed = set(pack_mode(a, 3).positive_indices())
            assert set(fused.positive_indices()) <= packed

    def test_matches_reference(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(0, 14)
            pack_size = rng.choice([1, 3, 5])
            window = rng.choice([1, 3, 5])
            packing = rng.random() < 0.5
            a, b = rand_series(rng, n), rand_series(rng, n)
            # The reference without packing is the per-frame AND, whatever
            # pack and window it is given: a pack and window of 1.
            config = FusionConfig(pack_size, window) if packing else FusionConfig(1, 1)
            fused = chain_fuse((a, b), config)
            want_labels, want_scores, _ = oracles.fuse_ref(
                list(a.labels), list(a.scores), list(b.labels), list(b.scores),
                pack_size, window, packing,
            )
            assert list(fused.labels) == want_labels
            assert list(fused.scores) == want_scores

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            chain_fuse((mk([True]), mk([True, False])))


class TestChainFuse:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            chain_fuse([])

    def test_single_stage_unchanged(self):
        series = rand_series(random.Random(22), 9)
        fused = chain_fuse([series])
        assert fused.labels == series.labels
        assert fused.scores == series.scores

    def test_three_stages_without_packing_intersect(self):
        rng = random.Random(24)
        config = FusionConfig(pack_size=1, neighbor_window=1)
        for _ in range(30):
            n = rng.randint(1, 12)
            stages = [rand_series(rng, n) for _ in range(3)]
            fused = chain_fuse(stages, config)
            for i in range(n):
                want_label = all(s.labels[i] for s in stages)
                want_score = min(s.scores[i] for s in stages)
                assert fused.labels[i] == want_label
                assert fused.scores[i] == want_score

    def test_later_stages_only_veto(self):
        rng = random.Random(25)
        for _ in range(30):
            n = rng.randint(1, 15)
            count = rng.randint(2, 4)
            stages = [rand_series(rng, n) for _ in range(count)]
            previous = None
            for k in range(2, count + 1):
                fused = set(chain_fuse(stages[:k]).positive_indices())
                if previous is not None:
                    assert fused <= previous
                previous = fused

    def test_matches_reference(self):
        rng = random.Random(26)
        for _ in range(60):
            n = rng.randint(0, 12)
            count = rng.randint(1, 4)
            pack_size = rng.choice([1, 3, 5])
            window = rng.choice([1, 3, 5])
            packing = rng.random() < 0.5
            stages = [rand_series(rng, n) for _ in range(count)]
            config = FusionConfig(pack_size, window) if packing else FusionConfig(1, 1)
            fused = chain_fuse(stages, config)
            want_labels, want_scores = oracles.chain_ref(
                [(list(s.labels), list(s.scores)) for s in stages],
                pack_size, window, packing,
            )
            assert list(fused.labels) == want_labels
            assert list(fused.scores) == want_scores

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            chain_fuse([mk([True]), mk([True, False])])
        # A third stage one frame shorter or longer is rejected too, not
        # folded over the frames the stages share.
        for m in (2, 4):
            stages = [mk([True, True, False]), mk([True, False, True]), mk([True] * m)]
            with pytest.raises(
                ValidationError, match=rf"^series lengths differ: primary 3, verifier {m}$"
            ):
                chain_fuse(stages)


@st.composite
def stage_streams(draw, min_stages=1):
    """``min_stages``-4 aligned stages whose scores include +0.0, -0.0 and
    exact ties, plus a fusion config."""
    n = draw(st.integers(0, 14))
    score = st.sampled_from((0.0, -0.0, 0.25, 1.0)) | st.floats(0.0, 1.0)
    stages = [
        PredictionSeries(
            labels=tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
            scores=tuple(draw(st.lists(score, min_size=n, max_size=n))),
        )
        for _ in range(draw(st.integers(min_stages, 4)))
    ]
    config = FusionConfig(
        pack_size=draw(st.sampled_from((1, 3, 5))),
        neighbor_window=draw(st.sampled_from((1, 3, 5, 7))),
    )
    return stages, config


def _bits(scores) -> list[str]:
    """Scores as hex strings, so that -0.0 and +0.0 differ."""
    return [float(v).hex() for v in scores]


@settings(max_examples=400, deadline=None)
@given(stage_streams())
def test_fold_matches_reference_bit_for_bit(case):
    """``neighbor_validate`` and ``chain_fuse`` equal the loop references,
    score bits included: of equal window scores the earlier one is the
    window's best, and a primary score equal to it gives way to it."""
    stages, config = case
    primary, verifier = stages[0], stages[-1]
    window = config.neighbor_window
    want_labels, want_scores = oracles.validate_ref(
        list(primary.labels), list(primary.scores),
        list(verifier.labels), list(verifier.scores), window,
    )
    fused = neighbor_validate(primary, verifier, window)
    assert fused.labels == tuple(want_labels)
    assert all(type(v) is bool for v in fused.labels)
    assert _bits(fused.scores) == _bits(want_scores)

    want_labels, want_scores = oracles.chain_ref(
        [(list(s.labels), list(s.scores)) for s in stages],
        config.pack_size, config.neighbor_window, True,
    )
    chained = chain_fuse(stages, config)
    assert chained.labels == tuple(want_labels)
    assert _bits(chained.scores) == _bits(want_scores)


@settings(max_examples=400, deadline=None)
@given(stage_streams(min_stages=2))
def test_chain_fuse_equals_closed_form(case):
    """With ``r = (neighbor_window - 1) // 2`` and frame ``i``'s window
    ``[i - r, i + r]`` clipped to the sequence, the fold's label at ``i`` is
    the packed proposer's label AND, for each verifier, whether it fired in
    the window. Its score starts from the proposer's and takes in each
    verifier's first maximum over the window, in verifier order, giving way
    to it where they are equal."""
    stages, config = case
    n, r = len(stages[0]), (config.neighbor_window - 1) // 2
    labels = oracles.pack_ref(stages[0].labels, config.pack_size)
    scores = list(stages[0].scores)
    for i in range(n):
        window = range(max(0, i - r), min(n, i + r + 1))
        for verifier in stages[1:]:
            best = max(verifier.scores[j] for j in window)
            labels[i] = labels[i] and any(verifier.labels[j] for j in window)
            scores[i] = scores[i] if scores[i] < best else best
    fused = chain_fuse(stages, config)
    assert fused.labels == tuple(labels)
    assert _bits(fused.scores) == _bits(scores)


@settings(max_examples=400, deadline=None)
@given(stage_streams(min_stages=2), st.data())
def test_verifier_order_changes_no_decision(case, data):
    """The order of the verifiers changes what the chain costs, not what it
    decides: any order gives the same labels and events, and scores that
    are equal, though a zero's sign may differ."""
    (proposer, *verifiers), config = case
    order = data.draw(st.permutations(verifiers))
    fused = chain_fuse((proposer, *verifiers), config)
    reordered = chain_fuse((proposer, *order), config)
    assert reordered.labels == fused.labels
    assert reordered.scores == fused.scores
    assert events_from_series(reordered, 25.0) == events_from_series(fused, 25.0)


@st.composite
def streamed_stages(draw):
    """1-4 aligned stages of 0-40 frames, scores including -0.0 and ties,
    a fusion config, and an order to feed them in: a list of (stage, chunk)
    steps, each revealing the next ``chunk`` frames of one stage."""
    n = draw(st.integers(0, 40))
    score = st.sampled_from((0.0, -0.0, 0.25, 1.0)) | st.floats(0.0, 1.0)
    stages = [
        PredictionSeries(
            labels=tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
            scores=tuple(draw(st.lists(score, min_size=n, max_size=n))),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    config = FusionConfig(
        pack_size=draw(st.sampled_from((1, 3, 5, 7))),
        neighbor_window=draw(st.sampled_from((1, 3, 5, 7))),
    )
    known = [0] * len(stages)
    steps = []
    while min(known) < n:
        k = draw(st.sampled_from([k for k in range(len(stages)) if known[k] < n]))
        chunk = draw(st.integers(1, n - known[k]))
        known[k] += chunk
        steps.append((k, chunk))
    return stages, config, steps


@settings(max_examples=300, deadline=None)
@given(streamed_stages())
def test_streamed_fold_equals_chain_fuse(case):
    """Fed each stage in chunks, in any stage order, the prefix fold reads
    no frame of a stage before it is known and ends bit for bit equal to
    ``chain_fuse`` given every stage whole."""
    stages, config, steps = case
    n = len(stages[0])
    fold = _PrefixFold(len(stages), n, config)
    fed = fold.stages
    # Frames not yet known hold a positive with score 1.0, which would
    # show in the fold if it were read.
    for cells in fed:
        cells.labels[:], cells.scores[:] = [True] * n, [1.0] * n
    known = [0] * len(stages)
    for k, chunk in steps:
        part = slice(known[k], known[k] + chunk)
        fed[k].labels[part] = stages[k].labels[part]
        fed[k].scores[part] = stages[k].scores[part]
        known[k] += chunk
        for m, below in enumerate(known):
            fold.extend(m, below)
    whole = chain_fuse(stages, config)
    assert fold.final == [n] * len(stages)
    assert tuple(fold.fused.labels) == whole.labels
    assert _bits(fold.fused.scores) == _bits(whole.scores)
