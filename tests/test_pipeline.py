"""End-to-end pipeline: stage scoring, chained fusion, event emission."""

from __future__ import annotations

import logging
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from verisemble import (
    ChannelSubset,
    CnnModel,
    CnnModelConfig,
    Frame,
    FusionConfig,
    LayerSpec,
    LoadError,
    MeanIntensityModel,
    MeanIntensityModelConfig,
    ModelSpec,
    PipelineConfig,
    PredictionSeries,
    StageConfig,
    ValidationError,
    build_stage_models,
    chain_fuse,
    default_model_spec,
    events_from_series,
    extract_features,
    forward,
    random_weights,
    resize_aa,
    run_pipeline,
    save_weights,
)
from verisemble import cli, cores, ensemble, evaluate, nn, pipeline

from conftest import (
    BLACK,
    GOLDEN_COLORS,
    GOLDEN_FPS,
    GREEN,
    MAGENTA,
    needs_proc_status,
    random_frame,
    solid_frame,
    write_mean_config,
    write_sequence,
)


def mean_stage(channels: ChannelSubset) -> StageConfig:
    return StageConfig(channels=channels, model=MeanIntensityModelConfig())


def mean_pipeline(**overrides) -> PipelineConfig:
    defaults = dict(
        stages=(mean_stage(ChannelSubset.RGB), mean_stage(ChannelSubset.LUMA)),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def golden_frames():
    return [solid_frame(rgb, index=i) for i, rgb in enumerate(GOLDEN_COLORS)]


def direct_series(config: PipelineConfig, frames, models=None) -> list[PredictionSeries]:
    """Every stage scored on every frame through the public functions."""
    if models is None:
        models = build_stage_models(config)
    out = []
    for stage, model in zip(config.stages, models):
        scores = tuple(
            model.score(
                extract_features(
                    resize_aa(frame, config.input_width, config.input_height), stage.channels
                )
            )
            for frame in frames
        )
        out.append(
            PredictionSeries(labels=tuple(s >= config.threshold for s in scores), scores=scores)
        )
    return out


def proposal_windows(
    stages: list[PredictionSeries], fusion: FusionConfig
) -> tuple[int, ...]:
    """The frames the next verifier after ``stages`` needs: the window
    around each positive of the fold so far. An always-firing verifier
    appended to the fold keeps exactly the fold's positives."""
    n = len(stages[0])
    always = PredictionSeries(labels=(True,) * n, scores=(1.0,) * n)
    radius = (fusion.neighbor_window - 1) // 2
    centres = chain_fuse(list(stages) + [always], fusion).positive_indices()
    return tuple(j for j in range(n) if any(abs(j - i) <= radius for i in centres))


def final_known(
    scored: tuple[tuple[int, ...], ...], n: int, fusion: FusionConfig
) -> tuple[int, ...]:
    """Frames whose every verifier window lies inside that verifier's scored set."""
    radius = (fusion.neighbor_window - 1) // 2
    return tuple(
        i
        for i in range(n)
        if all(
            set(range(max(0, i - radius), min(n, i + radius + 1))) <= set(frames)
            for frames in scored[1:]
        )
    )


def small_cnn_spec(channels: int) -> ModelSpec:
    return ModelSpec(
        input_shape=(8, 8, channels),
        layers=(
            LayerSpec.conv("c1", 2, (3, 3), activation="relu"),
            LayerSpec.maxpool("p1"),
            LayerSpec.flatten(),
            LayerSpec.dense("out", 1, activation="sigmoid"),
        ),
    )


class TestStageModels:
    def test_mean_intensity_is_feature_mean(self):
        model = MeanIntensityModel()
        assert model.score(np.array([[[0.0], [1.0]]])) == 0.5
        assert model.score(np.zeros((4, 4, 3))) == 0.0
        assert model.score(np.ones((2, 2, 2))) == 1.0

    def test_cnn_model_wraps_forward(self):
        spec = small_cnn_spec(3)
        weights = random_weights(spec, seed=5)
        model = CnnModel(spec=spec, weights=weights)
        x = np.random.default_rng(6).uniform(0, 1, size=(8, 8, 3))
        assert model.score(x) == forward(spec, weights, x)


class TestBuildStageModels:
    def test_mean_intensity_stages(self):
        models = build_stage_models(mean_pipeline())
        assert len(models) == 2
        assert all(isinstance(m, MeanIntensityModel) for m in models)

    def test_cnn_stage_loads_weights(self, tmp_path):
        spec = small_cnn_spec(3)
        path = tmp_path / "rgb.weights"
        save_weights(path, spec, random_weights(spec, seed=1))
        config = PipelineConfig(
            stages=(
                StageConfig(
                    channels=ChannelSubset.RGB,
                    model=CnnModelConfig(weights=str(path)),
                ),
            ),
            input_width=8,
            input_height=8,
        )
        (model,) = build_stage_models(config)
        assert isinstance(model, CnnModel)
        assert model.spec == spec

    def test_missing_weights_file_names_stage_and_path(self, tmp_path):
        missing = tmp_path / "absent.weights"
        config = PipelineConfig(
            stages=(
                StageConfig(
                    channels=ChannelSubset.RGB,
                    model=CnnModelConfig(weights=str(missing)),
                ),
            ),
            input_width=8,
            input_height=8,
        )
        with pytest.raises(LoadError, match=r"stage 0.*absent\.weights"):
            build_stage_models(config)

    def test_geometry_mismatch_rejected(self, tmp_path):
        spec = small_cnn_spec(3)
        path = tmp_path / "rgb.weights"
        save_weights(path, spec, random_weights(spec, seed=1))
        config = PipelineConfig(
            stages=(
                StageConfig(
                    channels=ChannelSubset.RGB,
                    model=CnnModelConfig(weights=str(path)),
                ),
            ),
            input_width=16,
            input_height=16,
        )
        with pytest.raises(ValidationError, match="stage 0"):
            build_stage_models(config)

    def test_channel_mismatch_rejected(self, tmp_path):
        spec = small_cnn_spec(3)
        path = tmp_path / "rgb.weights"
        save_weights(path, spec, random_weights(spec, seed=1))
        config = PipelineConfig(
            stages=(
                StageConfig(
                    channels=ChannelSubset.LUMA,
                    model=CnnModelConfig(weights=str(path)),
                ),
            ),
            input_width=8,
            input_height=8,
        )
        with pytest.raises(ValidationError, match="stage 0"):
            build_stage_models(config)


class TestGoldenSequence:
    """Nine solid frames covering every fusion branch.

    The proposer reads mean RGB intensity, the verifier mean luma, both
    at threshold 0.5: magenta trips only the proposer, green only the
    verifier, black neither. Packing keeps the magenta run; only its last
    frame finds verifier support (the green frame) inside the window.
    """

    def test_stage_labels(self):
        result = run_pipeline(mean_pipeline(), golden_frames(), fps=GOLDEN_FPS)
        primary, verifier = result.stage_series
        # The verifier scores only the window around the packed magenta
        # run 3-5; the frames it skips read as negative.
        assert result.scored == (tuple(range(9)), (2, 3, 4, 5, 6))
        assert primary.labels == (
            False, False, False, True, True, True, False, False, False,
        )
        assert verifier.labels == (
            False, False, False, False, False, False, True, False, False,
        )

    def test_verbose_log_names_scored_frames_per_stage(self, caplog):
        caplog.set_level(logging.INFO, logger="verisemble.pipeline")
        run_pipeline(mean_pipeline(), golden_frames(), fps=GOLDEN_FPS)
        assert "stage 0: scored 9 of 9 frames" in caplog.messages
        assert "stage 1: scored 5 of 9 frames" in caplog.messages

    def test_fused_keeps_only_window_supported_frame(self):
        result = run_pipeline(mean_pipeline(), golden_frames(), fps=GOLDEN_FPS)
        assert result.fused.positive_indices() == (5,)

    def test_single_event_with_expected_timing(self):
        result = run_pipeline(mean_pipeline(), golden_frames(), fps=GOLDEN_FPS)
        assert len(result.events) == 1
        event = result.events[0]
        assert (event.start_frame, event.end_frame) == (5, 5)
        assert event.timestamp_s == 0.2

    def test_event_peak_is_min_of_stage_and_window_best(self):
        config = mean_pipeline()
        result = run_pipeline(config, golden_frames(), fps=GOLDEN_FPS)
        # The fused score at frame 5 is min(primary magenta score, best
        # verifier score in its window) = the green frame's luma mean.
        green = resize_aa(solid_frame(GREEN), config.input_width, config.input_height)
        want = MeanIntensityModel().score(extract_features(green, ChannelSubset.LUMA))
        assert result.events[0].peak_score == want

    def test_stage_scores_match_direct_scoring(self):
        config = mean_pipeline()
        result = run_pipeline(config, golden_frames(), fps=GOLDEN_FPS)
        direct = direct_series(config, golden_frames())
        assert result.scored[0] == tuple(range(len(GOLDEN_COLORS)))
        assert result.stage_series[0] == direct[0]
        assert result.scored[1] == proposal_windows(direct[:1], config.fusion) == (2, 3, 4, 5, 6)
        verifier = result.stage_series[1]
        for i in range(len(GOLDEN_COLORS)):
            if i in result.scored[1]:
                assert verifier.scores[i] == direct[1].scores[i]
                assert verifier.labels[i] == direct[1].labels[i]
            else:
                assert (verifier.labels[i], verifier.scores[i]) == (False, 0.0)

    def test_fused_equals_public_chain_fuse(self):
        config = mean_pipeline()
        result = run_pipeline(config, golden_frames(), fps=GOLDEN_FPS)
        oracle = chain_fuse(direct_series(config, golden_frames()), config.fusion)
        assert result.fused.labels == oracle.labels
        known = final_known(result.scored, len(GOLDEN_COLORS), config.fusion)
        assert known == (3, 4, 5)
        for i in known:
            assert result.fused.scores[i] == oracle.scores[i]
        assert result.events == events_from_series(oracle, GOLDEN_FPS)

    def test_packing_disabled_leaves_no_overlap(self):
        # Proposer fires on frames 3-5, verifier only on 6: the plain AND
        # has no common frame.
        config = mean_pipeline(fusion=FusionConfig(pack_size=1, neighbor_window=1))
        result = run_pipeline(config, golden_frames(), fps=GOLDEN_FPS)
        assert result.fused.positive_count() == 0
        assert result.events == ()

    def test_higher_threshold_silences_proposer(self):
        config = mean_pipeline(threshold=0.7)
        result = run_pipeline(config, golden_frames(), fps=GOLDEN_FPS)
        assert result.stage_series[0].positive_count() == 0
        assert result.events == ()


class TestRunPipeline:
    def test_empty_sequence(self):
        result = run_pipeline(mean_pipeline(), [], fps=25.0)
        assert len(result.fused) == 0
        assert result.events == ()

    def test_workers_do_not_change_results(self):
        config = mean_pipeline()
        frames = golden_frames()
        serial = run_pipeline(config, frames, fps=GOLDEN_FPS, workers=1)
        threaded = run_pipeline(config, frames, fps=GOLDEN_FPS, workers=4)
        assert serial.fused == threaded.fused
        assert serial.stage_series == threaded.stage_series
        assert serial.events == threaded.events

    def test_repeat_runs_identical(self):
        config = mean_pipeline()
        frames = [random_frame(seed=i, width=12, height=9) for i in range(6)]
        first = run_pipeline(config, frames, fps=10.0)
        second = run_pipeline(config, frames, fps=10.0)
        assert first.fused == second.fused
        assert first.stage_series == second.stage_series

    def test_invalid_fps(self):
        with pytest.raises(ValidationError, match="fps"):
            run_pipeline(mean_pipeline(), [], fps=0.0)

    def test_infinite_fps_rejected(self):
        with pytest.raises(ValidationError, match="fps must be positive"):
            run_pipeline(mean_pipeline(), golden_frames(), fps=float("inf"))

    def test_invalid_workers(self):
        with pytest.raises(ValidationError, match="workers"):
            run_pipeline(mean_pipeline(), [], fps=25.0, workers=0)

    def test_cnn_stages_end_to_end(self, tmp_path):
        rgb_spec = small_cnn_spec(3)
        luma_spec = small_cnn_spec(1)
        rgb_path = tmp_path / "rgb.weights"
        luma_path = tmp_path / "luma.weights"
        save_weights(rgb_path, rgb_spec, random_weights(rgb_spec, seed=10))
        save_weights(luma_path, luma_spec, random_weights(luma_spec, seed=11))
        config = PipelineConfig(
            stages=(
                StageConfig(
                    channels=ChannelSubset.RGB,
                    model=CnnModelConfig(weights=str(rgb_path)),
                ),
                StageConfig(
                    channels=ChannelSubset.LUMA,
                    model=CnnModelConfig(weights=str(luma_path)),
                ),
            ),
            input_width=8,
            input_height=8,
        )
        frames = [random_frame(seed=100 + i, width=20, height=14) for i in range(7)]
        serial = run_pipeline(config, frames, fps=5.0)
        threaded = run_pipeline(config, frames, fps=5.0, workers=3)
        assert serial == threaded
        for series in serial.stage_series:
            assert all(0.0 <= s <= 1.0 for s in series.scores)
        direct = direct_series(config, frames)
        assert serial.scored[0] == tuple(range(7))
        assert serial.stage_series[0] == direct[0]
        assert serial.scored[1] == proposal_windows(direct[:1], config.fusion)
        for i in serial.scored[1]:
            assert serial.stage_series[1].scores[i] == direct[1].scores[i]
            assert serial.stage_series[1].labels[i] == direct[1].labels[i]
        oracle = chain_fuse(direct, config.fusion)
        assert serial.fused.labels == oracle.labels
        for i in final_known(serial.scored, 7, config.fusion):
            assert serial.fused.scores[i] == oracle.scores[i]
        assert serial.events == events_from_series(oracle, 5.0)


class CountingModel:
    """Mean-intensity stage that counts its calls from any thread."""

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def score(self, features: np.ndarray) -> float:
        with self._lock:
            self.calls += 1
        return MeanIntensityModel().score(features)


def predictions_cells(config: PipelineConfig, result) -> list[list[str]]:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "predictions.csv"
        cli._write_predictions_csv(path, config, result)
        return [line.split(",") for line in path.read_text().splitlines()[1:]]


@st.composite
def lazy_cases(draw):
    """1-3 single-channel stages (R, G, B) over solid frames, so each
    stage's score stream is drawn independently, plus a fusion config.
    Packs and windows up to 7 over up to 40 frames draw fold slices
    clipped at both ends and packs wider than the window."""
    stages = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
    pixel = st.integers(0, 255)
    colors = draw(st.lists(st.tuples(pixel, pixel, pixel), min_size=n, max_size=n))
    fusion = FusionConfig(
        pack_size=draw(st.sampled_from((1, 3, 5, 7))),
        neighbor_window=draw(st.sampled_from((1, 3, 5, 7))),
    )
    return stages, colors, fusion


# 2,000 seeded solid frames through three stages, so the fold extends over
# thousands of steps and each verifier's asks reach far past the first packs.
LONG_COLORS = [tuple(map(int, c)) for c in np.random.default_rng(26).integers(0, 256, (2000, 3))]


@settings(max_examples=150, deadline=None)
@given(lazy_cases())
@example((3, LONG_COLORS, FusionConfig(pack_size=3, neighbor_window=5)))
def test_lazy_run_equals_eager_oracle(case):
    """Each verifier scores exactly the windows around the proposals that
    survive the stages before it, once per frame; labels, events and every
    cell it writes equal scoring every frame and folding with chain_fuse."""
    count, colors, fusion = case
    channels = (ChannelSubset.R, ChannelSubset.G, ChannelSubset.B)[:count]
    config = mean_pipeline(
        stages=tuple(mean_stage(c) for c in channels),
        fusion=fusion,
        input_width=2,
        input_height=2,
    )
    frames = [solid_frame(rgb, index=i, size=2) for i, rgb in enumerate(colors)]
    n = len(frames)
    direct = direct_series(config, frames)
    oracle = chain_fuse(direct, fusion)
    eager = pipeline.PipelineResult(
        stage_series=tuple(direct),
        fused=oracle,
        events=events_from_series(oracle, 10.0),
        scored=(tuple(range(n)),) * count,
        fused_score_known=(True,) * n,
    )
    eager_cells = predictions_cells(config, eager)

    results = []
    for workers in (1, 2):
        models = tuple(CountingModel() for _ in channels)
        with mock.patch.object(pipeline, "build_stage_models", return_value=models):
            result = run_pipeline(config, frames, fps=10.0, workers=workers)
        results.append(result)

        assert result.scored[0] == tuple(range(n))
        for k in range(1, count):
            assert result.scored[k] == proposal_windows(direct[:k], fusion)
        assert [model.calls for model in models] == [len(done) for done in result.scored]
        assert result.fused.labels == oracle.labels
        assert result.events == eager.events

        known = final_known(result.scored, n, fusion)
        assert result.fused_score_known == tuple(i in known for i in range(n))
        for i, (cells, want) in enumerate(zip(predictions_cells(config, result), eager_cells)):
            for k in range(count):
                stage_cells = cells[1 + 2 * k : 3 + 2 * k]
                if i in result.scored[k]:
                    assert stage_cells == want[1 + 2 * k : 3 + 2 * k]
                else:
                    assert stage_cells == ["", ""]
            assert cells[-2] == want[-2]
            assert cells[-1] == (want[-1] if i in known else "")
    assert results[0] == results[1]


# -- Each stage score checked once, where it is collected -------------------


THREE_STAGES = (ChannelSubset.RGB, ChannelSubset.RG, ChannelSubset.LUMA)


class BadAtLevel:
    """Stage that scores 0.9, so every stage fires and each verifier scores
    every frame, except ``bad`` on a solid frame of gray ``level``."""

    def __init__(self, bad: float = 0.9, level: int = -1) -> None:
        self.bad, self.level = bad, level

    def score(self, pixels: np.ndarray) -> float:
        return self.bad if round(float(pixels.mean())) == self.level else 0.9


@pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.25])
@pytest.mark.parametrize("stage", [0, 1, 2])
def test_bad_stage_score_is_refused_naming_stage_and_frame(tmp_path, capsys, stage, bad):
    """A score outside [0, 1], NaN included, stops the run at the stage and
    absolute frame that gave it; `run` exits 2 with one error line."""
    grays = [(10 * i,) * 3 for i in range(20)]
    models = tuple(BadAtLevel(bad, 120) if k == stage else BadAtLevel() for k in range(3))
    message = f"stage {stage}: score at frame 12 outside [0, 1]: {bad}"
    config = mean_pipeline(
        stages=tuple(mean_stage(c) for c in THREE_STAGES), input_width=4, input_height=4
    )
    frames = [solid_frame(rgb, index=i, size=4) for i, rgb in enumerate(grays)]
    for workers in (1, 2):
        with mock.patch.object(pipeline, "build_stage_models", return_value=models):
            with pytest.raises(ValidationError) as caught:
                run_pipeline(config, frames, fps=10.0, workers=workers)
        assert str(caught.value) == message

    directory = write_sequence(tmp_path / "frames", grays, fps=10.0, size=4)
    config_path = write_mean_config(
        tmp_path / "config.json",
        input={"width": 4, "height": 4},
        stages=[{"channels": c.value, "model": {"type": "mean_intensity"}} for c in THREE_STAGES],
    )
    out = tmp_path / "out"
    with mock.patch.object(pipeline, "build_stage_models", return_value=models):
        code = cli.main([
            "run", "--config", str(config_path), "--frames", str(directory),
            "--out", str(out), "--workers", "2",
        ])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_run_builds_no_validated_series():
    """Scores are checked where they are collected, so a three-stage run,
    its verifier probes included, calls no ``PredictionSeries.__post_init__``."""
    config = mean_pipeline(stages=tuple(mean_stage(c) for c in THREE_STAGES))
    check = PredictionSeries.__post_init__
    with mock.patch.object(
        PredictionSeries, "__post_init__", autospec=True, side_effect=check
    ) as post_init:
        result = run_pipeline(config, golden_frames(), fps=GOLDEN_FPS, workers=2)
    assert post_init.call_count == 0
    assert result.scored[2] and result.fused.positive_count()


def test_no_series_is_written_after_it_is_built():
    """With ``_series`` freezing its fields into tuples wherever it is held,
    a three-stage run at one and two workers, and ``chain_fuse`` over random
    stages, give what they give unpatched: nothing writes into a
    ``PredictionSeries`` after it is built."""
    rng = np.random.default_rng(25)
    frames = [
        solid_frame(tuple(map(int, rgb)), index=i, size=4)
        for i, rgb in enumerate(rng.integers(0, 256, (300, 3)))
    ]
    config = mean_pipeline(
        stages=tuple(mean_stage(c) for c in THREE_STAGES), input_width=4, input_height=4
    )
    draw = np.random.default_rng(26)
    fusions = [
        (
            [
                PredictionSeries(labels=tuple(draw.random(n) < 0.5), scores=tuple(draw.random(n)))
                for _ in range(draw.integers(1, 5))
            ],
            # An even length takes a pack and window of 1, drawing the pair all the same.
            FusionConfig(*(int(v) if n % 2 else 1 for v in draw.choice((1, 3, 5), 2))),
        )
        for n in draw.integers(0, 40, 200)
    ]

    def outputs():
        runs = [run_pipeline(config, frames, fps=25.0, workers=w) for w in (1, 2)]
        fused = [chain_fuse(stages, fusion) for stages, fusion in fusions]
        return runs, [(f.labels, [v.hex() for v in f.scores]) for f in fused]

    want = outputs()
    assert 0 < len(want[0][0].scored[2]) < len(want[0][0].scored[1]) < len(frames)
    original = ensemble._series

    def frozen(labels, scores):
        return original(tuple(labels), tuple(scores))

    with mock.patch.object(ensemble, "_series", frozen), mock.patch.object(
        pipeline, "_series", frozen
    ), mock.patch.object(evaluate, "_series", frozen):
        assert outputs() == want


def test_run_makes_no_chain_fuse_call():
    """The scheduler reads the prefix fold instead of asking ``chain_fuse``
    whether a verifier needs a frame: a three-stage run over 2,000 frames,
    whose two verifiers decide every frame, calls ``chain_fuse`` nowhere."""
    rng = np.random.default_rng(24)
    frames = [
        solid_frame(tuple(int(c) for c in rgb), index=i, size=8)
        for i, rgb in enumerate(rng.integers(0, 256, (2000, 3)))
    ]
    config = mean_pipeline(
        stages=tuple(mean_stage(c) for c in THREE_STAGES), input_width=8, input_height=8
    )
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is chain_fuse.__code__:
            calls.append(frame.f_lineno)

    sys.setprofile(profile)
    try:
        result = run_pipeline(config, frames, fps=25.0, workers=1)
    finally:
        sys.setprofile(None)
    assert len(calls) == 0
    assert 0 < len(result.scored[2]) < len(result.scored[1]) < len(frames)
    oracle = chain_fuse(result.stage_series, config.fusion)
    assert result.fused == oracle and result.fused.positive_count()


def test_a_score_extends_no_fold_before_its_stage():
    """A score of stage ``s`` cannot move the folds of stages ``0..s-1``, so
    over the same three-stage run no ``put`` of stage ``s`` extends them."""
    rng = np.random.default_rng(24)
    frames = [
        solid_frame(tuple(int(c) for c in rgb), index=i, size=8)
        for i, rgb in enumerate(rng.integers(0, 256, (2000, 3)))
    ]
    config = mean_pipeline(
        stages=tuple(mean_stage(c) for c in THREE_STAGES), input_width=8, input_height=8
    )
    put, extend = ensemble._PrefixFold.put, ensemble._PrefixFold.extend
    writing, early = [], []

    def recording_put(fold, stage, *args):
        writing.append(stage)
        put(fold, stage, *args)

    def recording_extend(fold, k, known):
        if k < writing[-1]:
            early.append((writing[-1], k))
        extend(fold, k, known)

    with mock.patch.object(ensemble._PrefixFold, "put", recording_put), mock.patch.object(
        ensemble._PrefixFold, "extend", recording_extend
    ):
        result = run_pipeline(config, frames, fps=25.0, workers=1)
    assert early == []
    assert {1, 2} <= set(writing)
    assert result.fused == chain_fuse(result.stage_series, config.fusion)


# -- Each frame read once, and only a bounded window of them held -----------


class RecordingFrames:
    """Solid 4x4 frames made on access that count every read of each index
    and the most frames alive at once.

    The first read of a frame in ``hold`` sleeps before it returns, so that
    frame's score, and any after it, cannot be collected meanwhile; on waking
    it records the highest index read so far.
    """

    def __init__(self, colors, hold=()) -> None:
        self.colors = colors
        self.hold = set(hold)
        self.reads = [0] * len(colors)
        self.alive = self.most_alive = 0
        self.highest_while_held: dict[int, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.colors)

    def _gone(self) -> None:
        with self._lock:
            self.alive -= 1

    def track(self, frame) -> None:
        """Count ``frame`` as alive until it is collected."""
        weakref.finalize(frame, self._gone)
        with self._lock:
            self.alive += 1
            self.most_alive = max(self.most_alive, self.alive)

    def __getitem__(self, i: int):
        frame = solid_frame(self.colors[i], index=i, size=4)
        self.track(frame)
        with self._lock:
            self.reads[i] += 1
            first = self.reads[i] == 1
        if first and i in self.hold:
            time.sleep(0.2)
            with self._lock:
                self.highest_while_held[i] = max(j for j, n in enumerate(self.reads) if n)
        return frame


class TestBoundedWindow:
    COLORS = GOLDEN_COLORS * 5

    @pytest.mark.parametrize("workers", [2, 4])
    def test_reads_run_at_most_twice_the_workers_ahead(self, workers):
        """While frame ``g``'s score is not collected, no frame past
        ``g + 2 * workers`` is read."""
        frames = RecordingFrames(self.COLORS, hold=(0, 20))
        run_pipeline(mean_pipeline(), frames, fps=GOLDEN_FPS, workers=workers)
        assert frames.highest_while_held.keys() == {0, 20}
        for held, highest in frames.highest_while_held.items():
            assert highest <= held + 2 * workers, (held, highest)

    def test_each_frame_is_read_once(self):
        """``frames[i]`` is read once, also where a verifier scores it, and
        the results are the same at 1, 2 and 4 workers."""
        results = []
        for workers in (1, 2, 4):
            frames = RecordingFrames(self.COLORS)
            result = run_pipeline(mean_pipeline(), frames, fps=GOLDEN_FPS, workers=workers)
            assert 0 < len(result.scored[1]) < len(frames)
            assert frames.reads == [1] * len(frames)
            results.append(result)
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_frames_held_do_not_grow_with_the_frame_count(self, workers):
        """Over 360 frames, of which the verifier scores 200, the frames
        read and the copies kept for the verifier that are alive at once
        stay within a bound set by the workers and the fusion windows: a
        verifier task is collected before ``2 * workers`` more tasks are
        submitted, and the fold decides a frame a pack and a radius past
        it."""
        frames = RecordingFrames(GOLDEN_COLORS * 40)

        class KeptFrame(Frame):
            def __post_init__(self) -> None:
                super().__post_init__()
                frames.track(self)

        config = mean_pipeline(input_width=4, input_height=4)
        with mock.patch.object(pipeline, "Frame", KeptFrame):
            result = run_pipeline(config, frames, fps=GOLDEN_FPS, workers=workers)
        assert len(result.scored[1]) == 200
        assert frames.most_alive <= 4 * workers + 6, frames.most_alive
        assert frames.alive == 0

    @needs_proc_status
    def test_peak_memory_does_not_grow_with_the_frame_count(self):
        """400 frames of 200x200 at the model size are 48 MB; `run_pipeline`
        holds a few of them at a time, so its peak at 400 frames is within
        a few MB of its peak at 40."""
        peaks = []
        for count in (40, 400):
            proc = subprocess.run(
                [sys.executable, "-c", MANY_FRAMES_SCRIPT, str(count)],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            peaks.append(int(proc.stdout) * 1024)
        assert peaks[1] - peaks[0] < 4 << 20, peaks

    def test_cnn_stage_reads_its_pixels_without_a_feature_tensor(self, tmp_path, monkeypatch):
        """A stock RGB stage scores four 300x300 frames at one worker within
        ``PIPELINE_PEAK_MIB`` of traced allocations beyond its weights: the
        stage's 8-bit pixels go to conv1, which scales them as it pads its
        strips, and no float64 feature tensor is held through the pass."""
        spec = default_model_spec(channels=3)
        weights = tmp_path / "rgb.weights"
        save_weights(weights, spec, random_weights(spec, seed=3))
        stage = StageConfig(channels=ChannelSubset.RGB, model=CnnModelConfig(weights=str(weights)))
        frames = [random_frame(2503 + i, 300, 300) for i in range(4)]
        # One core per frame thread: no helper threads, whose scratch would
        # count or not as they happen to take strips.
        monkeypatch.setattr(cores, "_blas_thread_api", lambda: None)

        def traced_peak() -> float:
            tracemalloc.start()
            try:
                run_pipeline(PipelineConfig(stages=(stage,)), frames, fps=GOLDEN_FPS, workers=1)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        with ThreadPoolExecutor(1) as fresh:
            peak = fresh.submit(traced_peak).result(timeout=300)
        assert peak - weights.stat().st_size / 2**20 < PIPELINE_PEAK_MIB


# What a one-worker run with a stock RGB stage at 300x300 may allocate beyond
# its weights container: one forward's outputs, kernels and scratch (about
# 6.0 MiB). A float64 feature tensor of the frame (2.06 MiB) held through the
# forward breaks it.
PIPELINE_PEAK_MIB = 7.0


# Runs `run_pipeline` with two workers over argv[1] 200x200 frames, made on
# access, through two weightless stages at that model size, and prints the
# process's peak resident set (VmHWM) in KiB.
MANY_FRAMES_SCRIPT = """
import sys
import numpy as np
from verisemble import (
    ChannelSubset, Frame, MeanIntensityModelConfig, PipelineConfig, StageConfig, run_pipeline,
)

class Frames:
    def __len__(self):
        return int(sys.argv[1])

    def __getitem__(self, i):
        return Frame(index=i, pixels=np.full((200, 200, 3), (0, 255, 255)[i % 3], np.uint8))

stages = tuple(
    StageConfig(channels=c, model=MeanIntensityModelConfig())
    for c in (ChannelSubset.RGB, ChannelSubset.LUMA)
)
config = PipelineConfig(stages=stages, input_width=200, input_height=200)
result = run_pipeline(config, Frames(), fps=25.0, workers=2)
assert len(result.scored[1]) > len(result.scored[0]) // 2
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")))
"""


# -- BLAS threads while the scoring pool runs --------------------------------


def blas_api():
    api = cores._blas_thread_api()
    if api is None:
        pytest.skip("no OpenBLAS thread-count symbols in this process")
    return api


def test_a_mapped_openblas_is_controlled():
    """Where numpy's OpenBLAS is mapped into the process, it exports one of
    the thread-count pairs that ``_blas_thread_api`` knows, so a scoring
    pool can hold it at one thread."""
    try:
        with open("/proc/self/maps") as maps:
            mapped = any("openblas" in line.lower() for line in maps)
    except OSError:
        pytest.skip("no /proc/self/maps")
    if not mapped:
        pytest.skip("no OpenBLAS mapped into this process")
    assert cores._blas_thread_api() is not None


class BlasReadingModel:
    """Mean-intensity stage that records the BLAS thread count at every
    call, from any thread, and raises at call number ``fail_at``."""

    def __init__(self, fail_at: int | None = None) -> None:
        self.get_threads = blas_api()[0]
        self.fail_at = fail_at
        self.seen: list[int] = []
        self._lock = threading.Lock()

    def score(self, features: np.ndarray) -> float:
        with self._lock:
            self.seen.append(self.get_threads())
            if len(self.seen) == self.fail_at:
                raise RuntimeError("stage model failed")
        return MeanIntensityModel().score(features)


class FakeBlas:
    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.sets: list[int] = []
        self.live_at_set: list[set[str]] = []  # verisemble threads alive at each set

    def get(self) -> int:
        return self.threads

    def set(self, threads: int) -> None:
        self.sets.append(threads)
        self.live_at_set.append(verisemble_threads())
        self.threads = threads


def run_golden_with(models, workers: int):
    with mock.patch.object(pipeline, "build_stage_models", return_value=models):
        return run_pipeline(mean_pipeline(), golden_frames(), fps=GOLDEN_FPS, workers=workers)


class TestBlasThreadsWhileScoring:
    def test_pool_scores_at_split_count_then_restores_it(self):
        # Frame threads take their share of the cores through helper
        # threads, so BLAS runs at one thread while the pool scores.
        previous = blas_api()[0]()
        models = (BlasReadingModel(), BlasReadingModel())
        run_golden_with(models, workers=2)
        assert [len(model.seen) for model in models] == [9, 5]
        assert set(models[0].seen + models[1].seen) == {1}
        assert blas_api()[0]() == previous

    @pytest.mark.parametrize("failing_stage, fail_at", [(0, 4), (1, 3)])
    def test_count_restored_when_a_stage_model_raises(self, failing_stage, fail_at):
        previous = blas_api()[0]()
        models = [MeanIntensityModel(), MeanIntensityModel()]
        models[failing_stage] = BlasReadingModel(fail_at=fail_at)
        with pytest.raises(RuntimeError, match="stage model failed"):
            run_golden_with(tuple(models), workers=2)
        assert models[failing_stage].seen[0] == 1
        assert blas_api()[0]() == previous

    @pytest.mark.parametrize(
        "start, workers, sets",
        [(4, 1, [1, 4]), (4, 2, [1, 4]), (4, 3, [1, 4]), (2, 8, [1, 2]), (1, 2, [])],
    )
    def test_split_and_restore_calls(self, monkeypatch, start, workers, sets):
        blas = FakeBlas(start)
        monkeypatch.setattr(cores, "_blas_thread_api", lambda: (blas.get, blas.set))
        run_pipeline(mean_pipeline(), golden_frames(), fps=GOLDEN_FPS, workers=workers)
        assert blas.sets == sets

    def test_overlapping_splits_restore_the_count_saved_first(self, monkeypatch):
        blas = FakeBlas(4)
        monkeypatch.setattr(cores, "_blas_thread_api", lambda: (blas.get, blas.set))
        first, second = cores.frame_pool(2), cores.frame_pool(4)
        # Each frame thread is lent its cores but one: 4 // 2 and 4 // 4.
        assert first.__enter__().submit(lent_here).result(timeout=60) == 2 - 1
        assert second.__enter__().submit(lent_here).result(timeout=60) == 1 - 1
        first.__exit__(None, None, None)
        assert blas.threads == 1
        second.__exit__(None, None, None)
        assert blas.threads == 4
        assert blas.sets == [1, 4]

    @pytest.mark.parametrize("fail_at", [None, 2])
    def test_count_restored_after_every_thread_of_the_call_exits(self, monkeypatch, fail_at):
        # The restoring call sees no frame or helper thread alive, on
        # return and on raise: the threads are joined before BLAS is
        # given back its count.
        blas = FakeBlas(4)
        monkeypatch.setattr(cores, "_blas_thread_api", lambda: (blas.get, blas.set))
        models = (ConvModel(fail_at=fail_at), ConvModel())
        if fail_at is None:
            run_conv_pipeline(models, workers=1)
        else:
            with pytest.raises(RuntimeError, match="stage model failed"):
                run_conv_pipeline(models, workers=1)
        assert saw_frame_and_helper_threads(models[0])
        assert blas.sets == [1, 4]
        assert blas.live_at_set[-1] == set()

    @pytest.mark.parametrize(
        "start, workers, cores", [(4, 1, 4), (4, 2, 2), (4, 3, 1), (2, 8, 1), (1, 1, 1)]
    )
    def test_frame_threads_are_lent_their_share_of_the_cores(
        self, monkeypatch, start, workers, cores
    ):
        blas = FakeBlas(start)
        # ``cores`` is the parameter here, so the module is reached by ``pipeline``.
        monkeypatch.setattr(pipeline.cores, "_blas_thread_api", lambda: (blas.get, blas.set))
        models = (LentHelpersModel(), LentHelpersModel())
        run_golden_with(models, workers=workers)
        assert set(models[0].lent + models[1].lent) == {cores - 1}


def lent_here() -> int:
    """How many helper tasks the calling thread may give to helper threads."""
    helpers = getattr(cores._lent, "helpers", None)
    return 0 if helpers is None else helpers[1]


class LentHelpersModel:
    """Mean-intensity stage that records how many helper tasks its calling
    thread may give to helper threads."""

    def __init__(self) -> None:
        self.lent: list[int] = []

    def score(self, features: np.ndarray) -> float:
        self.lent.append(lent_here())
        return MeanIntensityModel().score(features)


def verisemble_threads() -> set[str]:
    """The live frame and helper threads of ``run_pipeline`` calls."""
    return {t.name for t in threading.enumerate() if t.name.startswith("verisemble-")}


class ConvModel:
    """Stage whose score runs a conv of several strips on its features, and
    that records the frame and helper threads alive at each call and raises
    at call number ``fail_at``."""

    def __init__(self, fail_at: int | None = None) -> None:
        rng = np.random.default_rng(23)
        self.kernel = rng.standard_normal((3, 3, 3, 16)).astype(np.float32)
        self.bias = rng.standard_normal(16).astype(np.float32)
        self.fail_at = fail_at
        self.threads_seen: set[str] = set()
        self.calls = 0
        self._lock = threading.Lock()

    def score(self, features: np.ndarray) -> float:
        x = np.repeat(features[..., :1], 3, axis=2)
        out = nn.conv2d(x, self.kernel, self.bias, pool=2)
        with self._lock:
            self.calls += 1
            self.threads_seen |= verisemble_threads()
            if self.calls == self.fail_at:
                raise RuntimeError("stage model failed")
        return float(1.0 / (1.0 + np.exp(-out.mean())))


def conv_pipeline() -> PipelineConfig:
    # A 160x160 conv runs in 5 strips; 320x120 frames resize in 6 bands.
    return mean_pipeline(input_width=160, input_height=160)


def conv_frames() -> list:
    return [random_frame(seed=40 + i, width=320, height=120) for i in range(6)]


def run_conv_pipeline(models, workers: int):
    with mock.patch.object(pipeline, "build_stage_models", return_value=models):
        return run_pipeline(conv_pipeline(), conv_frames(), fps=5.0, workers=workers)


def saw_frame_and_helper_threads(model: ConvModel) -> bool:
    return {name.split("_")[0] for name in model.threads_seen} == {
        "verisemble-frame", "verisemble-helper"
    }


class TestHelperThreads:
    """Frame threads lent helpers, with BLAS faked at 4 threads so that a
    frame gets ``4 // workers`` cores on any host. No frame or helper
    thread outlives its call."""

    @pytest.fixture(autouse=True)
    def four_blas_threads(self, monkeypatch):
        blas = FakeBlas(4)
        monkeypatch.setattr(cores, "_blas_thread_api", lambda: (blas.get, blas.set))

    def test_no_helper_thread_remains_after_return(self):
        models = (ConvModel(), ConvModel())
        run_conv_pipeline(models, workers=1)
        assert saw_frame_and_helper_threads(models[0])  # the frame threads did start helpers
        assert verisemble_threads() == set()

    @pytest.mark.parametrize("failing_stage, fail_at", [(0, 2), (1, 1)])
    def test_no_helper_thread_remains_after_raise(self, failing_stage, fail_at):
        models = [ConvModel(), ConvModel()]
        models[failing_stage] = ConvModel(fail_at=fail_at)
        with pytest.raises(RuntimeError, match="stage model failed"):
            run_conv_pipeline(tuple(models), workers=1)
        assert saw_frame_and_helper_threads(models[0])
        assert verisemble_threads() == set()

    def test_results_equal_across_worker_counts(self):
        results = [run_conv_pipeline((ConvModel(), ConvModel()), workers) for workers in (1, 2, 4)]
        assert results[0] == results[1] == results[2]

    def test_overlapping_calls_keep_their_own_helpers(self):
        # Two calls at a time, each with its own helpers; one finishing
        # (and joining its helpers) while the other runs must not stop it.
        want = run_conv_pipeline((ConvModel(), ConvModel()), workers=1)
        start = threading.Barrier(2)

        def call(workers):
            start.wait(timeout=60)
            return run_pipeline(conv_pipeline(), conv_frames(), fps=5.0, workers=workers)

        def fresh_models(config):
            return ConvModel(), ConvModel()

        # One patch around both calls: mock.patch is not thread-safe.
        with mock.patch.object(pipeline, "build_stage_models", side_effect=fresh_models):
            for _ in range(3):
                with ThreadPoolExecutor(max_workers=2) as callers:
                    calls = [callers.submit(call, 1), callers.submit(call, 2)]
                    assert [f.result(timeout=600) for f in calls] == [want, want]
        assert verisemble_threads() == set()


@pytest.fixture
def no_blas_symbols(monkeypatch):
    monkeypatch.setattr(cores, "_BLAS_THREAD_SYMBOLS", ())
    cores._blas_thread_api.cache_clear()
    yield
    cores._blas_thread_api.cache_clear()


def test_without_blas_symbols_run_is_unchanged_and_says_so_once(
    tmp_path, caplog, no_blas_symbols
):
    caplog.set_level(logging.INFO, logger="verisemble.cores")
    frames = write_sequence(tmp_path / "frames", GOLDEN_COLORS)
    config = write_mean_config(tmp_path / "config.json")
    gt = tmp_path / "gt.csv"
    gt.write_text("start_s,end_s\n0.1,0.3\n")
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert cli.main([
            "-v", "run", "--config", str(config), "--frames", str(frames),
            "--gt", str(gt), "--out", str(out), "--workers", workers,
        ]) == 0
        outputs.append([
            (out / name).read_bytes()
            for name in ("detections.csv", "predictions.csv", "report.json")
        ])
    assert outputs[0] == outputs[1]
    assert cores._blas_thread_api() is None
    notes = [m for m in caplog.messages if m.startswith("BLAS thread count not controlled")]
    assert len(notes) == 1
