"""End-to-end pipeline: frames in, fused detection events out.

Stage 0, the proposer, scores every frame. Each later stage is a verifier
that can only veto, so it scores only the frames its decision can depend
on: the window of ``FusionConfig.neighbor_window`` frames around each
proposal that has survived the fold so far. The fold is local, so the
stages run over the sequence together: a prefix fold, checked bit-equal to
``chain_fuse``, owns their cells and asks each verifier about those frames
as the fold before it becomes final. The scheduler submits what the fold asks,
writes each collected score into its cell and drops a resized frame once
every stage's cell there is known. Each frame is read and resized once, on
a scoring thread. At most ``2 * workers`` tasks are submitted beyond the
one being collected, so the frames in flight and kept are bounded whatever
the sequence length; the cells and the fold grow linearly with it. The
fold's positives collapse into timestamped events.

A scoring task hands a stage model the stage's 8-bit pixels, the resized
frame's channel subset or its luma, and builds no float64 feature tensor:
a CNN stage's first conv reads them as ``pixels / 255`` while it pads its
strips, the same division ``extract_features`` makes.
"""

from __future__ import annotations

import collections
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from . import cores
from .config import CnnModelConfig, MeanIntensityModelConfig, PipelineConfig
from .ensemble import PredictionSeries, _PrefixFold, _series
from .errors import LoadError, ValidationError
from .evaluate import DetectionEvent, events_from_series
from .frameio import Frame
from .nn import ModelSpec, WeightStore, _read_pixels, classify, forward, load_weights
from .preprocess import _stage_pixels, resize_aa

__all__ = [
    "StageModel",
    "CnnModel",
    "MeanIntensityModel",
    "build_stage_models",
    "PipelineResult",
    "run_pipeline",
]

logger = logging.getLogger(__name__)


class StageModel(Protocol):
    """Anything that turns a stage's pixels into a probability.

    ``pixels`` is the stage's ``(height, width, channels)`` uint8 array:
    the resized frame's channel subset, or its luma. A model reads it as
    ``pixels / 255``, the feature values ``extract_features`` gives.
    """

    def score(self, pixels: np.ndarray) -> float: ...


@dataclass(frozen=True)
class CnnModel:
    """Stage model backed by a loaded network; the first conv reads the
    8-bit pixels as it pads its strips (see ``nn.forward``)."""

    spec: ModelSpec
    weights: WeightStore

    def score(self, pixels: np.ndarray) -> float:
        return forward(self.spec, self.weights, pixels)


@dataclass(frozen=True)
class MeanIntensityModel:
    """Weightless stage model: the score is the mean feature value, the
    mean of ``pixels / 255``.

    With features in [0, 1] the score is too, so it plugs into the same
    thresholding as a real network.
    """

    def score(self, pixels: np.ndarray) -> float:
        return float(_read_pixels(pixels).mean())


def build_stage_models(config: PipelineConfig) -> tuple[StageModel, ...]:
    """Instantiate one model per configured stage.

    CNN stages load their weight container and must match the pipeline's
    input geometry and the stage's channel count.
    """
    models: list[StageModel] = []
    for position, stage in enumerate(config.stages):
        if isinstance(stage.model, MeanIntensityModelConfig):
            models.append(MeanIntensityModel())
            continue
        assert isinstance(stage.model, CnnModelConfig)
        path = Path(stage.model.weights)
        if not path.is_file():
            raise LoadError(f"stage {position}: weights file not found: {path}")
        spec, weights = load_weights(path)
        expected = (config.input_height, config.input_width, stage.channels.cardinality)
        if spec.input_shape != expected:
            raise ValidationError(
                f"stage {position}: weights expect input {spec.input_shape}, "
                f"pipeline provides {expected}"
            )
        models.append(CnnModel(spec=spec, weights=weights))
    return tuple(models)


@dataclass(frozen=True)
class PipelineResult:
    """Everything the pipeline produced for one sequence.

    ``stage_series[k][i]`` is stage ``k``'s score, checked to lie in [0, 1],
    for the ``i``-th frame of the input order, labelled by :func:`classify`;
    ``fused`` is the chained decision stream over the same positions.
    ``scored[k]`` lists, ascending, the frames stage ``k`` scored: every
    frame for stage 0, the proposal windows for each verifier. At a frame a
    stage did not score, its series holds label False and score 0.0, so a
    fused score whose window takes in such a frame may differ from the one
    that scoring every frame gives; ``fused_score_known[i]`` is False for
    those frames, as the fold marked them. Fused labels, and the fused
    scores of fused positives, never differ.
    """

    stage_series: tuple[PredictionSeries, ...]
    fused: PredictionSeries
    events: tuple[DetectionEvent, ...]
    scored: tuple[tuple[int, ...], ...]
    fused_score_known: tuple[bool, ...]


def _score_stages(
    pool: cores.Executor,
    frames: Sequence[Frame],
    config: PipelineConfig,
    models: Sequence[StageModel],
    ahead: int,
) -> _PrefixFold:
    """The prefix fold of the stages' scores, each checked once, as a float,
    when it is collected: one outside [0, 1], NaN included, raises
    :class:`ValidationError` naming the stage and the frame. Tasks go to
    ``pool`` as they become ready, the fold's asks first, with at most
    ``ahead`` submitted beyond the one being collected; results are
    collected in that order."""
    fold = _PrefixFold(len(models), len(frames), config.fusion)
    # A frame a verifier may need is copied into an array allocated here, on
    # the collecting thread, so that the frames kept across tasks do not pin
    # the scoring threads' heaps between their short-lived arrays.
    shape = (config.input_height, config.input_width, 3)
    kept: dict[int, Frame] = {}
    released = 0

    def score(resized: Frame, k: int) -> float:
        pixels = _stage_pixels(resized, config.stages[k].channels)
        return models[k].score(pixels)

    def first(i: int, keep: np.ndarray | None) -> tuple[Frame | None, float]:
        resized = resize_aa(frames[i], config.input_width, config.input_height)
        result = score(resized, 0)
        if keep is None:
            return None, result
        keep[...] = resized.pixels
        return Frame(resized.index, keep), result

    pending: collections.deque[tuple[int, int, cores.Future]] = collections.deque()
    submitted = 0
    try:
        while True:
            while len(pending) <= ahead and (fold.ready or submitted < fold.n):
                if fold.ready:
                    k, j = fold.ready.popleft()
                    pending.append((k, j, pool.submit(score, kept[j], k)))
                else:
                    keep = np.empty(shape, np.uint8) if len(models) > 1 else None
                    pending.append((0, submitted, pool.submit(first, submitted, keep)))
                    submitted += 1
            if not pending:
                break
            k, i, future = pending.popleft()
            result = future.result()
            if k == 0:
                kept[i], result = result
            value = float(result)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"stage {k}: score at frame {i} outside [0, 1]: {value}")
            fold.put(k, i, value, classify(value, config.threshold))
            while released < min(fold.known):
                kept.pop(released)
                released += 1
    finally:
        for *_, future in pending:
            future.cancel()
    return fold


def run_pipeline(
    config: PipelineConfig,
    frames: Sequence[Frame],
    fps: float,
    workers: int = 1,
) -> PipelineResult:
    """Run all stages over a frame sequence and fuse the results.

    Stage 0 scores every frame; each later stage scores only the windows
    around the proposals that survive the stages before it (see the
    module docstring). ``frames[i]`` is read once, on a scoring thread, so
    a lazy sequence is decoded there. ``workers`` threads score the frames,
    with at most ``2 * workers`` tasks submitted beyond the one being
    collected; output order and values are identical for every worker
    count because each frame is scored independently and results are
    collected in submission order.

    The threads share the cores as :func:`.cores.frame_pool` says, with
    numpy's process-wide BLAS count held at one until the call ends.
    """
    n = len(frames)
    if not 0 < fps < math.inf:
        raise ValidationError(f"fps must be positive and finite, got {fps}")
    if not math.isfinite((n - 1) / fps):
        raise ValidationError(f"fps {fps} is too small: frame {n - 1} has no finite timestamp")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    models = build_stage_models(config)
    logger.info("scoring %d frames with %d stages (%d workers)", n, len(models), workers)

    with cores.frame_pool(workers) as pool:
        fold = _score_stages(pool, frames, config, models, 2 * workers)
    series = (*fold.stages, fold.fused)
    *stage_series, fused = (_series(tuple(s.labels), tuple(s.scores)) for s in series)
    scored = tuple(map(tuple, fold.asked))
    for k, done in enumerate(scored):
        logger.info("stage %d: scored %d of %d frames", k, len(done), n)

    events = events_from_series(fused, fps)
    logger.info("fused %d positive frames into %d events", fused.positive_count(), len(events))
    return PipelineResult(
        stage_series=tuple(stage_series), fused=fused, events=events, scored=scored,
        fused_score_known=tuple(fold.exact),
    )
