"""End-to-end pipeline: frames in, fused detection events out.

The pipeline runs one pass per stage. Pass 0 takes each frame from the
sequence, resizes it once to the model input size and scores the first
stage, the proposer, on every frame. Only the resized frames are kept: a
lazy sequence such as :class:`~verisemble.frameio.FrameSequence` decodes
each frame on the scoring threads, and the full-size frame is dropped once
it is resized. Each later stage is a verifier that can only veto, so it
scores only the frames its decision can depend on: the window of
``FusionConfig.verifier_radius`` frames around each proposal that has
survived the fold so far. A frame outside every such window stays
negative whatever the verifier would say. Per-stage label streams are
fused by the verification chain and the surviving positives collapse
into timestamped events.

While a pool of ``workers`` threads scores frames, each frame gets
``max(1, n // workers)`` cores, ``n`` being numpy's OpenBLAS thread count
on entry, and OpenBLAS is held at one thread. A frame thread with more
than one core spreads its conv strips and resize bands over helper threads
of this call (``nn._spread``), so its cores run whole strips and bands, not
only the GEMM inside them. The helpers are joined when the call returns or
raises; with one core per frame, or no OpenBLAS found, there are none. The
BLAS count is process-wide: other threads calling BLAS meanwhile see it
too. Outputs do not change: strip bounds do not depend on the thread
count, strips and bands write disjoint rows, the resize is integer
arithmetic, and a GEMM gives the same bits at any BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .config import CnnModelConfig, MeanIntensityModelConfig, PipelineConfig, StageConfig
from .ensemble import FusionConfig, PredictionSeries, chain_fuse, pack_mode
from .errors import LoadError, ValidationError
from .evaluate import DetectionEvent, events_from_series
from .frameio import Frame
from .nn import ModelSpec, WeightStore, _lend_helpers, classify, forward, load_weights
from .preprocess import extract_features, resize_aa

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
    """Anything that turns a feature tensor into a probability."""

    def score(self, features: np.ndarray) -> float: ...


@dataclass(frozen=True)
class CnnModel:
    """Stage model backed by a loaded network."""

    spec: ModelSpec
    weights: WeightStore

    def score(self, features: np.ndarray) -> float:
        return forward(self.spec, self.weights, features)


@dataclass(frozen=True)
class MeanIntensityModel:
    """Weightless stage model: the score is the mean feature value.

    With features in [0, 1] the score is too, so it plugs into the same
    thresholding as a real network.
    """

    def score(self, features: np.ndarray) -> float:
        return float(np.asarray(features, dtype=np.float64).mean())


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

    ``stage_series[k][i]`` is stage ``k``'s raw output for the ``i``-th
    frame of the input order; ``fused`` is the chained decision stream
    over the same positions. ``scored[k]`` lists, ascending, the frames
    stage ``k`` scored: every frame for stage 0, the proposal windows
    for each verifier. At a frame a stage did not score, its series holds
    label False and score 0.0, so a fused score whose window takes in
    such a frame may differ from the one that scoring every frame gives.
    Fused labels, and the fused scores of fused positives, never differ.
    """

    stage_series: tuple[PredictionSeries, ...]
    fused: PredictionSeries
    events: tuple[DetectionEvent, ...]
    scored: tuple[tuple[int, ...], ...]

    def fused_score_known(self, fusion: FusionConfig) -> tuple[bool, ...]:
        """Per frame, whether every verifier scored the whole window around
        it under ``fusion``, so its fused score is the one that scoring
        every frame gives."""
        n = len(self.fused)
        unknown: set[int] = set()
        for frames in self.scored[1:]:
            unscored = set(range(n)).difference(frames)
            unknown.update(_windows(unscored, fusion.verifier_radius, n))
        return tuple(i not in unknown for i in range(n))


def _stage_score(
    resized: Frame, stage: StageConfig, model: StageModel, config: PipelineConfig
) -> float:
    return model.score(extract_features(resized, stage.channels, config.luma_coefficients))


def _proposals(series: Sequence[PredictionSeries], fusion: FusionConfig) -> PredictionSeries:
    """The fold of the stages scored so far: what the next verifier must check."""
    if len(series) > 1:
        return chain_fuse(series, fusion)
    return pack_mode(series[0], fusion.pack_size) if fusion.packing_enabled else series[0]


def _windows(centres: Iterable[int], radius: int, n: int) -> tuple[int, ...]:
    """Ascending union of ``[i - radius, i + radius]`` over ``centres``, clipped to ``[0, n)``."""
    return tuple(
        sorted({j for i in centres for j in range(max(0, i - radius), min(n, i + radius + 1))})
    )


# (get, set) thread-count symbols of numpy wheels' scipy-openblas, then of a plain OpenBLAS.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_api() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The OpenBLAS mapped into this process (per ``/proc/self/maps``) as its
    (get, set) thread-count functions; None where none is found."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    logger.info("BLAS thread count not controlled: no known OpenBLAS symbol found")
    return None


# One record for the pools that overlap in this process: the BLAS count
# saved when the first of them started, and how many are running.
_blas_lock = threading.Lock()
_blas_saved = 0
_blas_pools = 0


@contextmanager
def _frame_cores(workers: int) -> Iterator[int]:
    """Hold BLAS at one thread inside the block and yield the cores each of
    ``workers`` frame threads may use: ``max(1, n // workers)``, ``n`` being
    the saved count. The last overlapping block to finish restores ``n``.
    Where no OpenBLAS is found, BLAS is left alone and each frame gets one
    core."""
    global _blas_saved, _blas_pools
    api = _blas_thread_api()
    if api is None:
        yield 1
        return
    get, put = api
    with _blas_lock:
        if _blas_pools == 0:
            _blas_saved = get()
        _blas_pools += 1
        cores = max(1, _blas_saved // workers)
        if get() != 1:
            put(1)
    try:
        yield cores
    finally:
        with _blas_lock:
            _blas_pools -= 1
            if _blas_pools == 0 and get() != _blas_saved:
                put(_blas_saved)


def run_pipeline(
    config: PipelineConfig,
    frames: Sequence[Frame],
    fps: float,
    workers: int = 1,
) -> PipelineResult:
    """Run all stages over a frame sequence and fuse the results.

    Stage 0 scores every frame; each later stage scores only the windows
    around the proposals that survive the stages before it (see the
    module docstring). ``frames[i]`` is read once, on a scoring thread, and
    only its resized copy is kept, so a lazy sequence is decoded there.
    ``workers`` threads score the frames of each pass; output order and
    values are identical for every worker count because each frame is
    scored independently and results are collected in input order.

    While the pool runs, numpy's BLAS thread count ``n`` is held at one,
    and the last overlapping call to finish restores ``n``, also when
    scoring raises. The count is process-wide: other threads calling BLAS
    at that time see it. Each scoring thread may spread its conv strips and
    resize bands over ``max(1, n // workers) - 1`` helper threads of this
    call, which are joined before it returns or raises.
    """
    n = len(frames)
    if not (fps > 0):
        raise ValidationError(f"fps must be positive, got {fps}")
    if not math.isfinite((n - 1) / fps):
        raise ValidationError(f"fps {fps} is too small: frame {n - 1} has no finite timestamp")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    models = build_stage_models(config)
    logger.info("scoring %d frames with %d stages (%d workers)", n, len(models), workers)

    def first_pass(i: int) -> tuple[Frame, float]:
        resized = resize_aa(frames[i], config.input_width, config.input_height)
        return resized, _stage_score(resized, config.stages[0], models[0], config)

    def series(scores: Sequence[float]) -> PredictionSeries:
        return PredictionSeries(
            labels=tuple(classify(s, config.threshold) for s in scores), scores=scores
        )

    # Each frame thread may give its conv strips and resize bands to
    # ``cores - 1`` helper threads of this call. Helper threads start only
    # when first given work, and are joined, after the frame threads, when
    # the block exits.
    with _frame_cores(workers) as cores, ThreadPoolExecutor(
        max(1, workers * (cores - 1)), thread_name_prefix="verisemble-helper"
    ) as helpers, ThreadPoolExecutor(
        workers, initializer=_lend_helpers, initargs=(helpers, cores - 1)
    ) as pool:
        prepared = list(pool.map(first_pass, range(n)))
        resized = [frame for frame, _ in prepared]
        stage_series = [series([score for _, score in prepared])]
        scored = [tuple(range(n))]
        logger.info("stage 0: scored %d of %d frames", n, n)
        for k in range(1, len(models)):
            proposals = _proposals(stage_series, config.fusion).positive_indices()
            needed = _windows(proposals, config.fusion.verifier_radius, n)
            stage, model = config.stages[k], models[k]
            # Unscored frames keep score 0.0, which is below every valid
            # threshold, so they read as negative.
            scores = [0.0] * n
            for i, score in zip(
                needed,
                pool.map(lambda i: _stage_score(resized[i], stage, model, config), needed),
            ):
                scores[i] = score
            stage_series.append(series(scores))
            scored.append(needed)
            logger.info("stage %d: scored %d of %d frames", k, len(needed), n)

    fused = chain_fuse(stage_series, config.fusion)
    events = events_from_series(fused, fps)
    logger.info("fused %d positive frames into %d events", fused.positive_count(), len(events))
    return PipelineResult(
        stage_series=tuple(stage_series),
        fused=fused,
        events=events,
        scored=tuple(scored),
    )
