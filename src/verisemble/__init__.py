"""Verification-based two-stage classification ensemble for frame sequences.

A primary classifier scans every frame of a sequence; a second,
reduced-channel verifier re-examines only the frames the primary flagged
and can veto but never add positives. Majority packing over consecutive
frames and a small neighbor-validation window absorb single-frame
flicker and slight misalignment between the stages. Surviving positive
runs become timestamped detection events scored against ground-truth
intervals with a one-second tolerance.

The package is pure Python on numpy: frame I/O (:mod:`.frameio`),
resizing and channel extraction (:mod:`.preprocess`), a minimal CNN
inference engine with a portable weight container (:mod:`.nn`), the
fusion logic itself (:mod:`.ensemble`), evaluation and simulation
(:mod:`.evaluate`), configuration (:mod:`.config`), the end-to-end
pipeline (:mod:`.pipeline`), and a CLI (:mod:`.cli`).
"""

from __future__ import annotations

from .config import (
    CnnModelConfig,
    MeanIntensityModelConfig,
    PipelineConfig,
    StageConfig,
    load_config,
    parse_config,
)
from .ensemble import (
    FusionConfig,
    PredictionSeries,
    chain_fuse,
    neighbor_validate,
    pack_mode,
)
from .errors import (
    FormatError,
    LoadError,
    ShapeError,
    ValidationError,
    VerisembleError,
)
from .evaluate import (
    DetectionEvent,
    FrameMetrics,
    ScoreReport,
    SplitMix64,
    events_from_series,
    frame_metrics,
    match_score,
    simulate_predictor,
)
from .frameio import (
    Frame,
    FrameSequence,
    GroundTruth,
    SequenceManifest,
    decode_ppm,
    encode_ppm,
    load_detections,
    load_ground_truth,
    load_manifest,
    open_sequence,
    write_detections,
)
from .nn import (
    LayerSpec,
    ModelSpec,
    classify,
    count_macs,
    count_params,
    default_model_spec,
    forward,
    load_weights,
    random_weights,
    save_weights,
)
from .pipeline import (
    CnnModel,
    MeanIntensityModel,
    PipelineResult,
    build_stage_models,
    run_pipeline,
)
from .preprocess import (
    BT601_LUMA,
    ChannelSubset,
    extract_features,
    resize_aa,
    to_grayscale,
)

__version__ = "1.0.0"

__all__ = [
    "BT601_LUMA",
    "ChannelSubset",
    "CnnModel",
    "CnnModelConfig",
    "DetectionEvent",
    "FormatError",
    "Frame",
    "FrameMetrics",
    "FrameSequence",
    "FusionConfig",
    "GroundTruth",
    "LayerSpec",
    "LoadError",
    "MeanIntensityModel",
    "MeanIntensityModelConfig",
    "ModelSpec",
    "PipelineConfig",
    "PipelineResult",
    "PredictionSeries",
    "ScoreReport",
    "SequenceManifest",
    "ShapeError",
    "SplitMix64",
    "StageConfig",
    "ValidationError",
    "VerisembleError",
    "build_stage_models",
    "chain_fuse",
    "classify",
    "count_macs",
    "count_params",
    "decode_ppm",
    "default_model_spec",
    "encode_ppm",
    "events_from_series",
    "extract_features",
    "forward",
    "frame_metrics",
    "load_config",
    "load_detections",
    "load_ground_truth",
    "load_manifest",
    "load_weights",
    "match_score",
    "neighbor_validate",
    "open_sequence",
    "pack_mode",
    "parse_config",
    "random_weights",
    "resize_aa",
    "run_pipeline",
    "save_weights",
    "simulate_predictor",
    "to_grayscale",
    "write_detections",
    "__version__",
]
