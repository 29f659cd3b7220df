"""Pipeline configuration: typed model, strict JSON loading.

A configuration describes the whole detection pipeline: the ordered
classifier stages (channel subset plus model backing each), fusion
parameters, input geometry and decision threshold. Parsing is strict on
purpose: unknown keys and missing required keys are errors, so a typo in
a config file fails loudly instead of silently running with defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Union

from .ensemble import FusionConfig
from .errors import (
    FormatError,
    LoadError,
    ValidationError,
    _check_fps,
    _is_finite_number,
    _is_int_at_least,
    _read_json,
    _require_keys,
)
from .preprocess import ChannelSubset

__all__ = [
    "CONFIG_VERSION",
    "CnnModelConfig",
    "MeanIntensityModelConfig",
    "ModelConfig",
    "StageConfig",
    "PipelineConfig",
    "load_config",
    "parse_config",
]

CONFIG_VERSION = 1


@dataclass(frozen=True)
class CnnModelConfig:
    """A stage backed by a trained network stored in a weight container."""

    weights: str

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValidationError("cnn model config needs a weights path")


@dataclass(frozen=True)
class MeanIntensityModelConfig:
    """A weightless stage scoring each frame by its mean feature value.

    Deterministic and model-free; useful for pipeline plumbing tests and
    synthetic demos where real weights would add nothing.
    """


ModelConfig = Union[CnnModelConfig, MeanIntensityModelConfig]


@dataclass(frozen=True)
class StageConfig:
    """One classifier stage: which channels it sees and what scores them."""

    channels: ChannelSubset
    model: ModelConfig

    def __post_init__(self) -> None:
        if not isinstance(self.channels, ChannelSubset):
            raise ValidationError(f"channels must be a ChannelSubset, got {self.channels!r}")
        if not isinstance(self.model, (CnnModelConfig, MeanIntensityModelConfig)):
            raise ValidationError(f"unsupported stage model: {self.model!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run the detection pipeline on a sequence.

    Stages run in order: the first proposes, the rest verify. Channel
    cardinality must not increase along the chain, matching the idea
    that each verifier sees a reduced view of the same frame.
    """

    stages: tuple[StageConfig, ...]
    fusion: FusionConfig = field(default_factory=FusionConfig)
    input_width: int = 300
    input_height: int = 300
    threshold: float = 0.5
    fps: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValidationError("pipeline needs at least one stage")
        for stage in self.stages:
            if not isinstance(stage, StageConfig):
                raise ValidationError(f"each stage must be a StageConfig, got {stage!r}")
        if not isinstance(self.fusion, FusionConfig):
            raise ValidationError(f"fusion must be a FusionConfig, got {self.fusion!r}")
        cards = [stage.channels.cardinality for stage in self.stages]
        for earlier, later in zip(cards, cards[1:]):
            if later > earlier:
                raise ValidationError(
                    f"stage channel cardinality must not increase along the "
                    f"chain, got {cards}"
                )
        for name in ("input_width", "input_height"):
            if not _is_int_at_least(getattr(self, name), 1):
                raise ValidationError(
                    f"bad input size: {name} must be an int >= 1, got {getattr(self, name)!r}"
                )
        if not (_is_finite_number(self.threshold) and 0.0 < self.threshold < 1.0):
            raise ValidationError(
                f"threshold must be a number strictly between 0 and 1, got {self.threshold!r}"
            )
        if self.fps is not None:
            _check_fps(self.fps)


def _parse_model(obj: Mapping, base_dir: Path) -> ModelConfig:
    _require_keys(obj, {"type", "weights"}, {"type"}, "stage model")
    kind = obj["type"]
    if kind == "cnn":
        if "weights" not in obj:
            raise FormatError("cnn stage model: missing 'weights'")
        weights = obj["weights"]
        if not isinstance(weights, str) or not weights:
            raise FormatError(f"cnn stage model: bad weights path {weights!r}")
        resolved = Path(weights)
        if not resolved.is_absolute():
            resolved = base_dir / resolved
        return CnnModelConfig(weights=str(resolved))
    if kind == "mean_intensity":
        if "weights" in obj:
            raise FormatError("mean_intensity stage model takes no 'weights'")
        return MeanIntensityModelConfig()
    raise FormatError(f"stage model: unknown type {kind!r}")


def _parse_stage(obj: Mapping, base_dir: Path, position: int) -> StageConfig:
    where = f"stage {position}"
    _require_keys(obj, {"channels", "model"}, {"channels", "model"}, where)
    try:
        channels = ChannelSubset.parse(obj["channels"])
    except (ValueError, ValidationError) as exc:
        raise FormatError(f"{where}: {exc}") from exc
    return StageConfig(channels=channels, model=_parse_model(obj["model"], base_dir))


def _parse_fusion(obj: Mapping) -> FusionConfig:
    _require_keys(obj, {"pack_size", "neighbor_window"}, set(), "fusion")
    try:
        return FusionConfig(**obj)
    except ValidationError as exc:
        raise FormatError(f"fusion: {exc}") from exc


def parse_config(obj: Mapping, base_dir: str | Path = ".") -> PipelineConfig:
    """Build a :class:`PipelineConfig` from a parsed JSON object.

    Relative weight paths are resolved against ``base_dir`` (normally the
    config file's directory) so a config bundle can be moved as a unit.
    """
    base_dir = Path(base_dir)
    allowed = {"config_version", "input", "threshold", "fps", "fusion", "stages"}
    _require_keys(obj, allowed, {"config_version", "stages"}, "config")
    if obj["config_version"] != CONFIG_VERSION:
        raise FormatError(
            f"unsupported config_version {obj['config_version']!r}, "
            f"expected {CONFIG_VERSION}"
        )

    # Only the keys the JSON gives; every default lives on the dataclasses.
    fields = {key: obj[key] for key in ("threshold", "fps") if key in obj}
    if "input" in obj:
        _require_keys(obj["input"], {"width", "height"}, {"width", "height"}, "input")
        fields["input_width"] = obj["input"]["width"]
        fields["input_height"] = obj["input"]["height"]

    if not isinstance(obj["stages"], list) or not obj["stages"]:
        raise FormatError("config: 'stages' must be a non-empty list")
    fields["stages"] = tuple(
        _parse_stage(entry, base_dir, i) for i, entry in enumerate(obj["stages"])
    )

    if "fusion" in obj:
        fields["fusion"] = _parse_fusion(obj["fusion"])

    try:
        return PipelineConfig(**fields)
    except ValidationError as exc:
        raise FormatError(f"config: {exc}") from exc


def load_config(path: str | Path) -> PipelineConfig:
    """Read and parse a config file; relative paths resolve against it."""
    path = Path(path)
    try:
        obj = _read_json(path, str(path))
    except FileNotFoundError as exc:
        raise LoadError(f"config file not found: {path}") from exc
    return parse_config(obj, base_dir=path.parent)
