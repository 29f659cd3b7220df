"""Strict JSON pipeline configuration parsing."""

from __future__ import annotations

import json

import pytest

from verisemble import (
    ChannelSubset,
    CnnModelConfig,
    FormatError,
    FusionConfig,
    LoadError,
    MeanIntensityModelConfig,
    PipelineConfig,
    StageConfig,
    ValidationError,
    load_config,
    parse_config,
)
from verisemble.preprocess import BT601_LUMA


def minimal_obj() -> dict:
    return {
        "config_version": 1,
        "stages": [
            {"channels": "RGB", "model": {"type": "mean_intensity"}},
        ],
    }


def full_obj() -> dict:
    return {
        "config_version": 1,
        "input": {"width": 64, "height": 48},
        "threshold": 0.6,
        "fps": 25.0,
        "luma": [0.25, 0.5, 0.25],
        "fusion": {"pack_size": 5, "neighbor_window": 3},
        "stages": [
            {"channels": "RGB", "model": {"type": "mean_intensity"}},
            {"channels": "L", "model": {"type": "mean_intensity"}},
        ],
    }


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(minimal_obj())
        assert config.input_width == 300
        assert config.input_height == 300
        assert config.threshold == 0.5
        assert config.fps is None
        assert config.fusion == FusionConfig()
        assert config.luma_coefficients == BT601_LUMA
        assert len(config.stages) == 1
        assert config.stages[0].channels is ChannelSubset.RGB
        assert isinstance(config.stages[0].model, MeanIntensityModelConfig)

    def test_full_object(self):
        config = parse_config(full_obj())
        assert (config.input_width, config.input_height) == (64, 48)
        assert config.threshold == 0.6
        assert config.fps == 25.0
        assert config.luma_coefficients == (0.25, 0.5, 0.25)
        assert config.fusion.pack_size == 5
        assert [s.channels for s in config.stages] == [ChannelSubset.RGB, ChannelSubset.LUMA]

    def test_unknown_top_level_key(self):
        obj = minimal_obj()
        obj["extra"] = True
        with pytest.raises(FormatError, match="unknown keys.*extra"):
            parse_config(obj)

    def test_seed_is_not_a_config_key(self):
        obj = minimal_obj()
        obj["seed"] = 7
        with pytest.raises(FormatError, match=r"unknown keys \['seed'\]"):
            parse_config(obj)

    def test_missing_version(self):
        obj = minimal_obj()
        del obj["config_version"]
        with pytest.raises(FormatError, match="config_version"):
            parse_config(obj)

    def test_wrong_version(self):
        obj = minimal_obj()
        obj["config_version"] = 2
        with pytest.raises(FormatError, match="unsupported config_version"):
            parse_config(obj)

    def test_missing_stages(self):
        with pytest.raises(FormatError, match="stages"):
            parse_config({"config_version": 1})

    def test_empty_stages(self):
        obj = minimal_obj()
        obj["stages"] = []
        with pytest.raises(FormatError, match="non-empty"):
            parse_config(obj)

    def test_stages_not_a_list(self):
        obj = minimal_obj()
        obj["stages"] = {"channels": "RGB"}
        with pytest.raises(FormatError):
            parse_config(obj)

    def test_not_a_mapping(self):
        with pytest.raises(FormatError, match="JSON object"):
            parse_config([1, 2, 3])


class TestStageParsing:
    def test_unknown_stage_key_names_position(self):
        obj = minimal_obj()
        obj["stages"][0]["threshold"] = 0.5
        with pytest.raises(FormatError, match="stage 0"):
            parse_config(obj)

    def test_missing_model(self):
        obj = minimal_obj()
        del obj["stages"][0]["model"]
        with pytest.raises(FormatError, match="stage 0.*missing"):
            parse_config(obj)

    def test_bad_channel_subset(self):
        obj = minimal_obj()
        obj["stages"][0]["channels"] = "XYZ"
        with pytest.raises(FormatError, match="stage 0"):
            parse_config(obj)

    def test_unknown_model_type(self):
        obj = minimal_obj()
        obj["stages"][0]["model"] = {"type": "svm"}
        with pytest.raises(FormatError, match="unknown type"):
            parse_config(obj)

    def test_cnn_model_requires_weights(self):
        obj = minimal_obj()
        obj["stages"][0]["model"] = {"type": "cnn"}
        with pytest.raises(FormatError, match="weights"):
            parse_config(obj)

    def test_cnn_model_rejects_empty_weights(self):
        obj = minimal_obj()
        obj["stages"][0]["model"] = {"type": "cnn", "weights": ""}
        with pytest.raises(FormatError, match="weights"):
            parse_config(obj)

    def test_mean_intensity_takes_no_weights(self):
        obj = minimal_obj()
        obj["stages"][0]["model"] = {"type": "mean_intensity", "weights": "x"}
        with pytest.raises(FormatError, match="no 'weights'"):
            parse_config(obj)

    def test_relative_weights_resolved_against_base_dir(self, tmp_path):
        obj = minimal_obj()
        obj["stages"][0]["model"] = {"type": "cnn", "weights": "model.weights"}
        config = parse_config(obj, base_dir=tmp_path)
        assert config.stages[0].model.weights == str(tmp_path / "model.weights")

    def test_absolute_weights_kept(self, tmp_path):
        target = str(tmp_path / "abs.weights")
        obj = minimal_obj()
        obj["stages"][0]["model"] = {"type": "cnn", "weights": target}
        config = parse_config(obj, base_dir="/somewhere/else")
        assert config.stages[0].model.weights == target

    def test_cardinality_must_not_increase(self):
        obj = minimal_obj()
        obj["stages"] = [
            {"channels": "L", "model": {"type": "mean_intensity"}},
            {"channels": "RGB", "model": {"type": "mean_intensity"}},
        ]
        with pytest.raises(FormatError, match="cardinality"):
            parse_config(obj)

    def test_equal_cardinality_allowed(self):
        obj = minimal_obj()
        obj["stages"] = [
            {"channels": "RG", "model": {"type": "mean_intensity"}},
            {"channels": "GB", "model": {"type": "mean_intensity"}},
        ]
        config = parse_config(obj)
        assert [s.channels for s in config.stages] == [ChannelSubset.RG, ChannelSubset.GB]

    def test_decreasing_chain_allowed(self):
        obj = minimal_obj()
        obj["stages"] = [
            {"channels": "RGB", "model": {"type": "mean_intensity"}},
            {"channels": "RG", "model": {"type": "mean_intensity"}},
            {"channels": "L", "model": {"type": "mean_intensity"}},
        ]
        assert len(parse_config(obj).stages) == 3


class TestSectionParsing:
    def test_input_requires_both_dimensions(self):
        obj = minimal_obj()
        obj["input"] = {"width": 300}
        with pytest.raises(FormatError, match="input.*missing"):
            parse_config(obj)

    def test_input_unknown_key(self):
        obj = minimal_obj()
        obj["input"] = {"width": 300, "height": 300, "depth": 3}
        with pytest.raises(FormatError, match="input.*unknown"):
            parse_config(obj)

    def test_bad_input_size(self):
        obj = minimal_obj()
        obj["input"] = {"width": 0, "height": 300}
        with pytest.raises(FormatError, match="bad input size"):
            parse_config(obj)

    def test_partial_fusion_uses_defaults(self):
        obj = minimal_obj()
        obj["fusion"] = {"pack_size": 5}
        config = parse_config(obj)
        assert config.fusion.pack_size == 5
        assert config.fusion.neighbor_window == 3

    def test_invalid_fusion_values(self):
        obj = minimal_obj()
        obj["fusion"] = {"pack_size": 2}
        with pytest.raises(FormatError, match="fusion"):
            parse_config(obj)

    def test_fusion_unknown_key(self):
        obj = minimal_obj()
        obj["fusion"] = {"window": 3}
        with pytest.raises(FormatError, match="fusion.*unknown"):
            parse_config(obj)

    @pytest.mark.parametrize("packing", [True, False])
    def test_packing_enabled_is_an_unknown_fusion_key(self, packing):
        """Fusion is set by ``pack_size`` and ``neighbor_window`` alone; the
        old switch is named as the one unknown key beside them."""
        obj = minimal_obj()
        obj["fusion"] = {"pack_size": 1, "neighbor_window": 1, "packing_enabled": packing}
        with pytest.raises(FormatError) as exc:
            parse_config(obj)
        assert str(exc.value) == "fusion: unknown keys ['packing_enabled']"

    def test_bad_luma_shape(self):
        obj = minimal_obj()
        obj["luma"] = [0.5, 0.5]
        with pytest.raises(FormatError, match="luma"):
            parse_config(obj)

    def test_negative_luma(self):
        obj = minimal_obj()
        obj["luma"] = [0.5, -0.1, 0.6]
        with pytest.raises(FormatError, match="luma"):
            parse_config(obj)

    def test_threshold_bounds(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            obj = minimal_obj()
            obj["threshold"] = bad
            with pytest.raises(FormatError, match="threshold"):
                parse_config(obj)

    def test_bad_fps(self):
        obj = minimal_obj()
        obj["fps"] = 0
        with pytest.raises(FormatError, match="fps"):
            parse_config(obj)

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("threshold", "0.5", "threshold"),
            ("threshold", True, "threshold"),
            ("fps", "25", "fps"),
            ("input", {"width": "300", "height": 300}, "width"),
            ("input", {"width": 300, "height": 2.5}, "height"),
            ("luma", [0.3, "0.5", 0.2], "luma"),
            ("luma", [False, 0.5, 0.2], "luma"),
            ("fusion", {"pack_size": True}, "pack_size"),
            ("fusion", {"neighbor_window": "3"}, "neighbor_window"),
            ("fusion", {"packing_enabled": "yes"}, "packing_enabled"),
        ],
        # Fixed ids keep each case's name stable when a case is added or removed.
        ids=[
            "threshold-0.5-threshold",
            "threshold-True-threshold",
            "fps-25-fps",
            "input-value4-width",
            "input-value5-height",
            "luma-value6-luma",
            "luma-value7-luma",
            "fusion-value8-pack_size",
            "fusion-value9-neighbor_window",
            "fusion-value10-packing_enabled",
        ],
    )
    def test_mistyped_field_is_a_format_error(self, key, value, field):
        obj = minimal_obj()
        obj[key] = value
        with pytest.raises(FormatError, match=field):
            parse_config(obj)

    def test_integer_accepted_where_a_number_is_due(self):
        obj = minimal_obj()
        obj["fps"] = 25
        obj["luma"] = [0, 1, 0]
        config = parse_config(obj)
        assert config.fps == 25
        assert config.luma_coefficients == (0.0, 1.0, 0.0)


class TestDataclassValidation:
    def test_pipeline_needs_stages(self):
        with pytest.raises(ValidationError, match="at least one stage"):
            PipelineConfig(stages=())

    def test_threshold_strictly_inside_unit_interval(self):
        stage = StageConfig(
            channels=ChannelSubset.RGB, model=MeanIntensityModelConfig()
        )
        with pytest.raises(ValidationError):
            PipelineConfig(stages=(stage,), threshold=1.0)
        PipelineConfig(stages=(stage,), threshold=0.99)

    def test_stage_type_checks(self):
        with pytest.raises(ValidationError, match="ChannelSubset"):
            StageConfig(channels="RGB", model=MeanIntensityModelConfig())
        with pytest.raises(ValidationError, match="unsupported"):
            StageConfig(channels=ChannelSubset.RGB, model="cnn")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("threshold", "0.5", "threshold"),
            ("threshold", True, "threshold"),
            ("fps", "25", "fps"),
            ("fps", False, "fps"),
            ("input_width", True, "input_width"),
            ("input_width", 2.5, "input_width"),
            ("input_height", "300", "input_height"),
            ("luma_coefficients", ("0.3", False, 1), "luma"),
            ("luma_coefficients", (0.3, 0.5), "luma"),
            ("luma_coefficients", 0.3, "luma"),
            ("luma_coefficients", (10**400, 0, 0), "luma"),
            ("luma_coefficients", (float("inf"), 0, 0), "luma"),
            ("luma_coefficients", (float("nan"), 0, 0), "luma"),
            ("fusion", {"pack_size": 3}, "fusion"),
            ("stages", ("RGB",), "stage"),
        ],
    )
    def test_mistyped_field_on_direct_construction(self, field, value, match):
        stage = StageConfig(channels=ChannelSubset.RGB, model=MeanIntensityModelConfig())
        kwargs = {"stages": (stage,), field: value}
        with pytest.raises(ValidationError, match=match):
            PipelineConfig(**kwargs)

    def test_integers_accepted_where_a_number_is_due(self):
        stage = StageConfig(channels=ChannelSubset.RGB, model=MeanIntensityModelConfig())
        config = PipelineConfig(stages=[stage], luma_coefficients=[0, 1, 0], fps=25)
        assert config.luma_coefficients == (0.0, 1.0, 0.0)
        assert config.fps == 25
        assert config.stages == (stage,)

    def test_cnn_config_needs_path(self):
        with pytest.raises(ValidationError):
            CnnModelConfig(weights="")

    def test_cardinality_check_on_direct_construction(self):
        stages = (
            StageConfig(channels=ChannelSubset.LUMA, model=MeanIntensityModelConfig()),
            StageConfig(channels=ChannelSubset.RGB, model=MeanIntensityModelConfig()),
        )
        with pytest.raises(ValidationError, match="cardinality"):
            PipelineConfig(stages=stages)


class TestLoadConfig:
    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(full_obj()))
        config = load_config(path)
        assert config.fps == 25.0
        assert len(config.stages) == 2

    def test_relative_weights_resolve_against_config_dir(self, tmp_path):
        obj = minimal_obj()
        obj["stages"][0]["model"] = {"type": "cnn", "weights": "nested/w.weights"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        config = load_config(path)
        assert config.stages[0].model.weights == str(tmp_path / "nested" / "w.weights")

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="JSON"):
            load_config(path)

    def test_json_with_wrong_schema(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(FormatError):
            load_config(path)
