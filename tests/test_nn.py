"""Model specs, layer operations, forward pass, and the weight container."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verisemble import (
    ChannelSubset,
    FormatError,
    Frame,
    LayerSpec,
    LoadError,
    ModelSpec,
    ShapeError,
    ValidationError,
    classify,
    count_macs,
    count_params,
    default_model_spec,
    extract_features,
    forward,
    load_weights,
    random_weights,
    resize_aa,
    save_weights,
)
from verisemble import cli, cores, nn, preprocess
from verisemble.nn import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    batchnorm_infer,
    conv2d,
    dense,
    expected_weight_shapes,
    flatten,
    maxpool2,
    relu,
    sigmoid,
    validate_weights,
)

import oracles
from conftest import GOLDEN_COLORS, write_sequence


def tiny_spec() -> ModelSpec:
    """Smallest real model: one conv block, flatten, sigmoid head."""
    return ModelSpec(
        input_shape=(4, 4, 2),
        layers=(
            LayerSpec.conv("c1", 2, (3, 3), activation="relu"),
            LayerSpec.maxpool("p1"),
            LayerSpec.batchnorm("b1"),
            LayerSpec.flatten(),
            LayerSpec.dense("out", 1, activation="sigmoid"),
        ),
    )


def head_spec() -> ModelSpec:
    """Flatten + single sigmoid unit over a (1, 1, 1) input."""
    return ModelSpec(
        input_shape=(1, 1, 1),
        layers=(
            LayerSpec.flatten(),
            LayerSpec.dense("out", 1, activation="sigmoid"),
        ),
    )


def random_tensor(rng: random.Random, h: int, w: int, c: int) -> np.ndarray:
    values = [rng.uniform(-2.0, 2.0) for _ in range(h * w * c)]
    return np.array(values, dtype=np.float64).reshape(h, w, c)


class TestLayerSpec:
    def test_constructors_round_trip_json(self):
        layers = [
            LayerSpec.conv("c", 8, (3, 3), stride=2, padding="valid", activation="relu"),
            LayerSpec.conv("plain", 4, (1, 1)),
            LayerSpec.maxpool("p", pool=3),
            LayerSpec.batchnorm("b"),
            LayerSpec.flatten("f"),
            LayerSpec.dense("d", 16, activation="sigmoid"),
            LayerSpec.dense("linear", 2),
            LayerSpec.dropout("drop", 0.2),
            LayerSpec.act("a", "relu"),
        ]
        for layer in layers:
            assert LayerSpec.from_json_obj(layer.to_json_obj()) == layer

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            LayerSpec(kind="avgpool", name="x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            LayerSpec.batchnorm("")

    def test_missing_required_field(self):
        with pytest.raises(ValidationError, match="requires"):
            LayerSpec(kind="conv2d", name="c", kernel=(3, 3))  # no filters
        with pytest.raises(ValidationError, match="requires"):
            LayerSpec(kind="dense", name="d")  # no units
        with pytest.raises(ValidationError, match="requires"):
            LayerSpec(kind="dropout", name="r")  # no rate

    def test_irrelevant_field_rejected(self):
        with pytest.raises(ValidationError, match="does not take"):
            LayerSpec(kind="batchnorm", name="b", units=4)
        with pytest.raises(ValidationError, match="does not take"):
            LayerSpec(kind="flatten", name="f", rate=0.5)
        with pytest.raises(ValidationError, match="does not take"):
            LayerSpec(kind="maxpool2", name="p", activation="relu")

    def test_value_checks(self):
        with pytest.raises(ValidationError):
            LayerSpec.conv("c", 0, (3, 3))
        with pytest.raises(ValidationError):
            LayerSpec.conv("c", 4, (0, 3))
        with pytest.raises(ValidationError):
            LayerSpec.conv("c", 4, (3, 3), stride=0)
        with pytest.raises(ValidationError):
            LayerSpec.conv("c", 4, (3, 3), padding="full")
        with pytest.raises(ValidationError):
            LayerSpec.conv("c", 4, (3, 3), activation="tanh")
        with pytest.raises(ValidationError):
            LayerSpec.maxpool("p", pool=1)
        with pytest.raises(ValidationError):
            LayerSpec.dense("d", 0)
        with pytest.raises(ValidationError):
            LayerSpec.dropout("r", 1.0)
        with pytest.raises(ValidationError):
            LayerSpec.dropout("r", -0.1)
        with pytest.raises(ValidationError):
            LayerSpec.act("a", "unknown")

    def test_from_json_unknown_keys(self):
        with pytest.raises(FormatError, match="unknown keys"):
            LayerSpec.from_json_obj({"kind": "batchnorm", "name": "b", "units": 1})

    def test_from_json_unknown_kind(self):
        with pytest.raises(FormatError, match="unknown kind"):
            LayerSpec.from_json_obj({"kind": "softmax", "name": "s"})

    def test_from_json_missing_name(self):
        with pytest.raises(FormatError):
            LayerSpec.from_json_obj({"kind": "flatten"})

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "conv2d", "filters": "16", "kernel": (3, 3)},
            {"kind": "conv2d", "filters": True, "kernel": (3, 3)},
            {"kind": "conv2d", "filters": 16, "kernel": 3},
            {"kind": "conv2d", "filters": 16, "kernel": (3, 3.0)},
            {"kind": "conv2d", "filters": 16, "kernel": (3, 3, 3)},
            {"kind": "conv2d", "filters": 16, "kernel": (3, 3), "stride": True},
            {"kind": "conv2d", "filters": 16, "kernel": (3, 3), "padding": ["same"]},
            {"kind": "maxpool2", "pool": 2.0},
            {"kind": "dense", "units": 1.0},
            {"kind": "dropout", "rate": "0.2"},
            {"kind": "dropout", "rate": False},
            {"kind": "dropout", "rate": math.nan},
            {"kind": ["conv2d"]},
            {"kind": None},
        ],
    )
    def test_mistyped_field_rejected(self, fields):
        with pytest.raises(ValidationError):
            LayerSpec(name="x", **fields)
        with pytest.raises(FormatError):
            LayerSpec.from_json_obj({"name": "x", **fields})

    @pytest.mark.parametrize("name", [5, None, ["x"], ""])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ValidationError, match="name"):
            LayerSpec(kind="flatten", name=name)

    def test_unset_optional_fields_take_defaults(self):
        assert LayerSpec(kind="maxpool2", name="p").pool == 2
        conv = LayerSpec(kind="conv2d", name="c", filters=1, kernel=[3, 3])
        assert (conv.kernel, conv.stride, conv.padding, conv.activation) == ((3, 3), 1, "same", None)
        with pytest.raises(ValidationError, match="does not take"):
            LayerSpec(kind="dense", name="d", units=1, stride=1)


class TestModelSpec:
    def test_tiny_spec_shapes(self):
        spec = tiny_spec()
        assert spec.output_shapes() == [
            (4, 4, 2),  # conv, same padding
            (2, 2, 2),  # pool
            (2, 2, 2),  # batchnorm
            (8,),       # flatten
            (1,),       # head
        ]
        assert spec.layer_input_shapes()[0] == (4, 4, 2)
        assert spec.layer_input_shapes()[-1] == (8,)

    def test_json_round_trip(self):
        for spec in (tiny_spec(), head_spec(), default_model_spec()):
            restored = ModelSpec.from_json_obj(spec.to_json_obj())
            assert restored == spec

    def test_must_end_in_single_unit(self):
        with pytest.raises(ValidationError, match="single output unit"):
            ModelSpec(
                input_shape=(1, 1, 1),
                layers=(
                    LayerSpec.flatten(),
                    LayerSpec.dense("out", 2, activation="sigmoid"),
                ),
            )

    def test_must_end_in_sigmoid(self):
        with pytest.raises(ValidationError, match="sigmoid"):
            ModelSpec(
                input_shape=(1, 1, 1),
                layers=(
                    LayerSpec.flatten(),
                    LayerSpec.dense("out", 1, activation="relu"),
                ),
            )

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValidationError):
            ModelSpec(input_shape=(1, 1, 1), layers=())

    def test_trailing_dropout_allowed(self):
        spec = ModelSpec(
            input_shape=(1, 1, 1),
            layers=(
                LayerSpec.flatten(),
                LayerSpec.dense("out", 1, activation="sigmoid"),
                LayerSpec.dropout("late", 0.1),
            ),
        )
        assert spec.output_shapes()[-1] == (1,)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            ModelSpec(
                input_shape=(1, 1, 1),
                layers=(
                    LayerSpec.flatten("x"),
                    LayerSpec.dense("x", 1, activation="sigmoid"),
                ),
            )

    def test_bad_input_shape_rejected(self):
        with pytest.raises(ValidationError):
            ModelSpec(input_shape=(0, 4, 3), layers=tiny_spec().layers)

    def test_conv_after_flatten_rejected(self):
        with pytest.raises(ValidationError, match="3-D"):
            ModelSpec(
                input_shape=(4, 4, 1),
                layers=(
                    LayerSpec.flatten(),
                    LayerSpec.conv("c", 1, (1, 1)),
                    LayerSpec.dense("out", 1, activation="sigmoid"),
                ),
            )

    def test_from_json_unknown_keys(self):
        obj = tiny_spec().to_json_obj()
        obj["extra"] = 1
        with pytest.raises(FormatError, match="unknown keys"):
            ModelSpec.from_json_obj(obj)

    def test_from_json_missing_sections(self):
        with pytest.raises(FormatError):
            ModelSpec.from_json_obj({"input": [1, 1, 1]})
        with pytest.raises(FormatError):
            ModelSpec.from_json_obj({"layers": []})

    def test_from_json_invalid_model_becomes_format_error(self):
        obj = {
            "input": [1, 1, 1],
            "layers": [
                {"kind": "flatten", "name": "f"},
                {"kind": "dense", "name": "out", "units": 1, "activation": "relu"},
            ],
        }
        with pytest.raises(FormatError, match="sigmoid"):
            ModelSpec.from_json_obj(obj)

    def test_from_json_layers_must_be_a_list(self):
        obj = tiny_spec().to_json_obj()
        obj["layers"] = 5
        with pytest.raises(FormatError, match="layers"):
            ModelSpec.from_json_obj(obj)

    @pytest.mark.parametrize("shape", [(32.5, 32, 3), (True, 4, 2), (4, 4, "2"), (4, 4)])
    def test_input_shape_entries_must_be_ints(self, shape):
        with pytest.raises(ValidationError, match="input shape"):
            ModelSpec(input_shape=shape, layers=tiny_spec().layers)
        obj = tiny_spec().to_json_obj()
        obj["input"] = list(shape)
        with pytest.raises(FormatError, match="input shape"):
            ModelSpec.from_json_obj(obj)


    @pytest.mark.parametrize(
        "shape, layers, message",
        [
            (
                (4, 4, 1),
                (LayerSpec.conv("c", 1, (5, 3), padding="valid"),),
                "layer c: input 4x4 smaller than kernel 5x3",
            ),
            (
                (4, 4, 1),
                (LayerSpec.flatten(), LayerSpec.maxpool("p")),
                "layer p: maxpool needs a 3-D input, got (16,)",
            ),
            (
                (4, 4, 1),
                (LayerSpec.flatten(), LayerSpec.batchnorm("b")),
                "layer b: batchnorm needs a 3-D input, got (16,)",
            ),
            (
                (4, 4, 1),
                (LayerSpec.dense("d", 1, activation="sigmoid"),),
                "layer d: dense needs a flat input, got (4, 4, 1)",
            ),
            ((1, 1, 1), (LayerSpec.flatten(),), "model must end with a sigmoid activation"),
        ],
    )
    def test_shape_and_head_checks(self, shape, layers, message):
        with pytest.raises(ValidationError) as caught:
            ModelSpec(input_shape=shape, layers=layers)
        assert str(caught.value) == message
        obj = {"input": list(shape), "layers": [layer.to_json_obj() for layer in layers]}
        with pytest.raises(FormatError) as caught:
            ModelSpec.from_json_obj(obj)
        assert str(caught.value) == message


class TestConv2d:
    def test_identity_kernel_preserves_input(self):
        x = random_tensor(random.Random(1), 5, 4, 3)
        # 1x1 kernel mapping channel c -> filter c with weight 1.
        kernel = np.eye(3).reshape(1, 1, 3, 3)
        out = conv2d(x, kernel, np.zeros(3))
        assert np.allclose(out, x, atol=0)

    def test_all_ones_kernel_counts_neighbors(self):
        # Constant 0.5 input, 3x3 ones kernel, same padding: each output is
        # 0.5 times the number of in-bounds neighbors.
        x = np.full((4, 4, 1), 0.5)
        kernel = np.ones((3, 3, 1, 1))
        out = conv2d(x, kernel, np.zeros(1))
        assert out.shape == (4, 4, 1)
        assert out[0, 0, 0] == pytest.approx(2.0)   # corner: 4 neighbors
        assert out[0, 1, 0] == pytest.approx(3.0)   # edge: 6 neighbors
        assert out[1, 1, 0] == pytest.approx(4.5)   # interior: all 9

    def test_bias_added_per_filter(self):
        x = np.zeros((2, 2, 1))
        kernel = np.zeros((1, 1, 1, 3))
        out = conv2d(x, kernel, np.array([1.0, -2.0, 0.25]))
        assert np.allclose(out, np.broadcast_to([1.0, -2.0, 0.25], (2, 2, 3)))

    def test_stride_two_same_padding_shape(self):
        x = random_tensor(random.Random(2), 5, 5, 1)
        kernel = np.ones((3, 3, 1, 2))
        out = conv2d(x, kernel, np.zeros(2), stride=2)
        assert out.shape == (3, 3, 2)
        want = oracles.conv2d_ref(x.tolist(), kernel.tolist(), [0.0, 0.0], stride=2)
        assert np.allclose(out, np.array(want), atol=1e-9)

    def test_valid_padding(self):
        x = random_tensor(random.Random(3), 6, 5, 2)
        kernel = np.full((3, 3, 2, 1), 0.5)
        out = conv2d(x, kernel, np.array([1.0]), padding="valid")
        assert out.shape == (4, 3, 1)
        want = oracles.conv2d_ref(x.tolist(), kernel.tolist(), [1.0], padding="valid")
        assert np.allclose(out, np.array(want), atol=1e-9)

    def test_channel_mismatch_rejected(self):
        x = np.zeros((3, 3, 2))
        kernel = np.zeros((3, 3, 3, 4))
        with pytest.raises(ShapeError, match="channel mismatch"):
            conv2d(x, kernel, np.zeros(4))

    def test_bad_bias_rejected(self):
        with pytest.raises(ShapeError, match="bias"):
            conv2d(np.zeros((3, 3, 1)), np.zeros((3, 3, 1, 4)), np.zeros(3))

    def test_bad_stride_and_padding_rejected(self):
        x, k, b = np.zeros((3, 3, 1)), np.zeros((3, 3, 1, 1)), np.zeros(1)
        with pytest.raises(ValueError):
            conv2d(x, k, b, stride=0)
        with pytest.raises(ValueError):
            conv2d(x, k, b, padding="reflect")

    def test_input_and_kernel_ranks_checked(self):
        with pytest.raises(ShapeError) as caught:
            conv2d(np.zeros((3, 3)), np.zeros((3, 3, 1, 1)), np.zeros(1))
        assert str(caught.value) == "conv2d input must be 3-D, got shape (3, 3)"
        with pytest.raises(ShapeError) as caught:
            conv2d(np.zeros((3, 3, 1)), np.zeros((3, 3, 1)), np.zeros(1))
        assert str(caught.value) == "conv2d kernel must be 4-D, got shape (3, 3, 1)"

    def test_valid_padding_input_smaller_than_kernel(self):
        with pytest.raises(ShapeError, match="smaller"):
            conv2d(np.zeros((2, 2, 1)), np.zeros((3, 3, 1, 1)), np.zeros(1), padding="valid")

    def test_matches_reference_on_random_cases(self):
        rng = random.Random(77)
        for _ in range(40):
            h, w = rng.randint(1, 7), rng.randint(1, 7)
            c, f = rng.randint(1, 3), rng.randint(1, 3)
            kh, kw = rng.randint(1, 3), rng.randint(1, 3)
            stride = rng.randint(1, 2)
            padding = rng.choice(["same", "valid"])
            if padding == "valid" and (h < kh or w < kw):
                padding = "same"
            x = random_tensor(rng, h, w, c)
            kernel = np.array(
                [rng.uniform(-1, 1) for _ in range(kh * kw * c * f)]
            ).reshape(kh, kw, c, f)
            bias = np.array([rng.uniform(-1, 1) for _ in range(f)])
            got = conv2d(x, kernel, bias, stride=stride, padding=padding)
            want = oracles.conv2d_ref(
                x.tolist(), kernel.tolist(), bias.tolist(), stride=stride, padding=padding
            )
            assert np.allclose(got, np.array(want), atol=1e-9)


class TestMaxpool:
    def test_two_by_two(self):
        x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
        assert maxpool2(x).tolist() == [[[4.0]]]

    def test_trailing_row_and_column_dropped(self):
        x = np.arange(25, dtype=np.float64).reshape(5, 5, 1)
        out = maxpool2(x)
        assert out.shape == (2, 2, 1)
        assert out[:, :, 0].tolist() == [[6.0, 8.0], [16.0, 18.0]]

    def test_channels_pooled_independently(self):
        x = np.array([
            [[1.0, 40.0], [2.0, 30.0]],
            [[3.0, 20.0], [4.0, 10.0]],
        ])
        assert maxpool2(x).tolist() == [[[4.0, 40.0]]]

    def test_pool_three(self):
        x = np.arange(36, dtype=np.float64).reshape(6, 6, 1)
        out = maxpool2(x, pool=3)
        assert out.shape == (2, 2, 1)
        assert out[:, :, 0].tolist() == [[14.0, 17.0], [32.0, 35.0]]

    def test_too_small_input_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2(np.zeros((1, 4, 1)))

    def test_pool_below_two_rejected(self):
        with pytest.raises(ValueError):
            maxpool2(np.zeros((4, 4, 1)), pool=1)

    def test_input_rank_checked(self):
        with pytest.raises(ShapeError) as caught:
            maxpool2(np.zeros((4, 4)))
        assert str(caught.value) == "maxpool input must be 3-D, got shape (4, 4)"

    def test_matches_reference_on_random_cases(self):
        rng = random.Random(88)
        for _ in range(30):
            pool = rng.randint(2, 3)
            h, w = rng.randint(pool, 9), rng.randint(pool, 9)
            c = rng.randint(1, 3)
            x = random_tensor(rng, h, w, c)
            got = maxpool2(x, pool=pool)
            want = oracles.maxpool_ref(x.tolist(), pool=pool)
            assert np.allclose(got, np.array(want), atol=0)

    def test_bit_equal_to_windowed_max_reduction(self):
        # The sliding-window max reduction the strided fold replaced, on odd
        # sizes with trailing rows/cols, signed zeros and both pool sizes.
        rng = np.random.default_rng(41)
        cases = [(7, 9, 3, 2), (9, 7, 2, 3), (11, 13, 4, 3), (5, 5, 1, 2), (301, 299, 2, 2)]
        for h, w, c, pool in cases:
            x = rng.standard_normal((h, w, c))
            x[rng.random((h, w, c)) < 0.2] = 0.0
            x[rng.random((h, w, c)) < 0.2] = -0.0
            windows = np.lib.stride_tricks.sliding_window_view(x, (pool, pool), axis=(0, 1))
            want = windows[::pool, ::pool].max(axis=(3, 4))
            got = maxpool2(x, pool=pool)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestBatchnorm:
    def test_unit_statistics_scale(self):
        # gamma=1, beta=0, mean=0, var=1: x * 1/sqrt(1 + 0.001) exactly.
        x = np.ones((1, 1, 1))
        out = batchnorm_infer(x, [1.0], [0.0], [0.0], [1.0])
        assert out[0, 0, 0] == 0.9995003746877732
        assert out[0, 0, 0] == 1.0 / math.sqrt(1.001)

    def test_centering_and_shift(self):
        x = np.full((2, 2, 1), 5.0)
        out = batchnorm_infer(x, [1.0], [3.0], [5.0], [1.0])
        assert np.allclose(out, 3.0, atol=0)

    def test_zero_gamma_collapses_to_beta(self):
        x = random_tensor(random.Random(4), 3, 3, 2)
        out = batchnorm_infer(x, [0.0, 0.0], [1.5, -2.0], [0.1, 0.2], [1.0, 2.0])
        assert np.allclose(out[:, :, 0], 1.5, atol=0)
        assert np.allclose(out[:, :, 1], -2.0, atol=0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            batchnorm_infer(np.zeros((1, 1, 1)), [1.0], [0.0], [0.0], [-0.5])

    def test_wrong_parameter_shape_rejected(self):
        with pytest.raises(ShapeError):
            batchnorm_infer(np.zeros((1, 1, 2)), [1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])

    def test_matches_reference_on_random_cases(self):
        rng = random.Random(99)
        for _ in range(30):
            h, w, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
            x = random_tensor(rng, h, w, c)
            gamma = [rng.uniform(0.5, 1.5) for _ in range(c)]
            beta = [rng.uniform(-1, 1) for _ in range(c)]
            mean = [rng.uniform(-1, 1) for _ in range(c)]
            var = [rng.uniform(0.1, 2.0) for _ in range(c)]
            got = batchnorm_infer(x, gamma, beta, mean, var)
            want = oracles.batchnorm_ref(x.tolist(), gamma, beta, mean, var)
            assert np.allclose(got, np.array(want), atol=1e-12)


class TestDense:
    def test_plain_affine(self):
        out = dense(np.array([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, -0.5]))
        assert out.tolist() == [1.5, 1.5]

    def test_relu_clips_negative(self):
        out = dense(
            np.array([1.0]),
            np.array([[-1.0, 2.0]]),
            np.array([0.0, 0.0]),
            activation="relu",
        )
        assert out.tolist() == [0.0, 2.0]

    def test_sigmoid_of_one(self):
        out = dense(np.array([1.0]), np.array([[2.0]]), np.array([-1.0]), activation="sigmoid")
        assert out[0] == 0.7310585786300049

    def test_zero_input_sigmoid_is_half(self):
        out = dense(np.zeros(4), np.zeros((4, 1)), np.zeros(1), activation="sigmoid")
        assert out[0] == 0.5

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            dense(np.zeros((2, 2)), np.zeros((4, 1)), np.zeros(1))
        with pytest.raises(ShapeError):
            dense(np.zeros(3), np.zeros((4, 1)), np.zeros(1))
        with pytest.raises(ShapeError):
            dense(np.zeros(4), np.zeros((4, 2)), np.zeros(1))

    def test_matches_reference_on_random_cases(self):
        rng = random.Random(55)
        for _ in range(30):
            n_in, n_out = rng.randint(1, 8), rng.randint(1, 5)
            activation = rng.choice([None, "relu", "sigmoid"])
            x = [rng.uniform(-2, 2) for _ in range(n_in)]
            weights = [[rng.uniform(-1, 1) for _ in range(n_out)] for _ in range(n_in)]
            bias = [rng.uniform(-1, 1) for _ in range(n_out)]
            got = dense(np.array(x), np.array(weights), np.array(bias), activation)
            want = oracles.dense_ref(x, weights, bias, activation)
            assert np.allclose(got, np.array(want), atol=1e-12)


class TestFlatten:
    def test_row_major_channel_last_order(self):
        x = np.array([
            [[1.0, 2.0], [3.0, 4.0]],
            [[5.0, 6.0], [7.0, 8.0]],
        ])
        assert flatten(x).tolist() == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_single_channel(self):
        x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
        assert flatten(x).tolist() == [1, 2, 3, 4]

    def test_matches_reference(self):
        rng = random.Random(66)
        for _ in range(10):
            h, w, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
            x = random_tensor(rng, h, w, c)
            assert flatten(x).tolist() == oracles.flatten_ref(x.tolist())


class TestActivations:
    def test_relu(self):
        out = relu(np.array([-3.0, -0.0, 0.0, 2.5]))
        assert out.tolist() == [0.0, 0.0, 0.0, 2.5]

    def test_sigmoid_known_points(self):
        out = sigmoid(np.array([0.0, 1.0]))
        assert out[0] == 0.5
        assert out[1] == 0.7310585786300049

    def test_sigmoid_symmetry(self):
        v = sigmoid(np.array([0.7]))[0] + sigmoid(np.array([-0.7]))[0]
        assert v == pytest.approx(1.0, abs=1e-15)

    def test_sigmoid_stable_for_large_inputs(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0
        assert out[1] == 1.0


class TestForward:
    def test_zero_weights_give_half(self):
        spec = tiny_spec()
        weights = {
            name: {param: np.zeros(shape) for param, shape in params.items()}
            for name, params in expected_weight_shapes(spec).items()
        }
        # Zero variance is invalid for batchnorm; use unit variance.
        weights["b1"]["var"] = np.ones(2)
        x = random_tensor(random.Random(5), 4, 4, 2)
        assert forward(spec, weights, x) == 0.5

    def test_hand_composed_network(self):
        # conv (1x1 kernel 2.0, bias 0.5, relu) -> maxpool -> flatten ->
        # dense sigmoid with unit weight. Peak input value 4 gives
        # sigmoid(4 * 2 + 0.5) = sigmoid(8.5).
        spec = ModelSpec(
            input_shape=(2, 2, 1),
            layers=(
                LayerSpec.conv("c", 1, (1, 1), activation="relu"),
                LayerSpec.maxpool("p"),
                LayerSpec.flatten(),
                LayerSpec.dense("out", 1, activation="sigmoid"),
            ),
        )
        weights = {
            "c": {"kernel": np.full((1, 1, 1, 1), 2.0), "bias": np.array([0.5])},
            "out": {"kernel": np.array([[1.0]]), "bias": np.array([0.0])},
        }
        x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
        want = 1.0 / (1.0 + math.exp(-8.5))
        assert forward(spec, weights, x) == pytest.approx(want, abs=1e-15)

    def test_deterministic_across_runs(self):
        spec = tiny_spec()
        weights = random_weights(spec, seed=7)
        x = random_tensor(random.Random(6), 4, 4, 2)
        scores = {forward(spec, weights, x) for _ in range(5)}
        assert len(scores) == 1

    def test_output_in_unit_interval(self):
        spec = tiny_spec()
        for seed in range(10):
            weights = random_weights(spec, seed=seed)
            x = random_tensor(random.Random(seed), 4, 4, 2)
            score = forward(spec, weights, x)
            assert 0.0 <= score <= 1.0

    def test_dropout_is_identity_at_inference(self):
        base = tiny_spec()
        with_dropout = ModelSpec(
            input_shape=base.input_shape,
            layers=base.layers[:3]
            + (LayerSpec.dropout("drop", 0.9),)
            + base.layers[3:],
        )
        weights = random_weights(base, seed=11)
        x = random_tensor(random.Random(12), 4, 4, 2)
        assert forward(with_dropout, weights, x) == forward(base, weights, x)

    def test_wrong_input_shape_rejected(self):
        spec = tiny_spec()
        weights = random_weights(spec, seed=1)
        with pytest.raises(ShapeError, match="input shape"):
            forward(spec, weights, np.zeros((5, 4, 2)))

    def test_missing_layer_weights_name_the_layer(self):
        spec = tiny_spec()
        weights = random_weights(spec, seed=1)
        broken = {k: v for k, v in weights.items() if k != "b1"}
        with pytest.raises(ShapeError, match="b1"):
            forward(spec, broken, random_tensor(random.Random(0), 4, 4, 2))


def _conv_out(shape, kernel, stride, padding):
    h, w = shape[:2]
    if padding == "same":
        return -(-h // stride), -(-w // stride)
    return (h - kernel[0]) // stride + 1, (w - kernel[1]) // stride + 1


def _with_zeros(rng, arr):
    """Float32 copy of ``arr`` with about a tenth of its entries +0.0 or -0.0."""
    arr = arr.astype(np.float32)
    arr[rng.random(arr.shape) < 0.05] = 0.0
    arr[rng.random(arr.shape) < 0.05] = -0.0
    return arr


@st.composite
def conv_models(draw):
    """One or two conv blocks over a small odd- or even-sized input, then a
    sigmoid unit. Each block is a conv (1x1, 3x3 or 2x3 kernel, stride 1 or
    2, same or valid padding, relu, linear or sigmoid), an optional max-pool
    of 2 or 3 and an optional batchnorm. Returns (spec, weights, input)."""
    shape = (draw(st.integers(1, 24)), draw(st.integers(1, 24)), draw(st.integers(1, 3)))
    input_shape = shape
    layers = []
    for i in range(draw(st.integers(1, 2))):
        kernel = draw(st.sampled_from(((1, 1), (3, 3), (2, 3))))
        stride = draw(st.sampled_from((1, 2)))
        padding = draw(st.sampled_from(("same", "valid")))
        if shape[0] < kernel[0] or shape[1] < kernel[1]:
            padding = "same"
        activation = draw(st.sampled_from(("relu", None, "sigmoid")))
        filters = draw(st.integers(1, 8))
        layers.append(LayerSpec.conv(f"conv{i}", filters, kernel, stride, padding, activation))
        shape = _conv_out(shape, kernel, stride, padding) + (filters,)
        pool = draw(st.sampled_from((2, 3, None)))
        if pool is not None and min(shape[:2]) >= pool:
            layers.append(LayerSpec.maxpool(f"pool{i}", pool))
            shape = (shape[0] // pool, shape[1] // pool, filters)
        if draw(st.booleans()):
            layers.append(LayerSpec.batchnorm(f"bn{i}"))
    layers += [LayerSpec.flatten(), LayerSpec.dense("out", 1, activation="sigmoid")]
    spec = ModelSpec(input_shape=input_shape, layers=tuple(layers))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = {
        layer: {
            param: _with_zeros(rng, rng.uniform(0.0, 2.0, shape) if param == "var"
                               else rng.standard_normal(shape))
            for param, shape in params.items()
        }
        for layer, params in expected_weight_shapes(spec).items()
    }
    x = _with_zeros(rng, rng.standard_normal(input_shape)).astype(np.float64)
    return spec, weights, x


def assert_forward_matches_frozen(spec, weights, x):
    """``forward`` returns the frozen forward's score, and the tensor after
    each of its steps is bit-identical to the frozen forward's tensor after
    the last layer that step covers."""
    steps = []
    real = nn._forward_layer

    def record(layer, *args):
        out = real(layer, *args)
        steps.append((layer.name, out.copy()))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_forward_layer", record)
        score = forward(spec, weights, x)
    frozen = []
    assert score == oracles.forward_frozen(spec, weights, x, frozen)
    names = [name for name, _ in frozen]
    ends = [names.index(name) - 1 for name, _ in steps[1:]] + [len(names) - 1]
    for (name, got), end in zip(steps, ends):
        want = frozen[end][1]
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


class TestForwardMatchesFrozen:
    """The forward pass equals the earlier sliding-window + tensordot one
    bit for bit, relu convs that pool first included."""

    @settings(max_examples=1000, deadline=None)
    @given(conv_models())
    def test_random_conv_models(self, case):
        spec, weights, x = case
        assert_forward_matches_frozen(spec, weights, x)
        conv = spec.layers[0]
        params = weights[conv.name]
        got = conv2d(x, params["kernel"], params["bias"], conv.stride, conv.padding)
        want = oracles.conv2d_frozen(x, params["kernel"], params["bias"], conv.stride, conv.padding)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_seeded_relu_conv_pool_blocks(self):
        # A product computed by other BLAS code than the whole one may round
        # differently: numpy sends a 1-row or 1-column product to gemv, and
        # OpenBLAS has a small-matrix kernel for products of up to about
        # 10**6 multiply-adds, which changed the last bit of ~45% of random
        # GEMMs split into strips that small. These blocks are small enough
        # to run as one strip; sweep many of them.
        rng = np.random.default_rng(2006)
        for _ in range(300):
            kernel = ((3, 3), (2, 3))[rng.integers(2)]
            stride, pool = int(rng.integers(1, 3)), int(rng.integers(2, 4))
            h, w = (int(v) for v in rng.integers(2 * pool * stride, 31, 2))
            channels, filters = int(rng.integers(2, 9)), int(rng.integers(1, 9))
            spec = ModelSpec(
                input_shape=(h, w, channels),
                layers=(
                    LayerSpec.conv("conv", filters, kernel, stride, activation="relu"),
                    LayerSpec.maxpool("pool", pool),
                    LayerSpec.flatten(),
                    LayerSpec.dense("out", 1, activation="sigmoid"),
                ),
            )
            weights = {
                layer: {p: rng.standard_normal(shape).astype(np.float32) for p, shape in params.items()}
                for layer, params in expected_weight_shapes(spec).items()
            }
            assert_forward_matches_frozen(spec, weights, rng.standard_normal((h, w, channels)))

    def test_standalone_activation_layers(self):
        """A relu layer after a linear conv and a sigmoid layer after a
        linear dense each run as their own step."""
        rng = np.random.default_rng(2301)
        spec = ModelSpec(
            input_shape=(6, 5, 2),
            layers=(
                LayerSpec.conv("conv", 3, (3, 3)),
                LayerSpec.act("relu", "relu"),
                LayerSpec.flatten(),
                LayerSpec.dense("out", 1),
                LayerSpec.act("sigmoid", "sigmoid"),
            ),
        )
        weights = {
            layer: {p: rng.standard_normal(shape).astype(np.float32) for p, shape in params.items()}
            for layer, params in expected_weight_shapes(spec).items()
        }
        assert_forward_matches_frozen(spec, weights, rng.standard_normal((6, 5, 2)))

    @pytest.mark.parametrize("channels", [3, 1])
    def test_stock_model_at_300(self, channels):
        spec = default_model_spec(channels=channels)
        weights = random_weights(spec, seed=channels)
        x = np.random.default_rng(channels).random((300, 300, channels))
        assert_forward_matches_frozen(spec, weights, x)


@pytest.fixture(params=[1, 2], ids=["blas1", "blas2"])
def blas_threads(request):
    """Runs the test with numpy's OpenBLAS held at 1, then 2 threads."""
    api = cores._blas_thread_api()
    if api is None:
        pytest.skip("no OpenBLAS thread control in this numpy")
    get, put = api
    saved = get()
    put(request.param)
    yield request.param
    put(saved)


def strip_cases(count: int):
    """``count`` seeded mid-size conv blocks that each run in several strips:
    ``(case, x, kernel, bias, stride, padding, pool)``."""
    rng = np.random.default_rng(2131)
    engaged = 0
    while engaged < count:
        h, w = (int(v) for v in rng.integers(24, 121, 2))
        channels, filters = int(rng.integers(1, 25)), int(rng.integers(1, 49))
        kh, kw = (int(v) for v in rng.integers(1, 6, 2))
        stride, pool = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        padding = ("same", "valid")[rng.integers(2)]
        out_h, out_w = _conv_out((h, w), (kh, kw), stride, padding)
        depth = kh * kw * channels
        if min(out_h, out_w) < pool or len(nn._strip_bounds(out_h, out_w, depth, filters, pool)) < 3:
            continue
        engaged += 1
        x = rng.standard_normal((h, w, channels))
        kernel = rng.standard_normal((kh, kw, channels, filters)).astype(np.float32)
        bias = rng.standard_normal(filters).astype(np.float32)
        case = (h, w, channels, filters, kh, kw, stride, pool, padding)
        yield case, x, kernel, bias, stride, padding, pool


def frozen_conv(x, kernel, bias, stride, padding, pool) -> np.ndarray:
    want = oracles.conv2d_frozen(x, kernel, bias, stride, padding)
    return oracles._maxpool_frozen(want, pool) if pool > 1 else want


def test_conv_strips_match_the_whole_product(blas_threads):
    """Mid-size conv blocks, each run in several strips, are bit-identical
    to the whole-frame product (then max-pooled) at 1 and 2 BLAS threads."""
    for case, *args in strip_cases(60):
        want = frozen_conv(*args)
        got = conv2d(*args)
        assert got.shape == want.shape, case
        assert got.tobytes() == want.tobytes(), case


def test_conv_strips_spread_over_helpers_match_the_whole_product(lent_helpers):
    """The same blocks, their strips spread over 0, 1 and 3 helper threads
    at one BLAS thread, equal the frozen product and the calling thread's
    own result byte for byte."""
    for case, *args in strip_cases(60):
        want = frozen_conv(*args)
        got = lent_helpers(conv2d, *args)
        assert got.shape == want.shape, case
        assert got.tobytes() == want.tobytes() == conv2d(*args).tobytes(), case


def padded_strip_cases(seed: int, kernels, strides, padding: str, strips: int):
    """Seeded conv blocks over inputs of 24-96 rows and columns, each
    ``(x, kernel, bias, stride, padding, pool)`` and running in at least
    ``strips`` strips. With "same" padding, every case pads each axis by an
    odd number of rows or columns whenever its kernel is even."""
    rng = np.random.default_rng(seed)
    while True:
        h, w = (int(v) for v in rng.integers(24, 97, 2))
        channels, filters = int(rng.integers(2, 9)), int(rng.integers(8, 33))
        kh, kw = kernels[rng.integers(len(kernels))]
        stride, pool = strides[rng.integers(len(strides))], int(rng.integers(1, 4))
        out_h, out_w = _conv_out((h, w), (kh, kw), stride, padding)
        if min(out_h, out_w) < pool:
            continue
        if padding == "same":
            pad_h = (out_h - 1) * stride + kh - h
            pad_w = (out_w - 1) * stride + kw - w
            if (kh % 2 == 0 and pad_h % 2 == 0) or (kw % 2 == 0 and pad_w % 2 == 0):
                continue
        bounds = nn._strip_bounds(out_h, out_w, kh * kw * channels, filters, pool)
        if len(bounds) - 1 < strips:
            continue
        x = rng.standard_normal((h, w, channels))
        kernel = rng.standard_normal((kh, kw, channels, filters)).astype(np.float32)
        bias = rng.standard_normal(filters).astype(np.float32)
        yield x, kernel, bias, stride, padding, pool


def assert_conv_matches_frozen(x, kernel, bias, stride, padding, pool):
    want = frozen_conv(x, kernel, bias, stride, padding, pool)
    got = conv2d(x, kernel, bias, stride, padding, pool)
    case = (x.shape, kernel.shape, stride, padding, pool)
    assert got.shape == want.shape, case
    assert got.tobytes() == want.tobytes(), case


class TestStripPadding:
    """Each strip copies its input rows between zero borders in its own
    scratch; the result equals the frozen whole-frame zero pad's."""

    def test_one_strip_touches_both_borders(self):
        # A conv too small to split reads the top and the bottom padding.
        rng = np.random.default_rng(41)
        for kh, kw in ((3, 3), (5, 5), (5, 2), (4, 4)):
            for h, w in ((1, 1), (2, 7), (5, 4), (9, 9)):
                for stride in (1, 2):
                    x = rng.standard_normal((h, w, 3))
                    kernel = rng.standard_normal((kh, kw, 3, 4)).astype(np.float32)
                    bias = rng.standard_normal(4).astype(np.float32)
                    assert_conv_matches_frozen(x, kernel, bias, stride, "same", 1)

    def test_first_and_last_strips_touch_the_borders(self):
        kernels = ((3, 3), (5, 5), (5, 3))
        cases = padded_strip_cases(4101, kernels, (1, 2), "same", strips=3)
        for _ in range(20):
            assert_conv_matches_frozen(*next(cases))

    def test_asymmetric_same_padding(self):
        kernels = ((2, 2), (4, 4), (2, 4))
        cases = padded_strip_cases(4102, kernels, (2,), "same", strips=2)
        for _ in range(20):
            assert_conv_matches_frozen(*next(cases))

    def test_valid_convs(self):
        kernels = ((1, 1), (3, 3), (2, 5), (4, 4))
        cases = padded_strip_cases(4103, kernels, (1, 2), "valid", strips=2)
        for _ in range(20):
            assert_conv_matches_frozen(*next(cases))

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_stale_pad_scratch_never_reaches_a_border(self, padding):
        kernels = ((3, 3), (2, 2), (5, 3))
        cases = padded_strip_cases(4104, kernels, (1, 2), padding, strips=2)
        # As an earlier, wider layer leaves it: larger than any strip here needs.
        pad = nn._scratch_buffer("pad", 1 << 20)
        for _ in range(10):
            pad[:] = np.nan
            assert_conv_matches_frozen(*next(cases))
            assert nn._scratch.pad.size == pad.size  # reused, not regrown


class TestStrips:
    def test_stock_convs_run_in_strips_of_whole_pool_windows(self):
        spec = default_model_spec()
        shapes = zip(spec.layers, spec.layer_input_shapes(), spec.output_shapes())
        for layer, in_shape, out_shape in shapes:
            if layer.kind != "conv2d":
                continue
            channels, (out_h, out_w, filters) = in_shape[2], out_shape
            bounds = nn._strip_bounds(out_h, out_w, 9 * channels, filters, 2)
            assert len(bounds) > 2 and bounds[0] == 0 and bounds[-1] == out_h, layer.name
            for r0, r1 in zip(bounds, bounds[1:]):
                assert r0 % 2 == 0 and r1 - r0 >= 2, layer.name
                assert (r1 - r0) * out_w * 9 * channels * filters >= nn._MIN_STRIP_MACS

    def test_strips_hold_at_least_the_minimum_work(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            out_h, out_w = (int(v) for v in rng.integers(1, 400, 2))
            depth, filters = int(rng.integers(1, 2000)), int(rng.integers(1, 200))
            pool = int(rng.integers(1, 4))
            bounds = nn._strip_bounds(out_h, out_w, depth, filters, pool)
            assert bounds[0] == 0 and bounds[-1] == out_h
            if len(bounds) == 2:
                continue
            assert filters > 1
            for r0, r1 in zip(bounds, bounds[1:]):
                assert r0 % pool == 0 and (r1 - r0) * out_w >= 2
                assert (r1 - r0) * out_w * depth * filters >= nn._MIN_STRIP_MACS

    def test_one_filter_and_small_convs_run_whole(self):
        assert nn._strip_bounds(300, 300, 27, 1, 2) == [0, 300]
        assert nn._strip_bounds(24, 24, 27, 8, 2) == [0, 24]
        assert nn._strip_bounds(1, 5000, 1000, 64, 1) == [0, 1]

    def test_scratch_is_reused_across_calls(self):
        x = np.random.default_rng(3).standard_normal((96, 96, 8))
        kernel = np.ones((3, 3, 8, 16), np.float32)
        bias = np.zeros(16, np.float32)
        first = conv2d(x, kernel, bias, pool=2)
        cols, prod = nn._scratch.cols, nn._scratch.prod
        again = conv2d(x, kernel, bias, pool=2)
        assert nn._scratch.cols is cols and nn._scratch.prod is prod
        assert again.tobytes() == first.tobytes()

    def test_threads_keep_their_own_scratch(self):
        # More threads than cores and a short switch interval, so threads
        # interleave strips of different geometries; a shared buffer would
        # hand one thread's im2col rows to another's product.
        rng = np.random.default_rng(5)
        cases = []
        for k in range(8):
            x = rng.standard_normal((64 + 8 * k, 72, 4 + k))
            kernel = rng.standard_normal((3, 3, 4 + k, 8 + 4 * k)).astype(np.float32)
            bias = rng.standard_normal(8 + 4 * k).astype(np.float32)
            cases.append((x, kernel, bias, 1 + k % 2))
        want = [conv2d(x, kernel, bias, pool=pool).tobytes() for x, kernel, bias, pool in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                got = list(pool.map(
                    lambda case: conv2d(case[0], case[1], case[2], pool=case[3]).tobytes(),
                    cases * 3,
                    timeout=60,
                ))
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 3

    def test_pooled_conv_equals_maxpool_of_conv(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((13, 11, 3))
        kernel = rng.standard_normal((3, 3, 3, 4))
        bias = rng.standard_normal(4)
        for pool in (2, 3):
            got = conv2d(x, kernel, bias, 2, "valid", pool)
            want = maxpool2(conv2d(x, kernel, bias, 2, "valid"), pool)
            assert got.tobytes() == want.tobytes()

    def test_pool_larger_than_output_rejected(self):
        with pytest.raises(ShapeError, match="pool window"):
            conv2d(np.zeros((4, 4, 1)), np.ones((3, 3, 1, 1)), np.zeros(1), 2, "valid", 2)
        with pytest.raises(ValueError, match="pool"):
            conv2d(np.zeros((4, 4, 1)), np.ones((3, 3, 1, 1)), np.zeros(1), pool=0)


def assert_strips_fit_the_budget(out_h, out_w, depth, filters, pool):
    """Strips of whole pool windows whose sizes differ by at most one
    window; a strip's im2col and product rows exceed ``_STRIP_BYTES`` only
    when it is one window or one more strip would leave some strip below
    the minimum work."""
    bounds = nn._strip_bounds(out_h, out_w, depth, filters, pool)
    if len(bounds) == 2:
        return
    windows = [(r1 - r0) // pool for r0, r1 in zip(bounds, bounds[1:])]
    case = (out_h, out_w, depth, filters, pool)
    assert sum(windows) == out_h // pool and max(windows) - min(windows) <= 1, case
    if max(windows) * pool * out_w * (depth + filters) * 8 > nn._STRIP_BYTES and max(windows) > 1:
        fewest = (out_h // pool // (len(windows) + 1)) * pool * out_w
        assert fewest < 2 or fewest * depth * filters < nn._MIN_STRIP_MACS, case


class TestStripBudget:
    """Strips stay within the scratch budget and are spread evenly."""

    def test_random_geometries(self):
        rng = np.random.default_rng(19)
        for _ in range(3000):
            out_h, out_w = (int(v) for v in rng.integers(1, 400, 2))
            depth, filters = int(rng.integers(1, 2000)), int(rng.integers(1, 200))
            assert_strips_fit_the_budget(out_h, out_w, depth, filters, int(rng.integers(1, 4)))

    @pytest.mark.parametrize("channels", [3, 1])
    def test_stock_convs(self, channels):
        spec = default_model_spec(channels=channels)
        shapes = zip(spec.layers, spec.layer_input_shapes(), spec.output_shapes())
        for layer, in_shape, out_shape in shapes:
            if layer.kind == "conv2d":
                out_h, out_w, filters = out_shape
                assert_strips_fit_the_budget(out_h, out_w, 9 * in_shape[2], filters, 2)
        # conv5's 18x18 output: 9 pool windows in more strips than the 3
        # that split 2:1 over a frame thread and one helper.
        assert len(nn._strip_bounds(18, 18, 9 * 128, 128, 2)) - 1 > 3


def eight_bit_specs(shape: tuple[int, int, int]) -> list[ModelSpec]:
    """Models over ``shape`` whose first step reads the input differently:
    a relu conv with pool and batchnorm, a strided "valid" conv, a max-pool,
    a batchnorm and a flatten."""
    head = (LayerSpec.flatten(), LayerSpec.dense("out", 1, activation="sigmoid"))
    firsts = [
        (LayerSpec.conv("c", 4, (3, 3), activation="relu"), LayerSpec.maxpool("p", 3),
         LayerSpec.batchnorm("bn")),
        (LayerSpec.conv("c", 5, (2, 3), 2, "valid"),),
        (LayerSpec.maxpool("p"), LayerSpec.conv("c", 3, (3, 3), activation="relu")),
        (LayerSpec.batchnorm("bn"),),
        (),
    ]
    return [ModelSpec(input_shape=shape, layers=first + head) for first in firsts]


@pytest.mark.parametrize("subset", list(ChannelSubset), ids=lambda s: s.value)
def test_stage_pixels_read_as_their_features(subset):
    """``forward`` and ``conv2d`` read a stage's uint8 pixels as
    ``extract_features``' float64 features, bit for bit, at an odd size."""
    rgb = np.random.default_rng(2501).integers(0, 256, (37, 23, 3), np.uint8)
    frame = Frame(index=0, pixels=rgb)
    pixels, features = preprocess._stage_pixels(frame, subset), extract_features(frame, subset)
    assert pixels.dtype == np.uint8
    assert pixels.shape == features.shape
    for seed, spec in enumerate(eight_bit_specs(pixels.shape)):
        weights = random_weights(spec, seed=seed)
        first = spec.layers[0]
        assert forward(spec, weights, pixels).hex() == forward(spec, weights, features).hex(), first
        if first.kind == "conv2d":
            params = weights[first.name]
            got, want = (
                conv2d(x, params["kernel"], params["bias"], first.stride, first.padding)
                for x in (pixels, features)
            )
            assert got.tobytes() == want.tobytes(), first


@pytest.mark.parametrize("subset", list(ChannelSubset), ids=lambda s: s.value)
def test_stage_pixels_in_strips_spread_over_helpers(lent_helpers, subset):
    """A stock model's conv1 pads a stage's pixels in several strips, spread
    over 0, 1 and 3 helpers: the score and conv1's output are those of the
    float64 features on the calling thread."""
    rgb = np.random.default_rng(2502).integers(0, 256, (161, 159, 3), np.uint8)
    frame = Frame(index=0, pixels=rgb)
    pixels, features = preprocess._stage_pixels(frame, subset), extract_features(frame, subset)
    spec = default_model_spec(channels=subset.cardinality, height=161, width=159)
    weights = random_weights(spec, seed=subset.cardinality)
    conv1 = weights["conv1"]
    assert len(nn._strip_bounds(161, 159, 9 * subset.cardinality, 16, 2)) > 2
    got = lent_helpers(conv2d, pixels, conv1["kernel"], conv1["bias"], 1, "same", 2, True)
    want = conv2d(features, conv1["kernel"], conv1["bias"], 1, "same", 2, True)
    assert got.tobytes() == want.tobytes()
    score = lent_helpers(forward, spec, weights, pixels)
    assert score.hex() == forward(spec, weights, features).hex()


# The most a stock forward pass at 300x300 may allocate beyond its input.
# conv1's and conv2's outputs are alive together (2.75 + 1.37 MiB for 16
# and 32 channels), and a thread's scratch holds a strip's padded rows,
# im2col and product; its im2col buffer later holds one 16-column float64
# block of the dense1 kernel (1.27 MiB). A per-layer ReLU or batchnorm copy
# of conv1's output, or a float64 copy of the whole dense1 kernel
# (5.06 MiB), breaks the bound.
FORWARD_PEAK_MIB = 7.5


@pytest.mark.parametrize("channels", [3, 1])
def test_stock_forward_allocates_outputs_and_bounded_scratch(channels):
    """A stock forward pass on a fresh thread, its scratch grown from
    nothing, peaks below ``FORWARD_PEAK_MIB`` of traced allocations."""
    spec = default_model_spec(channels=channels)
    weights = random_weights(spec, seed=channels)
    x = np.random.default_rng(channels).random((300, 300, channels))

    def traced_peak() -> float:
        tracemalloc.start()
        try:
            forward(spec, weights, x)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    with ThreadPoolExecutor(1) as fresh:
        peak = fresh.submit(traced_peak).result(timeout=120)
    assert peak < FORWARD_PEAK_MIB


class TestSpread:
    @staticmethod
    def on_lent_thread(helpers, count, fn, *args):
        """``fn(*args)`` on a new thread lent ``count`` tasks of ``helpers``."""
        with ThreadPoolExecutor(1, initializer=cores._lend_helpers, initargs=(helpers, count)) as caller:
            return caller.submit(fn, *args).result(timeout=600)

    def test_without_helpers_is_a_loop_on_the_calling_thread(self):
        seen = []
        cores._spread(lambda item: seen.append((item, threading.get_ident())), range(5))
        assert seen == [(i, threading.get_ident()) for i in range(5)]

    def test_every_item_runs_once_across_helpers(self):
        seen, lock = [], threading.Lock()

        def record(item):
            time.sleep(0.001)
            with lock:
                seen.append((item, threading.current_thread().name))

        with ThreadPoolExecutor(3, thread_name_prefix="spread-helper") as helpers:
            self.on_lent_thread(helpers, 3, cores._spread, record, list(range(200)))
        assert sorted(item for item, _ in seen) == list(range(200))
        assert any(name.startswith("spread-helper") for _, name in seen)

    def test_a_helper_error_is_raised_to_the_caller(self):
        def fail_on_helper(item):
            if threading.current_thread().name.startswith("spread-helper"):
                raise RuntimeError("helper failed")
            time.sleep(0.001)

        with ThreadPoolExecutor(1, thread_name_prefix="spread-helper") as helpers:
            with pytest.raises(RuntimeError, match="helper failed"):
                self.on_lent_thread(helpers, 1, cores._spread, fail_on_helper, list(range(200)))

    def test_stalled_helper_leaves_the_work_to_the_caller(self):
        # The only helper thread is blocked, so no strip or band is given to
        # it; the caller runs them all, cancels the queued helper tasks and
        # returns without waiting for the blocked thread.
        rng = np.random.default_rng(17)
        x = rng.standard_normal((300, 300, 3))
        kernel = rng.standard_normal((3, 3, 3, 16)).astype(np.float32)
        bias = rng.standard_normal(16).astype(np.float32)
        frame = Frame(index=0, pixels=rng.integers(0, 256, (720, 1280, 3), dtype=np.uint8))
        release = threading.Event()
        with ThreadPoolExecutor(1) as helpers:
            blocked = helpers.submit(release.wait, 600)
            try:
                conv = self.on_lent_thread(helpers, 3, conv2d, x, kernel, bias, 1, "same", 2)
                small = self.on_lent_thread(helpers, 3, resize_aa, frame, 300, 300)
                assert not blocked.done()
            finally:
                release.set()
        assert conv.tobytes() == conv2d(x, kernel, bias, 1, "same", 2).tobytes()
        assert small.pixels.tobytes() == resize_aa(frame, 300, 300).pixels.tobytes()


# Scores the stock RGB and luma stages on seeded 300x300 frames through
# the path `run` takes, one `<subset> <score.hex()>` line per score.
STOCK_SCORES_SCRIPT = """
import numpy as np
from verisemble import ChannelSubset, Frame, default_model_spec, extract_features, forward, random_weights

for subset in (ChannelSubset.RGB, ChannelSubset.LUMA):
    spec = default_model_spec(channels=subset.cardinality)
    weights = random_weights(spec, seed=subset.cardinality)
    for i in range(3):
        pixels = np.random.default_rng(100 + i).integers(0, 256, (300, 300, 3), dtype=np.uint8)
        score = forward(spec, weights, extract_features(Frame(index=i, pixels=pixels), subset))
        print(subset.value, float(score).hex())
"""


def stock_scores_with_blas_threads(threads: int) -> list[str]:
    package_root = str(Path(nn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", STOCK_SCORES_SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_stock_scores_bit_identical_across_blas_thread_counts():
    """`run --workers N` lowers the BLAS thread count while it scores; that
    is exact only if a forward pass gives the same bits at any count. The
    luma stage's forward is covered too; its integer luma uses no BLAS."""
    single = stock_scores_with_blas_threads(1)
    assert len(single) == 6
    assert stock_scores_with_blas_threads(2) == single


def dense_cases(count: int):
    """``count`` seeded dense products ``(x, kernel, bias)`` over inputs of
    up to 40k values, the first the stock dense1's 10368, with unit counts
    that are multiples of ``nn._DENSE_BLOCK`` and ragged ones."""
    rng = np.random.default_rng(1818)
    for i in range(count):
        n = 10368 if i == 0 else int(rng.integers(1, 40_001))
        units = int(rng.choice([16, 32, 48, 64, 1, 5, 17, 40, 63]))
        x = rng.standard_normal(n)
        kernel = rng.standard_normal((n, units)).astype(np.float32)
        yield x, kernel, rng.standard_normal(units).astype(np.float32)


def dense_block_width(n: int, units: int) -> int:
    """How many kernel columns ``dense`` casts at a time, read from the
    scratch it leaves on a fresh thread."""
    def run() -> int:
        dense(np.zeros(n), np.zeros((n, units), np.float32), np.zeros(units, np.float32))
        return nn._scratch.cols.size // n

    with ThreadPoolExecutor(1) as fresh:
        return fresh.submit(run).result(timeout=60)


def test_dense_column_blocks_match_the_whole_product(blas_threads):
    """``dense`` casts its float32 kernel 16 columns at a time when the unit
    count allows, else whole, and equals the whole float64 product plus
    bias bit for bit at 1 and 2 BLAS threads."""
    for x, kernel, bias in dense_cases(150):
        n, units = kernel.shape
        want = x @ kernel.astype(np.float64) + bias.astype(np.float64)
        got = dense(x, kernel, bias)
        assert got.tobytes() == want.tobytes(), (n, units)
        assert dense(x, kernel, bias, "relu").tobytes() == relu(want).tobytes(), (n, units)
    for n, units in ((10368, 64), (10368, 16), (40_000, 48), (10368, 63), (16, 1), (7, 17)):
        assert dense_block_width(n, units) == (16 if units % 16 == 0 else units), (n, units)


def test_threads_keep_their_own_dense_blocks():
    # More threads than cores and a short switch interval, so threads
    # interleave dense blocks of different kernels, and conv strips, through
    # their im2col scratch; a shared buffer would mix their kernels.
    rng = np.random.default_rng(23)
    cases = []
    for k in range(6):
        n, units = 4000 + 3000 * k, 16 * (1 + k % 3)
        x = rng.standard_normal((40 + 4 * k, 48, 3))
        kernel = rng.standard_normal((3, 3, 3, 8 + 4 * k)).astype(np.float32)
        conv = (x, kernel, np.zeros(8 + 4 * k, np.float32))
        cases.append((conv, rng.standard_normal(n), rng.standard_normal((n, units)).astype(np.float32)))

    def run(case) -> tuple[bytes, ...]:
        (x, kernel, bias), vector, weights = case
        zero_bias = np.zeros(weights.shape[1], np.float32)
        got = [dense(vector, weights, zero_bias).tobytes() for _ in range(4)]
        return (*got, conv2d(x, kernel, bias, pool=2).tobytes())

    want = [run(case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(run, cases * 10, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 10


class TestClassify:
    def test_threshold_inclusive(self):
        assert classify(0.5) is True
        assert classify(0.49) is False
        assert classify(1.0) is True
        assert classify(0.0) is False

    def test_custom_threshold(self):
        assert classify(0.3, threshold=0.25) is True
        assert classify(0.2, threshold=0.25) is False


class TestCountParams:
    def test_head_only(self):
        # dense over a single input: 1 weight + 1 bias.
        assert count_params(head_spec()) == 2

    def test_tiny_spec_by_hand(self):
        # conv 3x3x2->2: 36 + 2; batchnorm over 2 channels: 8;
        # dense 8 -> 1: 8 + 1. Pool/flatten carry nothing.
        assert count_params(tiny_spec()) == 36 + 2 + 8 + 8 + 1

    def test_first_conv_of_stock_rgb_model(self):
        spec = default_model_spec(channels=3)
        shapes = expected_weight_shapes(spec)["conv1"]
        total = 3 * 3 * 3 * 16 + 16
        assert total == 448
        got = 0
        for shape in shapes.values():
            got += int(np.prod(shape))
        assert got == 448

    def test_stock_model_totals(self):
        assert count_params(default_model_spec(channels=3)) == 911169
        assert count_params(default_model_spec(channels=1)) == 910881

    def test_stock_totals_match_reference_formula(self):
        blocks = [(3, 3, 16), (3, 3, 32), (3, 3, 64), (3, 3, 128), (3, 3, 128)]
        flat_len = 9 * 9 * 128
        for channels in (1, 3):
            want = oracles.count_params_ref(channels, blocks, [64, 16, 1], flat_len)
            assert count_params(default_model_spec(channels=channels)) == want

    def test_three_channel_model_is_larger(self):
        big = count_params(default_model_spec(channels=3))
        small = count_params(default_model_spec(channels=1))
        assert big > small
        assert big - small == 3 * 3 * 2 * 16  # extra first-conv input channels


class TestCountMacs:
    def test_stock_models_at_300(self):
        # conv1-conv5 38,880,000 / 103,680,000 / 103,680,000 / 100,933,632 /
        # 47,775,744 for RGB, then dense 663,552 + 1,024 + 16; a luma conv1
        # makes a third of RGB's.
        assert count_macs(default_model_spec(channels=3)) == 395_613_968
        assert count_macs(default_model_spec(channels=1)) == 369_693_968

    def test_tiny_spec_by_hand(self):
        # conv 3x3x2 -> 2 over 4x4: 16 * 2 * 18; dense 8 -> 1: 8.
        assert count_macs(tiny_spec()) == 576 + 8
        assert count_macs(head_spec()) == 1

    @settings(max_examples=200, deadline=None)
    @given(conv_models())
    def test_equals_a_naive_per_layer_loop(self, case):
        spec, _, _ = case
        assert count_macs(spec) == oracles.count_macs_ref(spec.input_shape, spec.layers)


class TestStockArchitecture:
    def test_spatial_ladder(self):
        spec = default_model_spec()
        pools = [
            shape
            for layer, shape in zip(spec.layers, spec.output_shapes())
            if layer.kind == "maxpool2"
        ]
        assert [s[0] for s in pools] == [150, 75, 37, 18, 9]
        assert [s[1] for s in pools] == [150, 75, 37, 18, 9]

    def test_flatten_length(self):
        spec = default_model_spec()
        shapes = dict(zip((l.name for l in spec.layers), spec.output_shapes()))
        assert shapes["flatten"] == (9 * 9 * 128,)

    def test_channel_count_only_changes_first_conv(self):
        rgb = expected_weight_shapes(default_model_spec(channels=3))
        mono = expected_weight_shapes(default_model_spec(channels=1))
        assert rgb["conv1"]["kernel"] == (3, 3, 3, 16)
        assert mono["conv1"]["kernel"] == (3, 3, 1, 16)
        for name in rgb:
            if name != "conv1":
                assert rgb[name] == mono[name]


class TestRandomWeights:
    def test_deterministic_per_seed(self):
        spec = tiny_spec()
        a = random_weights(spec, seed=3)
        b = random_weights(spec, seed=3)
        for layer in a:
            for param in a[layer]:
                assert np.array_equal(a[layer][param], b[layer][param])

    def test_different_seeds_differ(self):
        spec = tiny_spec()
        a = random_weights(spec, seed=3)
        b = random_weights(spec, seed=4)
        assert not np.array_equal(a["c1"]["kernel"], b["c1"]["kernel"])

    def test_validates_against_spec(self):
        spec = tiny_spec()
        validate_weights(spec, random_weights(spec, seed=0))

    def test_float32_storage(self):
        weights = random_weights(tiny_spec(), seed=0)
        for params in weights.values():
            for arr in params.values():
                assert arr.dtype == np.float32


class TestValidateWeights:
    def test_missing_layer(self):
        spec = tiny_spec()
        weights = dict(random_weights(spec, seed=0))
        del weights["out"]
        with pytest.raises(ValidationError, match="out"):
            validate_weights(spec, weights)

    def test_missing_array(self):
        spec = tiny_spec()
        weights = {k: dict(v) for k, v in random_weights(spec, seed=0).items()}
        del weights["c1"]["bias"]
        with pytest.raises(ValidationError, match="bias"):
            validate_weights(spec, weights)

    def test_wrong_shape(self):
        spec = tiny_spec()
        weights = {k: dict(v) for k, v in random_weights(spec, seed=0).items()}
        weights["out"]["kernel"] = np.zeros((4, 1), dtype=np.float32)
        with pytest.raises(ValidationError, match="shape"):
            validate_weights(spec, weights)

    def test_non_finite_values(self):
        spec = tiny_spec()
        weights = {k: dict(v) for k, v in random_weights(spec, seed=0).items()}
        bad = weights["c1"]["kernel"].copy()
        bad[0, 0, 0, 0] = np.nan
        weights["c1"]["kernel"] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            validate_weights(spec, weights)

    def test_negative_variance(self):
        spec = tiny_spec()
        weights = {k: dict(v) for k, v in random_weights(spec, seed=0).items()}
        weights["b1"]["var"] = np.array([-1.0, 1.0], dtype=np.float32)
        with pytest.raises(ValidationError, match="variance"):
            validate_weights(spec, weights)

    def test_unexpected_array(self):
        spec = tiny_spec()
        weights = {k: dict(v) for k, v in random_weights(spec, seed=0).items()}
        weights["b1"]["kernel"] = np.zeros(2, dtype=np.float32)
        with pytest.raises(ValidationError, match="layer b1: unexpected array 'kernel'"):
            validate_weights(spec, weights)

    def test_unexpected_layer(self):
        spec = tiny_spec()
        weights = dict(random_weights(spec, seed=0))
        weights["ghost"] = {"kernel": np.zeros(1, dtype=np.float32)}
        with pytest.raises(ValidationError, match="ghost"):
            validate_weights(spec, weights)


class TestWeightContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = tiny_spec()
        weights = random_weights(spec, seed=42)
        path = tmp_path / "model.weights"
        save_weights(path, spec, weights)
        loaded_spec, loaded = load_weights(path)
        assert loaded_spec == spec
        for layer in weights:
            for param in weights[layer]:
                assert loaded[layer][param].tobytes() == weights[layer][param].tobytes()

    def test_save_is_deterministic(self, tmp_path):
        spec = tiny_spec()
        weights = random_weights(spec, seed=42)
        a, b = tmp_path / "a.weights", tmp_path / "b.weights"
        save_weights(a, spec, weights)
        save_weights(b, spec, weights)
        assert a.read_bytes() == b.read_bytes()

    def test_save_load_save_is_identity(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "model.weights"
        save_weights(path, spec, random_weights(spec, seed=9))
        loaded_spec, loaded = load_weights(path)
        again = tmp_path / "again.weights"
        save_weights(again, loaded_spec, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_container_layout_matches_hand_built_bytes(self, tmp_path):
        # Build the expected container for the flatten+dense head model
        # entirely with struct/json, then require save_weights to emit the
        # identical bytes and load_weights to read them back.
        spec = head_spec()
        kernel = np.array([[1.5]], dtype=np.float32)
        bias = np.array([-0.25], dtype=np.float32)
        weights = {"out": {"kernel": kernel, "bias": bias}}

        spec_json = json.dumps(
            {
                "input": [1, 1, 1],
                "layers": [
                    {"kind": "flatten", "name": "flatten"},
                    {"activation": "sigmoid", "kind": "dense", "name": "out", "units": 1},
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        blob = b"TSTM" + struct.pack("<I", 1)
        blob += struct.pack("<I", len(spec_json)) + spec_json
        blob += struct.pack("<H", 10) + b"out/kernel"
        blob += struct.pack("<B", 2) + struct.pack("<2I", 1, 1)
        blob += struct.pack("<f", 1.5)
        blob += struct.pack("<H", 8) + b"out/bias"
        blob += struct.pack("<B", 1) + struct.pack("<I", 1)
        blob += struct.pack("<f", -0.25)

        path = tmp_path / "head.weights"
        save_weights(path, spec, weights)
        assert path.read_bytes() == blob

        hand = tmp_path / "hand.weights"
        hand.write_bytes(blob)
        loaded_spec, loaded = load_weights(hand)
        assert loaded_spec == spec
        assert loaded["out"]["kernel"].tolist() == [[1.5]]
        assert loaded["out"]["bias"].tolist() == [-0.25]

    def test_magic_and_version_constants(self):
        assert WEIGHTS_MAGIC == b"TSTM"
        assert WEIGHTS_VERSION == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError, match="not found"):
            load_weights(tmp_path / "absent.weights")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.weights"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match=r"bad\.weights: bad magic b'NOPE', expected"):
            load_weights(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.weights"
        path.write_bytes(b"TSTM" + struct.pack("<I", 2) + struct.pack("<I", 0))
        with pytest.raises(FormatError, match=r"v2\.weights: unsupported version 2$"):
            load_weights(path)

    def test_truncated_container(self, tmp_path):
        spec = head_spec()
        path = tmp_path / "model.weights"
        save_weights(path, spec, random_weights(spec, seed=0))
        data = path.read_bytes()
        for cut in (2, 6, 10, len(data) // 2, len(data) - 1):
            chopped = tmp_path / f"cut{cut}.weights"
            chopped.write_bytes(data[:cut])
            with pytest.raises(
                FormatError,
                match=r"cut\d+\.weights: (bad magic|truncated: |the spec fixes \d+ bytes of weight)",
            ):
                load_weights(chopped)

    def test_duplicate_record_rejected(self, tmp_path):
        spec = head_spec()
        path = tmp_path / "model.weights"
        save_weights(path, spec, random_weights(spec, seed=0))
        data = path.read_bytes()
        # Append a second copy of the final record (out/bias).
        record = struct.pack("<H", 8) + b"out/bias" + struct.pack("<B", 1)
        record += struct.pack("<I", 1) + struct.pack("<f", 0.0)
        dup = tmp_path / "dup.weights"
        dup.write_bytes(data + record)
        with pytest.raises(FormatError, match=r"dup\.weights: the spec fixes 44 bytes .* holds 63$"):
            load_weights(dup)

    def test_extra_record_rejected(self, tmp_path):
        """An array the layer's kind does not name fails the load; it used to
        load and then vanish from the re-saved container."""
        spec = head_spec()
        path = tmp_path / "model.weights"
        save_weights(path, spec, random_weights(spec, seed=0))
        record = struct.pack("<H", 9) + b"out/extra" + struct.pack("<B", 1)
        record += struct.pack("<I", 1) + struct.pack("<f", 0.0)
        extra = tmp_path / "extra.weights"
        extra.write_bytes(path.read_bytes() + record)
        with pytest.raises(FormatError, match=r"extra\.weights: the spec fixes 44 .* holds 64$"):
            load_weights(extra)

    def test_missing_record_names_layer(self, tmp_path):
        spec = head_spec()
        path = tmp_path / "model.weights"
        save_weights(path, spec, random_weights(spec, seed=0))
        data = path.read_bytes()
        # Drop the trailing out/bias record (2 + 8 name, 1 rank, 4 dim, 4 data).
        trimmed = tmp_path / "short.weights"
        trimmed.write_bytes(data[: len(data) - (2 + 8 + 1 + 4 + 4)])
        with pytest.raises(FormatError, match=r"short\.weights: the spec fixes 44 .* holds 25$"):
            load_weights(trimmed)

    def test_record_name_without_slash_rejected(self, tmp_path):
        spec = head_spec()
        spec_json = json.dumps(spec.to_json_obj(), sort_keys=True, separators=(",", ":")).encode()
        blob = b"TSTM" + struct.pack("<I", 1)
        blob += struct.pack("<I", len(spec_json)) + spec_json
        blob += struct.pack("<H", 4) + b"oops"
        blob += struct.pack("<B", 1) + struct.pack("<I", 1) + struct.pack("<f", 0.0)
        path = tmp_path / "noslash.weights"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"noslash\.weights: the spec fixes 44 .* holds 15$"):
            load_weights(path)

    def test_record_name_not_utf8_rejected(self, tmp_path):
        spec = head_spec()
        spec_json = json.dumps(spec.to_json_obj(), sort_keys=True, separators=(",", ":")).encode()
        blob = b"TSTM" + struct.pack("<I", 1)
        blob += struct.pack("<I", len(spec_json)) + spec_json
        blob += struct.pack("<H", 4) + b"ou\xff/"
        blob += struct.pack("<B", 1) + struct.pack("<I", 1) + struct.pack("<f", 0.0)
        path = tmp_path / "badname.weights"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"badname\.weights: the spec fixes 44 .* holds 15$"):
            load_weights(path)

    def test_spec_json_not_utf8_rejected(self, tmp_path):
        payload = b'{"\xff": 1}'
        blob = b"TSTM" + struct.pack("<I", 1) + struct.pack("<I", len(payload)) + payload
        path = tmp_path / "badspec.weights"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="JSON"):
            load_weights(path)

    def test_bad_spec_json_rejected(self, tmp_path):
        payload = b"{not json"
        blob = b"TSTM" + struct.pack("<I", 1) + struct.pack("<I", len(payload)) + payload
        path = tmp_path / "badspec.weights"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="JSON"):
            load_weights(path)

    def test_negative_variance_rejected_on_load(self, tmp_path):
        spec = tiny_spec()
        weights = {k: dict(v) for k, v in random_weights(spec, seed=0).items()}
        path = tmp_path / "model.weights"
        save_weights(path, spec, weights)
        data = bytearray(path.read_bytes())
        # Flip the variance array payload to a negative value in place.
        marker = b"b1/var"
        idx = data.index(marker)
        payload_at = idx + len(marker) + 1 + 4  # rank byte + one u32 dim
        data[payload_at : payload_at + 4] = struct.pack("<f", -1.0)
        bad = tmp_path / "negvar.weights"
        bad.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"negvar\.weights: layer b1: negative moving variance"):
            load_weights(bad)

    def test_save_rejects_invalid_weights(self, tmp_path):
        spec = tiny_spec()
        weights = {k: dict(v) for k, v in random_weights(spec, seed=0).items()}
        del weights["out"]
        with pytest.raises(ValidationError):
            save_weights(tmp_path / "broken.weights", spec, weights)

    def test_loaded_weights_drive_forward(self, tmp_path):
        spec = tiny_spec()
        weights = random_weights(spec, seed=21)
        x = random_tensor(random.Random(22), 4, 4, 2)
        before = forward(spec, weights, x)
        path = tmp_path / "model.weights"
        save_weights(path, spec, weights)
        loaded_spec, loaded = load_weights(path)
        assert forward(loaded_spec, loaded, x) == before


# -- the container's spec JSON against malformed values ----------------------


def buffer_owner(arr: np.ndarray) -> object:
    """The object whose memory ``arr`` views, past any ndarray and
    memoryview in between."""
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


class TestWeightBuffer:
    """A loaded container's arrays are views of the one bytes object read
    from the file, not copies of it."""

    def test_arrays_share_the_container_bytes(self, tmp_path):
        spec = default_model_spec()
        weights = random_weights(spec, seed=5)
        path = tmp_path / "stock.weights"
        save_weights(path, spec, weights)
        _, loaded = load_weights(path)
        owners = {id(buffer_owner(arr)) for params in loaded.values() for arr in params.values()}
        assert len(owners) == 1
        owner = buffer_owner(loaded["conv1"]["kernel"])
        (spec_len,) = struct.unpack("<I", path.read_bytes()[8:12])
        assert isinstance(owner, bytes) and owner == path.read_bytes()[12 + spec_len :]
        for layer, params in weights.items():
            for name, arr in params.items():
                got = loaded[layer][name]
                assert not got.flags.writeable
                assert got.dtype == np.float32 and got.tobytes() == arr.tobytes()

    def test_unshapeable_record_raises_format_error(self, tmp_path):
        spec_json = nn._spec_json_bytes(head_spec())
        blob = b"TSTM" + struct.pack("<I", 1) + struct.pack("<I", len(spec_json)) + spec_json
        rank = 70  # past numpy's most dimensions
        blob += struct.pack("<H", 10) + b"out/kernel" + struct.pack("<B", rank)
        blob += struct.pack(f"<{rank}I", *[1] * rank) + struct.pack("<f", 0.0)
        path = tmp_path / "unshapeable.weights"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"unshapeable\.weights: the spec fixes 44 .* 297$"):
            load_weights(path)


    @pytest.mark.parametrize(
        "shape, name", [((2**16, 2**16, 2), "out"), ((1, 1, 1), "o" * 2**16)], ids=["dim", "name"]
    )
    def test_record_header_its_fields_cannot_hold_raises_format_error(self, tmp_path, shape, name):
        # A dense kernel dim of 2**33 is past u32, and a name of 2**16 + 7
        # bytes is past u16: struct.pack's error is one of the file's.
        spec = ModelSpec(shape, (LayerSpec.flatten(), LayerSpec.dense(name, 1, "sigmoid")))
        path = tmp_path / "wide.weights"
        path.write_bytes(container_bytes(spec.to_json_obj(), b""))
        with pytest.raises(FormatError, match=r"wide\.weights: record '.*/kernel' .* does not fit"):
            load_weights(path)


def split_container(path: Path) -> tuple[dict, bytes]:
    """A container's spec JSON object and the weight records that follow it."""
    data = path.read_bytes()
    (spec_len,) = struct.unpack("<I", data[8:12])
    return json.loads(data[12 : 12 + spec_len]), data[12 + spec_len :]


@functools.cache
def stock_container() -> tuple[dict, bytes]:
    """:func:`split_container` of the stock 300x300 RGB model."""
    spec = default_model_spec(3, 300, 300)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stock.weights"
        save_weights(path, spec, random_weights(spec, seed=3))
        return split_container(path)


def container_bytes(spec_obj, records: bytes) -> bytes:
    spec_json = json.dumps(spec_obj, sort_keys=True, separators=(",", ":")).encode()
    return WEIGHTS_MAGIC + struct.pack("<II", WEIGHTS_VERSION, len(spec_json)) + spec_json + records


def with_field(spec_obj: dict, path: tuple, value) -> dict:
    """A deep copy of ``spec_obj`` with the entry at ``path`` set to ``value``."""
    out = json.loads(json.dumps(spec_obj))
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def layer_index(spec_obj: dict, name: str) -> int:
    return [layer["name"] for layer in spec_obj["layers"]].index(name)


# Every key a layer entry of the spec JSON can hold.
LAYER_KEYS = [
    "activation", "filters", "kernel", "kind", "name", "padding", "pool", "rate", "stride", "units",
]

BAD_VALUES = st.one_of(
    st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.lists(st.one_of(st.integers(-2, 4), st.just(2**70)), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(-1, 3), max_size=2),
    st.none(),
    st.integers(max_value=0),
    st.just(2**70),
)


@st.composite
def spec_field_paths(draw):
    """Where to put the bad value: ``input``, one ``input`` entry, ``layers``,
    or one key (present or not) of one of the stock model's layers."""
    layers = len(default_model_spec().layers)
    return draw(st.one_of(
        st.just(("input",)),
        st.tuples(st.just("input"), st.integers(0, 2)),
        st.just(("layers",)),
        st.tuples(st.just("layers"), st.integers(0, layers - 1), st.sampled_from(LAYER_KEYS)),
    ))


class TestContainerSpecParser:
    @settings(max_examples=300, deadline=None)
    @given(path=spec_field_paths(), value=BAD_VALUES)
    def test_bad_field_loads_or_raises_format_error(self, tmp_path_factory, path, value):
        spec_obj, records = stock_container()
        bad = tmp_path_factory.getbasetemp() / "bad_field.weights"
        bad.write_bytes(container_bytes(with_field(spec_obj, path, value), records))
        try:
            load_weights(bad)
        except FormatError:
            pass

    def test_unchanged_spec_loads(self, tmp_path):
        path = tmp_path / "stock.weights"
        path.write_bytes(container_bytes(*stock_container()))
        spec, _ = load_weights(path)
        assert spec == default_model_spec(3, 300, 300)


# Spec edits that made `run` exit 1 with a TypeError traceback (the first
# five), or that it accepted and ran with exit 0 (the rest; 32.5 was
# truncated to 32), before every field's type was checked.
RUN_SPEC_EDITS = {
    "filters-str": ("conv1", "filters", "16"),
    "kernel-int": ("conv1", "kernel", 3),
    "rate-str": ("dropout1", "rate", "0.2"),
    "kind-list": ("conv1", "kind", ["conv2d"]),
    "layers-int": (None, "layers", 5),
    "units-float": ("dense1", "units", 64.0),
    "stride-bool": ("conv2", "stride", True),
    "input-float": (None, "input", [32.5, 32, 3]),
}


def run_stock_container(tmp_path: Path, edit, extra_records: bytes = b"") -> int:
    """``run`` one RGB stage of the stock model at 32x32 over nine frames,
    with ``edit`` (layer name or None, key, value) applied to its
    container's spec JSON and ``extra_records`` after its weight records;
    returns the exit code."""
    spec = default_model_spec(3, 32, 32)
    saved = tmp_path / "saved.weights"
    save_weights(saved, spec, random_weights(spec, seed=4))
    spec_obj, records = split_container(saved)
    if edit is not None:
        layer, key, value = edit
        path = (key,) if layer is None else ("layers", layer_index(spec_obj, layer), key)
        spec_obj = with_field(spec_obj, path, value)
    (tmp_path / "model.weights").write_bytes(container_bytes(spec_obj, records + extra_records))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1,
        "input": {"width": 32, "height": 32},
        "stages": [{"channels": "RGB", "model": {"type": "cnn", "weights": "model.weights"}}],
    }))
    frames = write_sequence(tmp_path / "frames", GOLDEN_COLORS, size=32)
    return cli.main([
        "run", "--config", str(config), "--frames", str(frames), "--out", str(tmp_path / "out"),
    ])


class TestRunRejectsMalformedSpec:
    def test_unchanged_container_runs(self, tmp_path, capsys):
        assert run_stock_container(tmp_path, None) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("edit", RUN_SPEC_EDITS.values(), ids=RUN_SPEC_EDITS.keys())
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, edit):
        assert run_stock_container(tmp_path, edit) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_extra_array_exits_2(self, tmp_path, capsys):
        record = struct.pack("<H", 11) + b"dense3/gain" + struct.pack("<B", 1)
        record += struct.pack("<I", 1) + struct.pack("<f", 1.0)
        assert run_stock_container(tmp_path, None, record) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "model.weights: the spec fixes 1023902 bytes of weight records, the file holds 1023924" in err[0]


class TestContainerFormatPinned:
    # SHA-256 of `_spec_json_bytes(default_model_spec(c, 300, 300))`, taken
    # from the per-kind serializers the layer-kind table replaced.
    SPEC_SHA256 = {
        1: "cecb6d36d5504c0a8a3ee26d3c0994d8a2ab89825e7b1e7ea96565f0ae5c3e22",
        3: "b75ed78a3f7173f37c2394dc49b02030f7414c78b4a72af93219a04b5701b93e",
    }

    @pytest.mark.parametrize("channels", [1, 3])
    def test_stock_spec_json_bytes(self, channels):
        spec_json = nn._spec_json_bytes(default_model_spec(channels, 300, 300))
        assert hashlib.sha256(spec_json).hexdigest() == self.SPEC_SHA256[channels]

    # SHA-256 of the whole container of `tiny_spec` with each array
    # `arange(size) / 8` in its shape: conv, batchnorm and dense records,
    # built without an RNG so that every numpy version writes these floats.
    TINY_CONTAINER_SHA256 = "408a1b6a059e72026e69d1934e7cd6aeecd29df38d9a06cb84dcb9dd40c38a5e"

    def test_tiny_container_bytes(self, tmp_path):
        shapes = {
            "c1": {"kernel": (3, 3, 2, 2), "bias": (2,)},
            "b1": {"gamma": (2,), "beta": (2,), "mean": (2,), "var": (2,)},
            "out": {"kernel": (8, 1), "bias": (1,)},
        }
        weights = {
            layer: {
                name: np.arange(math.prod(shape), dtype=np.float32).reshape(shape) / 8
                for name, shape in params.items()
            }
            for layer, params in shapes.items()
        }
        path = tmp_path / "tiny.weights"
        save_weights(path, tiny_spec(), weights)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.TINY_CONTAINER_SHA256

    def test_stock_container_round_trips_byte_for_byte(self, tmp_path):
        spec = default_model_spec(3, 300, 300)
        first, again = tmp_path / "first.weights", tmp_path / "again.weights"
        save_weights(first, spec, random_weights(spec, seed=8))
        save_weights(again, *load_weights(first))
        assert again.read_bytes() == first.read_bytes()
