"""Minimal CNN inference engine.

Runs a data-driven layer graph (conv / maxpool / batchnorm / dense /
dropout / flatten / activation) over channel-last float tensors, counts
parameters and multiply-adds, and reads/writes the binary weight container.

``forward`` and ``conv2d`` also take a stage's 8-bit pixels, a uint8
array, and read them as ``x / 255`` where they first read them: a conv
divides each strip's input rows as it copies them into its padded scratch,
so no float64 copy of the whole input is built; any other first layer gets
the input divided once. uint8 to float64 is exact, so either gives the bits
of dividing first, as ``preprocess.extract_features`` does.

Inference is deterministic and purely functional: specs and weight stores
are immutable after load and may be shared across threads; dropout is an
identity at inference time.

One table, ``_LAYER_KINDS``, names the fields each layer kind requires and
may set and its weight arrays in container order. ``LayerSpec``'s checks,
its JSON form and the container's record order all read it; each field's
type and range is one rule in ``_FIELD_RULES``.

Each conv runs in strips of output rows, each a whole number of pool
windows with about ``_STRIP_BYTES`` of im2col and product rows: a strip
copies the input rows it reads (8-bit ones divided by 255) between zero
borders into a per-thread scratch buffer, its im2col rows are copied from a
view of that into a second one, one GEMM writes the strip's product into a
third, and the strip is max-pooled straight into its rows of the output.
Neither a zero-padded copy of the whole input nor the whole-frame im2col is
ever built, and each strip's operands stay in a core's L2 cache while they
are used.

A relu or linear conv, the max-pool directly after it and the batchnorm
after that run as one step: each strip adds the bias, applies ReLU and the
batchnorm in place on its own pooled rows, so the step makes no copy of its
output. Adding the bias after the pool is exact, since rounding
is monotone; ReLU is exact and monotone non-decreasing, so it commutes with
max; the result is bit-identical to applying the layers one by one. A dense
layer casts its float32 kernel to float64 ``_DENSE_BLOCK`` columns at a time
into its thread's im2col scratch, so a forward pass allocates its layer
outputs, each conv's float64 kernel and each thread's bounded scratch.

Strips are bit-identical to the whole product under one rule: every strip's
GEMM has at least 2 rows and at least ``_MIN_STRIP_MACS`` multiply-adds, and
the pool windows are spread evenly over the strips. Below that OpenBLAS
rounds some products differently: numpy sends a 1-row product to gemv, and
OpenBLAS takes its small-matrix kernel below about 10**6 multiply-adds. A
conv that cannot make two such strips runs as one strip, which is exactly
the whole-frame product. So does a one-filter conv: numpy computes its
product with gemv, whose rounding depends on where a row sits in the
product.

``load_weights`` checks a container's size against the one its spec fixes
before it reads any record, then reads the records in one read; its arrays
are read-only views of those bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .cores import _spread
from .errors import (
    JSON_MAX_BYTES,
    FormatError,
    LoadError,
    ShapeError,
    ValidationError,
    _is_finite_number,
    _is_int_at_least,
    _parse_json,
    _require_keys,
)

__all__ = [
    "LayerSpec",
    "ModelSpec",
    "WeightStore",
    "conv2d",
    "maxpool2",
    "batchnorm_infer",
    "dense",
    "flatten",
    "relu",
    "sigmoid",
    "forward",
    "classify",
    "count_params",
    "count_macs",
    "default_model_spec",
    "random_weights",
    "validate_weights",
    "save_weights",
    "load_weights",
]

_ACTIVATIONS = ("relu", "sigmoid")


class _Kind(NamedTuple):
    required: tuple[str, ...]  # fields the layer must set
    optional: tuple[str, ...]  # fields it may set
    weights: tuple[str, ...]  # weight arrays, in container order

    @property
    def fields(self) -> tuple[str, ...]:
        return self.required + self.optional


# The one description of each layer kind: the fields it takes and the
# weight arrays it holds.
_LAYER_KINDS: dict[str, _Kind] = {
    "conv2d": _Kind(("filters", "kernel"), ("stride", "padding", "activation"), ("kernel", "bias")),
    "maxpool2": _Kind((), ("pool",), ()),
    "batchnorm": _Kind((), (), ("gamma", "beta", "mean", "var")),
    "flatten": _Kind((), (), ()),
    "dense": _Kind(("units",), ("activation",), ("kernel", "bias")),
    "dropout": _Kind(("rate",), (), ()),
    "activation": _Kind(("activation",), (), ()),
}

# What an optional field holds when a layer that takes it leaves it unset;
# an unset activation stays None (linear).
_DEFAULTS = {"stride": 1, "padding": "same", "pool": 2}


# Each field's rule: a test of its value, and what the test asks for.
_FIELD_RULES: dict[str, tuple[Callable[[object], bool], str]] = {
    "filters": (lambda v: _is_int_at_least(v, 1), "an int >= 1"),
    "kernel": (
        lambda v: isinstance(v, tuple) and len(v) == 2 and all(_is_int_at_least(k, 1) for k in v),
        "two ints >= 1",
    ),
    "stride": (lambda v: _is_int_at_least(v, 1), "an int >= 1"),
    "padding": (lambda v: v in ("same", "valid"), "'same' or 'valid'"),
    "pool": (lambda v: _is_int_at_least(v, 2), "an int >= 2"),
    "units": (lambda v: _is_int_at_least(v, 1), "an int >= 1"),
    "rate": (lambda v: _is_finite_number(v) and 0.0 <= v < 1.0, "a number in [0, 1)"),
    "activation": (lambda v: v in _ACTIVATIONS, "'relu' or 'sigmoid'"),
}


def _kind(kind: object, name: object) -> _Kind:
    if not isinstance(kind, str) or kind not in _LAYER_KINDS:
        raise ValidationError(f"layer {name!r}: unknown kind {kind!r}")
    return _LAYER_KINDS[kind]


WEIGHTS_MAGIC = b"TSTM"
WEIGHTS_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the model graph; ``_LAYER_KINDS`` says which fields
    each kind takes, and an unset optional field takes its ``_DEFAULTS``
    value."""

    kind: str
    name: str
    filters: int | None = None
    kernel: tuple[int, int] | None = None
    stride: int | None = None
    padding: str | None = None
    pool: int | None = None
    units: int | None = None
    rate: float | None = None
    activation: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError(f"layer name must be a non-empty string, got {self.name!r}")
        kind = _kind(self.kind, self.name)
        if isinstance(self.kernel, list):  # JSON has no tuples
            object.__setattr__(self, "kernel", tuple(self.kernel))
        for fname, (test, wanted) in _FIELD_RULES.items():
            value = getattr(self, fname)
            if value is None:
                if fname in kind.required:
                    raise ValidationError(f"layer {self.name}: {self.kind} requires {fname}")
                if fname in kind.optional and fname in _DEFAULTS:
                    object.__setattr__(self, fname, _DEFAULTS[fname])
            elif fname not in kind.fields:
                raise ValidationError(f"layer {self.name}: {self.kind} does not take {fname}")
            elif not test(value):
                raise ValidationError(
                    f"layer {self.name}: {fname} must be {wanted}, got {value!r}"
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def conv(
        cls,
        name: str,
        filters: int,
        kernel: tuple[int, int] = (3, 3),
        stride: int = 1,
        padding: str = "same",
        activation: str | None = None,
    ) -> "LayerSpec":
        return cls(
            kind="conv2d", name=name, filters=filters, kernel=tuple(kernel),
            stride=stride, padding=padding, activation=activation,
        )

    @classmethod
    def maxpool(cls, name: str, pool: int = 2) -> "LayerSpec":
        return cls(kind="maxpool2", name=name, pool=pool)

    @classmethod
    def batchnorm(cls, name: str) -> "LayerSpec":
        return cls(kind="batchnorm", name=name)

    @classmethod
    def flatten(cls, name: str = "flatten") -> "LayerSpec":
        return cls(kind="flatten", name=name)

    @classmethod
    def dense(cls, name: str, units: int, activation: str | None = None) -> "LayerSpec":
        return cls(kind="dense", name=name, units=units, activation=activation)

    @classmethod
    def dropout(cls, name: str, rate: float) -> "LayerSpec":
        return cls(kind="dropout", name=name, rate=rate)

    @classmethod
    def act(cls, name: str, activation: str) -> "LayerSpec":
        return cls(kind="activation", name=name, activation=activation)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.kind, "name": self.name}
        for fname in _LAYER_KINDS[self.kind].fields:
            value = getattr(self, fname)
            if value is not None:
                obj[fname] = list(value) if fname == "kernel" else value
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "LayerSpec":
        if not isinstance(obj, Mapping) or "kind" not in obj or "name" not in obj:
            raise FormatError(f"bad layer spec entry: {obj!r}")
        try:
            fields = {"kind", "name", *_kind(obj["kind"], obj["name"]).fields}
            _require_keys(obj, fields, set(), f"layer {obj['name']!r}")
            return cls(**obj)
        except ValidationError as exc:
            raise FormatError(str(exc)) from exc


@dataclass(frozen=True)
class ModelSpec:
    """Input geometry plus an ordered layer list, shape-checked end to end.

    The chain must terminate in a single sigmoid unit so that the forward
    pass yields a probability.
    """

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 3 or not all(_is_int_at_least(v, 1) for v in self.input_shape):
            raise ValidationError(
                f"bad input shape {self.input_shape}, expected three ints >= 1"
            )
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValidationError("layer names must be unique")
        shapes = self.output_shapes()
        final = shapes[-1] if shapes else self.input_shape
        if final != (1,):
            raise ValidationError(
                f"model must end in a single output unit, final shape is {final}"
            )
        if self._final_activation() != "sigmoid":
            raise ValidationError("model must end with a sigmoid activation")

    def _final_activation(self) -> str | None:
        for layer in reversed(self.layers):
            if layer.kind == "dropout":
                continue
            if layer.kind in ("dense", "conv2d", "activation"):
                return layer.activation
            return None
        return None

    def output_shapes(self) -> list[tuple[int, ...]]:
        """Shape after each layer; raises if any step is inconsistent."""
        shape: tuple[int, ...] = self.input_shape
        shapes: list[tuple[int, ...]] = []
        for layer in self.layers:
            shape = _layer_output_shape(layer, shape)
            shapes.append(shape)
        return shapes

    def layer_input_shapes(self) -> list[tuple[int, ...]]:
        return [self.input_shape] + self.output_shapes()[:-1]

    def to_json_obj(self) -> dict:
        return {
            "input": list(self.input_shape),
            "layers": [layer.to_json_obj() for layer in self.layers],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "ModelSpec":
        _require_keys(obj, {"input", "layers"}, {"input", "layers"}, "model spec")
        shape = obj["input"]
        if not isinstance(shape, list):
            raise FormatError(f"model spec: bad input shape {shape!r}")
        if not isinstance(obj["layers"], list):
            raise FormatError(f"model spec: 'layers' must be a list, got {obj['layers']!r}")
        layers = tuple(LayerSpec.from_json_obj(entry) for entry in obj["layers"])
        try:
            return cls(input_shape=tuple(shape), layers=layers)
        except ValidationError as exc:
            raise FormatError(str(exc)) from exc


def _conv_output_size(
    h: int, w: int, kh: int, kw: int, stride: int, padding: str
) -> tuple[int, int] | None:
    """Output height and width of a ``kh``x``kw`` conv over an ``h``x``w``
    input, or None where a "valid" kernel does not fit in the input."""
    if padding == "same":
        return -(-h // stride), -(-w // stride)
    if h < kh or w < kw:
        return None
    return (h - kh) // stride + 1, (w - kw) // stride + 1


def _layer_output_shape(layer: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    kind = layer.kind
    if kind == "conv2d":
        if len(shape) != 3:
            raise ValidationError(f"layer {layer.name}: conv2d needs a 3-D input, got {shape}")
        h, w, _ = shape
        kh, kw = layer.kernel  # type: ignore[misc]
        size = _conv_output_size(h, w, kh, kw, layer.stride, layer.padding)
        if size is None:
            raise ValidationError(
                f"layer {layer.name}: input {h}x{w} smaller than kernel {kh}x{kw}"
            )
        return (*size, layer.filters)  # type: ignore[return-value]
    if kind == "maxpool2":
        if len(shape) != 3:
            raise ValidationError(f"layer {layer.name}: maxpool needs a 3-D input, got {shape}")
        pool = layer.pool
        h, w, c = shape
        if h < pool or w < pool:
            raise ValidationError(f"layer {layer.name}: input {h}x{w} smaller than pool {pool}")
        return (h // pool, w // pool, c)
    if kind == "batchnorm":
        if len(shape) != 3:
            raise ValidationError(f"layer {layer.name}: batchnorm needs a 3-D input, got {shape}")
        return shape
    if kind == "flatten":
        return (math.prod(shape),)
    if kind == "dense":
        if len(shape) != 1:
            raise ValidationError(f"layer {layer.name}: dense needs a flat input, got {shape}")
        return (layer.units,)  # type: ignore[return-value]
    # dropout / activation
    return shape


# Weight stores map layer name -> param name -> float32 array.
WeightStore = Mapping[str, Mapping[str, np.ndarray]]


def expected_weight_shapes(spec: ModelSpec) -> dict[str, dict[str, tuple[int, ...]]]:
    """Shapes every weight array must have for the given spec."""
    shapes: dict[str, dict[str, tuple[int, ...]]] = {}
    for layer, in_shape in zip(spec.layers, spec.layer_input_shapes()):
        names = _LAYER_KINDS[layer.kind].weights
        if not names:
            continue
        if layer.kind == "conv2d":
            kernel, out = (*layer.kernel, in_shape[2], layer.filters), layer.filters
        elif layer.kind == "dense":
            kernel, out = (in_shape[0], layer.units), layer.units
        else:  # batchnorm: gamma, beta, mean and var hold one value per channel
            kernel, out = None, in_shape[2]
        shapes[layer.name] = {n: kernel if n == "kernel" else (out,) for n in names}
    return shapes


def validate_weights(spec: ModelSpec, weights: WeightStore) -> None:
    """Check a weight store against a spec: every array the spec names and no
    other, shapes, finite values and non-negative variances."""
    expected = expected_weight_shapes(spec)
    for layer_name, params in expected.items():
        if layer_name not in weights:
            raise ValidationError(f"missing weights for layer {layer_name}")
        for param_name, shape in params.items():
            if param_name not in weights[layer_name]:
                raise ValidationError(f"layer {layer_name}: missing array {param_name!r}")
            arr = np.asarray(weights[layer_name][param_name])
            if arr.shape != shape:
                raise ValidationError(
                    f"layer {layer_name}: array {param_name!r} has shape "
                    f"{arr.shape}, expected {shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"layer {layer_name}: {param_name!r} has non-finite values")
        if "var" in params and np.any(np.asarray(weights[layer_name]["var"]) < 0):
            raise ValidationError(f"layer {layer_name}: negative moving variance")
        for param_name in weights[layer_name]:
            if param_name not in params:
                raise ValidationError(f"layer {layer_name}: unexpected array {param_name!r}")
    for layer_name in weights:
        if layer_name not in expected:
            raise ValidationError(f"unexpected weights for layer {layer_name!r}")


# -- layer operations ------------------------------------------------------


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign to stay finite for large |x|.
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    expx = np.exp(x[~positive])
    out[~positive] = expx / (1.0 + expx)
    return out


def _apply_activation(x: np.ndarray, activation: str | None) -> np.ndarray:
    if activation is None:
        return x
    if activation == "relu":
        return relu(x)
    if activation == "sigmoid":
        return sigmoid(x)
    raise ValidationError(f"unknown activation {activation!r}")


def _read_pixels(x: np.ndarray) -> np.ndarray:
    """``x`` as float64, 8-bit pixels read as ``x / 255`` into [0, 1]."""
    x = np.asarray(x)
    if x.dtype == np.uint8:
        # uint8 -> float64 is exact, so casting inside the divide gives the
        # same bits as casting first.
        return np.divide(x, 255.0, dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


# About half of one core's 2 MiB L2: a strip's im2col rows and its product
# rows, which leaves room for the kernel matrix.
_STRIP_BYTES = 1 << 20
# The fewest multiply-adds a strip's GEMM may have, so that OpenBLAS computes
# it with the same kernel as the whole product (see the module docstring).
_MIN_STRIP_MACS = 1 << 20
# A dense kernel whose unit count is a multiple of this is cast to float64
# and multiplied this many columns at a time; OpenBLAS's gemv gives each
# output the bits of the whole product at such widths, not at ragged ones.
_DENSE_BLOCK = 16

# Each thread's scratch buffers, reused across strips, layers and frames.
_scratch = threading.local()


def _scratch_buffer(slot: str, size: int) -> np.ndarray:
    """``size`` float64s of this thread's buffer ``slot``, grown on demand."""
    buf = getattr(_scratch, slot, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_scratch, slot, buf)
    return buf[:size]


def _strip_bounds(out_h: int, out_w: int, depth: int, filters: int, pool: int) -> list[int]:
    """Conv-row bounds of the strips of an ``out_h`` x ``out_w`` conv whose
    GEMM has inner dimension ``depth``.

    Each strip is a whole number of pool windows, spread evenly: as few
    strips as keep each strip's im2col and product rows within
    ``_STRIP_BYTES``, but no more than leave every strip's GEMM 2 rows and
    ``_MIN_STRIP_MACS`` multiply-adds. The last strip also takes the rows
    that the pool drops; a conv with fewer than two strips is one strip, and
    so is a one-filter conv, whose product numpy computes with gemv.
    """
    window = pool * out_w  # GEMM rows per pool window
    windows = out_h // pool
    most = max(_STRIP_BYTES // (window * (depth + filters) * 8), 1)
    least = max(-(-_MIN_STRIP_MACS // (window * depth * filters)), -(-2 // window))
    strips = min(-(-windows // most), windows // least)
    if strips < 2 or filters == 1:
        return [0, out_h]
    return [pool * (i * windows // strips) for i in range(strips)] + [out_h]


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    padding: str = "same",
    pool: int = 1,
    relu: bool = False,
    batchnorm: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """2-D cross-correlation over a channel-last tensor, then with
    ``pool > 1`` a max-pool with window = stride = ``pool``, then with
    ``relu`` a ReLU, then with ``batchnorm = (gamma, beta, mean, var)`` an
    inference batchnorm.

    ``kernel`` is ``(kh, kw, in_channels, filters)``; "same" zero-pads so
    that stride-1 output keeps the input height and width. A uint8 ``x``
    is read as ``x / 255``, each strip's rows divided as they are copied
    into its padded scratch. The output is bit-identical to
    ``batchnorm_infer(relu(maxpool2(conv2d(...), pool)), *batchnorm)``,
    each step taken only when asked for.
    """
    x = np.asarray(x)
    if x.dtype != np.uint8:
        x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"conv2d input must be 3-D, got shape {x.shape}")
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d kernel must be 4-D, got shape {kernel.shape}")
    kh, kw, in_ch, filters = kernel.shape
    if x.shape[2] != in_ch:
        raise ShapeError(
            f"conv2d channel mismatch: input has {x.shape[2]}, kernel expects {in_ch}"
        )
    if bias.shape != (filters,):
        raise ShapeError(f"conv2d bias must have shape ({filters},), got {bias.shape}")
    if stride < 1:
        raise ValueError(f"conv2d stride must be >= 1, got {stride}")
    if pool < 1:
        raise ValueError(f"conv2d pool must be >= 1, got {pool}")

    if padding not in ("same", "valid"):
        raise ValueError(f"conv2d padding must be 'same' or 'valid', got {padding!r}")
    h, w, _ = x.shape
    size = _conv_output_size(h, w, kh, kw, stride, padding)
    if size is None:
        raise ShapeError(f"conv2d: input {h}x{w} smaller than kernel {kh}x{kw}")
    out_h, out_w = size
    # A "valid" conv's windows end inside the input, so it pads nothing.
    pad_h = max((out_h - 1) * stride + kh - h, 0)
    pad_w = max((out_w - 1) * stride + kw - w, 0)
    if out_h < pool or out_w < pool:
        raise ShapeError(f"conv2d: output {out_h}x{out_w} smaller than pool window {pool}")
    if batchnorm is not None:
        mean, scale, beta = _batchnorm_terms(filters, *batchnorm)

    top, left, wide = pad_h // 2, pad_w // 2, w + pad_w
    depth = kh * kw * in_ch
    matrix = kernel.reshape(depth, filters)
    out = np.empty((out_h // pool, out_w // pool, filters))
    bounds = _strip_bounds(out_h, out_w, depth, filters, pool)

    # Strips write disjoint rows of ``out``, each through its thread's scratch.
    # A strip pools its product, then adds the bias and applies ReLU and the
    # batchnorm to its own output rows. Bias after the pool is exact: rounding
    # is monotone, so max(a + b, c + b) == max(a, c) + b bit for bit.
    def run_strip(rows: tuple[int, int]) -> None:
        r0, r1 = rows
        m = (r1 - r0) * out_w
        # The strip reads padded rows [p0, p1): input rows [i0, i1) between
        # zero borders, every border cell written, as the buffer may be stale.
        p0, p1 = r0 * stride, (r1 - 1) * stride + kh
        i0, i1 = max(p0 - top, 0), min(p1 - top, h)
        pad = _scratch_buffer("pad", (p1 - p0) * wide * in_ch).reshape(p1 - p0, wide, in_ch)
        pad[: i0 + top - p0] = 0.0
        pad[i1 + top - p0 :] = 0.0
        pad[:, :left] = 0.0
        pad[:, left + w :] = 0.0
        rows = pad[i0 + top - p0 : i1 + top - p0, left : left + w]
        if x.dtype == np.uint8:
            np.divide(x[i0:i1], 255.0, out=rows, dtype=np.float64)
        else:
            rows[...] = x[i0:i1]
        sy, sx, sc = pad.strides
        strides = (stride * sy, stride * sx, sy, sx, sc)
        cols = np.ndarray((r1 - r0, out_w, kh, kw, in_ch), np.float64, pad, 0, strides)
        strip = _scratch_buffer("cols", m * depth).reshape(cols.shape)
        strip[...] = cols
        if pool == 1:
            prod = out[r0:r1].reshape(m, filters)
        else:
            prod = _scratch_buffer("prod", m * filters).reshape(m, filters)
        np.dot(strip.reshape(m, depth), matrix, out=prod)
        done = out[r0 // pool : r1 // pool]
        if pool > 1:
            _pool_into(prod.reshape(r1 - r0, out_w, filters), pool, done)
        done += bias
        if relu:
            np.maximum(done, 0.0, out=done)
        if batchnorm is not None:
            done -= mean
            done *= scale
            done += beta

    _spread(run_strip, list(zip(bounds, bounds[1:])))
    return out


def _pool_into(x: np.ndarray, pool: int, out: np.ndarray) -> None:
    """Max-pool ``x`` into ``out``, window = stride = ``pool``; ``out``'s
    height and width say how many windows to take."""
    # Max is exact, but not symmetric in signed zeros: np.maximum(-0.0, 0.0)
    # is 0.0 and np.maximum(0.0, -0.0) is -0.0. Folding the pool**2 strided
    # views in this order, row-major over the window, gives the bits of the
    # windowed max reduction; test_bit_equal_to_windowed_max_reduction pins
    # it, and a row-then-column fold fails it.
    h2, w2 = out.shape[:2]
    views = [
        x[a : h2 * pool : pool, b : w2 * pool : pool] for a in range(pool) for b in range(pool)
    ]
    np.maximum(views[0], views[1], out=out)
    for view in views[2:]:
        np.maximum(out, view, out=out)


def maxpool2(x: np.ndarray, pool: int = 2) -> np.ndarray:
    """Max pooling with window = stride = ``pool``; trailing rows/cols drop."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"maxpool input must be 3-D, got shape {x.shape}")
    if pool < 2:
        raise ValueError(f"pool size must be >= 2, got {pool}")
    h, w, c = x.shape
    if h < pool or w < pool:
        raise ShapeError(f"maxpool: input {h}x{w} smaller than pool window {pool}")
    out = np.empty((h // pool, w // pool, c))
    _pool_into(x, pool, out)
    return out


def batchnorm_infer(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-3,
) -> np.ndarray:
    """Inference-time batch normalization with per-channel statistics."""
    x = np.asarray(x, dtype=np.float64)
    mean, scale, beta = _batchnorm_terms(x.shape[-1], gamma, beta, mean, var, eps)
    out = x - mean
    out *= scale
    out += beta
    return out


def _batchnorm_terms(
    channels: int,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked float64 ``(mean, scale, beta)`` of a batchnorm over
    ``channels`` channels, which computes ``(x - mean) * scale + beta``."""
    params = {}
    for name, arr in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != (channels,):
            raise ShapeError(
                f"batchnorm {name} must have shape ({channels},), got {arr.shape}"
            )
        params[name] = arr
    if np.any(params["var"] < 0):
        raise ValidationError("batchnorm variance must be non-negative")
    scale = params["gamma"] / np.sqrt(params["var"] + eps)
    return params["mean"], scale, params["beta"]


def dense(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    activation: str | None = None,
) -> np.ndarray:
    """Fully connected layer: ``act(x @ W + b)`` with ``W`` of shape (in, out).

    ``W`` is cast to float64 in ``_DENSE_BLOCK``-column blocks through this
    thread's im2col scratch when its column count is a multiple of that,
    else as one block, so a float32 kernel is never copied whole; the result
    is the whole float64 product's, bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"dense input must be a flat vector, got shape {x.shape}")
    if weights.ndim != 2 or weights.shape[0] != x.shape[0]:
        raise ShapeError(
            f"dense weights must have shape ({x.shape[0]}, out), got {weights.shape}"
        )
    if bias.shape != (weights.shape[1],):
        raise ShapeError(
            f"dense bias must have shape ({weights.shape[1]},), got {bias.shape}"
        )
    depth, units = weights.shape
    width = _DENSE_BLOCK if units % _DENSE_BLOCK == 0 else units
    out = np.empty(units)
    # The im2col slot: this thread runs no conv strip while it runs a dense.
    block = _scratch_buffer("cols", depth * width).reshape(depth, width)
    for j in range(0, units, width):
        np.copyto(block, weights[:, j : j + width])
        np.matmul(x, block, out=out[j : j + width])
    out += bias
    return _apply_activation(out, activation)


def flatten(x: np.ndarray) -> np.ndarray:
    """Flatten to 1-D in row-major, channel-last order."""
    return np.asarray(x).reshape(-1)


def forward(spec: ModelSpec, weights: WeightStore, x: np.ndarray) -> float:
    """Run the full layer chain and return the output probability.

    Pure function of (spec, weights, input); any shape failure aborts with
    the offending layer's name. A uint8 ``x``, a stage's 8-bit pixels, is
    read as ``x / 255``: by the first conv's strips as they pad it, or
    divided once up front when the first layer is not a conv.
    """
    x = np.asarray(x)
    if x.shape != spec.input_shape:
        raise ShapeError(f"input shape {x.shape} does not match spec {spec.input_shape}")
    layers = spec.layers
    if x.dtype != np.uint8 or layers[0].kind != "conv2d":
        x = _read_pixels(x)
    i = 0
    while i < len(layers):
        layer = layers[i]
        pool = norm = None
        if layer.kind == "conv2d" and layer.activation != "sigmoid":
            pool = _layer_of_kind(layers, i + 1, "maxpool2")
            norm = _layer_of_kind(layers, i + 1 + (pool is not None), "batchnorm")
        try:
            x = _forward_layer(layer, weights, x, pool, norm)
        except (ShapeError, ValidationError, KeyError) as exc:
            raise ShapeError(f"layer {layer.name}: {exc}") from exc
        i += 1 + (pool is not None) + (norm is not None)
    return float(x[0])


def _layer_of_kind(layers: Sequence[LayerSpec], i: int, kind: str) -> LayerSpec | None:
    """``layers[i]`` if there is one and it is a ``kind`` layer, else None."""
    return layers[i] if i < len(layers) and layers[i].kind == kind else None


def _forward_layer(
    layer: LayerSpec,
    weights: WeightStore,
    x: np.ndarray,
    pool: LayerSpec | None = None,
    norm: LayerSpec | None = None,
) -> np.ndarray:
    """Run one step: a layer, or a relu or linear conv together with the
    max-pool ``pool`` and the batchnorm ``norm`` that directly follow it.

    ReLU is monotone non-decreasing and exact, so it commutes with max:
    pooling first gives the same output, and ReLU and the batchnorm run on
    each strip's pooled rows inside the conv.
    """
    kind = layer.kind
    if kind == "conv2d":
        params = weights[layer.name]
        bn = None if norm is None else weights[norm.name]
        relu = layer.activation == "relu"
        out = conv2d(
            x, params["kernel"], params["bias"], layer.stride, layer.padding,
            1 if pool is None else pool.pool,
            relu=relu,
            batchnorm=None if bn is None else (bn["gamma"], bn["beta"], bn["mean"], bn["var"]),
        )
        return out if relu else _apply_activation(out, layer.activation)
    if kind == "maxpool2":
        return maxpool2(x, layer.pool)
    if kind == "batchnorm":
        params = weights[layer.name]
        return batchnorm_infer(x, params["gamma"], params["beta"], params["mean"], params["var"])
    if kind == "flatten":
        return flatten(x)
    if kind == "dense":
        params = weights[layer.name]
        return dense(x, params["kernel"], params["bias"], layer.activation)
    if kind == "dropout":
        return x  # inference no-op
    if kind == "activation":
        return _apply_activation(x, layer.activation)
    raise ValidationError(f"unknown layer kind {kind!r}")


def classify(score: float, threshold: float = 0.5) -> bool:
    """Binary decision: positive iff the probability reaches the threshold."""
    return score >= threshold


def count_params(spec: ModelSpec) -> int:
    """Total number of stored parameters: conv/dense weights+biases, 4 per
    batchnorm channel; pooling, flatten, dropout and activations carry none."""
    shapes = expected_weight_shapes(spec).values()
    return sum(math.prod(shape) for params in shapes for shape in params.values())


def count_macs(spec: ModelSpec) -> int:
    """Multiply-adds of one forward pass: ``kh * kw * in_channels`` per conv
    output value and one per dense weight; other layers make none."""
    total, shape = 0, spec.input_shape
    for layer, out in zip(spec.layers, spec.output_shapes()):
        if layer.kind == "conv2d":
            kh, kw = layer.kernel  # type: ignore[misc]
            total += kh * kw * shape[2] * math.prod(out)
        elif layer.kind == "dense":
            total += shape[0] * out[0]
        shape = out
    return total


def default_model_spec(channels: int = 3, height: int = 300, width: int = 300) -> ModelSpec:
    """The stock architecture used by both ensemble stages.

    Five conv blocks (3x3 same-padding conv with relu, 2x2 maxpool,
    batchnorm) with filter counts 16/32/64/128/128, then dropout 0.2,
    flatten, dense 64 relu, dropout 0.2, dense 16 relu, dense 1 sigmoid.
    The two stages differ only in the first conv's input channel count.
    """
    layers: list[LayerSpec] = []
    for i, filters in enumerate((16, 32, 64, 128, 128), start=1):
        layers.append(LayerSpec.conv(f"conv{i}", filters, (3, 3), activation="relu"))
        layers.append(LayerSpec.maxpool(f"pool{i}"))
        layers.append(LayerSpec.batchnorm(f"bn{i}"))
    layers.append(LayerSpec.dropout("dropout1", 0.2))
    layers.append(LayerSpec.flatten())
    layers.append(LayerSpec.dense("dense1", 64, activation="relu"))
    layers.append(LayerSpec.dropout("dropout2", 0.2))
    layers.append(LayerSpec.dense("dense2", 16, activation="relu"))
    layers.append(LayerSpec.dense("dense3", 1, activation="sigmoid"))
    return ModelSpec(input_shape=(height, width, channels), layers=tuple(layers))


def random_weights(spec: ModelSpec, seed: int) -> dict[str, dict[str, np.ndarray]]:
    """Seeded random weight store matching ``spec`` (for tests and benchmarks)."""
    rng = np.random.default_rng(seed)
    store: dict[str, dict[str, np.ndarray]] = {}
    for layer_name, params in expected_weight_shapes(spec).items():
        arrays: dict[str, np.ndarray] = {}
        for param_name, shape in params.items():
            if param_name == "kernel":
                arr = rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[:-1])), size=shape)
            elif param_name == "bias":
                arr = np.zeros(shape)
            elif param_name == "gamma":
                arr = rng.uniform(0.8, 1.2, size=shape)
            elif param_name == "var":
                arr = rng.uniform(0.5, 1.5, size=shape)
            else:  # beta, mean
                arr = rng.normal(0.0, 0.05, size=shape)
            arrays[param_name] = arr.astype(np.float32)
            arrays[param_name].setflags(write=False)
        store[layer_name] = arrays
    return store


# -- weight container ------------------------------------------------------


def _spec_json_bytes(spec: ModelSpec) -> bytes:
    return json.dumps(spec.to_json_obj(), sort_keys=True, separators=(",", ":")).encode()


def _record_layout(
    spec: ModelSpec, where: str | Path
) -> list[tuple[str, str, tuple[int, ...], bytes]]:
    """Every record of ``spec``'s container in container order, the layers in
    spec order and each layer's arrays in ``_LAYER_KINDS`` order: its layer,
    array name, shape and header (u16 name length, UTF-8 name ``layer/param``,
    u8 rank, u32 dims). A name or dim its field cannot hold raises
    :class:`FormatError` naming ``where``."""
    layout = []
    for layer, params in expected_weight_shapes(spec).items():
        for param, shape in params.items():
            name = f"{layer}/{param}"
            try:
                raw = name.encode()
                rank = len(shape)
                header = struct.pack(f"<H{len(raw)}sB{rank}I", len(raw), raw, rank, *shape)
            except (UnicodeEncodeError, struct.error) as exc:
                raise FormatError(f"{where}: record {name!r} {shape} does not fit: {exc}") from exc
            layout.append((layer, param, shape, header))
    return layout


def save_weights(path: str | Path, spec: ModelSpec, weights: WeightStore) -> None:
    """Serialize a (spec, weights) pair to the binary weight container.

    Layout: magic ``TSTM``, u32 version, u32-length-prefixed JSON spec,
    then each record of :func:`_record_layout`: its header, then its
    float32 data. All integers and floats little-endian; arrays row-major.
    """
    validate_weights(spec, weights)
    spec_json = _spec_json_bytes(spec)
    chunks = [WEIGHTS_MAGIC, struct.pack("<II", WEIGHTS_VERSION, len(spec_json)), spec_json]
    for layer, param, _, header in _record_layout(spec, path):
        chunks += [header, np.ascontiguousarray(weights[layer][param], dtype="<f4").tobytes()]
    Path(path).write_bytes(b"".join(chunks))


def load_weights(path: str | Path) -> tuple[ModelSpec, dict[str, dict[str, np.ndarray]]]:
    """Load a weight container; the inverse of :func:`save_weights`.

    Round-trips bit-exactly. The spec fixes every record, so the file's size
    is checked against it before any record is read; each record header must
    be the one :func:`_record_layout` fixes, in its order, and the arrays are
    checked by :func:`validate_weights`. Every error names the file.
    """
    path = Path(path)
    try:
        file = open(path, "rb")
    except FileNotFoundError as exc:
        raise LoadError(f"weights file not found: {path}") from exc
    with file:
        size = os.fstat(file.fileno()).st_size
        head = file.read(12)
        if head[:4] != WEIGHTS_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {WEIGHTS_MAGIC!r}")
        if len(head) < 12:
            raise FormatError(f"{path}: truncated: {len(head)} bytes, the head takes 12")
        version, spec_len = struct.unpack("<II", head[4:])
        if version != WEIGHTS_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if spec_len > JSON_MAX_BYTES:
            raise FormatError(f"{path}: spec larger than {JSON_MAX_BYTES} bytes")
        if spec_len > size - 12:
            raise FormatError(f"{path}: truncated: {size - 12} bytes of a {spec_len}-byte spec")
        try:
            spec = ModelSpec.from_json_obj(_parse_json(file.read(spec_len), "spec"))
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        layout = _record_layout(spec, path)
        total = sum(len(header) + 4 * math.prod(shape) for _, _, shape, header in layout)
        # The size is checked before any record byte is read.
        if size - 12 - spec_len != total or len(data := file.read(total)) != total:
            raise FormatError(
                f"{path}: the spec fixes {total} bytes of weight records, "
                f"the file holds {size - 12 - spec_len}"
            )
    store: dict[str, dict[str, np.ndarray]] = {}
    pos = 0
    for layer, param, shape, header in layout:
        if not data.startswith(header, pos):
            raise FormatError(
                f"{path}: the record at byte {12 + spec_len + pos} is not "
                f"{layer + '/' + param!r} of dims {shape}"
            )
        pos += len(header)
        count = math.prod(shape)
        store.setdefault(layer, {})[param] = np.frombuffer(data, "<f4", count, pos).reshape(shape)
        pos += 4 * count
    try:
        validate_weights(spec, store)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return spec, store
