"""Naive reference implementations used as test oracles.

Everything here is written straight from the documented behavior with
plain Python loops and no shared code with the library, so a bug in the
optimized implementations cannot hide in the reference and vice versa.
Slow on purpose; only tests import this module. Two exceptions use numpy:
``resize_integer``, which multiplies its loop-built integer weight matrices
so it can check full-size frames, and ``forward_frozen``, a frozen copy of
an earlier numpy forward pass that the faster one must equal bit for bit.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np


def clamp_u8(value: int) -> int:
    return 0 if value < 0 else 255 if value > 255 else value


# -- preprocessing ---------------------------------------------------------


def luma_pixel(r: int, g: int, b: int) -> int:
    """BT.601 luma, ``0.299*R + 0.587*G + 0.114*B`` with the weights read as
    exact decimals, rounded half up."""
    exact = Fraction("0.299") * r + Fraction("0.587") * g + Fraction("0.114") * b
    return math.floor(exact + Fraction(1, 2))


def _exact_axis_samples(out_n: int, in_n: int, j: int) -> list[tuple[int, Fraction]]:
    """(source index, exact weight) pairs for output cell j along one axis."""
    if out_n < in_n:
        # Box filter over [j, j + 1) * in_n / out_n in source coordinates.
        lo = Fraction(j * in_n, out_n)
        hi = Fraction((j + 1) * in_n, out_n)
        samples = []
        for r in range(in_n):
            overlap = min(Fraction(r + 1), hi) - max(Fraction(r), lo)
            if overlap > 0:
                samples.append((r, overlap / (hi - lo)))
        return samples
    # Bilinear between the two nearest half-pixel source centers.
    src = (Fraction(2 * j + 1, 2) * in_n) / out_n - Fraction(1, 2)
    src = min(max(src, Fraction(0)), Fraction(in_n - 1))
    i0 = math.floor(src)
    frac = src - i0
    if frac == 0:
        return [(i0, Fraction(1))]
    return [(i0, 1 - frac), (i0 + 1, frac)]


def resize_exact(pixels, out_w: int, out_h: int):
    """Resize a (h, w, c) nested list / array of uint8 values in exact
    rational arithmetic, rounding half up; returns nested lists of ints."""
    in_h = len(pixels)
    in_w = len(pixels[0])
    channels = len(pixels[0][0])
    out = []
    for j in range(out_h):
        row_samples = _exact_axis_samples(out_h, in_h, j)
        row = []
        for i in range(out_w):
            col_samples = _exact_axis_samples(out_w, in_w, i)
            px = []
            for c in range(channels):
                acc = Fraction(0)
                for y, wy in row_samples:
                    for x, wx in col_samples:
                        acc += wy * wx * int(pixels[y][x][c])
                px.append(clamp_u8(math.floor(acc + Fraction(1, 2))))
            row.append(px)
        out.append(row)
    return out


def _integer_axis_matrix(in_n: int, out_n: int):
    """Dense ``(out_n, in_n)`` integer resample weights and their row sum.

    Downscale: the coverage of source pixel i by target cell j, in units of
    1/out_n of a pixel. Otherwise: bilinear on half-pixel centres, in units
    of 1/(2 * out_n).
    """
    matrix = [[0] * in_n for _ in range(out_n)]
    if out_n < in_n:
        for j in range(out_n):
            for i in range(in_n):
                lo = max(j * in_n, i * out_n)
                hi = min((j + 1) * in_n, (i + 1) * out_n)
                if hi > lo:
                    matrix[j][i] = hi - lo
        return matrix, in_n
    denominator = 2 * out_n
    for j in range(out_n):
        src = min(max((2 * j + 1) * in_n - out_n, 0), denominator * (in_n - 1))
        i0, frac = divmod(src, denominator)
        matrix[j][i0] += denominator - frac
        if frac:
            matrix[j][i0 + 1] += frac
    return matrix, denominator


def resize_integer(pixels, out_w: int, out_h: int):
    """Resize a uint8 ``(h, w, c)`` array with dense integer weight matrices.

    Fast enough for full-size frames: the weighted sums are integers below
    2**53, so the float64 matrix products are exact in any summation order,
    and the final round-half-up is done in integers.
    """
    h, w, c = pixels.shape
    rows, d_y = _integer_axis_matrix(h, out_h)
    cols, d_x = _integer_axis_matrix(w, out_w)
    rows = np.array(rows, dtype=np.float64)
    cols = np.array(cols, dtype=np.float64)
    sums = (rows @ pixels.reshape(h, w * c).astype(np.float64)).reshape(out_h, w, c)
    sums = np.ascontiguousarray(sums.transpose(0, 2, 1)) @ cols.T  # (out_h, c, out_w)
    sums = sums.transpose(0, 2, 1)
    assert np.array_equal(sums, np.rint(sums)), "weighted sums must be integers"
    total = sums.astype(np.int64)
    denominator = d_y * d_x
    return ((2 * total + denominator) // (2 * denominator)).astype(np.uint8)


# -- network layers --------------------------------------------------------


def conv2d_ref(x, kernel, bias, stride: int = 1, padding: str = "same"):
    """Direct cross-correlation with explicit zero padding bounds."""
    in_h, in_w = len(x), len(x[0])
    kh, kw = len(kernel), len(kernel[0])
    in_ch = len(kernel[0][0])
    filters = len(kernel[0][0][0])
    if padding == "same":
        out_h = -(-in_h // stride)
        out_w = -(-in_w // stride)
        pad_h = max((out_h - 1) * stride + kh - in_h, 0)
        pad_w = max((out_w - 1) * stride + kw - in_w, 0)
        off_y = pad_h // 2
        off_x = pad_w // 2
    else:
        out_h = (in_h - kh) // stride + 1
        out_w = (in_w - kw) // stride + 1
        off_y = off_x = 0
    out = []
    for oy in range(out_h):
        row = []
        for ox in range(out_w):
            cell = []
            for f in range(filters):
                acc = float(bias[f])
                for ky in range(kh):
                    for kx in range(kw):
                        sy = oy * stride - off_y + ky
                        sx = ox * stride - off_x + kx
                        if 0 <= sy < in_h and 0 <= sx < in_w:
                            for c in range(in_ch):
                                acc += float(x[sy][sx][c]) * float(kernel[ky][kx][c][f])
                cell.append(acc)
            row.append(cell)
        out.append(row)
    return out


def maxpool_ref(x, pool: int = 2):
    in_h, in_w = len(x), len(x[0])
    channels = len(x[0][0])
    out_h, out_w = in_h // pool, in_w // pool
    out = []
    for oy in range(out_h):
        row = []
        for ox in range(out_w):
            cell = []
            for c in range(channels):
                best = float(x[oy * pool][ox * pool][c])
                for dy in range(pool):
                    for dx in range(pool):
                        v = float(x[oy * pool + dy][ox * pool + dx][c])
                        if v > best:
                            best = v
                cell.append(best)
            row.append(cell)
        out.append(row)
    return out


def batchnorm_ref(x, gamma, beta, mean, var, eps: float = 1e-3):
    out = []
    for row_in in x:
        row = []
        for cell_in in row_in:
            cell = []
            for c, v in enumerate(cell_in):
                cell.append(
                    float(gamma[c]) * (float(v) - float(mean[c]))
                    / math.sqrt(float(var[c]) + eps)
                    + float(beta[c])
                )
            row.append(cell)
        out.append(row)
    return out


def relu_ref(v: float) -> float:
    return v if v > 0 else 0.0


def sigmoid_ref(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def dense_ref(x, weights, bias, activation=None):
    n_in = len(x)
    n_out = len(bias)
    out = []
    for j in range(n_out):
        acc = float(bias[j])
        for i in range(n_in):
            acc += float(x[i]) * float(weights[i][j])
        if activation == "relu":
            acc = relu_ref(acc)
        elif activation == "sigmoid":
            acc = sigmoid_ref(acc)
        out.append(acc)
    return out


def flatten_ref(x):
    h, w = len(x), len(x[0])
    channels = len(x[0][0])
    out = [0.0] * (h * w * channels)
    for y in range(h):
        for xi in range(w):
            for c in range(channels):
                out[(y * w + xi) * channels + c] = float(x[y][xi][c])
    return out


def count_params_ref(input_channels: int, blocks, dense_units, flat_len: int) -> int:
    """Parameter count from the documented formulas.

    ``blocks`` is a list of (kernel_h, kernel_w, filters); each block is
    conv + batchnorm. ``dense_units`` lists the dense widths after the
    flatten of length ``flat_len``.
    """
    total = 0
    in_ch = input_channels
    for kh, kw, filters in blocks:
        total += kh * kw * in_ch * filters + filters  # conv kernel + bias
        total += 4 * filters  # batchnorm gamma/beta/mean/var
        in_ch = filters
    width = flat_len
    for units in dense_units:
        total += width * units + units
        width = units
    return total


def count_macs_ref(input_shape, layers) -> int:
    """Multiply-adds of one forward pass, counted layer by layer: a conv
    makes ``kh * kw * in_channels`` per output value and a dense layer one
    per input and unit. Shapes follow each layer's documented rule."""
    h, w, c = input_shape
    total = 0
    for layer in layers:
        if layer.kind == "conv2d":
            kh, kw = layer.kernel
            s = layer.stride
            if layer.padding == "same":
                h, w = math.ceil(h / s), math.ceil(w / s)
            else:
                h, w = (h - kh) // s + 1, (w - kw) // s + 1
            for _ in range(h * w * layer.filters):
                total += kh * kw * c
            c = layer.filters
        elif layer.kind == "maxpool2":
            h, w = h // layer.pool, w // layer.pool
        elif layer.kind == "flatten":
            h, w, c = 1, 1, h * w * c
        elif layer.kind == "dense":
            for _ in range(layer.units):
                total += h * w * c
            h, w, c = 1, 1, layer.units
    return total


def conv2d_frozen(x, kernel, bias, stride: int = 1, padding: str = "same"):
    """The earlier numpy conv: a sliding-window view contracted by tensordot,
    then ``+ bias``."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    kh, kw = kernel.shape[:2]
    h, w, _ = x.shape
    if padding == "same":
        out_h = -(-h // stride)
        out_w = -(-w // stride)
        pad_h = max((out_h - 1) * stride + kh - h, 0)
        pad_w = max((out_w - 1) * stride + kw - w, 0)
        x = np.pad(
            x,
            ((pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2), (0, 0)),
        )
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(0, 1))
    windows = windows[::stride, ::stride]  # (out_h, out_w, c, kh, kw)
    out = np.tensordot(windows, kernel, axes=([3, 4, 2], [0, 1, 2]))
    return out + bias


def _sigmoid_frozen(x):
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    expx = np.exp(x[~positive])
    out[~positive] = expx / (1.0 + expx)
    return out


def _activation_frozen(x, activation):
    if activation == "relu":
        return np.maximum(x, 0.0)
    if activation == "sigmoid":
        return _sigmoid_frozen(x)
    return x


def _maxpool_frozen(x, pool: int):
    h2, w2 = x.shape[0] // pool, x.shape[1] // pool
    views = [
        x[a : h2 * pool : pool, b : w2 * pool : pool] for a in range(pool) for b in range(pool)
    ]
    out = np.maximum(views[0], views[1])
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out


def forward_frozen(spec, weights, x, outputs=None) -> float:
    """The earlier layer-by-layer forward pass: each conv adds its bias and
    applies its activation at full resolution, then a separate max-pool,
    then ``(x - mean) * scale + beta`` batchnorm. Appends ``(layer name,
    output)`` for every layer to ``outputs`` when given."""
    x = np.asarray(x, dtype=np.float64)
    for layer in spec.layers:
        params = weights.get(layer.name, {})
        params = {name: np.asarray(arr, dtype=np.float64) for name, arr in params.items()}
        if layer.kind == "conv2d":
            out = conv2d_frozen(x, params["kernel"], params["bias"], layer.stride, layer.padding)
            x = _activation_frozen(out, layer.activation)
        elif layer.kind == "maxpool2":
            x = _maxpool_frozen(x, layer.pool or 2)
        elif layer.kind == "batchnorm":
            scale = params["gamma"] / np.sqrt(params["var"] + 1e-3)
            x = (x - params["mean"]) * scale + params["beta"]
        elif layer.kind == "flatten":
            x = x.reshape(-1)
        elif layer.kind == "dense":
            x = _activation_frozen(x @ params["kernel"] + params["bias"], layer.activation)
        elif layer.kind == "activation":
            x = _activation_frozen(x, layer.activation)
        if outputs is not None:
            outputs.append((layer.name, x))
    return float(x[0])


# -- fusion ----------------------------------------------------------------


def pack_ref(labels, pack_size: int):
    out = []
    n = len(labels)
    for start in range(0, n, pack_size):
        chunk = labels[start : start + pack_size]
        positives = 0
        for v in chunk:
            if v:
                positives += 1
        majority = positives > len(chunk) - positives
        for _ in chunk:
            out.append(majority)
    return out


def validate_ref(base_labels, base_scores, v_labels, v_scores, window: int):
    """One verification step: window support for labels, min/max for scores."""
    radius = (window - 1) // 2
    n = len(base_labels)
    out_labels = []
    out_scores = []
    for i in range(n):
        lo = i - radius
        if lo < 0:
            lo = 0
        hi = i + radius + 1
        if hi > n:
            hi = n
        support = False
        best = v_scores[lo]
        for j in range(lo, hi):
            if v_labels[j]:
                support = True
            if v_scores[j] > best:
                best = v_scores[j]
        out_labels.append(bool(base_labels[i]) and support)
        out_scores.append(base_scores[i] if base_scores[i] < best else best)
    return out_labels, out_scores


def fuse_ref(p_labels, p_scores, v_labels, v_scores, pack_size, window, packing):
    """Two-stage fusion; returns (labels, scores, first_stage_base_labels)."""
    if packing:
        base = pack_ref(p_labels, pack_size)
        out_labels, out_scores = validate_ref(base, p_scores, v_labels, v_scores, window)
    else:
        base = list(p_labels)
        out_labels, out_scores = validate_ref(base, p_scores, v_labels, v_scores, 1)
    return out_labels, out_scores, base


def chain_ref(stages, pack_size, window, packing):
    """Chained fusion over [(labels, scores), ...]; mirrors the fold."""
    labels, scores = list(stages[0][0]), list(stages[0][1])
    if len(stages) == 1:
        return labels, scores
    if packing:
        labels = pack_ref(labels, pack_size)
        step = window
    else:
        step = 1
    for v_labels, v_scores in stages[1:]:
        labels, scores = validate_ref(labels, scores, v_labels, v_scores, step)
    return labels, scores


# -- evaluation ------------------------------------------------------------


def interval_distance(t: float, start: float, end: float) -> float:
    if start <= t <= end:
        return 0.0
    return min(abs(t - start), abs(t - end))


def match_counts_ref(event_times, intervals, tol: float):
    """All-pairs matcher: (matched events, matched intervals)."""
    matched_events = 0
    for t in event_times:
        hit = False
        for start, end in intervals:
            if interval_distance(t, start, end) <= tol:
                hit = True
        if hit:
            matched_events += 1
    matched_intervals = 0
    for start, end in intervals:
        hit = False
        for t in event_times:
            if interval_distance(t, start, end) <= tol:
                hit = True
        if hit:
            matched_intervals += 1
    return matched_events, matched_intervals


# -- frame files -----------------------------------------------------------

# The P6 header as one regular expression: each number follows whitespace
# or comments, a comment runs from "#" to the end of its line, a number is
# ASCII digits with at most 20 after its leading zeros, width and height
# are at least 1, maxval is 255, and exactly one whitespace byte ends the
# header.
_PPM_SEPARATOR = rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*(?:\n|\Z))+"
_PPM_DIMENSION = rb"0*([1-9][0-9]{0,19})"
_PPM_HEADER = re.compile(
    rb"P6" + _PPM_SEPARATOR + _PPM_DIMENSION + _PPM_SEPARATOR + _PPM_DIMENSION
    + _PPM_SEPARATOR + rb"0*255[ \t\n\r\x0b\x0c]"
)


def ppm_header_ref(data: bytes):
    """``(width, height, payload offset)`` of a valid PPM header at the start
    of ``data``, else None; the payload is not looked at."""
    match = _PPM_HEADER.match(data)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2)), match.end()
