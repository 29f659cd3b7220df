"""Independent numpy reference for the frame path, fusion, events, scoring
and output bytes.

The benchmark checks the program against these functions, so they share no
code with the package: nothing here imports ``verisemble``. They restate the
documented semantics.

The frame path is computed another way than the package computes it:

* the area-average resize in exact integer arithmetic;
* BT.601 luma with integer per-mille weights;
* the stock CNN with im2col convolution, reshape pooling and textbook
  batchnorm, dense and sigmoid formulas, from the architecture and weights
  that this module and ``inputs.py`` define.

So its scores agree with the program's to within rounding, not bit for bit.
Both round half up to 8 bits after the resize and the luma conversion. Where
the exact value sits on a .5 tie, the program's floating-point sum may land
just below it and round down, so that pixel differs by one. The reference
counts those ties. A stage whose inputs have none must match to
``EXACT_TOLERANCE``, otherwise to ``TIE_TOLERANCE``. Fusion and scoring use
whole-array numpy operations that do the same IEEE-754 operations in the
same order as the scalar definitions, so they compare bit for bit:

* majority packing and neighbor validation, folded over a stage chain;
* events as maximal positive runs stamped at their first frame;
* event matching with a tolerance;
* the bytes of ``detections.csv`` and ``report.json``.
"""

from __future__ import annotations

import json

import numpy as np

# The largest difference allowed between a score the program writes and the
# reference's. Two float64 forward passes over the same input differ by about
# 1e-15. A .5 tie rounded the other way moves a stock network's score by up
# to about 1e-4, and a frame has many ties.
EXACT_TOLERANCE = 1e-9
TIE_TOLERANCE = 5e-4
LUMA_PER_MILLE = (299, 587, 114)
BATCHNORM_EPS = 1e-3


def pack(labels: np.ndarray, pack_size: int) -> np.ndarray:
    """Majority vote over non-overlapping packs; a tie in a short tail is negative."""
    n = len(labels)
    if pack_size == 1 or n == 0:
        return labels.copy()
    starts = np.arange(0, n, pack_size)
    votes = np.add.reduceat(labels.astype(np.int64), starts)
    sizes = np.minimum(starts + pack_size, n) - starts
    return np.repeat(votes * 2 > sizes, sizes)


def _window_max(values: np.ndarray, radius: int) -> np.ndarray:
    out = values.copy()
    for shift in range(1, radius + 1):
        out[shift:] = np.maximum(out[shift:], values[:-shift])
        out[:-shift] = np.maximum(out[:-shift], values[shift:])
    return out


def validate(p_labels, p_scores, v_labels, v_scores, window: int):
    """Neighbor validation of a proposer against one verifier."""
    radius = (window - 1) // 2
    support = _window_max(v_labels, radius)
    best = _window_max(v_scores, radius)
    return p_labels & support, np.minimum(p_scores, best)


def chain(stages, pack_size: int, window: int):
    """Fold ``[(labels, scores), ...]``: the first proposes, the rest veto.

    Returns the fused ``(labels, scores)`` and the labels after each step:
    index 0 is the packed proposer, index ``k`` the stream after stage ``k``.
    """
    labels, scores = stages[0]
    if len(stages) == 1:
        return (labels, scores), [labels]
    labels = pack(labels, pack_size)
    steps = [labels]
    for v_labels, v_scores in stages[1:]:
        labels, scores = validate(labels, scores, v_labels, v_scores, window)
        steps.append(labels)
    return (labels, scores), steps


def events(labels: np.ndarray, scores: np.ndarray, fps: float) -> list[tuple[int, int, float, float]]:
    """Maximal positive runs as ``(start, end, start / fps, peak score)``."""
    edges = np.diff(np.concatenate(([0], labels.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    if len(starts) == 0:
        return []
    bounds = np.empty(2 * len(starts), dtype=np.int64)
    bounds[0::2] = starts
    bounds[1::2] = ends + 1
    # A sentinel keeps ``ends + 1`` a valid index when a run ends the stream.
    peaks = np.maximum.reduceat(np.append(scores, -np.inf), bounds)[0::2]
    stamps = starts.astype(np.float64) / fps
    return [
        (int(a), int(b), float(t), float(p))
        for a, b, t, p in zip(starts, ends, stamps, peaks)
    ]


def match(stamps: list[float], intervals: list[tuple[float, float]], tolerance_s: float) -> dict:
    """Event-level precision, recall and F1 with the documented tolerance rule."""
    t = np.asarray(stamps, dtype=np.float64)[:, None]
    a = np.asarray([s for s, _ in intervals], dtype=np.float64)[None, :]
    b = np.asarray([e for _, e in intervals], dtype=np.float64)[None, :]
    if t.size and a.size:
        inside = (a <= t) & (t <= b)
        dist = np.where(inside, 0.0, np.minimum(np.abs(t - a), np.abs(t - b)))
        hit = dist <= tolerance_s
        matched_events = int(hit.any(axis=1).sum())
        matched_intervals = int(hit.any(axis=0).sum())
    else:
        matched_events = matched_intervals = 0
    n_events, n_intervals = len(stamps), len(intervals)
    precision = matched_events / n_events if n_events else None
    recall = matched_intervals / n_intervals if n_intervals else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "events": n_events,
        "matched": matched_events,
        "intervals": n_intervals,
        "intervals_matched": matched_intervals,
    }


def detections_csv(evts: list[tuple[int, int, float, float]]) -> bytes:
    lines = ["timestamp_s,score"]
    lines += [f"{t:.3f},{repr(float(p))}" for _, _, t, p in evts]
    return ("\n".join(lines) + "\n").encode()


def report_json(report: dict, video: str) -> bytes:
    return (json.dumps(dict(report, video=video), indent=2, sort_keys=True) + "\n").encode()


# -- the frame path ------------------------------------------------------------


def stock_spec(channels: int, side: int) -> dict:
    """The stock architecture, as a weight container's spec JSON holds it.

    Five blocks of 3x3 same conv with relu, 2x2 max pool and batchnorm
    (16/32/64/128/128 filters), then dropout, flatten, dense 64 relu,
    dropout, dense 16 relu and dense 1 sigmoid.
    """
    layers: list[dict] = []
    for i, filters in enumerate((16, 32, 64, 128, 128), start=1):
        layers += [
            {"kind": "conv2d", "name": f"conv{i}", "filters": filters, "kernel": [3, 3],
             "stride": 1, "padding": "same", "activation": "relu"},
            {"kind": "maxpool2", "name": f"pool{i}", "pool": 2},
            {"kind": "batchnorm", "name": f"bn{i}"},
        ]
    layers += [
        {"kind": "dropout", "name": "dropout1", "rate": 0.2},
        {"kind": "flatten", "name": "flatten"},
        {"kind": "dense", "name": "dense1", "units": 64, "activation": "relu"},
        {"kind": "dropout", "name": "dropout2", "rate": 0.2},
        {"kind": "dense", "name": "dense2", "units": 16, "activation": "relu"},
        {"kind": "dense", "name": "dense3", "units": 1, "activation": "sigmoid"},
    ]
    return {"input": [side, side, channels], "layers": layers}


def weight_shapes(spec: dict) -> dict[str, dict[str, tuple[int, ...]]]:
    """Shape of every weight array of a spec, in container order."""
    h, w, c = spec["input"]
    flat = None
    shapes: dict[str, dict[str, tuple[int, ...]]] = {}
    for layer in spec["layers"]:
        kind, name = layer["kind"], layer["name"]
        if kind == "conv2d":
            kh, kw = layer["kernel"]
            shapes[name] = {"kernel": (kh, kw, c, layer["filters"]), "bias": (layer["filters"],)}
            c = layer["filters"]
        elif kind == "maxpool2":
            h, w = h // layer["pool"], w // layer["pool"]
        elif kind == "batchnorm":
            shapes[name] = {p: (c,) for p in ("gamma", "beta", "mean", "var")}
        elif kind == "flatten":
            flat = h * w * c
        elif kind == "dense":
            shapes[name] = {"kernel": (flat, layer["units"]), "bias": (layer["units"],)}
            flat = layer["units"]
    return shapes


def area_resize(pixels: np.ndarray, out_h: int, out_w: int) -> tuple[np.ndarray, int]:
    """Area-average downscale of uint8 ``(h, w, c)`` pixels, rounded half up,
    and the number of output values whose exact average ends in .5.

    In units of ``1 / out_n`` of a source pixel, target cell ``j`` spans
    ``[j * in_n, (j + 1) * in_n)`` and source pixel ``i`` spans
    ``[i * out_n, (i + 1) * out_n)``, so every coverage is an integer. The
    weighted sums stay below 2**53 and are exact in float64 whatever the
    summation order; the division and rounding are done on integers.
    """
    h, w, c = pixels.shape
    if (h, w) == (out_h, out_w):
        return pixels, 0
    if out_h > h or out_w > w:
        raise NotImplementedError("the reference only downscales")
    rows, cols = _coverage(h, out_h), _coverage(w, out_w)
    sums = (rows @ pixels.reshape(h, w * c).astype(np.float64)).reshape(out_h, w, c)
    sums = np.ascontiguousarray(sums.transpose(0, 2, 1)) @ cols.T  # (out_h, c, out_w)
    twice = 2 * np.rint(sums.transpose(0, 2, 1)).astype(np.int64)
    ties = int(np.count_nonzero(twice % (2 * h * w) == h * w))
    return ((twice + h * w) // (2 * h * w)).astype(np.uint8), ties


def _coverage(in_n: int, out_n: int) -> np.ndarray:
    j = np.arange(out_n)[:, None]
    i = np.arange(in_n)[None, :]
    lo = np.maximum(j * in_n, i * out_n)
    hi = np.minimum((j + 1) * in_n, (i + 1) * out_n)
    return np.maximum(hi - lo, 0).astype(np.float64)


def features(pixels: np.ndarray, channels: str) -> tuple[np.ndarray, int]:
    """A stage's input, ``RGB`` scaled to [0, 1] or rounded BT.601 luma ``L``,
    and the number of luma values whose exact value ends in .5."""
    if channels == "RGB":
        return pixels.astype(np.float64) / 255.0, 0
    if channels == "L":
        r, g, b = (pixels[:, :, k].astype(np.int64) for k in range(3))
        weights = LUMA_PER_MILLE
        milli = weights[0] * r + weights[1] * g + weights[2] * b
        luma = (milli + 500) // 1000
        ties = int(np.count_nonzero(milli % 1000 == 500))
        return (luma.astype(np.float64) / 255.0)[:, :, None], ties
    raise ValueError(f"the reference has no channel subset {channels!r}")


def penultimate(spec: dict, weights: dict, x: np.ndarray) -> np.ndarray:
    """The activations that enter the last layer of a stock network."""
    for layer in spec["layers"][:-1]:
        kind = layer["kind"]
        params = {k: v.astype(np.float64) for k, v in weights.get(layer["name"], {}).items()}
        if kind == "conv2d":
            x = np.maximum(_conv_same(x, params["kernel"], params["bias"]), 0.0)
        elif kind == "maxpool2":
            p = layer["pool"]
            h, w, c = x.shape
            x = x[: h // p * p, : w // p * p].reshape(h // p, p, w // p, p, c).max(axis=(1, 3))
        elif kind == "batchnorm":
            x = params["gamma"] * (x - params["mean"]) / np.sqrt(params["var"] + BATCHNORM_EPS)
            x = x + params["beta"]
        elif kind == "flatten":
            x = x.ravel()
        elif kind == "dense":
            x = x @ params["kernel"] + params["bias"]
            if layer.get("activation") == "relu":
                x = np.maximum(x, 0.0)
    return x


def _conv_same(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1 "same" cross-correlation: the shifted copies of the input, one
    per kernel tap, side by side (im2col), times the flattened kernel."""
    kh, kw, cin, filters = kernel.shape
    h, w, _ = x.shape
    top, left = (kh - 1) // 2, (kw - 1) // 2
    padded = np.zeros((h + kh - 1, w + kw - 1, cin))
    padded[top : top + h, left : left + w] = x
    columns = np.empty((h, w, kh, kw, cin))
    for dy in range(kh):
        for dx in range(kw):
            columns[:, :, dy, dx] = padded[dy : dy + h, dx : dx + w]
    out = columns.reshape(h * w, kh * kw * cin) @ kernel.reshape(kh * kw * cin, filters)
    return (out + bias).reshape(h, w, filters)


def sigmoid_score(hidden: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> float:
    """The last layer: one sigmoid unit over ``hidden``."""
    z = float(hidden @ kernel.astype(np.float64)[:, 0] + float(bias[0]))
    if z >= 0:
        return float(1.0 / (1.0 + np.exp(-z)))
    return float(np.exp(z) / (1.0 + np.exp(z)))
