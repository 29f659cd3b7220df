"""Seeded inputs for the clip workloads, and the reference outputs for each.

``generate(workload, seed, directory)`` writes only files the program reads
(PPM frames, ``manifest.json``, a ground-truth CSV, a config JSON and weight
containers), plus ``reference.json`` and the reference output bytes that the
benchmark checks every run against. The same seed gives byte-identical files.
Nothing here imports ``verisemble``: the files are written to their
documented formats, and the weights and reference scores come from
``oracle.py``. So a change to the package cannot change the inputs of a seed
or the reference they are checked against.

Clip frames show a static scene with sensor noise. Event runs add either an
*object* (a bright ellipse that luma shows) or a *decoy* (an isoluminant
chroma shift that luma hides). The primary (RGB) is calibrated to fire on
both, the verifier (luma) on objects only, so the verifier vetoes decoys.
Only object runs are ground truth.

The stock networks get He-normal random weights. Their random read-out does
not separate events from background, so calibration replaces ``dense3`` with
a least-squares read-out of the ``dense2`` activations (events +1, background
-1) and sets ``dense3/bias`` midway between the two classes, or, where they
overlap, in the widest gap among the cuts that mislabel the fewest frames.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

FPS = 25.0
PACK_SIZE = 3
NEIGHBOR_WINDOW = 3
TOLERANCE_S = 1.0
THRESHOLD = 0.5


@dataclass(frozen=True)
class Clip:
    width: int
    height: int
    frames: int
    event_share: float
    decoys: bool
    workers: int


WORKLOADS: dict[str, Clip] = {
    "clip720-sparse": Clip(
        width=1280, height=720, frames=30, event_share=0.10, decoys=False, workers=1
    ),
    "clip300-dense": Clip(
        width=300, height=300, frames=40, event_share=0.75, decoys=True, workers=2
    ),
}

MODEL_SIDE = 300
CALIBRATION_ATTEMPTS = 5
# Each stage's channel subset, as the config names it.
STAGE_CHANNELS = ("RGB", "L")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, zlib.crc32(workload.encode())])


def _write_json(path: Path, obj: object) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_gt(path: Path, intervals: list[tuple[float, float]]) -> None:
    lines = ["start_s,end_s"] + [f"{a!r},{b!r}" for a, b in intervals]
    path.write_text("\n".join(lines) + "\n")


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the inputs and reference for one workload; returns the reference."""
    directory.mkdir(parents=True, exist_ok=True)
    reference = _generate_clip(WORKLOADS[workload], _rng(workload, seed), directory)
    reference.update(workload=workload, seed=seed)
    _write_json(directory / "reference.json", reference)
    return reference


# -- files in the program's formats --------------------------------------------


def encode_ppm(pixels: np.ndarray) -> bytes:
    """Binary PPM (P6, maxval 255) of uint8 ``(height, width, 3)`` pixels."""
    height, width, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (width, height) + np.ascontiguousarray(pixels).tobytes()


_PARAM_ORDER = {"conv2d": ("kernel", "bias"), "batchnorm": ("gamma", "beta", "mean", "var"),
                "dense": ("kernel", "bias")}


def write_weights(path: Path, spec: dict, weights: dict) -> None:
    """The binary weight container: magic ``TSTM``, u32 version 1, the
    u32-length-prefixed spec JSON, then per array a u16-length-prefixed
    ``layer/param`` name, u8 rank, u32 dims and float32 data, little-endian."""
    spec_json = json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
    chunks = [b"TSTM", struct.pack("<II", 1, len(spec_json)), spec_json]
    for layer in spec["layers"]:
        for param in _PARAM_ORDER.get(layer["kind"], ()):
            arr = np.ascontiguousarray(weights[layer["name"]][param], dtype="<f4")
            name = f"{layer['name']}/{param}".encode()
            chunks += [
                struct.pack("<H", len(name)), name,
                struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes(),
            ]
    path.write_bytes(b"".join(chunks))


def random_weights(spec: dict, rng: np.random.Generator) -> dict:
    """He-normal kernels, zero biases and mildly perturbed batchnorm statistics."""
    store = {}
    for name, params in oracle.weight_shapes(spec).items():
        arrays = {}
        for param, shape in params.items():
            if param == "kernel":
                arr = rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[:-1])), size=shape)
            elif param == "bias":
                arr = np.zeros(shape)
            elif param == "gamma":
                arr = rng.uniform(0.8, 1.2, size=shape)
            elif param == "var":
                arr = rng.uniform(0.5, 1.5, size=shape)
            else:  # beta, mean
                arr = rng.normal(0.0, 0.05, size=shape)
            arrays[param] = arr.astype(np.float32)
        store[name] = arrays
    return store


# -- clips -------------------------------------------------------------------


def _event_runs(spec: Clip, rng: np.random.Generator) -> list[tuple[int, int, str]]:
    """``(start, length, kind)`` runs covering about ``event_share`` of frames."""
    total = max(3, round(spec.event_share * spec.frames))
    lengths = []
    while total - sum(lengths) >= 3:
        left = total - sum(lengths)
        lengths.append(left if left <= 5 else int(rng.integers(3, min(5, left - 3) + 1)))
    kinds = ["object"] * len(lengths)
    if spec.decoys and len(lengths) > 1:
        # At least one run of each kind, the rest at random, in random order.
        kinds = ["object", "decoy"] + [
            str(k) for k in rng.choice(["object", "decoy"], size=len(lengths) - 2)
        ]
        rng.shuffle(kinds)
    # Split the background frames into len + 1 gaps; inner gaps are non-empty.
    spare = spec.frames - sum(lengths) - (len(lengths) - 1)
    cuts = np.sort(rng.integers(0, spare + 1, size=len(lengths)))
    gaps = np.diff(np.concatenate(([0], cuts)))
    runs, cursor = [], 0
    for i, (length, kind) in enumerate(zip(lengths, kinds)):
        cursor += int(gaps[i]) + (1 if i else 0)
        runs.append((cursor, length, kind))
        cursor += length
    return runs


def _scene(spec: Clip, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0 : spec.height, 0 : spec.width] / max(spec.height, spec.width)
    scene = np.empty((spec.height, spec.width, 3))
    for c in range(3):
        scene[:, :, c] = rng.uniform(105, 135)
        for _ in range(3):
            fy, fx, phase = rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), rng.uniform(0, 6.3)
            scene[:, :, c] += 8 * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase)
    return scene


# Chroma shift with zero BT.601 luma: 0.299*85 - 0.587*59.8 + 0.114*85 = 0.
_ISOLUMINANT = np.array([85.0, -(0.299 + 0.114) * 85.0 / 0.587, 85.0])
_OBJECT_COLORS = np.array([[250, 225, 40], [245, 245, 235], [80, 240, 250], [250, 170, 230]])


def _render(spec: Clip, scene: np.ndarray, runs, rng: np.random.Generator):
    """Frames as uint8 arrays plus the kind of each frame (None for background)."""
    kinds: list[str | None] = [None] * spec.frames
    shapes: dict[int, tuple] = {}
    for start, length, kind in runs:
        y0, x0, y1, x1 = rng.uniform(0.3, 0.7, size=4)
        ry, rx = rng.uniform(0.15, 0.25, size=2)
        color = _OBJECT_COLORS[rng.integers(len(_OBJECT_COLORS))]
        sign = rng.choice([-1.0, 1.0])
        for k in range(length):
            f = k / max(length - 1, 1)
            kinds[start + k] = kind
            shapes[start + k] = (y0 + (y1 - y0) * f, x0 + (x1 - x0) * f, ry, rx, color, sign)
    yy, xx = np.mgrid[0 : spec.height, 0 : spec.width]
    frames = []
    for i in range(spec.frames):
        px = scene + rng.integers(-6, 7, size=scene.shape)
        if kinds[i] is not None:
            cy, cx, ry, rx, color, sign = shapes[i]
            inside = ((yy / spec.height - cy) / ry) ** 2 + ((xx / spec.width - cx) / rx) ** 2 <= 1
            if kinds[i] == "object":
                px[inside] = color
            else:
                px[inside] += sign * _ISOLUMINANT
        frames.append(np.clip(np.floor(px + 0.5), 0, 255).astype(np.uint8))
    return frames, kinds


def _calibrate(hidden: np.ndarray, positive: np.ndarray):
    """A float32 ``dense3`` read-out separating ``positive`` rows from the rest."""
    design = np.column_stack([hidden, np.ones(len(hidden))])
    direction = np.linalg.lstsq(design, np.where(positive, 1.0, -1.0), rcond=None)[0][:-1]
    norm = np.linalg.norm(direction)
    kernel = (direction / norm if norm > 0 else np.ones_like(direction)).astype(np.float32)
    z = hidden @ kernel.astype(np.float64)
    # The threshold sits midway between two neighbouring projections: of the
    # cuts that mislabel the fewest rows, the one with the widest gap.
    order = np.sort(z)
    mids = (order[:-1] + order[1:]) / 2.0
    mismatches = np.array([np.count_nonzero((z > m) != positive) for m in mids])
    fewest = np.flatnonzero(mismatches == mismatches.min())
    cut = fewest[np.argmax(np.diff(order)[fewest])]
    return kernel[:, None], np.array([-mids[cut]], dtype=np.float32)


def _generate_clip(spec: Clip, rng: np.random.Generator, directory: Path) -> dict:
    runs = _event_runs(spec, rng)
    frames, kinds = _render(spec, _scene(spec, rng), runs, rng)

    frames_dir = directory / "frames"
    frames_dir.mkdir()
    for i, px in enumerate(frames):
        (frames_dir / f"frame_{i:06d}.ppm").write_bytes(encode_ppm(px))
    _write_json(
        frames_dir / "manifest.json",
        {"frame_count": spec.frames, "fps": FPS, "pattern": "frame_%06d.ppm"},
    )
    intervals = [(s / FPS, (s + n - 1) / FPS) for s, n, kind in runs if kind == "object"]
    _write_gt(directory / "gt.csv", intervals)

    wanted = [
        np.array([k is not None for k in kinds]),  # the primary proposes every event
        np.array([k == "object" for k in kinds]),  # the verifier confirms objects only
    ]
    resized, ties = [], [0] * len(STAGE_CHANNELS)
    for px in frames:
        pixels, resize_ties = oracle.area_resize(px, MODEL_SIDE, MODEL_SIDE)
        resized.append(pixels)
        for k, channels in enumerate(STAGE_CHANNELS):
            ties[k] += resize_ties + oracle.features(pixels, channels)[1]
    tolerance = [oracle.TIE_TOLERANCE if t else oracle.EXACT_TOLERANCE for t in ties]

    stage_streams, calibration, config_stages, attempts = [], [], [], []
    for k, (channels, stage_rng) in enumerate(zip(STAGE_CHANNELS, rng.spawn(len(STAGE_CHANNELS)))):
        model_spec = oracle.stock_spec(len(channels), MODEL_SIDE)
        # The labels must be exact, so no reference score may lie within the
        # tolerance of the threshold; when one does, the stage's weights are
        # drawn again.
        for attempt in range(1, CALIBRATION_ATTEMPTS + 1):
            weights = random_weights(model_spec, stage_rng)
            hidden = np.array([
                oracle.penultimate(model_spec, weights, oracle.features(px, channels)[0])
                for px in resized
            ])
            kernel, bias = _calibrate(hidden, wanted[k])
            scores = np.array([oracle.sigmoid_score(h, kernel, bias) for h in hidden])
            if np.min(np.abs(scores - THRESHOLD)) > tolerance[k]:
                break
        else:
            raise ValueError(f"stage {k}: no calibration keeps the scores off the threshold")
        weights["dense3"] = {"kernel": kernel, "bias": bias}
        write_weights(directory / f"stage{k}.tstm", model_spec, weights)
        labels = scores >= THRESHOLD
        stage_streams.append((labels, scores))
        calibration.append(int(np.count_nonzero(labels != wanted[k])))
        attempts.append(attempt)
        config_stages.append(
            {"channels": channels, "model": {"type": "cnn", "weights": f"stage{k}.tstm"}}
        )

    _write_json(
        directory / "config.json",
        {
            "config_version": 1,
            "input": {"width": MODEL_SIDE, "height": MODEL_SIDE},
            "threshold": THRESHOLD,
            "fusion": {"pack_size": PACK_SIZE, "neighbor_window": NEIGHBOR_WINDOW},
            "stages": config_stages,
        },
    )

    (fused_labels, fused_scores), steps = oracle.chain(stage_streams, PACK_SIZE, NEIGHBOR_WINDOW)
    evts = oracle.events(fused_labels, fused_scores, FPS)
    ref_dir = directory / "reference"
    ref_dir.mkdir()
    (ref_dir / "detections.csv").write_bytes(oracle.detections_csv(evts))
    report = oracle.match([t for _, _, t, _ in evts], intervals, TOLERANCE_S)
    (ref_dir / "report.json").write_bytes(oracle.report_json(report, frames_dir.name))
    fused = np.flatnonzero(fused_labels)
    return {
        "frames": spec.frames,
        "workers": spec.workers,
        "event_runs": [[s, n, kind] for s, n, kind in runs],
        "calibration_mismatches": calibration,
        "calibration_attempts": attempts,
        "ties": ties,
        "score_tolerance": tolerance,
        "primary_scores": stage_streams[0][1].tolist(),
        "fused_frames": fused.tolist(),
        "fused_scores": fused_scores[fused].tolist(),
        "packed_primary": np.flatnonzero(steps[0]).tolist(),
        "funnel": funnel(stage_streams[0][0], steps, len(evts)),
    }


def funnel(primary: np.ndarray, steps: list[np.ndarray], events: int) -> dict:
    """The decision funnel: proposals, packing, per-stage vetoes, events."""
    counts = [int(np.count_nonzero(s)) for s in steps]
    out = {
        "frames": len(primary),
        "primary_pos": int(np.count_nonzero(primary)),
        "packed_pos": counts[0],
    }
    for k in range(1, len(counts)):
        out[f"vetoed.stage{k}"] = counts[k - 1] - counts[k]
    out["fused_pos"] = counts[-1]
    out["events"] = events
    return out
