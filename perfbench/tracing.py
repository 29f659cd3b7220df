"""In-memory span recording around verisemble's module boundaries.

``Recorder.install()`` replaces each traced function, wherever a verisemble
module (or the package) holds it as a global, with a wrapper that records a
span: name, start, end, parent span and thread. Callers inside the package
look these names up through module globals at call time, so the spans nest
without any change to the package. ``uninstall()`` puts the originals back.

Spans opened on a worker thread with nothing open on that thread take the
main thread's innermost open span as parent: the thread pools in
``load_sequence`` and ``run_pipeline`` are entered from the main thread, which
blocks in them until the workers finish.

``self_times()`` derives each span's self time as its duration minus the part
of its interval that its children cover; ``layer_metrics()`` folds one
command's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _note_decode(rec, args, result):
    return {"bytes": len(args[0])}


def _note_resize(rec, args, result):
    rec.local.frame = args[0].index
    return {"frame": args[0].index, "passthrough": result is args[0]}


def _note_frame(rec, args, result):
    return {"frame": getattr(rec.local, "frame", None)}


def _note_forward(rec, args, result):
    return {"frame": getattr(rec.local, "frame", None), "stage": rec.stage_of.get(id(args[1]))}


def _note_layer(rec, args, result):
    return {"layer": args[0].name}


def _note_models(rec, args, result):
    for stage, model in enumerate(result):
        spec = getattr(model, "spec", None)
        if spec is not None:
            rec.stage_of[id(model.weights)] = stage
            rec.spec_flops[stage] = model_flops(spec)
    return None


def _note_match(rec, args, result):
    intervals = getattr(args[1], "intervals", args[1])
    return {"pairs": len(args[0]) * len(intervals)}


# (module, function, span name, annotation). Spans are named by the module
# that defines the function, which is the layer the metric belongs to.
# load_manifest and load_ground_truth have no metric of their own; their spans
# keep file reading out of cli.run.self_ms, which is meant to be formatting.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("config", "load_config", "config.load_config", None),
    ("frameio", "load_manifest", "frameio.load_manifest", None),
    ("frameio", "load_sequence", "frameio.load_sequence", None),
    ("frameio", "decode_ppm", "frameio.decode_ppm", _note_decode),
    ("frameio", "load_ground_truth", "frameio.load_ground_truth", None),
    ("frameio", "write_detections", "frameio.write_detections", None),
    ("preprocess", "resize_aa", "preprocess.resize_aa", _note_resize),
    ("preprocess", "extract_features", "preprocess.extract_features", _note_frame),
    ("nn", "load_weights", "nn.load_weights", None),
    ("nn", "forward", "nn.forward", _note_forward),
    ("nn", "_forward_layer", "nn.layer", _note_layer),
    ("nn", "conv2d", "nn.conv2d", None),
    ("nn", "maxpool2", "nn.maxpool2", None),
    ("nn", "batchnorm_infer", "nn.batchnorm", None),
    ("nn", "dense", "nn.dense", None),
    ("ensemble", "chain_fuse", "ensemble.chain_fuse", None),
    ("ensemble", "pack_mode", "ensemble.pack_mode", None),
    ("ensemble", "neighbor_validate", "ensemble.neighbor_validate", None),
    ("evaluate", "events_from_series", "evaluate.events_from_series", None),
    ("evaluate", "match_score", "evaluate.match_score", _note_match),
    ("pipeline", "build_stage_models", "pipeline.build_stage_models", _note_models),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("cli", "cmd_run", "cli.run", None),
)

STOCK_LAYERS = tuple(
    [f"{kind}{i}" for i in range(1, 6) for kind in ("conv", "pool", "bn")]
    + ["dense1", "dense2", "dense3"]
)


def model_flops(spec) -> dict[str, float]:
    """Multiply-add FLOPs of one forward pass, from the spec's shapes."""
    conv = dense = 0.0
    for layer, shape_in, shape_out in zip(
        spec.layers, spec.layer_input_shapes(), spec.output_shapes()
    ):
        if layer.kind == "conv2d":
            kh, kw = layer.kernel
            conv += 2.0 * kh * kw * shape_in[2] * shape_out[0] * shape_out[1] * shape_out[2]
        elif layer.kind == "dense":
            dense += 2.0 * shape_in[0] * shape_out[0]
    return {"conv": conv, "total": conv + dense}


class Recorder:
    """Spans of the traced functions, kept in memory until ``take()``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.local = threading.local()
        self.stage_of: dict[int, int] = {}
        self.spec_flops: dict[int, dict[str, float]] = {}
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = (
                self._main_stack if threading.current_thread() is threading.main_thread() else []
            )
        return stack

    def wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        rec = self

        def traced(*args, **kwargs):
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = rec._main_stack[-1] if rec._main_stack else None
            sid = next(rec._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            info = note(rec, args, result) if note else None
            rec.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), info or {})
            )
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Put each traced function's wrapper wherever a verisemble module holds it."""
        wrappers = {}
        for module_name, attr, span_name, note in TARGETS:
            original = getattr(sys.modules.get(f"verisemble.{module_name}"), attr, None)
            if original is not None:
                wrappers[id(original)] = (original, self.wrap(span_name, original, note))
        for name, module in list(sys.modules.items()):
            if name != "verisemble" and not name.startswith("verisemble."):
                continue
            for key, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, value))

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()

    def take(self) -> list[Span]:
        """The spans recorded so far, in start order; clears the buffer."""
        spans, self.spans = sorted(self.spans, key=lambda s: s.start), []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = span.duration - covered
    return out


def layer_metrics(
    spans: list[Span],
    spec_flops: dict[int, dict[str, float]],
    workers: int,
    packed_primary: list[int],
    radius: int,
) -> tuple[dict[str, float], list[float]]:
    """Per-layer metrics of one command from its spans, times in ms, and the
    per-frame time (resize + features + forward) of every frame it scored."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        key = span.name
        if span.name == "nn.layer":
            key = f"nn.layer.{span.info['layer']}"
        elif span.name == "nn.forward":
            key = f"nn.forward.stage{span.info['stage']}"
        total[key] = total.get(key, 0.0) + span.duration * 1e3
        own[key] = own.get(key, 0.0) + selfs[span.sid] * 1e3
        calls[key] = calls.get(key, 0) + 1

    m: dict[str, float] = {}
    for name in (
        "config.load_config", "frameio.decode_ppm", "frameio.write_detections",
        "preprocess.resize_aa", "preprocess.extract_features", "nn.load_weights",
        "nn.forward.stage0", "nn.forward.stage1", "ensemble.chain_fuse",
        "ensemble.pack_mode", "ensemble.neighbor_validate", "evaluate.events_from_series",
        "evaluate.match_score", "pipeline.build_stage_models",
    ):
        m[f"{name}.ms"] = total.get(name, 0.0)
    for name in ("frameio.decode_ppm", "preprocess.resize_aa", "preprocess.extract_features",
                 "nn.forward.stage0", "nn.forward.stage1"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("frameio.load_sequence", "pipeline.run_pipeline", "cli.run"):
        m[f"{name}.self_ms"] = own.get(name, 0.0)
    for name in ("nn.conv2d", "nn.maxpool2", "nn.batchnorm", "nn.dense"):
        m[f"{name}.ms"] = own.get(name, 0.0)
    for layer in STOCK_LAYERS:
        m[f"nn.layer.{layer}.ms"] = total.get(f"nn.layer.{layer}", 0.0)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    m["frameio.bytes_read"] = sum(s.info["bytes"] for s in named("frameio.decode_ppm"))
    m["preprocess.resize_aa.passthrough"] = sum(
        1 for s in named("preprocess.resize_aa") if s.info["passthrough"]
    )
    m["evaluate.match_pairs"] = sum(s.info["pairs"] for s in named("evaluate.match_score"))

    forwards = named("nn.forward")
    frames = {s.info["frame"] for s in forwards}
    flops = [spec_flops.get(s.info["stage"], {"conv": 0.0, "total": 0.0}) for s in forwards]
    m["nn.forward.mflop"] = sum(f["total"] for f in flops) / len(frames) / 1e6 if frames else 0.0
    conv_s = m["nn.conv2d.ms"] / 1e3
    m["nn.conv2d.gflop_s"] = sum(f["conv"] for f in flops) / conv_s / 1e9 if conv_s else 0.0
    near = {i + d for i in packed_primary for d in range(-radius, radius + 1)}
    verifier = [s for s in forwards if s.info["stage"] != 0]
    useful = sum(1 for s in verifier if s.info["frame"] in near)
    m["nn.verifier.useful_ratio"] = useful / len(verifier) if verifier else 0.0

    per_frame: dict[int, float] = {}
    for s in spans:
        if s.name in ("preprocess.resize_aa", "preprocess.extract_features", "nn.forward"):
            per_frame[s.info["frame"]] = per_frame.get(s.info["frame"], 0.0) + s.duration * 1e3
    run_ms = sum(s.duration for s in named("pipeline.run_pipeline")) * 1e3
    m["pipeline.worker_busy_share"] = (
        sum(per_frame.values()) / (workers * run_ms) if run_ms else 0.0
    )
    return m, list(per_frame.values())
