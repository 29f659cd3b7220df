"""Command-line interface.

Four subcommands cover the operational surface: ``run`` executes the
full pipeline over a frame directory, ``eval`` scores a detections file
against ground truth, ``bench`` times the same ``run_pipeline`` call as
``run`` (weight loading and frame decoding included) per frame and
reports each stage's parameters and multiply-adds, and ``simulate`` drives
the fusion stage with synthetic classifier outputs to study error rates
without trained weights.

Exit codes are a stable contract: 0 success, 2 usage or input error,
1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Sequence

import numpy as np

from .config import PipelineConfig, load_config
from .cores import usable_cpus
from .ensemble import FusionConfig, chain_fuse
from .errors import ValidationError, VerisembleError
from .evaluate import (
    ScoreReport,
    SplitMix64,
    _check_tolerance,
    frame_metrics,
    match_score,
    simulate_predictor,
)
from .frameio import (
    FrameSequence,
    _quote,
    _text_lines,
    load_detections,
    load_ground_truth,
    open_sequence,
    write_detections,
)
from .nn import count_macs, count_params
from .pipeline import CnnModel, PipelineResult, build_stage_models, run_pipeline

__all__ = ["main", "build_parser"]

logger = logging.getLogger(__name__)


def _score_report_obj(report: ScoreReport) -> dict:
    return {
        "video": report.video,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "events": report.events,
        "matched": report.matched_events,
        "intervals": report.intervals,
        "intervals_matched": report.matched_intervals,
    }


def _dump_json(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- run -------------------------------------------------------------------


def _load_inputs(args: argparse.Namespace) -> tuple[PipelineConfig, FrameSequence, float]:
    """The config, the frames (decoded as they are scored) and the frame rate
    (the config's, else the manifest's) that ``run`` and ``bench`` score."""
    config = load_config(args.config)
    frames = open_sequence(args.frames, args.manifest)
    return config, frames, config.fps if config.fps is not None else frames.fps


def _write_predictions_csv(path: Path, config: PipelineConfig, result: PipelineResult) -> None:
    """One row per frame. A stage's cells are empty where it did not score
    the frame; ``final_score`` is empty where the fold marked the fused score
    not known (``result.fused_score_known``)."""
    columns = ["frame_index"]
    for k, stage in enumerate(config.stages):
        columns.append(f"stage{k}_{stage.channels.value}_label")
        columns.append(f"stage{k}_{stage.channels.value}_score")
    columns += ["final_label", "final_score"]
    n = len(result.fused)
    scored = [np.isin(np.arange(n), frames) for frames in result.scored]
    with open(path, "w") as out:
        out.write(",".join(columns) + "\n")
        for i in range(n):
            row = [str(i)]
            for series, done in zip(result.stage_series, scored):
                row += [str(int(series.labels[i])), repr(series.scores[i])] if done[i] else ["", ""]
            row.append(str(int(result.fused.labels[i])))
            row.append(repr(result.fused.scores[i]) if result.fused_score_known[i] else "")
            out.write(",".join(row) + "\n")


def _check_out_dir(out_dir: Path) -> None:
    """Raise unless ``out_dir`` can be made a directory: it, if it exists, and
    its nearest existing ancestor must be directories. Nothing is created."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ValidationError(f"--out: {path} exists and is not a directory")
            return


def cmd_run(args: argparse.Namespace) -> int:
    # Checked before scoring, so a bad value costs no pass and leaves no CSV.
    _check_tolerance(args.tol)
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    gt = load_ground_truth(args.gt) if args.gt is not None else None
    config, frames, fps = _load_inputs(args)
    result = run_pipeline(config, frames, fps=fps, workers=args.workers)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_detections(
        [(event.timestamp_s, event.peak_score) for event in result.events],
        out_dir / "detections.csv",
    )
    _write_predictions_csv(out_dir / "predictions.csv", config, result)

    if gt is not None:
        report = match_score(
            [event.timestamp_s for event in result.events],
            gt,
            tolerance_s=args.tol,
            video=Path(args.frames).name,
        )
        (out_dir / "report.json").write_text(_dump_json(_score_report_obj(report)))
    return 0


# -- eval ------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    rows = load_detections(args.detections)
    gt = load_ground_truth(args.gt)
    report = match_score([t for t, _ in rows], gt, tolerance_s=args.tol)
    sys.stdout.write(_dump_json(_score_report_obj(report)))
    return 0


# -- bench -----------------------------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    if args.warmup < 0:
        raise ValidationError(f"warmup must be >= 0, got {args.warmup}")
    if args.repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {args.repeats}")
    config, frames, fps = _load_inputs(args)
    if not frames:
        raise ValidationError("bench needs at least one frame")
    # Each stage's (parameters, multiply-adds per forward); a weightless
    # stage has neither.
    sizes = [
        (count_params(m.spec), count_macs(m.spec)) if isinstance(m, CnnModel) else (0, 0)
        for m in build_stage_models(config)
    ]

    for _ in range(args.warmup):
        run_pipeline(config, frames, fps=fps, workers=args.workers)
    samples = []
    for _ in range(args.repeats):
        t0 = perf_counter()
        run_pipeline(config, frames, fps=fps, workers=args.workers)
        samples.append((perf_counter() - t0) * 1e3 / len(frames))

    out = {
        "stages": [
            {"channels": stage.channels.value, "params": params, "macs": macs}
            for stage, (params, macs) in zip(config.stages, sizes)
        ],
        "params_total": sum(params for params, _ in sizes),
        "frames": len(frames),
        "warmup": args.warmup,
        "workers": args.workers,
        "latency_ms": {
            "mean": float(np.mean(samples)),
            "median": float(np.percentile(samples, 50)),
            "p95": float(np.percentile(samples, 95)),
        },
    }
    sys.stdout.write(_dump_json({"reports": [out]}))
    return 0


# -- simulate --------------------------------------------------------------


def _load_labels(path: str | Path) -> tuple[bool, ...]:
    labels: list[bool] = []
    for lineno, line in _text_lines(Path(path)):
        if line not in ("0", "1"):
            raise ValidationError(f"{path} row {lineno}: labels must be 0 or 1, got {_quote(line)}")
        labels.append(line == "1")
    return tuple(labels)


def _simulate_fusion_config(args: argparse.Namespace) -> FusionConfig:
    base = load_config(args.config).fusion if args.config else FusionConfig()
    flags = {
        "pack_size": args.pack_size,
        "neighbor_window": args.neighbor_window,
        "packing_enabled": None if args.packing is None else args.packing == "on",
    }
    return dataclasses.replace(base, **{k: v for k, v in flags.items() if v is not None})


def cmd_simulate(args: argparse.Namespace) -> int:
    truth = _load_labels(args.labels)
    fusion = _simulate_fusion_config(args)
    rng = SplitMix64(args.seed)
    primary = simulate_predictor(truth, args.primary_tpr, args.primary_fpr, rng.spawn())
    verifier = simulate_predictor(truth, args.verifier_tpr, args.verifier_fpr, rng.spawn())
    fused = chain_fuse((primary, verifier), fusion)

    out = {
        "frames": len(truth),
        "positives": sum(truth),
        "seed": args.seed,
        "before": frame_metrics(truth, primary.labels).to_json_obj(),
        "after": frame_metrics(truth, fused.labels).to_json_obj(),
    }
    sys.stdout.write(_dump_json(out))
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # The inputs and threads of `run` and `bench`, which score the same way.
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--config", required=True, help="pipeline config JSON")
    scoring.add_argument("--frames", required=True, help="directory of frames + manifest")
    scoring.add_argument(
        "--manifest", default=None, help="manifest path (default: <frames>/manifest.json)"
    )
    scoring.add_argument(
        "--workers",
        type=int,
        default=usable_cpus(),
        help="frame-scoring threads; each frame spreads its work over "
        "max(1, BLAS threads // workers) cores "
        "(default: the CPUs this process may use, here %(default)s)",
    )
    parser = argparse.ArgumentParser(
        prog="verisemble",
        description="Verification-based two-stage frame classification ensemble.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[scoring], help="run the pipeline over a frame directory")
    run.add_argument("--gt", default=None, help="ground-truth CSV; enables report.json")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--tol", type=float, default=1.0, help="match tolerance in seconds")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="score a detections CSV against ground truth")
    ev.add_argument("--detections", required=True, help="detections CSV")
    ev.add_argument("--gt", required=True, help="ground-truth CSV")
    ev.add_argument("--tol", type=float, default=1.0, help="match tolerance in seconds")
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser(
        "bench", parents=[scoring], help="time run's pipeline per frame; report model size"
    )
    bench.add_argument("--warmup", type=int, default=5, help="untimed pipeline runs first")
    bench.add_argument("--repeats", type=int, default=1, help="timed pipeline runs")
    bench.set_defaults(func=cmd_bench)

    sim = sub.add_parser("simulate", help="fuse synthetic classifier outputs")
    sim.add_argument("--labels", required=True, help="per-frame truth file, one 0/1 per line")
    sim.add_argument("--primary-tpr", type=float, required=True)
    sim.add_argument("--primary-fpr", type=float, required=True)
    sim.add_argument("--verifier-tpr", type=float, required=True)
    sim.add_argument("--verifier-fpr", type=float, required=True)
    sim.add_argument("--config", default=None, help="pipeline config JSON (fusion block)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--pack-size", type=int, default=None, help="override pack size")
    sim.add_argument(
        "--neighbor-window", type=int, default=None, help="override verifier window"
    )
    sim.add_argument(
        "--packing", choices=("on", "off"), default=None, help="override packing"
    )
    sim.set_defaults(func=cmd_simulate)
    return parser


def _one_line(message: str) -> str:
    """``message`` with every character that is not printable, line breaks
    included, escaped as a repr escapes it. A message may quote input bytes,
    such as a record name read from a weight container, and must still be
    one ``error:`` line."""
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in message)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(
            level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
        )
    try:
        return args.func(args)
    except (VerisembleError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {_one_line(str(exc))}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
