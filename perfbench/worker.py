"""One workload in a closed loop, in a fresh process; run by ``run.py``.

One client runs one command at a time: one untimed warm-up command, then
commands until ``--seconds`` have passed. It checks the outputs of every
command against the reference that ``inputs.py`` recorded for the seed. With
``--trace 1`` the commands alternate between untraced and traced, so that the
tracing overhead is measured in the same process. Writes a JSON result and,
when tracing, the spans as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import oracle
import tracing


class ClipRun:
    """``verisemble run --gt`` through ``cli.main``, with the output check."""

    def __init__(self, directory: Path, spec: inputs.Clip, reference: dict) -> None:
        from verisemble import cli

        self.cli = cli
        self.directory = directory
        self.reference = reference
        self.frames = spec.frames
        self.workers = spec.workers
        self.out = directory / "out"
        self.argv = [
            "run",
            "--config", str(directory / "config.json"),
            "--frames", str(directory / "frames"),
            "--gt", str(directory / "gt.csv"),
            "--out", str(self.out),
            "--workers", str(spec.workers),
        ]

    def command(self) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        start = perf_counter()
        self.code = self.cli.main(self.argv)
        return perf_counter() - start

    def check(self) -> tuple[str | None, dict]:
        if self.code != 0:
            return f"exit code {self.code}", {}
        ref = self.reference
        ref_dir = self.directory / "reference"
        if (self.out / "report.json").read_bytes() != (ref_dir / "report.json").read_bytes():
            return "report.json differs from the reference", {}
        # Fused scores mix the stages, so they get the looser stage tolerance.
        tolerance = max(ref["score_tolerance"])
        problem = _compare_detections(self.out / "detections.csv", ref_dir / "detections.csv", tolerance)
        if problem is not None:
            return problem, {}

        # Only the stage0 and final columns: a lazy verifier may blank the others.
        columns = _columns(self.out / "predictions.csv")
        primary = columns["stage0_label"] == "1"
        final = columns["final_label"] == "1"
        if len(primary) != self.frames:
            return f"predictions.csv has {len(primary)} rows, not {self.frames}", {}
        ref_scores = np.array(ref["primary_scores"])
        if not np.array_equal(primary, ref_scores >= inputs.THRESHOLD):
            return "stage0 labels differ from the reference", {}
        gap = np.max(np.abs(columns["stage0_score"].astype(np.float64) - ref_scores))
        if gap > ref["score_tolerance"][0]:
            return f"stage0 scores differ from the reference by up to {gap:.3e}", {}
        packed = oracle.pack(primary, inputs.PACK_SIZE)
        if np.any(final & ~packed):
            return "a fused positive is not a packed primary positive", {}
        fused = np.flatnonzero(final)
        if fused.tolist() != ref["fused_frames"]:
            return "fused labels differ from the reference", {}
        if fused.size:
            gap = np.max(np.abs(columns["final_score"][fused].astype(np.float64) - ref["fused_scores"]))
            if gap > tolerance:
                return f"fused scores differ from the reference by up to {gap:.3e}", {}
        events = len((self.out / "detections.csv").read_text().splitlines()) - 1
        observed = inputs.funnel(primary, [packed, final], events)
        if observed != ref["funnel"]:
            return f"funnel {observed} differs from {ref['funnel']}", observed
        return None, observed


def _columns(path: Path) -> dict[str, np.ndarray]:
    """A CSV's columns as string arrays; ``stageK_<channels>_x`` is keyed ``stageK_x``."""
    lines = path.read_text().splitlines()
    cells = np.array([line.split(",") for line in lines[1:]], dtype=str).reshape(len(lines) - 1, -1)
    names = [
        f"{name.split('_')[0]}_{name.split('_')[-1]}" if name.startswith("stage") else name
        for name in lines[0].split(",")
    ]
    return {name: cells[:, k] for k, name in enumerate(names)}


def _compare_detections(got: Path, expected: Path, tolerance: float) -> str | None:
    """Same header and timestamps as the reference, and scores within ``tolerance``."""
    got_lines, expected_lines = got.read_text().splitlines(), expected.read_text().splitlines()
    if len(got_lines) != len(expected_lines) or got_lines[:1] != expected_lines[:1]:
        return "detections.csv has other events than the reference"
    for line, ref_line in zip(got_lines[1:], expected_lines[1:]):
        stamp, score = line.split(",")
        ref_stamp, ref_score = ref_line.split(",")
        if stamp != ref_stamp:
            return f"detection at {stamp} s where the reference has {ref_stamp} s"
        if abs(float(score) - float(ref_score)) > tolerance:
            return f"detection score {score} at {stamp} s differs from the reference {ref_score}"
    return None


def _peak_rss_kb() -> int:
    """This process's peak resident set since it started, in KiB.

    ``VmHWM`` rather than ``getrusage``: on Linux ``ru_maxrss`` also keeps the
    peak of the process image replaced by ``exec``, which for a spawned child
    is the parent's.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    spec = inputs.WORKLOADS[args.workload]
    reference = json.loads((args.dir / "reference.json").read_text())
    run = ClipRun(args.dir, spec, reference)

    recorder = tracing.Recorder() if args.trace else None
    walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    frame_ms: list[float] = []
    problems: list[str] = []
    funnel: dict | None = None
    span_lines: list[str] = []
    attempted = 0
    peak_rss_kb = None
    deadline = float("inf")
    # The first command warms caches and is checked but not timed; the
    # measured window starts when it ends.
    while perf_counter() < deadline or not walls or (recorder and not traced_walls):
        warmup = attempted == 0
        traced = recorder is not None and not warmup and attempted % 2 == 0
        if traced:
            recorder.install()
        try:
            wall = run.command()
            if warmup:
                peak_rss_kb = _peak_rss_kb()
            problem, observed = run.check()
        except Exception as exc:  # a failed command is counted, not fatal
            wall, problem, observed = 0.0, f"{type(exc).__name__}: {exc}", None
        finally:
            if traced:
                recorder.uninstall()
        attempted += 1
        if problem is not None:
            problems.append(problem)
        funnel = observed or funnel
        if warmup:
            deadline = perf_counter() + args.seconds
        elif traced:
            spans = recorder.take()
            traced_walls.append(wall)
            metrics, frames = tracing.layer_metrics(
                spans,
                recorder.spec_flops,
                run.workers,
                reference["packed_primary"],
                (inputs.NEIGHBOR_WINDOW - 1) // 2,
            )
            layers.append(metrics)
            frame_ms.extend(frames)
            span_lines.extend(
                json.dumps({"command": attempted, "id": s.sid, "name": s.name, "start": s.start,
                            "end": s.end, "parent": s.parent, "thread": s.thread, **s.info})
                for s in spans
            )
        else:
            walls.append(wall)

    result = {
        "frames": run.frames,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:5],
        "walls": walls,
        "traced_walls": traced_walls,
        "peak_rss_kb": peak_rss_kb or _peak_rss_kb(),
        "funnel": funnel,
    }
    if recorder is not None:
        result["layers"] = {
            name: statistics.median(m[name] for m in layers) for name in layers[0]
        }
        result["frame_ms"] = frame_ms
        args.spans.write_text("\n".join(span_lines) + "\n")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.exit(main())
