"""Seeded benchmark of verisemble's ``run`` command and fusion path.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clip720-sparse --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed`` under ``.perfbench_work/``,
runs the workload in a closed loop for ``--seconds`` in a fresh process,
checks every command's outputs, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run. The line before it records the
environment, the seed and the decision funnel. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
# Time a workload process may take beyond --seconds: start-up, the warm-up
# command and the last command that the window cut into.
WORKER_MARGIN_S = 120.0


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, left at its default."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, reference: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "frames": reference["frames"],
        "funnel": reference["funnel"],
    }


def _setup_seconds(config: Path, timeout: float) -> float:
    """Median set-up time over fresh processes, after one untimed warm-up."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(config)],
            capture_output=True, text=True, check=True, timeout=timeout,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times[1:])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "verisemble" / "__init__.py").is_file():
        print(f"error: no verisemble source under {root / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    work = root / ".perfbench_work"
    directory = work / args.workload
    shutil.rmtree(directory, ignore_errors=True)
    reference = inputs.generate(args.workload, args.seed, directory)
    env = environment(args.seed, reference)

    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    result_path, spans_path = results / f"{stem}.json", results / f"{stem}.spans.jsonl"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--dir", str(directory),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path), "--spans", str(spans_path),
    ]
    values: dict[str, float] = {}
    try:
        if not args.trace:
            values["setup_s"] = _setup_seconds(directory / "config.json", timeout=60.0)
        subprocess.run(command, check=True, timeout=args.seconds + WORKER_MARGIN_S)
        result = json.loads(result_path.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: a benchmark process failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        layers = dict(result["layers"])
        for name, value in (result["funnel"] or reference["funnel"]).items():
            layers[f"funnel.{name}"] = value
        frame_ms = result["frame_ms"]
        layers["frame_ms.p50"] = statistics.median(frame_ms) if frame_ms else 0.0
        layers["frame_ms.p90"] = (
            statistics.quantiles(frame_ms, n=10, method="inclusive")[8]
            if len(frame_ms) > 1
            else 0.0
        )
        layers["frame_ms.n"] = len(frame_ms)
        layers["trace.overhead_ratio"] = (
            statistics.median(result["traced_walls"]) / statistics.median(result["walls"])
        )
        values.update(layers)
    else:
        rates = [result["frames"] / wall for wall in result["walls"] if wall > 0]
        values["frames_per_s"] = statistics.median(rates) if rates else 0.0
        values["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        values["ok_share"] = (attempted - failed) / attempted
    if values.keys() != units.keys():
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {"environment": env, "problems": result["problems"], "walls_s": result["walls"]}
    (results / f"{stem}.record.json").write_text(
        json.dumps(dict(record, metrics=metrics), indent=2)
    )
    print(json.dumps(record))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
