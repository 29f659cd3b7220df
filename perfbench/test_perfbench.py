"""The benchmark's own tests: seeded inputs, the oracle, the output check,
span self times and the printed metric names. Run from the root of a
checkout with ``python3 -m pytest -q perfbench``; they take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

WORK = ROOT / ".perfbench_work" / "tests"


@pytest.fixture
def workdir(request):
    path = WORK / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _tree(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_seed_fixes_inputs(workload, workdir):
    inputs.generate(workload, 5, workdir / "a")
    inputs.generate(workload, 5, workdir / "b")
    inputs.generate(workload, 6, workdir / "c")
    a, b, c = (_tree(workdir / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert a != c
    assert any(a[name] != c[name] for name in a if not name.startswith("reference"))


def test_oracle_matches_the_package_on_random_streams():
    import verisemble as ve

    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        stages = []
        for _ in range(int(rng.integers(1, 4))):
            labels = rng.random(n) < rng.random()
            scores = np.where(labels, 0.5 + rng.random(n) / 2, rng.random(n) / 2)
            stages.append((labels, scores))
        pack_size = int(rng.choice([1, 3, 5]))
        window = int(rng.choice([1, 3, 5]))
        config = ve.FusionConfig(pack_size=pack_size, neighbor_window=window)
        series = [ve.PredictionSeries(labels=tuple(l), scores=tuple(s)) for l, s in stages]
        fused = ve.chain_fuse(series, config)
        (labels, scores), _ = oracle.chain(stages, pack_size, window)
        assert fused.labels == tuple(labels.tolist()), trial
        assert fused.scores == tuple(scores.tolist()), trial

        fps = float(rng.choice([1.0, 25.0, 29.97]))
        got = [
            (e.start_frame, e.end_frame, e.timestamp_s, e.peak_score)
            for e in ve.events_from_series(fused, fps)
        ]
        expected = oracle.events(labels, scores, fps)
        assert got == expected, trial

        intervals = sorted(
            (float(a), float(a + d)) for a, d in zip(rng.random(3) * n / fps, rng.random(3))
        )
        report = ve.match_score(ve.events_from_series(fused, fps), intervals, tolerance_s=0.5)
        assert oracle.match([t for _, _, t, _ in expected], intervals, 0.5) == {
            "precision": report.precision, "recall": report.recall, "f1": report.f1,
            "events": report.events, "matched": report.matched_events,
            "intervals": report.intervals, "intervals_matched": report.matched_intervals,
        }


def test_reference_frame_path_agrees_with_the_package(workdir):
    """Resize and luma agree except on exact .5 ties, by one; the reference
    network agrees with ``nn.forward`` on a container ``inputs.py`` wrote."""
    from verisemble import nn
    from verisemble.frameio import Frame
    from verisemble.preprocess import ChannelSubset, extract_features, resize_aa

    rng = np.random.default_rng(4)
    for shape, side in (((72, 128, 3), 30), ((64, 64, 3), 64), ((95, 61, 3), 32)):
        pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
        ours, ties = oracle.area_resize(pixels, side, side)
        theirs = resize_aa(Frame(0, pixels), side, side).pixels
        gap = ours.astype(int) - theirs.astype(int)
        assert np.count_nonzero(gap) <= ties and set(np.unique(gap)) <= {-1, 0, 1}
        luma, luma_ties = oracle.features(ours, "L")
        expected = extract_features(Frame(0, ours), ChannelSubset.LUMA)
        assert np.count_nonzero(np.abs(luma - expected) > 1e-12) <= luma_ties
        assert np.max(np.abs(luma - expected)) <= 1 / 255 + 1e-12

    for channels, subset in (("RGB", ChannelSubset.RGB), ("L", ChannelSubset.LUMA)):
        spec = oracle.stock_spec(len(channels), 32)
        weights = inputs.random_weights(spec, rng)
        weights["dense3"]["bias"] = np.array([0.1], dtype=np.float32)
        inputs.write_weights(workdir / "w.tstm", spec, weights)
        loaded_spec, loaded = nn.load_weights(workdir / "w.tstm")
        assert loaded_spec == nn.default_model_spec(len(channels), 32, 32)
        frame = Frame(0, rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8))
        x, _ = oracle.features(frame.pixels, channels)
        hidden = oracle.penultimate(spec, weights, x)
        ours = oracle.sigmoid_score(hidden, weights["dense3"]["kernel"], weights["dense3"]["bias"])
        theirs = nn.forward(loaded_spec, loaded, extract_features(frame, subset))
        assert abs(ours - theirs) <= oracle.EXACT_TOLERANCE


def _broken_resize(resize):
    """A resize that drops the last source row, as a banding bug would."""
    from verisemble.frameio import Frame

    def broken(frame, width, height):
        if frame.height == height:
            return resize(frame, width, height)
        return resize(Frame(frame.index, frame.pixels[:-1]), width, height)

    return broken


def _broken_conv(conv2d):
    def broken(*args, **kwargs):
        return conv2d(*args, **kwargs) * (1.0 + 1e-6)

    return broken


@pytest.mark.parametrize(
    "workload, module, name, breaker",
    [
        ("clip720-sparse", "pipeline", "resize_aa", _broken_resize),
        ("clip300-dense", "nn", "conv2d", _broken_conv),
    ],
)
def test_output_check_catches_a_broken_frame_path(workload, module, name, breaker, workdir, monkeypatch):
    import importlib

    import worker

    reference = inputs.generate(workload, 8, workdir)
    run = worker.ClipRun(workdir, inputs.WORKLOADS[workload], reference)
    run.command()
    assert run.check()[0] is None
    target = importlib.import_module(f"verisemble.{module}")
    monkeypatch.setattr(target, name, breaker(getattr(target, name)))
    run.command()
    problem, _ = run.check()
    assert problem is not None


def _span(sid, start, end, parent=None):
    return tracing.Span(sid, f"s{sid}", start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),  # two threads overlap on [3, 4]
        _span(2, 3.0, 6.0, parent=0),
        _span(3, 8.0, 9.5, parent=0),
        _span(4, 1.5, 2.0, parent=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.5)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[4] == pytest.approx(0.5)


def test_traced_run_self_times_nest(workdir):
    """On a real two-worker run, no span's self time exceeds its duration or
    its parent's, and children lie inside their parent's interval."""
    from verisemble import cli

    reference = inputs.generate("clip300-dense", 3, workdir)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        code = cli.main([
            "run", "--config", str(workdir / "config.json"), "--frames", str(workdir / "frames"),
            "--gt", str(workdir / "gt.csv"), "--out", str(workdir / "out"), "--workers", "2",
        ])
    finally:
        recorder.uninstall()
    assert code == 0
    assert not hasattr(cli.run_pipeline, "__wrapped__")  # originals restored
    spans = recorder.take()
    by_id = {s.sid: s for s in spans}
    selfs = tracing.self_times(spans)
    assert {s.name for s in spans} >= {"cli.run", "pipeline.run_pipeline", "nn.forward", "nn.conv2d"}
    assert len({s.thread for s in spans}) > 1
    for span in spans:
        assert 0.0 <= selfs[span.sid] <= span.duration + 1e-12
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert selfs[span.sid] <= parent.duration
    metrics, frame_ms = tracing.layer_metrics(
        spans, recorder.spec_flops, 2, reference["packed_primary"], 1
    )
    assert metrics["preprocess.resize_aa.passthrough"] == metrics["preprocess.resize_aa.calls"] == 40
    assert len(frame_ms) == 40


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert {w["name"] for w in _declared()["workloads"]} == set(inputs.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_printed_metrics_are_the_declared_ones(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
