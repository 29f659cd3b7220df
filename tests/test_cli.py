"""CLI subcommands: run, eval, bench, simulate; exit-code contract."""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from verisemble import (
    ChannelSubset,
    FusionConfig,
    MeanIntensityModel,
    PredictionSeries,
    default_model_spec,
    encode_ppm,
    extract_features,
    load_config,
    open_sequence,
    random_weights,
    resize_aa,
    run_pipeline,
    save_weights,
    write_detections,
)
from verisemble import cli, frameio, pipeline
from verisemble.cli import main
from verisemble.errors import JSON_MAX_BYTES

from conftest import (
    BLACK,
    GOLDEN_COLORS,
    GOLDEN_FPS,
    GREEN,
    MAGENTA,
    WHITE,
    needs_proc_status,
    random_frame,
    solid_frame,
    write_mean_config,
    write_sequence,
)


def mean_score(rgb: tuple[int, int, int], subset: ChannelSubset, size: int = 300) -> float:
    resized = resize_aa(solid_frame(rgb), size, size)
    return MeanIntensityModel().score(extract_features(resized, subset))


class CountingModel:
    """Mean-intensity stage that counts its calls from any thread."""

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def score(self, features) -> float:
        with self._lock:
            self.calls += 1
        return MeanIntensityModel().score(features)


def write_random_sequence(directory: Path, count: int, width: int, height: int) -> Path:
    directory.mkdir(parents=True)
    for i in range(count):
        frame = random_frame(seed=500 + i, width=width, height=height)
        (directory / f"frame_{i:04d}.ppm").write_bytes(encode_ppm(frame))
    (directory / "manifest.json").write_text(
        json.dumps({"frame_count": count, "fps": 10.0, "pattern": "frame_%04d.ppm"})
    )
    return directory


# Runs `cli.main` on its arguments in a fresh process and prints the exit
# code and the process's peak resident set (VmHWM) in KiB.
PEAK_RSS_SCRIPT = """
import sys
from verisemble.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(code, next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")))
"""

# Runs `cli.main` on its arguments with at most 1 GiB more address space
# than the interpreter holds once verisemble is imported.
ADDRESS_LIMIT_SCRIPT = """
import resource, sys
from verisemble.cli import main
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = size * 1024 + (1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


def golden_workspace(tmp_path: Path) -> tuple[Path, Path, Path]:
    frames = write_sequence(tmp_path / "frames", GOLDEN_COLORS)
    config = write_mean_config(tmp_path / "config.json")
    out = tmp_path / "out"
    return config, frames, out


class TestRun:
    def test_golden_run_detections_bytes(self, tmp_path):
        config, frames, out = golden_workspace(tmp_path)
        assert main(["run", "--config", str(config), "--frames", str(frames), "--out", str(out)]) == 0
        # One fused event: frame 5 at 25 fps, scored by the verifier's
        # green-frame luma mean (the weaker of the two stages).
        score = mean_score(GREEN, ChannelSubset.LUMA)
        want = f"timestamp_s,score\n0.200,{score!r}\n"
        assert (out / "detections.csv").read_text() == want

    def test_golden_run_predictions_csv(self, tmp_path):
        config, frames, out = golden_workspace(tmp_path)
        assert main(["run", "--config", str(config), "--frames", str(frames), "--out", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == (
            "frame_index,stage0_RGB_label,stage0_RGB_score,"
            "stage1_L_label,stage1_L_score,final_label,final_score"
        )
        black_rgb = mean_score(BLACK, ChannelSubset.RGB)
        black_luma = mean_score(BLACK, ChannelSubset.LUMA)
        magenta_rgb = mean_score(MAGENTA, ChannelSubset.RGB)
        magenta_luma = mean_score(MAGENTA, ChannelSubset.LUMA)
        green_rgb = mean_score(GREEN, ChannelSubset.RGB)
        green_luma = mean_score(GREEN, ChannelSubset.LUMA)
        # The packed proposals are the magenta run 3-5, so the verifier
        # scores only frames 2-6 and its cells elsewhere are empty. The
        # final score is empty wherever the window around the frame takes
        # in a frame the verifier did not score: everywhere but 3-5.
        assert lines[1:] == [
            f"0,0,{black_rgb!r},,,0,",
            f"1,0,{black_rgb!r},,,0,",
            f"2,0,{black_rgb!r},0,{black_luma!r},0,",
            # Magenta: proposer fires, verifier does not; packing keeps
            # the label but the window finds no support.
            f"3,1,{magenta_rgb!r},0,{magenta_luma!r},0,{magenta_luma!r}",
            f"4,1,{magenta_rgb!r},0,{magenta_luma!r},0,{magenta_luma!r}",
            # Frame 5 survives thanks to the green frame at 6.
            f"5,1,{magenta_rgb!r},0,{magenta_luma!r},1,{green_luma!r}",
            # Green: the verifier fires alone; fused stays negative.
            f"6,0,{green_rgb!r},1,{green_luma!r},0,",
            f"7,0,{black_rgb!r},,,0,",
            f"8,0,{black_rgb!r},,,0,",
        ]

    def test_predictions_csv_is_written_row_by_row(self, tmp_path):
        """A three-stage 20,000-frame result is written as it is read: no
        list of lines and no per-stage set of scored frames, so the
        writer's traced peak stays under 2 MB."""
        n = 20_000
        stages = [{"channels": c, "model": {"type": "mean_intensity"}} for c in ("RGB", "RG", "L")]
        config = load_config(write_mean_config(tmp_path / "config.json", stages=stages))
        scores = tuple((i * 7919 % 1000) / 1000 for i in range(n))
        series = PredictionSeries(labels=tuple(s >= 0.5 for s in scores), scores=scores)
        scored = (
            tuple(range(n)),
            tuple(i for i in range(n) if i % 10 < 7),
            tuple(i for i in range(n) if i % 7 < 5),
        )
        known = tuple(i % 10 < 6 and i % 7 < 4 for i in range(n))
        result = pipeline.PipelineResult(
            stage_series=(series,) * 3,
            fused=series,
            events=(),
            scored=scored,
            fused_score_known=known,
        )
        path = tmp_path / "predictions.csv"
        tracemalloc.start()
        try:
            cli._write_predictions_csv(path, config, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak
        lines = path.read_text().splitlines()
        assert len(lines) == n + 1
        assert lines[3] == f"2,1,{scores[2]!r},1,{scores[2]!r},1,{scores[2]!r},1,{scores[2]!r}"
        assert lines[6] == f"5,1,{scores[5]!r},1,{scores[5]!r},,,1,"

    def test_report_written_only_with_ground_truth(self, tmp_path):
        config, frames, out = golden_workspace(tmp_path)
        main(["run", "--config", str(config), "--frames", str(frames), "--out", str(out)])
        assert not (out / "report.json").exists()

        gt = tmp_path / "gt.csv"
        gt.write_text("start_s,end_s\n0.1,0.3\n")
        assert main([
            "run", "--config", str(config), "--frames", str(frames),
            "--out", str(out), "--gt", str(gt),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert report["f1"] == 1.0
        assert report["events"] == 1
        assert report["video"] == "frames"

    def test_unmatched_ground_truth_scores_zero(self, tmp_path):
        config, frames, out = golden_workspace(tmp_path)
        gt = tmp_path / "gt.csv"
        gt.write_text("5.0,6.0\n")
        main([
            "run", "--config", str(config), "--frames", str(frames),
            "--out", str(out), "--gt", str(gt),
        ])
        report = json.loads((out / "report.json").read_text())
        assert report["precision"] == 0.0
        assert report["recall"] == 0.0

    def test_workers_produce_identical_bytes(self, tmp_path):
        config, frames, _ = golden_workspace(tmp_path)
        outputs = []
        for k, workers in enumerate(("1", "4", "1")):
            out = tmp_path / f"out{k}"
            assert main([
                "run", "--config", str(config), "--frames", str(frames),
                "--out", str(out), "--workers", workers,
            ]) == 0
            outputs.append(
                (out / "detections.csv").read_bytes()
                + (out / "predictions.csv").read_bytes()
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_workers_identical_bytes_through_resize(self, tmp_path):
        # Random 64x48 frames into a 32x32 model: every frame takes the
        # resize path and the workers share its cached taps.
        frames = tmp_path / "frames"
        frames.mkdir()
        for i in range(12):
            frame = random_frame(seed=300 + i, width=64, height=48)
            (frames / f"frame_{i:04d}.ppm").write_bytes(encode_ppm(frame))
        (frames / "manifest.json").write_text(
            json.dumps({"frame_count": 12, "fps": 10.0, "pattern": "frame_%04d.ppm"})
        )
        config = write_mean_config(tmp_path / "config.json", input={"width": 32, "height": 32})
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}"
            assert main([
                "run", "--config", str(config), "--frames", str(frames),
                "--out", str(out), "--workers", workers,
            ]) == 0
            outputs.append(
                (out / "detections.csv").read_bytes()
                + (out / "predictions.csv").read_bytes()
            )
        assert outputs[0] == outputs[1]

    def test_workers_identical_bytes_with_cnn_stages(self, tmp_path):
        # Stock CNN stages at 160x120, where every conv but the last two runs
        # in several strips through each scoring thread's own scratch, over
        # 320x240 frames that resize in several bands. At --workers 1 and 2
        # a frame thread on a host of 2 or more cores spreads its strips
        # and bands over helper threads; at --workers 4 on up to 7 cores it
        # has none.
        from verisemble import default_model_spec, random_weights, save_weights

        for name, channels in (("rgb", 3), ("luma", 1)):
            spec = default_model_spec(channels=channels, height=120, width=160)
            save_weights(tmp_path / f"{name}.weights", spec, random_weights(spec, channels))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "config_version": 1,
            "input": {"width": 160, "height": 120},
            "threshold": 0.5,
            "stages": [
                {"channels": "RGB", "model": {"type": "cnn", "weights": "rgb.weights"}},
                {"channels": "L", "model": {"type": "cnn", "weights": "luma.weights"}},
            ],
        }))
        frames = write_random_sequence(tmp_path / "frames", 10, 320, 240)
        (tmp_path / "gt.csv").write_text("start_s,end_s\n0.2,0.5\n")
        outputs = []
        for workers in ("1", "2", "4"):
            out = tmp_path / f"out{workers}"
            assert main([
                "run", "--config", str(config), "--frames", str(frames),
                "--gt", str(tmp_path / "gt.csv"), "--out", str(out), "--workers", workers,
            ]) == 0
            outputs.append([
                (out / name).read_bytes()
                for name in ("detections.csv", "predictions.csv", "report.json")
            ])
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("geometry", ["golden", "downscaled", "empty"])
    def test_lazy_run_equals_eager_pipeline(self, tmp_path, geometry, workers):
        """`run` decodes frames as it scores them; its files are the bytes
        that `run_pipeline` over an eagerly loaded list gives."""
        if geometry == "golden":
            config, frames, _ = golden_workspace(tmp_path)
        else:
            count = 12 if geometry == "downscaled" else 0
            frames = write_random_sequence(tmp_path / "frames", count, 64, 48)
            config = write_mean_config(tmp_path / "config.json", input={"width": 32, "height": 32})
        out = tmp_path / "out"
        assert main([
            "run", "--config", str(config), "--frames", str(frames),
            "--out", str(out), "--workers", str(workers),
        ]) == 0
        parsed = load_config(config)
        fps = open_sequence(frames).fps
        eager = run_pipeline(parsed, list(open_sequence(frames)), fps, workers)
        assert run_pipeline(parsed, open_sequence(frames), fps, workers) == eager
        want = tmp_path / "want"
        want.mkdir()
        write_detections(
            [(e.timestamp_s, e.peak_score) for e in eager.events], want / "detections.csv"
        )
        cli._write_predictions_csv(want / "predictions.csv", parsed, eager)
        for name in ("detections.csv", "predictions.csv"):
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fault", ["shape", "truncated"])
    def test_bad_later_frame_exits_2_naming_it(self, tmp_path, capsys, fault, workers):
        config, frames, out = golden_workspace(tmp_path)
        path = frames / "frame_0005.ppm"
        if fault == "shape":
            path.write_bytes(encode_ppm(solid_frame(MAGENTA, index=5, size=8)))
        else:
            path.write_bytes(path.read_bytes()[:-1])
        code = main([
            "run", "--config", str(config), "--frames", str(frames),
            "--out", str(out), "--workers", workers,
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: frame 5 "), err

    @needs_proc_status
    @pytest.mark.parametrize(
        "header, message",
        [(None, "PPM payload has "), (b"P6\n#", "PPM header: bad width b''")],
        ids=["long-payload", "long-comment"],
    )
    def test_oversized_frame_file_exits_2(self, tmp_path, header, message):
        """Frame 5 grown to a 48 MB sparse file: `run` exits 2 naming it.
        A long payload is refused by the file size before it is read, and a
        comment that runs to the end of the file is skipped in bounded
        reads, so either way the peak resident set stays within a few MB of
        a run over the intact frames."""
        config, frames, out = golden_workspace(tmp_path)
        size = 48 << 20
        runs = []
        for grow in (False, True):
            if grow:
                with open(frames / "frame_0005.ppm", "r+b") as file:
                    if header is not None:
                        file.truncate(0)
                        file.write(header)
                    file.truncate(size)
            proc = subprocess.run(
                [sys.executable, "-c", PEAK_RSS_SCRIPT, "run", "--config", str(config),
                 "--frames", str(frames), "--out", str(out), "--workers", "2"],
                capture_output=True, text=True, timeout=120,
            )
            code, peak_kb = proc.stdout.split()
            runs.append((code, int(peak_kb) * 1024, proc.stderr.splitlines()))
        (code, peak, err), (bad_code, bad_peak, bad_err) = runs
        assert (code, err) == ("0", [])
        assert bad_code == "2"
        assert len(bad_err) == 1, bad_err
        assert bad_err[0].startswith(f"error: frame 5 (frame_0005.ppm): {message}"), bad_err
        assert bad_peak - peak < 4 << 20, (peak, bad_peak)

    @needs_proc_status
    def test_peak_memory_does_not_hold_decoded_frames(self, tmp_path):
        """80 more 320x240 frames are 18 MB decoded; into a 32x32 model,
        `run` keeps none of them and only a few 3 KB resized copies at a
        time, so its peak grows by far less than the decoded bytes."""
        config = write_mean_config(tmp_path / "config.json", input={"width": 32, "height": 32})
        peaks = []
        for count in (20, 100):
            frames = write_random_sequence(tmp_path / f"frames{count}", count, 320, 240)
            proc = subprocess.run(
                [sys.executable, "-c", PEAK_RSS_SCRIPT, "run", "--config", str(config),
                 "--frames", str(frames), "--out", str(tmp_path / f"out{count}")],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            code, peak_kb = proc.stdout.split()
            assert code == "0"
            peaks.append(int(peak_kb) * 1024)
        decoded = 80 * 320 * 240 * 3
        assert peaks[1] - peaks[0] < 0.25 * decoded, (peaks, decoded)

    @needs_proc_status
    def test_huge_frame_count_exits_2_at_the_first_missing_frame(self, tmp_path):
        """The manifest promises 10**9 frames over 2 files; `run` must stop at
        frame 2, not build a path per promised frame first."""
        config, frames, out = golden_workspace(tmp_path)
        (frames / "manifest.json").write_text(
            json.dumps({"frame_count": 10**9, "fps": 25.0, "pattern": "frame_%04d.ppm"})
        )
        for i in range(2, len(GOLDEN_COLORS)):
            (frames / f"frame_{i:04d}.ppm").unlink()
        proc = subprocess.run(
            [sys.executable, "-c", ADDRESS_LIMIT_SCRIPT, "run", "--config", str(config),
             "--frames", str(frames), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: frame 2 missing"), err

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_manifest_read_once(self, tmp_path, capsys, monkeypatch, command):
        config, frames, out = golden_workspace(tmp_path)
        original, paths = frameio.load_manifest, []

        def counting(path):
            paths.append(path)
            return original(path)

        for name, module in list(sys.modules.items()):
            if name.startswith("verisemble") and getattr(module, "load_manifest", None) is original:
                monkeypatch.setattr(module, "load_manifest", counting)
        extra = ["--out", str(out)] if command == "run" else ["--warmup", "1", "--repeats", "2"]
        assert main([command, "--config", str(config), "--frames", str(frames), *extra]) == 0
        capsys.readouterr()
        assert len(paths) == 1, paths

    def test_zero_workers_exit_2(self, tmp_path, capsys):
        config, frames, out = golden_workspace(tmp_path)
        code = main([
            "run", "--config", str(config), "--frames", str(frames),
            "--out", str(out), "--workers", "0",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"

    def test_missing_config_exits_2(self, tmp_path, capsys):
        _, frames, out = golden_workspace(tmp_path)
        code = main([
            "run", "--config", str(tmp_path / "absent.json"),
            "--frames", str(frames), "--out", str(out),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"threshold": "0.5"},
            {"threshold": True},
            {"fps": "25"},
            {"fps": False},
            {"input": {"width": "300", "height": 300}},
            {"input": {"width": 300, "height": True}},
            {"input": {"width": 300.0, "height": 300}},
            {"luma": ["0.299", 0.587, 0.114]},
            {"luma": [0.299, True, 0.114]},
            {"fusion": {"pack_size": True}},
            {"fusion": {"pack_size": "3"}},
            {"fusion": {"neighbor_window": 3.0}},
            {"fusion": {"neighbor_window": False}},
        ],
    )
    def test_mistyped_config_field_exits_2(self, tmp_path, capsys, overrides):
        _, frames, out = golden_workspace(tmp_path)
        config = write_mean_config(tmp_path / "bad.json", **overrides)
        code = main(["run", "--config", str(config), "--frames", str(frames), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_missing_weights_exits_2_naming_path(self, tmp_path, capsys):
        frames = write_sequence(tmp_path / "frames", GOLDEN_COLORS)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "config_version": 1,
            "stages": [
                {"channels": "RGB", "model": {"type": "cnn", "weights": "nowhere.weights"}},
            ],
        }))
        code = main([
            "run", "--config", str(config), "--frames", str(frames),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "nowhere.weights" in err

    @pytest.mark.parametrize("fps", ["1" + "0" * 400, "-1" + "0" * 400], ids=["10**400", "-10**400"])
    def test_manifest_fps_beyond_every_float_exits_2(self, tmp_path, capsys, fps):
        config, frames, out = golden_workspace(tmp_path)
        (frames / "manifest.json").write_text(
            '{"frame_count": 9, "fps": %s, "pattern": "frame_%%04d.ppm"}' % fps
        )
        code = main(["run", "--config", str(config), "--frames", str(frames), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("fps must be a finite number"), err

    @pytest.mark.parametrize(
        "gt_text, tol",
        [("start_s,end_s\nabc,1.0\n", "1.0"), ("start_s,end_s\n0.1,0.3\n", "nan")],
        ids=["malformed-gt", "tol-nan"],
    )
    def test_bad_scoring_input_exits_2_before_scoring(self, tmp_path, capsys, gt_text, tol):
        config, frames, out = golden_workspace(tmp_path)
        gt = tmp_path / "gt.csv"
        gt.write_text(gt_text)
        code = main([
            "run", "--config", str(config), "--frames", str(frames),
            "--out", str(out), "--gt", str(gt), f"--tol={tol}",
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_scoring(self, tmp_path, capsys, below):
        """An ``--out`` that is a file, or lies below one, is refused before a
        stage scores anything."""
        config, frames, _ = golden_workspace(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        models = (CountingModel(), CountingModel())
        with mock.patch.object(pipeline, "build_stage_models", return_value=models):
            code = main([
                "run", "--config", str(config), "--frames", str(frames),
                "--out", str(taken / below),
            ])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out: {taken} exists and is not a directory"
        ]
        assert [model.calls for model in models] == [0, 0]
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("source", ["config", "manifest"])
    def test_fps_too_small_for_finite_timestamps_exits_2(self, tmp_path, capsys, source):
        """At 5e-324 fps frame 2 would be stamped inf seconds."""
        tiny = 5e-324
        frames = write_sequence(
            tmp_path / "frames", [WHITE, BLACK, WHITE], fps=tiny if source == "manifest" else 25.0
        )
        extra = {"fps": tiny} if source == "config" else {}
        config = write_mean_config(tmp_path / "config.json", **extra)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--frames", str(frames), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: fps 5e-324 is too small: frame 2 has no finite timestamp"]
        assert not list(out.glob("*.csv"))

    @needs_proc_status
    def test_input_size_beyond_memory_exits_2(self, tmp_path):
        """Resizing to a 1,000,000 x 100,000 input needs terabytes; running
        out of memory is a resource error like an unreadable file."""
        _, frames, out = golden_workspace(tmp_path)
        config = write_mean_config(
            tmp_path / "huge.json", input={"width": 1_000_000, "height": 100_000}
        )
        proc = subprocess.run(
            [sys.executable, "-c", ADDRESS_LIMIT_SCRIPT, "run", "--config", str(config),
             "--frames", str(frames), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.parametrize(
        "error, line",
        [(MemoryError(), "error: out of memory"), (ValueError(), "error: ValueError")],
        ids=["MemoryError", "ValueError"],
    )
    def test_error_without_a_message_is_named(self, tmp_path, capsys, error, line):
        """A failed allocation raises a MemoryError with no message; the
        ``error:`` line still says what failed."""
        config, frames, out = golden_workspace(tmp_path)
        argv = ["run", "--config", str(config), "--frames", str(frames), "--out", str(out)]
        with mock.patch.object(cli, "cmd_run", side_effect=error):
            code = main(argv)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.parametrize("packing", [True, False])
    def test_packing_enabled_is_an_unknown_fusion_key(self, tmp_path, capsys, packing):
        """The fusion block takes ``pack_size`` and ``neighbor_window`` only;
        both at 1 give the per-frame AND."""
        _, frames, out = golden_workspace(tmp_path)
        config = write_mean_config(
            tmp_path / "config.json", fusion={"pack_size": 1, "packing_enabled": packing}
        )
        code = main(["run", "--config", str(config), "--frames", str(frames), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: fusion: unknown keys ['packing_enabled']"
        ]
        assert not out.exists()

    def test_luma_is_an_unknown_config_key(self, tmp_path, capsys):
        """Luma has no setting: a config that gives the BT.601 weights
        exits 2 on the key before it scores a frame."""
        _, frames, out = golden_workspace(tmp_path)
        config = write_mean_config(tmp_path / "config.json", luma=[0.299, 0.587, 0.114])
        code = main(["run", "--config", str(config), "--frames", str(frames), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: config: unknown keys ['luma']"]
        assert not out.exists()

    def test_missing_frame_file_exits_2(self, tmp_path, capsys):
        config, frames, out = golden_workspace(tmp_path)
        (frames / "frame_0004.ppm").unlink()
        code = main(["run", "--config", str(config), "--frames", str(frames), "--out", str(out)])
        assert code == 2
        assert "frame 4" in capsys.readouterr().err

    def test_png_frame_exits_2_naming_it(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        for i in range(3):
            # A PNG signature; the decoder rejects the file on its first bytes.
            (frames / f"frame_{i:04d}.png").write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(64))
        (frames / "manifest.json").write_text(
            json.dumps({"frame_count": 3, "fps": 25.0, "pattern": "frame_%04d.png"})
        )
        config = write_mean_config(tmp_path / "config.json")
        code = main([
            "run", "--config", str(config), "--frames", str(frames),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: frame 0 (frame_0000.png): frames must be binary PPM")

    def test_internal_error_exits_1(self, tmp_path, capsys, monkeypatch):
        config, frames, out = golden_workspace(tmp_path)
        import verisemble.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("intentional failure")

        monkeypatch.setattr(cli_module, "run_pipeline", boom)
        code = main(["run", "--config", str(config), "--frames", str(frames), "--out", str(out)])
        assert code == 1
        assert "intentional failure" in capsys.readouterr().err


@needs_proc_status
@pytest.mark.parametrize(
    "command, flag",
    [("eval", "--detections"), ("eval", "--gt"), ("simulate", "--labels"), ("run", "--gt")],
)
def test_sparse_text_input_exits_2_in_bounded_memory(tmp_path, command, flag):
    """A text input that is one 8 MiB line of NUL bytes: the command exits 2
    with one short `error:` line naming its first row, and its peak resident
    set stays within a few MB of the same command given a good file, since
    lines are read one at a time up to a bound."""
    config, frames, out = golden_workspace(tmp_path)
    detections = tmp_path / "detections.csv"
    detections.write_text("timestamp_s,score\n1.000,0.9\n")
    gt = tmp_path / "gt.csv"
    gt.write_text("0.1,0.3\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n1\n0\n")
    rates = [f"--{stage}-{rate}" for stage in ("primary", "verifier") for rate in ("tpr", "fpr")]
    argv = {
        "eval": ["eval", "--detections", str(detections), "--gt", str(gt)],
        "simulate": ["simulate", "--labels", str(labels), *(a for r in rates for a in (r, "0.5"))],
        "run": ["run", "--config", str(config), "--frames", str(frames), "--out", str(out),
                "--gt", str(gt)],
    }[command]
    sparse = tmp_path / "sparse"
    with open(sparse, "wb") as file:
        file.truncate(8 << 20)
    bad = list(argv)
    bad[bad.index(flag) + 1] = str(sparse)
    runs = []
    for args in (argv, bad):
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_SCRIPT, *args],
            capture_output=True, text=True, timeout=120,
        )
        code, peak_kb = proc.stdout.splitlines()[-1].split()
        runs.append((code, int(peak_kb) * 1024, proc.stderr.splitlines()))
    (code, peak, err), (bad_code, bad_peak, bad_err) = runs
    assert (code, err) == ("0", [])
    assert bad_code == "2"
    assert len(bad_err) == 1 and len(bad_err[0]) < 200, bad_err
    assert bad_err[0].startswith(f"error: {sparse} row 1: "), bad_err
    assert bad_peak - peak < 4 << 20, (peak, bad_peak)


@needs_proc_status
@pytest.mark.parametrize(
    "command, flag", [("simulate", "--config"), ("run", "--config"), ("run", "--manifest")]
)
def test_oversized_json_input_exits_2_in_bounded_memory(tmp_path, command, flag):
    """A config or manifest grown to a 32 MiB sparse file: the command exits 2
    with one `error:` line, and its peak resident set stays within a few MB
    of the same command given the intact file, since the file's size is
    checked before it is read."""
    config, frames, out = golden_workspace(tmp_path)
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n1\n0\n")
    rates = [f"--{stage}-{rate}" for stage in ("primary", "verifier") for rate in ("tpr", "fpr")]
    argv = {
        "simulate": ["simulate", "--labels", str(labels), "--config", str(config),
                     *(a for r in rates for a in (r, "0.5"))],
        "run": ["run", "--config", str(config), "--frames", str(frames), "--out", str(out),
                "--manifest", str(frames / "manifest.json")],
    }[command]
    sparse = tmp_path / "sparse.json"
    with open(sparse, "wb") as file:
        file.truncate(32 << 20)
    bad = list(argv)
    bad[bad.index(flag) + 1] = str(sparse)
    runs = []
    for args in (argv, bad):
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_SCRIPT, *args],
            capture_output=True, text=True, timeout=120,
        )
        code, peak_kb = proc.stdout.splitlines()[-1].split()
        runs.append((code, int(peak_kb) * 1024, proc.stderr.splitlines()))
    (code, peak, err), (bad_code, bad_peak, bad_err) = runs
    assert (code, err) == ("0", [])
    assert bad_code == "2"
    assert len(bad_err) == 1, bad_err
    assert bad_err[0].endswith(f"{sparse}: JSON file larger than {JSON_MAX_BYTES} bytes"), bad_err
    assert bad_peak - peak < 4 << 20, (peak, bad_peak)


def cnn_workspace(tmp_path: Path, channels: list[str]) -> tuple[list[str], list[Path]]:
    """Nine 32x32 frames and a config with one stock-model CNN stage per
    entry of ``channels``, each reading its own container; returns `run`'s
    argv and the containers' paths."""
    frames = write_sequence(tmp_path / "frames", GOLDEN_COLORS, size=32)
    stages, paths = [], []
    for position, subset in enumerate(channels):
        spec = default_model_spec(ChannelSubset.parse(subset).cardinality, 32, 32)
        paths.append(tmp_path / f"stage{position}.weights")
        save_weights(paths[-1], spec, random_weights(spec, seed=position))
        stages.append({"channels": subset, "model": {"type": "cnn", "weights": paths[-1].name}})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1, "input": {"width": 32, "height": 32}, "stages": stages,
    }))
    return ["run", "--config", str(config), "--frames", str(frames), "--out", str(tmp_path / "out")], paths


@needs_proc_status
def test_container_with_a_long_tail_exits_2_in_bounded_memory(tmp_path):
    """A stock container followed by a 64 MiB sparse tail: `run` exits 2 with
    one `error:` line naming the container, and its peak resident set stays
    within a few MB of a run over the intact container, since the spec fixes
    the container's size and the file's size is checked before any record
    is read."""
    argv, (weights,) = cnn_workspace(tmp_path, ["RGB"])
    runs = []
    for tail in (0, 64 << 20):
        with open(weights, "r+b") as file:
            file.truncate(os.fstat(file.fileno()).st_size + tail)
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_SCRIPT, *argv],
            capture_output=True, text=True, timeout=120,
        )
        code, peak_kb = proc.stdout.splitlines()[-1].split()
        runs.append((code, int(peak_kb) * 1024, proc.stderr.splitlines()))
    (code, peak, err), (bad_code, bad_peak, bad_err) = runs
    assert (code, err) == ("0", [])
    assert bad_code == "2"
    assert len(bad_err) == 1 and bad_err[0].startswith(f"error: {weights}: "), bad_err
    assert bad_peak - peak < 4 << 20, (peak, bad_peak)


@needs_proc_status
def test_container_claiming_a_long_spec_exits_2_in_bounded_memory(tmp_path):
    """A 12-byte head claiming a 64 MiB spec over a 64 MiB sparse file:
    `run` exits 2 with one `error:` line naming the container, and its peak
    resident set stays within a few MB of a run over the intact container,
    since a spec longer than a JSON input may be is refused before it is
    read."""
    argv, (weights,) = cnn_workspace(tmp_path, ["RGB"])
    runs = []
    for damaged in (False, True):
        if damaged:
            with open(weights, "r+b") as file:
                file.seek(8)
                file.write(struct.pack("<I", 64 << 20))
                file.truncate(12 + (64 << 20))
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_SCRIPT, *argv],
            capture_output=True, text=True, timeout=120,
        )
        code, peak_kb = proc.stdout.splitlines()[-1].split()
        runs.append((code, int(peak_kb) * 1024, proc.stderr.splitlines()))
    (code, peak, err), (bad_code, bad_peak, bad_err) = runs
    assert (code, err) == ("0", [])
    assert bad_code == "2"
    assert bad_err == [f"error: {weights}: spec larger than {JSON_MAX_BYTES} bytes"], bad_err
    assert bad_peak - peak < 4 << 20, (peak, bad_peak)


def test_truncated_container_of_a_two_cnn_stage_config_is_named(tmp_path, capsys):
    """Both stock stages hold a `dense3/bias`, so only the file's name says
    which container is cut."""
    argv, (_, second) = cnn_workspace(tmp_path, ["RGB", "L"])
    second.write_bytes(second.read_bytes()[:-2])
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {second}: "), err


@pytest.mark.parametrize("document", ["config", "manifest", "container"])
def test_duplicate_json_key_exits_2(tmp_path, capsys, document):
    """A key given twice in one JSON object is refused, in a config, a
    manifest and a container's spec; it used to take the last value."""
    argv, (weights,) = cnn_workspace(tmp_path, ["RGB"])
    if document == "config":
        path, where, key = tmp_path / "config.json", str(tmp_path / "config.json"), "threshold"
        path.write_text(path.read_text().replace("{", '{"threshold": 0.9, "threshold": 0.1, ', 1))
    elif document == "manifest":
        path = tmp_path / "frames" / "manifest.json"
        where, key = f"manifest {path}", "fps"
        path.write_text(path.read_text().replace("{", '{"fps": 25, "fps": 2, ', 1))
    else:
        path, where, key = weights, f"{weights}: spec", "input"
        data = path.read_bytes()
        (spec_len,) = struct.unpack("<I", data[8:12])
        spec_json = data[12 : 12 + spec_len].replace(b"{", b'{"input":[64,64,3],', 1)
        path.write_bytes(data[:8] + struct.pack("<I", len(spec_json)) + spec_json + data[12 + spec_len :])
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {where}: duplicate key {key!r}"]


class TestEval:
    def test_hand_example(self, tmp_path, capsys):
        detections = tmp_path / "detections.csv"
        detections.write_text("timestamp_s,score\n10.500,0.91\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("10.0,12.0\n")
        assert main(["eval", "--detections", str(detections), "--gt", str(gt)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "video": None,
            "precision": 1.0,
            "recall": 1.0,
            "f1": 1.0,
            "events": 1,
            "matched": 1,
            "intervals": 1,
            "intervals_matched": 1,
        }

    def test_empty_detections(self, tmp_path, capsys):
        detections = tmp_path / "detections.csv"
        detections.write_text("timestamp_s,score\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("1.0,2.0\n")
        assert main(["eval", "--detections", str(detections), "--gt", str(gt)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["precision"] is None
        assert report["recall"] == 0.0
        assert report["f1"] is None

    def test_zero_tolerance(self, tmp_path, capsys):
        detections = tmp_path / "detections.csv"
        detections.write_text("timestamp_s,score\n9.400,0.8\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("9.5,10.5\n")
        main(["eval", "--detections", str(detections), "--gt", str(gt), "--tol", "0"])
        assert json.loads(capsys.readouterr().out)["precision"] == 0.0

    def test_within_default_tolerance(self, tmp_path, capsys):
        detections = tmp_path / "detections.csv"
        detections.write_text("timestamp_s,score\n9.100,0.8\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("10.0,12.0\n")
        main(["eval", "--detections", str(detections), "--gt", str(gt)])
        assert json.loads(capsys.readouterr().out)["precision"] == 1.0

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_tolerance_not_finite_and_non_negative_exits_2(self, tmp_path, capsys, command, tol):
        config, frames, out = golden_workspace(tmp_path)
        gt = tmp_path / "gt.csv"
        gt.write_text("0.0,1.0\n")
        detections = tmp_path / "detections.csv"
        detections.write_text("timestamp_s,score\n0.500,0.9\n")
        if command == "run":
            argv = ["run", "--config", str(config), "--frames", str(frames), "--out", str(out)]
        else:
            argv = ["eval", "--detections", str(detections)]
        assert main(argv + ["--gt", str(gt), f"--tol={tol}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: tolerance must be"), err

    def test_unsorted_detections_exit_2(self, tmp_path, capsys):
        detections = tmp_path / "detections.csv"
        detections.write_text("timestamp_s,score\n5.000,0.9\n1.000,0.8\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("1.0,2.0\n")
        assert main(["eval", "--detections", str(detections), "--gt", str(gt)]) == 2
        assert "sorted" in capsys.readouterr().err

    def test_non_finite_detections_exit_2(self, tmp_path, capsys):
        detections = tmp_path / "detections.csv"
        detections.write_text("timestamp_s,score\nnan,0.9\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("1.0,2.0\n")
        assert main(["eval", "--detections", str(detections), "--gt", str(gt)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["nan,2", "0.5,inf"])
    def test_non_finite_ground_truth_names_file_and_row(self, tmp_path, capsys, row):
        detections = tmp_path / "detections.csv"
        detections.write_text("timestamp_s,score\n1.000,0.9\n")
        gt = tmp_path / "gt.csv"
        gt.write_text(f"start_s,end_s\n1.0,2.0\n{row}\n")
        assert main(["eval", "--detections", str(detections), "--gt", str(gt)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {gt} row 3: non-finite value"), err

    @pytest.mark.parametrize("score", ["1.5", "-0.25"])
    def test_score_outside_unit_interval_exits_2(self, tmp_path, capsys, score):
        detections = tmp_path / "detections.csv"
        detections.write_text(f"timestamp_s,score\n1.000,{score}\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("1.0,2.0\n")
        assert main(["eval", "--detections", str(detections), "--gt", str(gt)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "outside [0, 1]" in err[0], err

    def test_fps_option_is_gone(self, tmp_path, capsys):
        detections = tmp_path / "detections.csv"
        write_detections([(1.0, 0.9)], detections)
        gt = tmp_path / "gt.csv"
        gt.write_text("1.0,2.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--detections", str(detections), "--gt", str(gt), "--fps", "25"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fps" in capsys.readouterr().err

    def test_missing_detections_exit_2(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("1.0,2.0\n")
        code = main(["eval", "--detections", str(tmp_path / "none.csv"), "--gt", str(gt)])
        assert code == 2
        capsys.readouterr()


class TestBench:
    @staticmethod
    def small_workspace(tmp_path):
        frames = write_sequence(tmp_path / "frames", GOLDEN_COLORS, size=8)
        config = write_mean_config(
            tmp_path / "config.json", input={"width": 32, "height": 32}
        )
        return config, frames

    def test_reports_structure(self, tmp_path, capsys):
        config, frames = self.small_workspace(tmp_path)
        assert main([
            "bench", "--config", str(config), "--frames", str(frames),
            "--warmup", "1", "--repeats", "2", "--workers", "1",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        (report,) = out["reports"]
        assert report["frames"] == len(GOLDEN_COLORS)
        assert report["warmup"] == 1
        assert report["workers"] == 1
        assert report["params_total"] == 0  # mean-intensity stages are weightless
        assert [s["channels"] for s in report["stages"]] == ["RGB", "L"]
        assert [s["macs"] for s in report["stages"]] == [0, 0]
        latency = report["latency_ms"]
        assert list(latency) == ["mean", "median", "p95"]
        assert latency["p95"] >= latency["median"]
        assert latency["mean"] > 0
        assert list(out) == ["reports"]

    def test_cnn_bench_reports_parameter_counts(self, tmp_path, capsys):
        from verisemble import count_macs, count_params, random_weights, save_weights
        from test_pipeline import small_cnn_spec

        rgb_spec, luma_spec = small_cnn_spec(3), small_cnn_spec(1)
        save_weights(tmp_path / "rgb.weights", rgb_spec, random_weights(rgb_spec, 1))
        save_weights(tmp_path / "luma.weights", luma_spec, random_weights(luma_spec, 2))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "config_version": 1,
            "input": {"width": 8, "height": 8},
            "stages": [
                {"channels": "RGB", "model": {"type": "cnn", "weights": "rgb.weights"}},
                {"channels": "L", "model": {"type": "cnn", "weights": "luma.weights"}},
            ],
        }))
        frames = write_sequence(tmp_path / "frames", GOLDEN_COLORS, size=8)
        assert main(["bench", "--config", str(config), "--frames", str(frames)]) == 0
        out = json.loads(capsys.readouterr().out)
        report = out["reports"][0]
        want = [count_params(rgb_spec), count_params(luma_spec)]
        assert [s["params"] for s in report["stages"]] == want
        assert report["params_total"] == sum(want)
        assert [s["macs"] for s in report["stages"]] == [count_macs(rgb_spec), count_macs(luma_spec)]

    def test_throughput_section(self, tmp_path, capsys):
        config, frames = self.small_workspace(tmp_path)
        assert main([
            "bench", "--config", str(config), "--frames", str(frames), "--workers", "2",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        (report,) = out["reports"]
        assert report["workers"] == 2
        assert report["frames"] == len(GOLDEN_COLORS)
        assert report["latency_ms"]["median"] > 0
        # One timed run: its per-frame time is the mean, median and p95.
        assert len(set(report["latency_ms"].values())) == 1
        assert list(out) == ["reports"]

    def test_times_the_lazy_path(self, tmp_path, capsys):
        config, frames = self.small_workspace(tmp_path)
        models = (CountingModel(), CountingModel())
        with mock.patch.object(pipeline, "build_stage_models", return_value=models):
            assert main([
                "bench", "--config", str(config), "--frames", str(frames),
                "--warmup", "2", "--repeats", "3",
            ]) == 0
        capsys.readouterr()
        result = run_pipeline(load_config(config), list(open_sequence(frames)), fps=GOLDEN_FPS)
        assert len(result.scored[1]) < len(GOLDEN_COLORS)
        assert [model.calls for model in models] == [(2 + 3) * len(s) for s in result.scored]

    def test_zero_workers_exit_2(self, tmp_path, capsys):
        config, frames = self.small_workspace(tmp_path)
        code = main([
            "bench", "--config", str(config), "--frames", str(frames), "--workers", "0",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: workers must be >= 1, got 0\n"

    def test_zero_frames_exit_2(self, tmp_path, capsys):
        config, _ = self.small_workspace(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.json").write_text(
            json.dumps({"frame_count": 0, "fps": 25.0, "pattern": "frame_%04d.ppm"})
        )
        code = main(["bench", "--config", str(config), "--frames", str(empty)])
        assert code == 2
        assert "at least one frame" in capsys.readouterr().err

    def test_bad_repeats_exit_2(self, tmp_path, capsys):
        config, frames = self.small_workspace(tmp_path)
        code = main([
            "bench", "--config", str(config), "--frames", str(frames), "--repeats", "0",
        ])
        assert code == 2
        capsys.readouterr()

    def test_negative_warmup_exit_2(self, tmp_path, capsys):
        config, frames = self.small_workspace(tmp_path)
        code = main([
            "bench", "--config", str(config), "--frames", str(frames), "--warmup", "-1",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: warmup must be >= 0, got -1\n"


class TestSimulate:
    @staticmethod
    def labels_file(tmp_path, labels):
        path = tmp_path / "labels.txt"
        path.write_text("".join(f"{int(v)}\n" for v in labels))
        return path

    def test_output_structure(self, tmp_path, capsys):
        labels = self.labels_file(tmp_path, [0, 0, 1, 1, 0] * 20)
        assert main([
            "simulate", "--labels", str(labels),
            "--primary-tpr", "0.9", "--primary-fpr", "0.1",
            "--verifier-tpr", "0.8", "--verifier-fpr", "0.2",
            "--seed", "5",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["frames"] == 100
        assert out["positives"] == 40
        assert out["seed"] == 5
        for section in ("before", "after"):
            assert set(out[section]) == {"precision", "recall", "f1", "fpr"}

    def test_deterministic_per_seed(self, tmp_path, capsys):
        labels = self.labels_file(tmp_path, [0, 1] * 50)
        argv = [
            "simulate", "--labels", str(labels),
            "--primary-tpr", "0.7", "--primary-fpr", "0.2",
            "--verifier-tpr", "0.7", "--verifier-fpr", "0.2",
            "--seed", "11",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        main(argv[:-1] + ["12"])
        assert capsys.readouterr().out != first

    def test_perfect_predictors(self, tmp_path, capsys):
        # The positive burst is aligned to pack boundaries; otherwise the
        # majority vote would legitimately bleed one frame at each edge.
        labels = self.labels_file(tmp_path, [0] * 9 + [1] * 9 + [0] * 12)
        main([
            "simulate", "--labels", str(labels),
            "--primary-tpr", "1.0", "--primary-fpr", "0.0",
            "--verifier-tpr", "1.0", "--verifier-fpr", "0.0",
        ])
        out = json.loads(capsys.readouterr().out)
        assert out["before"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "fpr": 0.0}
        assert out["after"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "fpr": 0.0}

    def test_unaligned_burst_bleeds_at_pack_edges(self, tmp_path, capsys):
        # Perfect stages, but the burst starts mid-pack: majority voting
        # extends the detection into the boundary frames, so the fused
        # output gains exactly the pack-edge false positives.
        labels = self.labels_file(tmp_path, [0] * 10 + [1] * 10 + [0] * 10)
        main([
            "simulate", "--labels", str(labels),
            "--primary-tpr", "1.0", "--primary-fpr", "0.0",
            "--verifier-tpr", "1.0", "--verifier-fpr", "0.0",
        ])
        out = json.loads(capsys.readouterr().out)
        assert out["before"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "fpr": 0.0}
        assert out["after"]["recall"] == 1.0
        assert out["after"]["precision"] == pytest.approx(10 / 12)
        assert out["after"]["fpr"] == pytest.approx(2 / 20)

    def test_verifier_suppresses_primary_noise(self, tmp_path, capsys):
        # Primary fires on everything, verifier on nothing: the plain AND
        # removes every false positive.
        labels = self.labels_file(tmp_path, [0] * 50)
        main([
            "simulate", "--labels", str(labels),
            "--primary-tpr", "1.0", "--primary-fpr", "1.0",
            "--verifier-tpr", "0.0", "--verifier-fpr", "0.0",
            "--pack-size", "1", "--neighbor-window", "1",
        ])
        out = json.loads(capsys.readouterr().out)
        assert out["before"]["fpr"] == 1.0
        assert out["after"]["fpr"] == 0.0

    @staticmethod
    def fusion_used(tmp_path, capsys, *flags) -> FusionConfig:
        """The fusion config that ``simulate`` with ``flags`` folds with."""
        labels = TestSimulate.labels_file(tmp_path, [0, 1] * 10)
        with mock.patch.object(cli, "chain_fuse", wraps=cli.chain_fuse) as fuse:
            assert main([
                "simulate", "--labels", str(labels),
                "--primary-tpr", "0.9", "--primary-fpr", "0.1",
                "--verifier-tpr", "0.9", "--verifier-fpr", "0.1",
                *flags,
            ]) == 0
        capsys.readouterr()
        (_, fusion), _ = fuse.call_args
        return fusion

    def test_fusion_overrides_accepted(self, tmp_path, capsys):
        fusion = self.fusion_used(tmp_path, capsys, "--pack-size", "5", "--neighbor-window", "5")
        assert fusion == FusionConfig(pack_size=5, neighbor_window=5)

    def test_config_fusion_block_used(self, tmp_path, capsys):
        config = write_mean_config(
            tmp_path / "config.json",
            fusion={"pack_size": 5, "neighbor_window": 5},
        )
        fusion = self.fusion_used(tmp_path, capsys, "--config", str(config))
        assert fusion == FusionConfig(pack_size=5, neighbor_window=5)

    @pytest.mark.parametrize(
        "block, flags, changed",
        [
            ({"pack_size": 5, "neighbor_window": 7}, [], {}),
            ({"pack_size": 5, "neighbor_window": 7}, ["--pack-size", "3"], {"pack_size": 3}),
            (
                {"pack_size": 5, "neighbor_window": 7},
                ["--neighbor-window", "1"],
                {"neighbor_window": 1},
            ),
            (
                {"pack_size": 5, "neighbor_window": 7},
                ["--pack-size", "1", "--neighbor-window", "1"],
                {"pack_size": 1, "neighbor_window": 1},
            ),
            ({"pack_size": 1, "neighbor_window": 1}, [], {}),
            ({"pack_size": 1, "neighbor_window": 1}, ["--pack-size", "9"], {"pack_size": 9}),
            (
                {"pack_size": 1, "neighbor_window": 1},
                ["--neighbor-window", "5"],
                {"neighbor_window": 5},
            ),
            (
                {"pack_size": 5, "neighbor_window": 7},
                ["--pack-size", "9", "--neighbor-window", "3"],
                {"pack_size": 9, "neighbor_window": 3},
            ),
        ],
    )
    def test_each_flag_replaces_only_its_field(self, tmp_path, capsys, block, flags, changed):
        config = write_mean_config(tmp_path / "config.json", fusion=block)
        fusion = self.fusion_used(tmp_path, capsys, "--config", str(config), *flags)
        assert fusion == FusionConfig(**{**block, **changed})

    @pytest.mark.parametrize(
        "flags, changed",
        [
            ([], {}),
            (
                ["--pack-size", "1", "--neighbor-window", "1"],
                {"pack_size": 1, "neighbor_window": 1},
            ),
            (["--pack-size", "7"], {"pack_size": 7}),
        ],
    )
    def test_flags_replace_the_default_without_config(self, tmp_path, capsys, flags, changed):
        assert self.fusion_used(tmp_path, capsys, *flags) == FusionConfig(**changed)

    def test_packing_option_is_gone(self, tmp_path, capsys):
        """A pack and window of 1 are the per-frame AND; no flag turns fusion off."""
        labels = self.labels_file(tmp_path, [0, 1])
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--labels", str(labels),
                "--primary-tpr", "1.0", "--primary-fpr", "0.0",
                "--verifier-tpr", "1.0", "--verifier-fpr", "0.0",
                "--packing", "off",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --packing off" in capsys.readouterr().err

    def test_bad_rate_exit_2(self, tmp_path, capsys):
        labels = self.labels_file(tmp_path, [0, 1])
        code = main([
            "simulate", "--labels", str(labels),
            "--primary-tpr", "1.5", "--primary-fpr", "0.0",
            "--verifier-tpr", "1.0", "--verifier-fpr", "0.0",
        ])
        assert code == 2
        assert "tpr" in capsys.readouterr().err

    def test_bad_label_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        path.write_text("0\n1\ntwo\n")
        code = main([
            "simulate", "--labels", str(path),
            "--primary-tpr", "1.0", "--primary-fpr", "0.0",
            "--verifier-tpr", "1.0", "--verifier-fpr", "0.0",
        ])
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_even_pack_override_exit_2(self, tmp_path, capsys):
        labels = self.labels_file(tmp_path, [0, 1])
        code = main([
            "simulate", "--labels", str(labels),
            "--primary-tpr", "1.0", "--primary-fpr", "0.0",
            "--verifier-tpr", "1.0", "--verifier-fpr", "0.0",
            "--pack-size", "2",
        ])
        assert code == 2
        assert "odd" in capsys.readouterr().err


class TestParser:
    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_workers_default_to_usable_cpus(self, command):
        argv = [command, "--config", "c.json", "--frames", "frames"]
        argv += ["--out", "out"] if command == "run" else []
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count()
        assert cli.build_parser().parse_args(argv).workers == usable

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--frames", "x", "--out", "y"])  # no --config
        assert exc.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tmp_path):
        frames = write_sequence(tmp_path / "frames", GOLDEN_COLORS)
        config = write_mean_config(tmp_path / "config.json")
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable, "-m", "verisemble", "run",
                "--config", str(config), "--frames", str(frames), "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "detections.csv").is_file()

    def test_subprocess_runs_byte_identical(self, tmp_path):
        frames = write_sequence(tmp_path / "frames", GOLDEN_COLORS)
        config = write_mean_config(tmp_path / "config.json")
        blobs = []
        for k in range(2):
            out = tmp_path / f"out{k}"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "verisemble", "run",
                    "--config", str(config), "--frames", str(frames),
                    "--out", str(out), "--workers", str(k * 3 + 1),
                ],
                capture_output=True,
            )
            assert proc.returncode == 0
            blobs.append(
                (out / "detections.csv").read_bytes()
                + (out / "predictions.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]
