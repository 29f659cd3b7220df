"""Frame, PPM codec, manifest, ground-truth and detections I/O."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from verisemble import (
    Frame,
    FormatError,
    FrameSequence,
    GroundTruth,
    LoadError,
    SequenceManifest,
    ValidationError,
    decode_ppm,
    encode_ppm,
    load_detections,
    load_ground_truth,
    load_manifest,
    open_sequence,
    write_detections,
)
from verisemble import frameio

from conftest import BLACK, WHITE, needs_proc_status, random_frame, solid_frame, write_sequence


class TestFrame:
    def test_accessors(self):
        frame = random_frame(seed=1, width=5, height=4, channels=3)
        assert (frame.width, frame.height, frame.channels) == (5, 4, 3)
        assert frame.pixels.shape == (4, 5, 3)

    def test_pixels_read_only(self):
        frame = solid_frame(BLACK)
        with pytest.raises((ValueError, RuntimeError)):
            frame.pixels[0, 0, 0] = 1

    def test_negative_index_rejected(self):
        with pytest.raises(ValidationError):
            Frame(index=-1, pixels=np.zeros((2, 2, 3), np.uint8))

    def test_bad_channel_count_rejected(self):
        with pytest.raises(ValidationError):
            Frame(index=0, pixels=np.zeros((2, 2, 2), np.uint8))

    def test_non_uint8_rejected(self):
        with pytest.raises(ValidationError):
            Frame(index=0, pixels=np.zeros((2, 2, 3), np.float64))

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3), (0, 0, 1)])
    def test_empty_frame_rejected(self, shape):
        with pytest.raises(ValidationError, match="at least 1x1"):
            Frame(index=0, pixels=np.zeros(shape, np.uint8))

    def test_equality_covers_index_and_pixels(self):
        a = solid_frame(BLACK, index=0)
        b = solid_frame(BLACK, index=0)
        c = solid_frame(BLACK, index=1)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestDecodePpm:
    def test_single_red_pixel(self):
        frame = decode_ppm(b"P6\n1 1\n255\n\xff\x00\x00")
        assert (frame.width, frame.height, frame.channels) == (1, 1, 3)
        assert frame.pixels.tolist() == [[[255, 0, 0]]]

    def test_two_pixel_row_order(self):
        frame = decode_ppm(b"P6\n2 1\n255\n\x00\x00\x00\xff\xff\xff")
        assert frame.pixels.reshape(-1).tolist() == [0, 0, 0, 255, 255, 255]

    def test_ascii_p3_rejected(self):
        with pytest.raises(FormatError):
            decode_ppm(b"P3\n1 1\n255\n255 0 0\n")

    def test_wrong_maxval_rejected(self):
        with pytest.raises(FormatError, match="maxval"):
            decode_ppm(b"P6\n1 1\n65535\n\xff\x00\x00")

    def test_truncated_payload_rejected(self):
        with pytest.raises(FormatError, match="truncated"):
            decode_ppm(b"P6\n2 2\n255\n\xff\x00\x00")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FormatError, match="trailing"):
            decode_ppm(b"P6\n1 1\n255\n\xff\x00\x00\x00")

    def test_header_comments_tolerated(self):
        data = b"P6\n# made by hand\n1 1\n# another\n255\n\xff\x00\x00"
        frame = decode_ppm(data)
        assert frame.pixels.tolist() == [[[255, 0, 0]]]

    def test_empty_input_rejected(self):
        with pytest.raises(FormatError):
            decode_ppm(b"")

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_header_number_past_int_digit_limit_rejected(self, field):
        # int() refuses more than 4,300 digits with a ValueError; the header
        # reader caps the digits first.
        numbers = [b"2", b"1", b"255"]
        numbers[field] = b"9" * 5000
        with pytest.raises(FormatError, match="more than 20 digits"):
            decode_ppm(b"P6\n" + b" ".join(numbers) + b"\n" + bytes(6))

    @pytest.mark.parametrize(
        "width, message",
        [
            (b"12x", "bad width b'12x'"),
            # A run of more than 20 digits that a non-digit ends within
            # 32 bytes is a bad token, quoted whole.
            (b"1" * 21 + b"x", f"bad width {b'1' * 21 + b'x'!r}"),
            (b"x" * 32, f"bad width {b'x' * 32!r}"),
            (b"x" * 33, f"bad width {b'x' * 32!r}..."),
            (b"1" * 32 + b"x", "width has more than 20 digits"),
            (b"0" * 40 + b"1" * 21, "width has more than 20 digits"),
        ],
    )
    def test_bad_header_token_quotes_at_most_32_bytes(self, width, message):
        with pytest.raises(FormatError) as caught:
            decode_ppm(b"P6\n" + width + b" 1\n255\n" + bytes(3))
        assert str(caught.value) == f"PPM header: {message}"

    def test_zero_padded_header_numbers_read_as_decimal(self):
        data = b"P6\n" + b"0" * 5000 + b"2 0001\n000255\n" + bytes(range(6))
        frame = decode_ppm(data)
        assert (frame.width, frame.height) == (2, 1)
        assert frame.pixels.reshape(-1).tolist() == list(range(6))

    def test_pixels_view_the_input_bytes(self):
        data = encode_ppm(random_frame(seed=3, width=5, height=4))
        base = decode_ppm(data).pixels
        while isinstance(base, np.ndarray):
            base = base.base
        assert base is data

    def test_mutable_buffer_is_not_aliased(self):
        data = bytearray(b"P6\n1 1\n255\n\xff\x00\x00")
        frame = decode_ppm(data)
        data[-3:] = b"\x00\x00\x00"
        assert frame.pixels.tolist() == [[[255, 0, 0]]]


class TestEncodePpm:
    def test_canonical_header(self):
        data = encode_ppm(solid_frame((255, 0, 0), size=1))
        assert data == b"P6\n1 1\n255\n\xff\x00\x00"

    def test_grayscale_frame_rejected(self):
        frame = Frame(index=0, pixels=np.zeros((2, 2, 1), np.uint8))
        with pytest.raises(ValueError):
            encode_ppm(frame)

    def test_round_trip_random_frames(self):
        for seed in range(40):
            rng = random.Random(seed)
            frame = random_frame(seed, width=rng.randint(1, 8), height=rng.randint(1, 8))
            data = encode_ppm(frame)
            decoded = decode_ppm(data)
            assert decoded == frame
            assert encode_ppm(decoded) == data


class TestManifest:
    def test_load_valid(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"frame_count": 3, "fps": 25, "pattern": "f_%03d.ppm"}')
        manifest = load_manifest(path)
        assert manifest == SequenceManifest(frame_count=3, fps=25.0, pattern="f_%03d.ppm")
        assert manifest.frame_path(tmp_path, 2) == tmp_path / "f_002.ppm"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"frame_count": 1, "fps": 25, "pattern": "f_%d.ppm", "extra": 1}')
        with pytest.raises(FormatError, match=r"manifest\.json: unknown keys \['extra'\]"):
            load_manifest(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"frame_count": 1, "fps": 25}')
        with pytest.raises(FormatError, match=r"manifest\.json: missing keys \['pattern'\]"):
            load_manifest(path)

    def test_zero_fps_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"frame_count": 1, "fps": 0, "pattern": "f_%d.ppm"}')
        with pytest.raises(ValidationError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "fps",
        ["1" + "0" * 400, "-1" + "0" * 400, "Infinity", "NaN"],
        ids=["10**400", "-10**400", "Infinity", "NaN"],
    )
    def test_fps_beyond_every_float_rejected(self, tmp_path, fps):
        path = tmp_path / "manifest.json"
        path.write_text('{"frame_count": 1, "fps": %s, "pattern": "f_%%d.ppm"}' % fps)
        with pytest.raises(FormatError, match="fps must be a finite number"):
            load_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            load_manifest(tmp_path / "nope.json")

    def test_infinite_fps_rejected(self):
        with pytest.raises(ValidationError, match="fps must be > 0"):
            SequenceManifest(frame_count=1, fps=float("inf"), pattern="f_%d.ppm")

    def test_constant_pattern_rejected(self):
        with pytest.raises(ValidationError):
            SequenceManifest(frame_count=2, fps=25.0, pattern="frame.ppm")


class TestLoadSequence:
    """Every frame decoded at once, as ``list(open_sequence(...))``."""

    def test_three_frames_in_order(self, tmp_path):
        directory = write_sequence(tmp_path / "seq", [BLACK, WHITE, BLACK])
        frames = list(open_sequence(directory))
        assert [f.index for f in frames] == [0, 1, 2]
        assert frames[1].pixels[0, 0].tolist() == [255, 255, 255]

    def test_missing_frame_names_index(self, tmp_path):
        directory = write_sequence(tmp_path / "seq", [BLACK, WHITE])
        (directory / "frame_0001.ppm").unlink()
        with pytest.raises(LoadError, match="frame 1"):
            list(open_sequence(directory))

    def test_empty_sequence(self, tmp_path):
        directory = write_sequence(tmp_path / "seq", [])
        assert list(open_sequence(directory)) == []

    def test_dimension_mismatch_names_index(self, tmp_path):
        directory = write_sequence(tmp_path / "seq", [BLACK, WHITE])
        (directory / "frame_0001.ppm").write_bytes(
            encode_ppm(solid_frame(WHITE, index=1, size=8))
        )
        with pytest.raises(FormatError, match="frame 1"):
            list(open_sequence(directory))

    def test_repeated_loads_identical(self, tmp_path):
        directory = write_sequence(tmp_path / "seq", [BLACK, WHITE, BLACK])
        assert list(open_sequence(directory)) == list(open_sequence(directory))


class TestOpenSequence:
    def test_frames_decode_on_access(self, tmp_path):
        colors = [(i * 11 % 256, i * 7 % 256, i * 3 % 256) for i in range(5)]
        directory = write_sequence(tmp_path / "seq", colors, fps=12.5)
        frames = open_sequence(directory)
        assert isinstance(frames, FrameSequence)
        assert (len(frames), frames.fps, frames.shape) == (5, 12.5, (16, 16, 3))
        assert list(frames) == [
            decode_ppm((directory / f"frame_{i:04d}.ppm").read_bytes(), index=i)
            for i in range(5)
        ]
        assert frames[4].index == 4
        with pytest.raises(IndexError):
            frames[5]

    @pytest.mark.parametrize(
        "cut, message",
        [
            (5, "PPM payload truncated: expected 768 bytes, got 763"),
            (-1, "PPM payload has 1 trailing bytes"),
        ],
        ids=["short", "padded"],
    )
    def test_frame_0_of_the_wrong_size_is_refused_at_open(self, tmp_path, cut, message):
        """Frame 0's file size is checked against its header when the
        sequence is opened, with the message indexing it would give."""
        directory = write_sequence(tmp_path / "seq", [BLACK, WHITE], size=16)
        path = directory / "frame_0000.ppm"
        data = path.read_bytes()
        path.write_bytes(data[:-cut] if cut > 0 else data + b"\0" * -cut)
        with pytest.raises(FormatError) as caught:
            open_sequence(directory)
        assert str(caught.value) == f"frame 0 (frame_0000.ppm): {message}"

    def test_indexing_parses_the_header_once(self, tmp_path, monkeypatch):
        """Indexing reads a frame file's header once, then only its payload."""
        directory = write_sequence(tmp_path / "seq", [BLACK, WHITE, BLACK])
        data = b"P6\n# a comment\n16 16\n255\n" + bytes([255]) * (16 * 16 * 3)
        (directory / "frame_0001.ppm").write_bytes(data)
        frames = open_sequence(directory)
        calls = []
        header = frameio._ppm_header

        def recording(stream):
            calls.append(stream)
            return header(stream)

        monkeypatch.setattr(frameio, "_ppm_header", recording)
        for i in range(3):
            frames[i]
            assert len(calls) == i + 1
        assert frames[1] == solid_frame(WHITE, index=1) == decode_ppm(data, index=1)

    def test_long_comment_costs_no_memory_when_indexed(self, tmp_path):
        """A valid frame whose header holds a 40 MB comment is indexed with
        the comment skipped in bounded reads, never held in memory."""
        directory = write_sequence(tmp_path / "seq", [BLACK])
        payload = random_frame(seed=11, width=16, height=16).pixels.tobytes()
        with open(directory / "frame_0000.ppm", "wb") as file:
            file.write(b"P6\n#")
            file.seek(40 << 20)  # a sparse run of zero bytes inside the comment
            file.write(b"\n16 16\n255\n" + payload)
        before, after, pixels = index_one_frame(directory, 0)
        assert after - before < 4 << 10, (before, after)
        assert pixels == payload.hex()

    @needs_proc_status
    def test_shape_mismatch_raised_before_the_payload_is_read(self, tmp_path):
        """A frame whose header promises 4000x4000 pixels, after a 16x16
        frame 0, is refused from its header: its 48 MB payload, a sparse
        run of zero bytes, is never read into memory."""
        directory = write_sequence(tmp_path / "seq", [BLACK, BLACK])
        header = b"P6\n4000 4000\n255\n"
        with open(directory / "frame_0001.ppm", "wb") as file:
            file.write(header)
            file.truncate(len(header) + 4000 * 4000 * 3)
        before, after, message = index_one_frame(directory, 1)
        assert message == "frame 1 has shape (4000, 4000, 3), expected (16, 16, 3) like frame 0"
        assert after - before < 4 << 10, (before, after)

    def test_zero_padded_width_is_read_in_bulk(self, tmp_path):
        """A width padded with 4 MiB of ASCII zeros decodes in well under a
        second, from bytes and from a frame file alike."""
        data = b"P6\n" + b"0" * (4 << 20) + b"1 1\n255\n\x01\x02\x03"
        directory = write_sequence(tmp_path / "seq", [BLACK])
        (directory / "frame_0000.ppm").write_bytes(data)
        start = time.perf_counter()
        frame = decode_ppm(data)
        assert time.perf_counter() - start < 0.2
        start = time.perf_counter()
        frames = open_sequence(directory)
        assert time.perf_counter() - start < 0.2
        start = time.perf_counter()
        assert frames[0] == frame
        assert time.perf_counter() - start < 0.2
        assert frame.pixels.reshape(-1).tolist() == [1, 2, 3]

    def test_each_access_reads_the_file(self, tmp_path):
        directory = write_sequence(tmp_path / "seq", [BLACK, BLACK])
        frames = open_sequence(directory)
        (directory / "frame_0001.ppm").write_bytes(encode_ppm(solid_frame(WHITE, index=1)))
        assert frames[1].pixels[0, 0].tolist() == [255, 255, 255]

    def test_manifest_path_and_empty_sequence(self, tmp_path):
        directory = write_sequence(tmp_path / "seq", [])
        moved = tmp_path / "elsewhere.json"
        (directory / "manifest.json").rename(moved)
        frames = open_sequence(directory, manifest_path=moved)
        assert len(frames) == 0 and list(frames) == [] and frames.shape is None

    def test_first_missing_frame_stops_the_scan(self, tmp_path):
        directory = write_sequence(tmp_path / "seq", [BLACK, WHITE])
        (directory / "manifest.json").write_text(
            json.dumps({"frame_count": 10**9, "fps": 25, "pattern": "frame_%04d.ppm"})
        )
        with pytest.raises(LoadError, match="frame 2 missing"):
            open_sequence(directory)

    def test_shape_mismatch_raised_when_indexed(self, tmp_path):
        directory = write_sequence(tmp_path / "seq", [BLACK, WHITE, BLACK])
        (directory / "frame_0002.ppm").write_bytes(
            encode_ppm(solid_frame(WHITE, index=2, size=8))
        )
        frames = open_sequence(directory)
        assert frames[1].index == 1
        with pytest.raises(
            FormatError, match=r"frame 2 has shape \(8, 8, 3\), expected \(16, 16, 3\) like frame 0"
        ):
            frames[2]

    @pytest.mark.parametrize("chunk", [1, 2, 5, 64])
    def test_header_longer_than_the_first_read(self, tmp_path, monkeypatch, chunk):
        """A comment longer than one read of ``chunk`` bytes is skipped in
        several; the header still parses, at open and when indexed."""
        monkeypatch.setattr(frameio, "_PPM_COMMENT_CHUNK", chunk)
        directory = write_sequence(tmp_path / "seq", [WHITE, BLACK])
        pixels = random_frame(seed=9, width=16, height=16).pixels.tobytes()
        data = b"P6\n# " + b"c" * 300 + b"\n16 # w\n16\n#\n255\n" + pixels
        (directory / "frame_0000.ppm").write_bytes(data)
        frames = open_sequence(directory)
        assert frames.shape == (16, 16, 3)
        assert frames[0] == decode_ppm(data)
        assert frames[1] == solid_frame(BLACK, index=1)

    @pytest.mark.parametrize("change, message", [(-1, "truncated"), (7, "has 7 trailing bytes")])
    def test_payload_size_checked_against_the_file(self, tmp_path, change, message):
        directory = write_sequence(tmp_path / "seq", [WHITE, BLACK])
        path = directory / "frame_0001.ppm"
        with open(path, "r+b") as file:
            file.truncate(path.stat().st_size + change)
        frames = open_sequence(directory)
        with pytest.raises(FormatError, match=rf"frame 1 \(frame_0001.ppm\): PPM payload {message}"):
            frames[1]

    def test_bad_first_header_fails_at_open(self, tmp_path):
        directory = write_sequence(tmp_path / "seq", [BLACK, WHITE])
        (directory / "frame_0000.ppm").write_bytes(b"P6\n16 16\n65535\n")
        with pytest.raises(FormatError, match=r"frame 0 \(frame_0000.ppm\): PPM maxval"):
            open_sequence(directory)

    def test_long_bad_header_token_is_refused_without_reading_it(self, tmp_path):
        """A width token of 4 MiB of zero bytes is refused once 32 of them
        are read, and the error quotes only those 32."""
        directory = write_sequence(tmp_path / "seq", [BLACK])
        with open(directory / "frame_0000.ppm", "r+b") as file:
            file.truncate(0)
            file.write(b"P6\n")
            file.truncate(3 + (4 << 20))
        start = time.perf_counter()
        with pytest.raises(FormatError) as caught:
            open_sequence(directory)
        assert time.perf_counter() - start < 0.1
        message = str(caught.value)
        assert message == (
            f"frame 0 (frame_0000.ppm): PPM header: bad width {bytes(32)!r}..."
        )
        assert len(message) < 200


class TestGroundTruth:
    def test_rows_sorted(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("10.0,12.0\n3.0,4.5\n")
        gt = load_ground_truth(path)
        assert gt.intervals == ((3.0, 4.5), (10.0, 12.0))

    def test_header_optional(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("start_s,end_s\n1.0,2.0\n")
        assert load_ground_truth(path).intervals == ((1.0, 2.0),)

    def test_reversed_interval_names_row(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("5.0,2.0\n")
        with pytest.raises(ValidationError, match="row 1"):
            load_ground_truth(path)

    def test_negative_interval_names_row(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("start_s,end_s\n1.0,2.0\n-1.0,2.0\n")
        with pytest.raises(ValidationError) as caught:
            load_ground_truth(path)
        assert str(caught.value) == f"{path} row 3: negative interval (-1.0, 2.0)"

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("abc,2.0\n")
        with pytest.raises(FormatError):
            load_ground_truth(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("")
        assert load_ground_truth(path).intervals == ()

    def test_write_read_round_trip(self, tmp_path):
        rng = random.Random(7)
        for case in range(20):
            intervals = []
            for _ in range(rng.randint(0, 6)):
                start = round(rng.uniform(0, 500), 3)
                intervals.append((start, start + round(rng.uniform(0, 30), 3)))
            gt = GroundTruth(intervals=tuple(intervals))
            path = tmp_path / f"gt_{case}.csv"
            path.write_text("start_s,end_s\n" + "".join(f"{a!r},{b!r}\n" for a, b in gt.intervals))
            assert load_ground_truth(path) == gt

    def test_negative_interval_rejected(self):
        with pytest.raises(ValidationError):
            GroundTruth(intervals=((-1.0, 2.0),))

    @pytest.mark.parametrize("interval", [(0.0, float("inf")), (float("nan"), 1.0)])
    def test_non_finite_interval_rejected(self, interval):
        with pytest.raises(ValidationError, match="is not finite"):
            GroundTruth(intervals=(interval,))

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValidationError, match="start 2.0 exceeds end 1.0"):
            GroundTruth(intervals=((2.0, 1.0),))


class TestDetections:
    def test_exact_body(self, tmp_path):
        path = tmp_path / "det.csv"
        write_detections([(10.500, 0.91)], path)
        assert path.read_text() == "timestamp_s,score\n10.500,0.91\n"

    def test_empty_is_header_only(self, tmp_path):
        path = tmp_path / "det.csv"
        write_detections([], path)
        assert path.read_text() == "timestamp_s,score\n"

    def test_unsorted_rejected_before_writing(self, tmp_path):
        path = tmp_path / "det.csv"
        with pytest.raises(ValidationError):
            write_detections([(2.0, 0.5), (1.0, 0.5)], path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "row, why",
        [
            ((0.0, float("nan")), "non-finite value"),
            ((-1.0, 0.5), "negative timestamp"),
            ((0.0, 1.5), r"score 1.5 outside \[0, 1\]"),
            ((float("inf"), 0.5), "non-finite value"),
        ],
        ids=["nan score", "negative timestamp", "score over 1", "infinite timestamp"],
    )
    def test_row_the_reader_refuses_is_not_written(self, tmp_path, row, why):
        """The writer checks each row by the reader's rule, so it raises
        before it writes anything."""
        path = tmp_path / "det.csv"
        with pytest.raises(ValidationError, match=f"detection 0: {why}"):
            write_detections([row], path)
        assert not path.exists()

    def test_read_round_trip(self, tmp_path):
        rows = [(0.040, 0.25), (10.500, 0.91), (10.500, 0.5), (99.999, 1.0)]
        path = tmp_path / "det.csv"
        write_detections(rows, path)
        assert load_detections(path) == tuple((round(t, 3), s) for t, s in rows)

    def test_read_unsorted_rejected(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("timestamp_s,score\n2.000,0.5\n1.000,0.5\n")
        with pytest.raises(ValidationError):
            load_detections(path)

    def test_read_bad_row_rejected(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("1.000,0.5,9\n")
        with pytest.raises(FormatError, match="row 1"):
            load_detections(path)

    @pytest.mark.parametrize("row", ["1.000,1.5", "1.000,-0.25"])
    def test_read_score_outside_unit_interval_rejected(self, tmp_path, row):
        path = tmp_path / "det.csv"
        path.write_text(f"timestamp_s,score\n{row}\n")
        with pytest.raises(ValidationError, match=r"row 2: score .* outside \[0, 1\]"):
            load_detections(path)

    @pytest.mark.parametrize("row", ["nan,0.5", "inf,0.5", "1.000,nan", "1.000,-inf"])
    def test_read_non_finite_rejected(self, tmp_path, row):
        path = tmp_path / "det.csv"
        path.write_text(f"timestamp_s,score\n0.500,0.5\n{row}\n")
        with pytest.raises(ValidationError, match="row 3: non-finite"):
            load_detections(path)


class TestTextLines:
    """The CSV and labels files are read line by line up to ``_MAX_LINE``
    characters, and an error quotes at most 32 characters of a bad line or
    number."""

    @pytest.mark.parametrize("token", ["abc", " 2e", "\x00", "x" * 32, "x" * 33, "\x00" * 400])
    def test_bad_number_is_quoted_to_32_characters(self, tmp_path, token):
        path = tmp_path / "gt.csv"
        path.write_text(f"start_s,end_s\n1.0,{token}\n")
        with pytest.raises(FormatError) as caught:
            load_ground_truth(path)
        if len(token) <= 32:
            with pytest.raises(ValueError) as plain:
                float(token)
            want = f"non-numeric value: {plain.value}"
        else:
            want = f"non-numeric value: could not convert string to float: {token[:32]!r}..."
        assert str(caught.value) == f"{path} row 2: {want}"

    @pytest.mark.parametrize("line", ["1,2,3", "1," * 16, "1," * 17, "," * 1000])
    def test_bad_row_is_quoted_to_32_characters(self, tmp_path, line):
        path = tmp_path / "det.csv"
        path.write_text(f"{line}\n")
        with pytest.raises(FormatError) as caught:
            load_detections(path)
        quote = repr(line) if len(line) <= 32 else f"{line[:32]!r}..."
        assert str(caught.value) == f"{path} row 1: expected 'timestamp_s,score', got {quote}"

    def test_lines_past_the_bound_are_refused(self, tmp_path):
        """A line of ``_MAX_LINE`` characters with its line break loads; one
        more character is refused, naming the row."""
        path = tmp_path / "gt.csv"
        longest = "1.0," + " " * (frameio._MAX_LINE - 8) + "2.0\n"
        assert len(longest) == frameio._MAX_LINE
        path.write_text("start_s,end_s\n" + longest)
        assert load_ground_truth(path).intervals == ((1.0, 2.0),)
        path.write_text("start_s,end_s\n" + " " + longest)
        with pytest.raises(FormatError) as caught:
            load_ground_truth(path)
        assert str(caught.value) == (
            f"{path} row 2: longer than {frameio._MAX_LINE} characters"
        )

    def test_rows_are_numbered_as_splitlines_numbers_them(self, tmp_path):
        text = "start_s,end_s\r\n\r1.0,2.0\x0c\n3.0,4.0\x1e-1.0,2.0\n"
        row = text.splitlines().index("-1.0,2.0") + 1
        path = tmp_path / "gt.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValidationError) as caught:
            load_ground_truth(path)
        assert str(caught.value) == f"{path} row {row}: negative interval (-1.0, 2.0)"


def test_manifest_json_shape_matches_docs(tmp_path):
    # The documented external manifest shape loads as written.
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"frame_count": 0, "fps": 29.97, "pattern": "frame_%06d.ppm"}))
    manifest = load_manifest(path)
    assert manifest.fps == pytest.approx(29.97)


# Opens the frame directory argv[1], then indexes its frame argv[2], and
# prints the process's peak resident set (VmHWM) in KiB before and after
# indexing on one line, then the frame's pixels in hex, or the FormatError
# that indexing raised, on the next.
INDEX_ONE_FRAME_SCRIPT = """
import sys
from verisemble import FormatError, open_sequence

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

frames = open_sequence(sys.argv[1])
before = peak_kib()
try:
    result = frames[int(sys.argv[2])].pixels.tobytes().hex()
except FormatError as exc:
    result = str(exc)
print(before, peak_kib())
print(result)
"""


def index_one_frame(directory: Path, index: int) -> tuple[int, int, str]:
    """Peak RSS in KiB before and after indexing frame ``index`` of
    ``directory`` in a fresh process, and its pixels in hex or the
    :class:`FormatError` message that indexing raised."""
    proc = subprocess.run(
        [sys.executable, "-c", INDEX_ONE_FRAME_SCRIPT, str(directory), str(index)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    peaks, result = proc.stdout.splitlines()
    before, after = map(int, peaks.split())
    return before, after, result
