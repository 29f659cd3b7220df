"""Frame-sequence and annotation I/O.

Covers the on-disk surface of the pipeline: binary PPM (P6) frames, the
only frame format, the JSON sequence manifest, ground-truth interval CSVs,
and the detections CSV emitted by the pipeline.

All types here are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import io
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    FormatError,
    LoadError,
    ValidationError,
    _is_finite_number,
    _is_int_at_least,
    _read_json,
    _require_keys,
)

__all__ = [
    "Frame",
    "FrameSequence",
    "SequenceManifest",
    "GroundTruth",
    "decode_ppm",
    "encode_ppm",
    "load_manifest",
    "open_sequence",
    "load_ground_truth",
    "write_detections",
    "load_detections",
]

_PPM_WHITESPACE = b" \t\n\r\x0b\x0c"
# More significant digits than a PPM header number can have for any payload
# that fits in memory; ``int()`` refuses more than 4,300 digits by default.
_PPM_MAX_DIGITS = 20
# Bytes read at a time while a header comment or a run of leading zeros is skipped.
_PPM_COMMENT_CHUNK = 1 << 16
# The most bytes of a bad header number quoted in its error; a token is read
# no further past them once it holds a non-digit or too many digits. An error
# quotes as many characters of a bad line or number of a CSV or labels file.
_QUOTE = 32
# The most characters a line of a CSV or labels file may take, its line break
# included; a longer line is refused once that many are read.
_MAX_LINE = 4096

# The widest field a frame file pattern may pad to: NAME_MAX, the longest
# file name on common file systems, so no wider field can name a file.
_MAX_PATTERN_WIDTH = 255
# A conversion of a printf-style pattern, with its width and precision;
# ``%%`` is a literal percent sign.
_CONVERSION = re.compile(r"%%|%(?:\([^)]*\))?[-+ #0]*(\d*)(\.[0-9*]*)?")


@dataclass(frozen=True, eq=False)
class Frame:
    """A single 8-bit image frame and its position in the sequence.

    Attributes:
        index: Zero-based position of the frame in its sequence.
        pixels: ``(height, width, channels)`` uint8 array, row-major,
            channel-last. Marked read-only after construction.
    """

    index: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValidationError(f"frame index must be non-negative, got {self.index}")
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            raise ValidationError(f"frame pixels must be uint8, got {px.dtype}")
        if px.ndim != 3 or px.shape[2] not in (1, 3):
            raise ValidationError(
                f"frame pixels must be (height, width, channels) with 1 or 3 "
                f"channels, got shape {px.shape}"
            )
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValidationError(f"frame must be at least 1x1, got shape {px.shape}")
        object.__setattr__(self, "pixels", px)
        px.setflags(write=False)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.index == other.index and np.array_equal(self.pixels, other.pixels)

    def __hash__(self) -> int:
        return hash((self.index, self.pixels.shape, self.pixels.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Frame(index={self.index}, width={self.width}, "
            f"height={self.height}, channels={self.channels})"
        )


@dataclass(frozen=True)
class SequenceManifest:
    """Describes a directory of extracted frames.

    Attributes:
        frame_count: Number of frames in the sequence.
        fps: Frames per second of the original capture; drives
            frame-index to timestamp conversion downstream.
        pattern: Printf-style file name pattern, e.g. ``frame_%06d.ppm``.
    """

    frame_count: int
    fps: float
    pattern: str

    def __post_init__(self) -> None:
        if self.frame_count < 0:
            raise ValidationError(f"frame_count must be >= 0, got {self.frame_count}")
        if not 0 < self.fps < np.inf:
            raise ValidationError(f"fps must be > 0 and finite, got {self.fps}")
        # `pattern % 0` pads to the width and precision the pattern asks for.
        for conversion in _CONVERSION.finditer(self.pattern):
            width, precision = conversion.groups(default="")
            # The flags take every leading zero, so a width of 4+ digits is over the bound.
            if precision or len(width) > 3 or int(width or 0) > _MAX_PATTERN_WIDTH:
                raise ValidationError(
                    f"frame file pattern {self.pattern!r}: {conversion.group()!r} may set "
                    f"no precision and no width over {_MAX_PATTERN_WIDTH}"
                )
        # A pattern that formats one int at all formats 0 and 1 differently.
        try:
            self.pattern % 0
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad frame file pattern {self.pattern!r}: {exc}") from exc

    def frame_path(self, directory: Path, index: int) -> Path:
        return Path(directory) / (self.pattern % index)


@dataclass(frozen=True)
class GroundTruth:
    """Ground-truth positive intervals in seconds, sorted by start time."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        normalized = tuple(sorted((float(a), float(b)) for a, b in self.intervals))
        for start, end in normalized:
            if not (np.isfinite(start) and np.isfinite(end)):
                raise ValidationError(f"interval ({start}, {end}) is not finite")
            if start < 0 or end < 0:
                raise ValidationError(f"interval ({start}, {end}) has negative bounds")
            if start > end:
                raise ValidationError(f"interval start {start} exceeds end {end}")
        object.__setattr__(self, "intervals", normalized)

    def __len__(self) -> int:
        return len(self.intervals)


def _ppm_header(stream: BinaryIO) -> tuple[int, int]:
    """Width and height of the binary PPM read from ``stream``, which is left
    at the first payload byte. A ``#`` comment, and a number's run of
    leading zeros, are skipped in reads of at most ``_PPM_COMMENT_CHUNK``
    bytes, so their length costs no memory; after a run of zeros the stream
    steps back to the first byte past it."""
    magic = stream.read(2)
    if magic != b"P6":
        raise FormatError(f"frames must be binary PPM (P6): magic {magic!r} is not b'P6'")
    byte = stream.read(1)
    numbers = []
    for what in ("width", "height", "maxval"):
        separated = False
        while byte == b"#" or (byte and byte in _PPM_WHITESPACE):
            if byte == b"#":
                while (line := stream.readline(_PPM_COMMENT_CHUNK)) and line[-1:] != b"\n":
                    pass
            byte = stream.read(1)
            separated = True
        if not separated:
            raise FormatError(f"PPM header: expected separator before {what}")
        # Leading zeros only pad a number, so a run of them is read in bulk.
        size = 0
        while byte == b"0":
            run = byte + stream.read(_PPM_COMMENT_CHUNK)
            zeros = len(run) - len(run.lstrip(b"0"))
            stream.seek(zeros - len(run), io.SEEK_CUR)
            size += zeros
            byte = stream.read(1)
        # The bytes an error quotes and the digits past the leading zeros; neither grows.
        head, digits, bad = bytearray(b"0" * min(size, _QUOTE)), bytearray(), False
        while byte and byte != b"#" and byte not in _PPM_WHITESPACE:
            size += 1
            if size > _QUOTE and (bad or len(digits) > _PPM_MAX_DIGITS):
                break
            if size <= _QUOTE:
                head += byte
            if not byte.isdigit():
                bad = True
            else:
                digits += byte
            byte = stream.read(1)
        if bad or not size:
            cut = "..." if size > _QUOTE else ""
            raise FormatError(f"PPM header: bad {what} {bytes(head)!r}{cut}")
        if len(digits) > _PPM_MAX_DIGITS:
            raise FormatError(f"PPM header: {what} has more than {_PPM_MAX_DIGITS} digits")
        numbers.append(int(digits or b"0"))
    width, height, maxval = numbers
    if width < 1 or height < 1:
        raise FormatError(f"PPM header: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"PPM maxval must be 255, got {maxval}")
    # Exactly one whitespace byte, read above, separates the header from the payload.
    if not byte or byte not in _PPM_WHITESPACE:
        raise FormatError("PPM header: missing whitespace before payload")
    return width, height


def _check_payload(expected: int, got: int) -> None:
    if got < expected:
        raise FormatError(f"PPM payload truncated: expected {expected} bytes, got {got}")
    if got > expected:
        raise FormatError(f"PPM payload has {got - expected} trailing bytes")


def decode_ppm(data: bytes, index: int = 0) -> Frame:
    """Decode a binary PPM (magic ``P6``, maxval 255) byte string.

    Pixels come back exactly as stored: row-major RGB, viewing ``data``
    without a copy. Raises :class:`FormatError` for a wrong magic, an
    unsupported maxval, a truncated payload, or trailing bytes after the
    payload; :class:`FrameSequence` checks a frame file's bytes the same way.
    """
    data = bytes(data)  # no copy for bytes; a mutable buffer must not alias the frame
    stream = io.BytesIO(data)
    width, height = _ppm_header(stream)
    offset = stream.tell()
    expected = width * height * 3
    _check_payload(expected, len(data) - offset)
    pixels = np.frombuffer(data, dtype=np.uint8, count=expected, offset=offset)
    return Frame(index=index, pixels=pixels.reshape(height, width, 3))


def encode_ppm(frame: Frame) -> bytes:
    """Encode a 3-channel frame as canonical binary PPM (P6, maxval 255)."""
    if frame.channels != 3:
        raise ValueError(f"PPM encoding requires 3 channels, got {frame.channels}")
    header = b"P6\n%d %d\n255\n" % (frame.width, frame.height)
    return header + np.ascontiguousarray(frame.pixels).tobytes()


def load_manifest(path: str | Path) -> SequenceManifest:
    """Load and validate a sequence manifest JSON file."""
    path = Path(path)
    where = f"manifest {path}"
    try:
        obj = _read_json(path, where)
    except FileNotFoundError as exc:
        raise LoadError(f"manifest not found: {path}") from exc
    keys = {"frame_count", "fps", "pattern"}
    _require_keys(obj, keys, keys, where)
    if not _is_int_at_least(obj["frame_count"], 0):
        raise FormatError(f"{where}: frame_count must be an int >= 0")
    if not _is_finite_number(obj["fps"]):
        raise FormatError(f"{where}: fps must be a finite number")
    if not isinstance(obj["pattern"], str):
        raise FormatError(f"{where}: pattern must be a string")
    return SequenceManifest(
        frame_count=obj["frame_count"], fps=float(obj["fps"]), pattern=obj["pattern"]
    )


def _frame_error(index: int, path: Path, exc: FormatError) -> FormatError:
    return FormatError(f"frame {index} ({path.name}): {exc}")


@dataclass(frozen=True)
class FrameSequence(Sequence[Frame]):
    """The frames of a directory in index order, each decoded when indexed.

    Nothing is cached: each indexing reads the file again, and a caller
    holds a decoded frame only as long as it keeps it. Indexing parses the
    header once, as :func:`decode_ppm` does, checks the file size against
    the payload it promises, then reads the payload alone. Every frame must
    have ``shape``, read from frame 0's header; a frame of another shape
    raises :class:`FormatError` naming its index before its payload is read.
    Made by :func:`open_sequence`.
    """

    directory: Path
    manifest: SequenceManifest
    shape: tuple[int, int, int] | None

    @property
    def fps(self) -> float:
        return self.manifest.fps

    def __len__(self) -> int:
        return self.manifest.frame_count

    def __getitem__(self, index: int) -> Frame:
        if not 0 <= index < len(self):
            raise IndexError(f"frame index {index} out of range for {len(self)} frames")
        path = self.manifest.frame_path(self.directory, index)
        try:
            # The header, the file size and frame 0's shape bound what is read.
            with open(path, "rb") as file:
                width, height = _ppm_header(file)
                expected = width * height * 3
                _check_payload(expected, os.fstat(file.fileno()).st_size - file.tell())
                if (height, width, 3) == self.shape:
                    payload = file.read(expected)
                    _check_payload(expected, len(payload))
        except FormatError as exc:
            raise _frame_error(index, path, exc) from exc
        if (height, width, 3) != self.shape:
            raise FormatError(
                f"frame {index} has shape {(height, width, 3)}, expected {self.shape} like frame 0"
            )
        return Frame(index=index, pixels=np.frombuffer(payload, np.uint8).reshape(self.shape))


def open_sequence(
    directory: str | Path, manifest_path: str | Path | None = None
) -> FrameSequence:
    """Open a frame directory for decoding on access; see :class:`FrameSequence`.

    The manifest defaults to ``<directory>/manifest.json``. Each frame file
    must exist, and the first missing one raises :class:`LoadError` naming
    its index; frame 0's header fixes the shape and is checked against the
    file's size, as indexing checks it. No payload is decoded here.
    """
    directory = Path(directory)
    manifest = load_manifest(manifest_path or directory / "manifest.json")
    for i in range(manifest.frame_count):
        path = manifest.frame_path(directory, i)
        if not path.is_file():
            raise LoadError(f"frame {i} missing: {path}")
    shape = None
    if manifest.frame_count:
        first = manifest.frame_path(directory, 0)
        try:
            with open(first, "rb") as file:
                width, height = _ppm_header(file)
                _check_payload(width * height * 3, os.fstat(file.fileno()).st_size - file.tell())
        except FormatError as exc:
            raise _frame_error(0, first, exc) from exc
        shape = (height, width, 3)
    return FrameSequence(directory=directory, manifest=manifest, shape=shape)


def _quote(text: str) -> str:
    """``text`` as a repr, cut to its first ``_QUOTE`` characters and ``...``."""
    return repr(text[:_QUOTE]) + ("..." if len(text) > _QUOTE else "")


def _text_lines(path: Path) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` for each line of a text file that is not blank,
    stripped. The file is read one line at a time, and its lines are
    numbered as ``str.splitlines`` splits them; a line of more than
    ``_MAX_LINE`` characters raises :class:`FormatError`."""
    lineno = 0
    with open(path) as file:
        while chunk := file.readline(_MAX_LINE + 1):
            if len(chunk) > _MAX_LINE:
                raise FormatError(f"{path} row {lineno + 1}: longer than {_MAX_LINE} characters")
            for line in chunk.splitlines():
                lineno += 1
                if line := line.strip():
                    yield lineno, line


def _csv_rows(path: Path, header: str) -> Iterator[tuple[int, float, float]]:
    """``(lineno, a, b)`` for each row of a two-column CSV of numbers.

    Lines are stripped and blank ones skipped; line 1 may be ``header``.
    """
    for lineno, line in _text_lines(path):
        if lineno == 1 and line.replace(" ", "") == header:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path} row {lineno}: expected {header!r}, got {_quote(line)}")
        values = []
        for part in parts:
            try:
                values.append(float(part))
            except ValueError as exc:
                raise FormatError(
                    f"{path} row {lineno}: non-numeric value: "
                    f"could not convert string to float: {_quote(part)}"
                ) from exc
        yield lineno, *values


def load_ground_truth(path: str | Path) -> GroundTruth:
    """Parse a ground-truth CSV of ``start_s,end_s`` rows (header optional)."""
    path = Path(path)
    intervals: list[tuple[float, float]] = []
    for lineno, start, end in _csv_rows(path, "start_s,end_s"):
        if not (np.isfinite(start) and np.isfinite(end)):
            raise ValidationError(f"{path} row {lineno}: non-finite value in ({start}, {end})")
        if start > end:
            raise ValidationError(f"{path} row {lineno}: start {start} exceeds end {end}")
        if start < 0 or end < 0:
            raise ValidationError(f"{path} row {lineno}: negative interval ({start}, {end})")
        intervals.append((start, end))
    return GroundTruth(intervals=tuple(intervals))


def _check_detection(where: str, t: float, score: float, prev: float) -> None:
    """Raise :class:`ValidationError` naming ``where`` unless ``(t, score)`` is
    finite, ``t`` at least 0 and ``prev``, the row before's, and ``score`` in [0, 1]."""
    if not (np.isfinite(t) and np.isfinite(score)):
        raise ValidationError(f"{where}: non-finite value in ({t}, {score})")
    if t < 0:
        raise ValidationError(f"{where}: negative timestamp {t}")
    if not 0.0 <= score <= 1.0:
        raise ValidationError(f"{where}: score {score} outside [0, 1]")
    if t < prev:
        raise ValidationError(f"{where}: timestamps not sorted ({t} after {prev})")


def write_detections(
    events: Sequence[tuple[float, float]] | Iterable[tuple[float, float]],
    path: str | Path,
) -> None:
    """Write detection events as a ``timestamp_s,score`` CSV.

    Every event must pass the row rule :func:`load_detections` reads with:
    finite, a timestamp >= 0, a score in [0, 1], and sorted by timestamp. A
    row that breaks it raises :class:`ValidationError` before anything is
    written. Timestamps are formatted with 3 decimal places, scores with
    the shortest round-trip representation.
    """
    rows = [(float(t), float(score)) for t, score in events]
    for i, (t, score) in enumerate(rows):
        _check_detection(f"detection {i}", t, score, rows[i - 1][0] if i else 0.0)
    lines = ["timestamp_s,score"]
    lines += [f"{t:.3f},{score!r}" for t, score in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def load_detections(path: str | Path) -> tuple[tuple[float, float], ...]:
    """Parse a detections CSV back into ``(timestamp_s, score)`` pairs.

    Accepts the ``timestamp_s,score`` header as optional; every row must
    pass the rule :func:`write_detections` checks before it writes.
    """
    path = Path(path)
    rows: list[tuple[float, float]] = []
    for lineno, t, score in _csv_rows(path, "timestamp_s,score"):
        _check_detection(f"{path} row {lineno}", t, score, rows[-1][0] if rows else 0.0)
        rows.append((t, score))
    return tuple(rows)
