"""Property tests of the exit-code contract over the text inputs.

Every pipeline config object, ``manifest.json`` object, weight-container spec
and record bytes, PPM frame file and ground-truth or detections CSV text
either parses, or makes ``cli.main`` exit 2 with exactly one ``error:`` line;
it never exits 1 (an internal error with a traceback).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from verisemble import (
    FormatError,
    LayerSpec,
    ModelSpec,
    SequenceManifest,
    ValidationError,
    decode_ppm,
    encode_ppm,
    load_weights,
    open_sequence,
    random_weights,
    save_weights,
)
from verisemble import frameio
from verisemble.cli import main

from conftest import GOLDEN_COLORS, solid_frame, write_mean_config
from oracles import ppm_header_ref

FRAME_COUNT = len(GOLDEN_COLORS)


def assert_exit_contract(argv: list[str]) -> int:
    """Run ``cli.main(argv)``; its exit code must be 0, or 2 with one
    ``error:`` line on stderr. Returns the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    else:
        assert code == 0, err.getvalue()
    return code


# -- manifest.json -----------------------------------------------------------

# The frames on disk are named by the first pattern.
PATTERNS = [
    "frame_%d.ppm", "frame_%i.ppm", "frame_%s.ppm", "frame_%x.ppm", "frame_%r.ppm",
    "frame_%c.ppm", "frame_%d.png", "frame.ppm", "frame_%d_%d.ppm", "frame_%(i)d.ppm",
    "frame_%q.ppm", "frame_%", "frame_%%d.ppm", "../frame_%d.ppm", "",
]
# `pattern % 0` pads to the pattern's width and precision, so the manifest
# refuses a precision and a width over 255 before it formats; the widths and
# precisions below reach far past that.
WIDTHS = st.one_of(
    st.just(""), st.integers(0, 300).map(str), st.sampled_from(["1000000000", "1" + "0" * 400])
)
PRECISIONS = st.one_of(
    st.just(""), st.just("."), st.sampled_from([0, 5, 10**9, 10**400]).map(".{}".format)
)
SIZED_PATTERNS = st.builds(
    "frame_%{}{}{}{}.ppm".format,
    st.sampled_from(["", "0", "-", "#", " +", "(i)"]),
    WIDTHS,
    PRECISIONS,
    st.sampled_from("dsxf%"),
)

ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
NUMBERS = st.one_of(
    st.integers(-3, FRAME_COUNT + 2),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**1024, 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
)
VALID_FIELDS = {
    "frame_count": st.integers(0, FRAME_COUNT),
    "fps": st.one_of(st.integers(1, 100), st.floats(1e-3, 1e3)),
    "pattern": st.sampled_from(PATTERNS[:5]),
}
ANY_FIELDS = {
    "frame_count": st.one_of(NUMBERS, ODD_VALUES),
    "fps": st.one_of(NUMBERS, ODD_VALUES),
    "pattern": st.one_of(st.sampled_from(PATTERNS), SIZED_PATTERNS, ODD_VALUES),
}


@st.composite
def manifests(draw) -> object:
    """A valid manifest with some fields replaced by any value, with keys
    dropped or added, or a JSON value that is not an object."""
    shape = draw(st.sampled_from(["fields", "keys", "not an object"]))
    if shape == "not an object":
        return draw(st.one_of(NUMBERS, ODD_VALUES))
    obj = draw(st.fixed_dictionaries(VALID_FIELDS))
    for key in draw(st.sets(st.sampled_from(sorted(ANY_FIELDS)))):
        obj[key] = draw(ANY_FIELDS[key])
    if shape == "keys":
        for key in draw(st.sets(st.sampled_from(sorted(obj)))):
            del obj[key]
        if draw(st.booleans()):
            obj["extra"] = draw(st.integers())
    return obj


@pytest.fixture(scope="module")
def run_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest_property")
    frames = root / "frames"
    frames.mkdir()
    for i, rgb in enumerate(GOLDEN_COLORS):
        (frames / f"frame_{i}.ppm").write_bytes(encode_ppm(solid_frame(rgb, index=i, size=8)))
    (frames / "manifest.json").write_text(
        json.dumps({"frame_count": FRAME_COUNT, "fps": 25, "pattern": PATTERNS[0]})
    )
    config = write_mean_config(root / "config.json", input={"width": 32, "height": 32})
    return root, frames, config


def run_exit_code(root, frames, config, manifest=None) -> int:
    """``cli.main``'s exit code for ``run`` on these inputs, under the contract."""
    argv = ["run", "--config", str(config), "--frames", str(frames), "--out", str(root / "out")]
    return assert_exit_contract(argv + (["--manifest", str(manifest)] if manifest else []))


@settings(max_examples=300, deadline=None)
@given(manifest=manifests())
def test_run_exit_code_contract_over_manifests(run_workspace, manifest):
    root, frames, config = run_workspace
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest))
    run_exit_code(root, frames, config, manifest=path)


def test_stock_manifest_runs(run_workspace):
    root, frames, config = run_workspace
    path = root / "stock.json"
    path.write_text(json.dumps({"frame_count": FRAME_COUNT, "fps": 25, "pattern": PATTERNS[0]}))
    assert run_exit_code(root, frames, config, manifest=path) == 0


@pytest.mark.parametrize(
    "pattern, code",
    [
        ("frame_%0255d.ppm", 0),
        ("frame_%-255d.ppm", 0),
        ("frame_%0256d.ppm", 2),
        ("frame_%1000000000d.ppm", 2),
        ("frame_%.0d.ppm", 2),
        ("frame_%.1000000000d.ppm", 2),
    ],
)
def test_pattern_width_is_bounded_and_precision_refused(run_workspace, pattern, code):
    root, frames, config = run_workspace
    path = root / "sized.json"
    path.write_text(json.dumps({"frame_count": 0, "fps": 25, "pattern": pattern}))
    assert run_exit_code(root, frames, config, manifest=path) == code


# Any printf conversion, weighted to the ones the manifest may accept.
CONVERSIONS = st.builds(
    "%{}{}{}{}{}".format,
    st.sampled_from(["", "", "", "(i)"]),
    st.lists(st.sampled_from("-+ #0"), max_size=3).map("".join),
    st.one_of(st.just(""), WIDTHS),
    st.one_of(st.just(""), st.just(""), PRECISIONS),
    st.sampled_from("diouxXeEfFgGcrsa%*q"),
)
# Text around one conversion, sometimes two.
ANY_PATTERNS = st.tuples(
    st.text(max_size=3), CONVERSIONS, st.text(max_size=3), st.one_of(st.just(""), CONVERSIONS)
).map("".join)


@settings(max_examples=500, deadline=None)
@given(pattern=ANY_PATTERNS)
def test_every_accepted_pattern_names_frames_0_and_1_apart(pattern):
    """The manifest needs no check that a pattern varies with the index:
    every pattern it accepts formats one int, which gives 0 and 1 apart."""
    try:
        manifest = SequenceManifest(frame_count=2, fps=25.0, pattern=pattern)
    except ValidationError:
        return
    assert manifest.frame_path(Path("frames"), 0) != manifest.frame_path(Path("frames"), 1)


# -- pipeline config JSON ----------------------------------------------------

# A valid input size allocates width x height per frame, so the sizes drawn
# are small, or too large for any array.
INPUT_SIZES = st.one_of(
    st.integers(-3, 40), st.sampled_from([10**400, 2**1024]),
    st.floats(allow_nan=True, allow_infinity=True), ODD_VALUES,
)
FUSION_KEYS = ["pack_size", "neighbor_window", "extra"]
STAGES = st.fixed_dictionaries({
    "channels": st.one_of(st.sampled_from(["RGB", "RG", "L", "XYZ"]), ODD_VALUES),
    "model": st.one_of(
        st.sampled_from([
            {"type": "mean_intensity"}, {"type": "cnn", "weights": "absent.weights"},
            {"type": "cnn"}, {"type": "svm"},
        ]),
        ODD_VALUES,
    ),
})
CONFIG_FIELDS = {
    "config_version": st.one_of(st.just(1), NUMBERS, ODD_VALUES),
    "input": st.one_of(
        st.fixed_dictionaries({"width": INPUT_SIZES, "height": INPUT_SIZES}), ODD_VALUES
    ),
    "threshold": st.one_of(st.floats(0, 1), NUMBERS, ODD_VALUES),
    "fps": st.one_of(st.floats(1e-3, 1e3), NUMBERS, ODD_VALUES),
    "luma": st.one_of(
        st.lists(st.one_of(st.floats(0, 1), NUMBERS, ODD_VALUES), max_size=4), ODD_VALUES
    ),
    "fusion": st.one_of(
        st.dictionaries(
            st.sampled_from(FUSION_KEYS),
            st.one_of(st.sampled_from([1, 3, 5]), st.booleans(), NUMBERS, ODD_VALUES),
        ),
        ODD_VALUES,
    ),
    "stages": st.one_of(st.lists(STAGES, max_size=3), ODD_VALUES),
}


@st.composite
def configs(draw) -> object:
    """A valid config with some fields replaced by any value, with keys
    dropped or added, or a JSON value that is not an object."""
    shape = draw(st.sampled_from(["fields", "keys", "not an object"]))
    if shape == "not an object":
        return draw(st.one_of(NUMBERS, ODD_VALUES))
    obj = {
        "config_version": 1,
        "input": {"width": 32, "height": 32},
        "stages": [
            {"channels": "RGB", "model": {"type": "mean_intensity"}},
            {"channels": "L", "model": {"type": "mean_intensity"}},
        ],
    }
    for key in draw(st.sets(st.sampled_from(sorted(CONFIG_FIELDS)))):
        obj[key] = draw(CONFIG_FIELDS[key])
    if shape == "keys":
        for key in draw(st.sets(st.sampled_from(sorted(obj)))):
            del obj[key]
        if draw(st.booleans()):
            obj["extra"] = draw(st.integers())
    return obj


@settings(max_examples=300, deadline=None)
@given(config=configs())
def test_run_exit_code_contract_over_configs(run_workspace, config):
    root, frames, _ = run_workspace
    path = root / "drawn_config.json"
    path.write_text(json.dumps(config))
    run_exit_code(root, frames, path)


# Where a non-finite or out-of-range JSON number can stand in a config.
NUMBER_SLOTS = {
    "fps": '"fps": @',
    "threshold": '"threshold": @',
    "luma": '"luma": [0.299, @, 0.114]',
    "input": '"input": {"width": @, "height": 32}',
    "pack_size": '"fusion": {"pack_size": @}',
    "neighbor_window": '"fusion": {"neighbor_window": @}',
}


@pytest.mark.parametrize(
    "literal",
    ["Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400],
    ids=["Infinity", "-Infinity", "NaN", "1e400", "10**400"],
)
@pytest.mark.parametrize("slot", sorted(NUMBER_SLOTS))
def test_config_number_beyond_every_float_exits_2(run_workspace, slot, literal):
    root, frames, _ = run_workspace
    path = root / "number_config.json"
    path.write_text(
        '{"config_version": 1, "stages": [{"channels": "RGB", "model": {"type": "mean_intensity"}}], '
        + NUMBER_SLOTS[slot].replace("@", literal) + "}"
    )
    assert run_exit_code(root, frames, path) == 2


def test_verifier_window_wider_than_any_sequence_runs(run_workspace):
    """The window's padding is sized by the sequence, not by the window;
    a window of 2**64 + 1 frames once overflowed (exit 1)."""
    root, frames, _ = run_workspace
    path = write_mean_config(
        root / "wide_window.json", input={"width": 8, "height": 8},
        fusion={"neighbor_window": 2**64 + 1},
    )
    assert run_exit_code(root, frames, path) == 0


# -- nesting past the parser's recursion limit --------------------------------

DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("document", ["config", "manifest", "weights"])
def test_deeply_nested_json_exits_2(run_workspace, document):
    """Each JSON reader turns a nesting too deep to parse into a FormatError;
    it once escaped as a RecursionError (exit 1)."""
    root, frames, config = run_workspace
    manifest = None
    if document == "config":
        config = root / "deep_config.json"
        config.write_bytes(DEEP)
    elif document == "manifest":
        manifest = root / "deep_manifest.json"
        manifest.write_bytes(DEEP)
    else:
        weights = root / "deep.weights"
        weights.write_bytes(b"TSTM" + struct.pack("<II", 1, len(DEEP)) + DEEP)
        config = root / "deep_weights_config.json"
        config.write_text(json.dumps({
            "config_version": 1,
            "stages": [{"channels": "RGB", "model": {"type": "cnn", "weights": str(weights)}}],
        }))
    assert run_exit_code(root, frames, config, manifest) == 2


# -- PPM frame files ----------------------------------------------------------

# Header numbers: small sizes, the one maxval, zero padding, and numbers past
# int()'s 4,300-digit limit, signs, fractions and non-ASCII digits.
HEADER_NUMBERS = st.one_of(
    st.integers(0, 6).map(str),
    st.just("255"),
    st.builds("{}{}".format, st.sampled_from(["0", "0" * 5000]), st.integers(1, 4)),
    st.sampled_from([
        "9" * 5000, "1" + "0" * 19, "1" + "0" * 20, "65535", "-1", "+2", "2.0", "0x2", "\u0662",
    ]),
).map(str.encode)
HEADER_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\x0b", b" # note\n", b"#", b""])


@st.composite
def ppm_files(draw) -> bytes:
    """A PPM header built from drawn magic, numbers and separators, then a
    payload of the length the header promises, or a few bytes off. Each
    part is a valid one about half the time, so many files are valid or
    one part away from it."""

    def part(valid, anything):
        return draw(st.one_of(st.just(valid), anything))

    magic = part(b"P6", st.sampled_from([b"P6", b"P3", b"P5", b"p6", b""]))
    numbers = [part(b"2", HEADER_NUMBERS), part(b"3", HEADER_NUMBERS), part(b"255", HEADER_NUMBERS)]
    header = magic
    for number in numbers:
        header += part(b" ", HEADER_SEPARATORS) + number
    header += part(b"\n", st.sampled_from([b"\n", b" ", b"#\n", b""]))
    try:
        promised = int(numbers[0]) * int(numbers[1]) * 3
    except ValueError:
        promised = 12
    length = max(part(0, st.sampled_from([0, -1, 1, -3])) + min(promised, 1200), 0)
    return header + draw(st.binary(min_size=length, max_size=length))


@settings(max_examples=500, deadline=None)
@given(data=ppm_files())
def test_decode_ppm_returns_a_frame_or_raises_format_error(data):
    """``decode_ppm`` reads the header the regex oracle reads: it refuses
    the header of each file whose header the oracle refuses, and accepts
    every other file, or refuses its payload length, as the oracle's width,
    height and payload offset say."""
    want = None
    header = ppm_header_ref(data)
    if header is not None:
        width, height, offset = header
        promised, after = width * height * 3, len(data) - offset
        if after < promised:
            want = f"PPM payload truncated: expected {promised} bytes, got {after}"
        elif after > promised:
            want = f"PPM payload has {after - promised} trailing bytes"
        else:
            want = header
    try:
        frame = decode_ppm(data)
    except FormatError as exc:
        got = str(exc) if str(exc).startswith("PPM payload") else None
    else:
        got = (frame.width, frame.height, len(data) - frame.pixels.size)
        assert frame.pixels.tobytes() == data[got[2] :]
    assert got == want


@pytest.fixture(scope="module")
def ppm_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ppm_property")
    frames = root / "frames"
    frames.mkdir()
    (frames / "manifest.json").write_text(
        json.dumps({"frame_count": 3, "fps": 25, "pattern": "frame_%d.ppm"})
    )
    config = write_mean_config(root / "config.json", input={"width": 4, "height": 4})
    return root, frames, config


@settings(max_examples=200, deadline=None)
@given(data=ppm_files(), position=st.integers(0, 2))
def test_run_exit_code_contract_over_ppm_files(ppm_workspace, data, position):
    """The drawn file is frame 0, whose header fixes the sequence's shape,
    or a later frame, which is decoded on a scoring thread."""
    root, frames, config = ppm_workspace
    for i in range(3):
        frame = encode_ppm(solid_frame(GOLDEN_COLORS[4], index=i, size=2))
        (frames / f"frame_{i}.ppm").write_bytes(data if i == position else frame)
    run_exit_code(root, frames, config)


@settings(max_examples=300, deadline=None)
@given(data=ppm_files(), chunk=st.integers(1, 80))
def test_frame_file_reads_as_decode_ppm(ppm_workspace, data, chunk):
    """Read from a file, whatever the size of a comment read, a PPM gives
    the frame that ``decode_ppm`` gives, or fails with the same message."""
    root, _, _ = ppm_workspace
    frames = root / "one_frame"
    frames.mkdir(exist_ok=True)
    (frames / "manifest.json").write_text(
        json.dumps({"frame_count": 1, "fps": 25, "pattern": "frame_%d.ppm"})
    )
    (frames / "frame_0.ppm").write_bytes(data)
    try:
        want = decode_ppm(data)
    except FormatError as exc:
        want = f"frame 0 (frame_0.ppm): {exc}"
    try:
        with mock.patch.object(frameio, "_PPM_COMMENT_CHUNK", chunk):
            got = open_sequence(frames)[0]
    except FormatError as exc:
        got = str(exc)
    assert got == want


# -- weight-container records ------------------------------------------------


def record_spec() -> ModelSpec:
    """A small model that holds every kind of weight record: conv, batchnorm
    and dense arrays of rank 4, 2 and 1."""
    return ModelSpec(
        input_shape=(8, 8, 3),
        layers=(
            LayerSpec.conv("c1", 4, (3, 3), activation="relu"),
            LayerSpec.maxpool("p1"),
            LayerSpec.batchnorm("bn1"),
            LayerSpec.flatten(),
            LayerSpec.dense("d1", 4, activation="relu"),
            LayerSpec.dense("out", 1, activation="sigmoid"),
        ),
    )


@functools.cache
def record_container() -> tuple[bytes, tuple[tuple[int, int, int], ...]]:
    """The saved bytes of :func:`record_spec` with seeded weights, and each
    record's ``(name length offset, rank offset, rank)``."""
    spec = record_spec()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.weights"
        save_weights(path, spec, random_weights(spec, seed=6))
        data = path.read_bytes()
    (spec_len,) = struct.unpack("<I", data[8:12])
    pos, fields = 12 + spec_len, []
    while pos < len(data):
        (name_len,) = struct.unpack("<H", data[pos : pos + 2])
        rank_at = pos + 2 + name_len
        rank = data[rank_at]
        dims = struct.unpack(f"<{rank}I", data[rank_at + 1 : rank_at + 1 + 4 * rank])
        fields.append((pos, rank_at, rank))
        pos = rank_at + 1 + 4 * rank + 4 * math.prod(dims)
    return data, tuple(fields)


@st.composite
def corrupted_containers(draw) -> bytes:
    """The record container truncated, with bits flipped, or with a
    record's name length, rank or dims, or the spec length, overwritten."""
    data, fields = record_container()
    out = bytearray(data)
    kind = draw(st.sampled_from(["truncate", "flip", "name_len", "rank", "dims", "spec_len"]))
    if kind == "truncate":
        return bytes(out[: draw(st.integers(0, len(out) - 1))])
    if kind == "flip":
        # Half the flips land in the record headers, where they change a
        # length, a name or a rank rather than a float.
        headers = [at for name_at, rank_at, rank in fields
                   for at in range(name_at, rank_at + 1 + 4 * rank)]
        for _ in range(draw(st.integers(1, 8))):
            at = draw(st.one_of(st.sampled_from(headers), st.integers(0, len(out) - 1)))
            out[at] ^= 1 << draw(st.integers(0, 7))
        return bytes(out)
    name_at, rank_at, rank = draw(st.sampled_from(fields))
    if kind == "name_len":
        out[name_at : name_at + 2] = struct.pack("<H", draw(st.integers(0, 2**16 - 1)))
    elif kind == "rank":
        out[rank_at] = draw(st.integers(0, 255))
    elif kind == "dims":
        dims = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 64, 2**31, 2**32 - 1]),
                             min_size=rank, max_size=rank))
        out[rank_at + 1 : rank_at + 1 + 4 * rank] = struct.pack(f"<{rank}I", *dims)
    else:
        out[8:12] = struct.pack("<I", draw(st.integers(0, 2**32 - 1)))
    return bytes(out)


# A rank numpy cannot hold, or dims whose product overflows its index type,
# when another dim is 0 so that the payload length is 0: each made
# `load_weights` raise numpy's ValueError from the reshape.
RESHAPE_ESCAPES = {
    "rank-65": (65, [0] * 65),
    "rank-255": (255, [1] * 254 + [0]),
    "size-past-intp": (3, [2**32 - 1, 2**32 - 1, 0]),
}


class TestContainerRecordBytes:
    @settings(max_examples=500, deadline=None)
    @given(data=corrupted_containers())
    def test_load_returns_weights_or_raises_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "corrupt.weights"
        path.write_bytes(data)
        try:
            load_weights(path)
        except FormatError:
            pass

    @pytest.mark.parametrize("rank, dims", RESHAPE_ESCAPES.values(), ids=RESHAPE_ESCAPES.keys())
    def test_dims_numpy_cannot_shape_raise_format_error(self, tmp_path, rank, dims):
        data, fields = record_container()
        name_at, rank_at, _ = fields[0]
        record = data[name_at:rank_at] + struct.pack(f"<B{rank}I", rank, *dims)
        path = tmp_path / "bad_dims.weights"
        path.write_bytes(data + record)
        with pytest.raises(FormatError, match=r"bad_dims\.weights: the spec fixes \d+ bytes of weight"):
            load_weights(path)

    @pytest.mark.parametrize("name", ["c1/\nkernel", "c1/\rkernel", "c1/\u2028kernel"])
    def test_record_name_with_a_line_break_is_one_error_line(self, record_workspace, name):
        # Truncated after its name, the record is named in the error. Each
        # of these names split the message into two lines.
        root, frames, config = record_workspace
        data, _ = record_container()
        raw = name.encode()
        (root / "model.weights").write_bytes(data + struct.pack("<H", len(raw)) + raw)
        assert run_exit_code(root, frames, config) == 2

    @settings(max_examples=150, deadline=None)
    @given(data=corrupted_containers())
    def test_run_exit_code_contract(self, record_workspace, data):
        root, frames, config = record_workspace
        (root / "model.weights").write_bytes(data)
        run_exit_code(root, frames, config)


@pytest.fixture(scope="module")
def record_workspace(run_workspace):
    """:func:`run_workspace`'s 8x8 frames, with a config whose one CNN stage
    reads ``model.weights`` beside it."""
    root, frames, _ = run_workspace
    config = root / "cnn_config.json"
    config.write_text(json.dumps({
        "config_version": 1,
        "input": {"width": 8, "height": 8},
        "stages": [{"channels": "RGB", "model": {"type": "cnn", "weights": "model.weights"}}],
    }))
    return root, frames, config


# -- ground-truth and detections CSV -----------------------------------------

CELLS = st.one_of(
    st.sampled_from([
        "0", "0.5", "1", "1.5", "-1", "-0.0", "1e308", "1e400", "1" + "0" * 400, "nan",
        "inf", "-inf", "1_000", "0x10", "", " ", "start_s", "end_s", "timestamp_s", "score",
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)
ROWS = st.lists(CELLS, min_size=0, max_size=3).map(",".join)
CSV_TEXT = st.lists(ROWS, max_size=6).map("\n".join)
SECONDS = st.floats(0, 60)
GT_TEXT = st.lists(st.tuples(SECONDS, SECONDS)).map(
    lambda pairs: "start_s,end_s\n" + "".join(f"{min(p)},{max(p)}\n" for p in pairs)
)
DETECTIONS_TEXT = st.lists(st.tuples(SECONDS, st.floats(0, 1))).map(
    lambda rows: "timestamp_s,score\n" + "".join(f"{t:.3f},{s!r}\n" for t, s in sorted(rows))
)


def csv_bytes(valid: st.SearchStrategy[str]) -> st.SearchStrategy[bytes]:
    return st.one_of(valid.map(str.encode), CSV_TEXT.map(str.encode), st.binary(max_size=24))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_property")


@settings(max_examples=300, deadline=None)
@given(gt=csv_bytes(GT_TEXT), detections=csv_bytes(DETECTIONS_TEXT))
def test_eval_exit_code_contract_over_csv_text(csv_dir, gt, detections):
    (csv_dir / "gt.csv").write_bytes(gt)
    (csv_dir / "detections.csv").write_bytes(detections)
    assert_exit_contract([
        "eval", "--detections", str(csv_dir / "detections.csv"), "--gt", str(csv_dir / "gt.csv"),
    ])


def test_eval_scores_a_timestamp_near_the_float_limit(tmp_path):
    """A timestamp of 1e308 is finite and sorted; `eval` once turned it into
    a frame number at 25 fps and exited 1 on the overflow."""
    (tmp_path / "gt.csv").write_text("1.0,2.0\n")
    (tmp_path / "detections.csv").write_text("timestamp_s,score\n1.5,0.5\n1e308,0.5\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "eval", "--detections", str(tmp_path / "detections.csv"),
            "--gt", str(tmp_path / "gt.csv"),
        ])
    assert code == 0
    report = json.loads(out.getvalue())
    assert (report["events"], report["matched"], report["intervals_matched"]) == (2, 1, 1)
