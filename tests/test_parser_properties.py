"""Property tests of the exit-code contract over the text inputs.

Every ``manifest.json`` object and every ground-truth or detections CSV text
either parses, or makes ``cli.main`` exit 2 with exactly one ``error:`` line;
it never exits 1 (an internal error with a traceback).
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from verisemble import encode_ppm
from verisemble.cli import main

from conftest import GOLDEN_COLORS, solid_frame, write_mean_config

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

# `pattern % 0` formats with the pattern itself, so a width or precision in
# it sizes a string: the patterns are a fixed set without such digits. The
# frames on disk are named by the first one.
PATTERNS = [
    "frame_%d.ppm", "frame_%i.ppm", "frame_%s.ppm", "frame_%x.ppm", "frame_%r.ppm",
    "frame_%c.ppm", "frame_%d.png", "frame.ppm", "frame_%d_%d.ppm", "frame_%(i)d.ppm",
    "frame_%q.ppm", "frame_%", "frame_%%d.ppm", "../frame_%d.ppm", "",
]

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
    "pattern": st.one_of(st.sampled_from(PATTERNS), ODD_VALUES),
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
    config = write_mean_config(root / "config.json", input={"width": 32, "height": 32})
    return root, frames, config


@settings(max_examples=300, deadline=None)
@given(manifest=manifests())
def test_run_exit_code_contract_over_manifests(run_workspace, manifest):
    root, frames, config = run_workspace
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert_exit_contract([
        "run", "--config", str(config), "--frames", str(frames),
        "--manifest", str(path), "--out", str(root / "out"),
    ])


def test_stock_manifest_runs(run_workspace):
    root, frames, config = run_workspace
    path = root / "stock.json"
    path.write_text(json.dumps({"frame_count": FRAME_COUNT, "fps": 25, "pattern": PATTERNS[0]}))
    assert assert_exit_contract([
        "run", "--config", str(config), "--frames", str(frames),
        "--manifest", str(path), "--out", str(root / "out"),
    ]) == 0


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
