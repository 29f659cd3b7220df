"""Shared fixtures: synthetic frames, sequences, and pipeline configs."""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from verisemble import Frame, cores, encode_ppm

# CI keeps no example database between runs, so it runs derandomized and a
# failure prints the blob that replays it (`@reproduce_failure`). The
# scheduled `fresh` profile draws new examples on every run instead, and
# prints the blob too. Select a profile with HYPOTHESIS_PROFILE=ci or fresh.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("fresh", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

BLACK = (0, 0, 0)
WHITE = (255, 255, 255)
MAGENTA = (255, 0, 255)
GREEN = (0, 255, 0)

# Mean-intensity stages at threshold 0.5 read these colors as:
#   black   -> both stages negative
#   white   -> both stages positive
#   magenta -> primary (RGB mean 2/3) positive, luma (105/255) negative
#   green   -> primary (RGB mean 1/3) negative, luma (150/255) positive
GOLDEN_COLORS = [BLACK] * 3 + [MAGENTA] * 3 + [GREEN] + [BLACK] * 2
GOLDEN_FPS = 25.0


# Marks a test whose child process reads its own /proc/self/status.
needs_proc_status = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads /proc/self/status"
)


def solid_frame(rgb: tuple[int, int, int], index: int = 0, size: int = 16) -> Frame:
    pixels = np.zeros((size, size, 3), dtype=np.uint8)
    pixels[:, :] = rgb
    return Frame(index=index, pixels=pixels)


def random_frame(seed: int, width: int = 8, height: int = 8, channels: int = 3) -> Frame:
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(height, width, channels), dtype=np.uint8)
    return Frame(index=0, pixels=pixels)


def write_sequence(directory: Path, colors, fps: float = GOLDEN_FPS, size: int = 16) -> Path:
    """Write solid-color PPM frames plus a manifest; returns the directory."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, rgb in enumerate(colors):
        path = directory / f"frame_{i:04d}.ppm"
        path.write_bytes(encode_ppm(solid_frame(rgb, index=i, size=size)))
    (directory / "manifest.json").write_text(
        json.dumps({"frame_count": len(colors), "fps": fps, "pattern": "frame_%04d.ppm"})
    )
    return directory


def write_mean_config(path: Path, **overrides) -> Path:
    """Two mean-intensity stages (RGB proposer, luma verifier)."""
    obj = {
        "config_version": 1,
        "stages": [
            {"channels": "RGB", "model": {"type": "mean_intensity"}},
            {"channels": "L", "model": {"type": "mean_intensity"}},
        ],
    }
    obj.update(overrides)
    path.write_text(json.dumps(obj, indent=2))
    return path


@pytest.fixture
def golden_sequence(tmp_path: Path) -> Path:
    """Nine solid frames exercising every fusion branch at 25 fps."""
    return write_sequence(tmp_path / "frames", GOLDEN_COLORS)


@pytest.fixture
def mean_config(tmp_path: Path) -> Path:
    return write_mean_config(tmp_path / "config.json")


@pytest.fixture(params=[0, 1, 3], ids=["helpers0", "helpers1", "helpers3"])
def lent_helpers(request):
    """A function that runs ``fn(*args)`` on a thread lent 0, 1, then 3
    helper threads, as a frame thread of ``run_pipeline`` is, with numpy's
    OpenBLAS held at one thread in-process where its count can be set."""
    count = request.param
    api = cores._blas_thread_api()
    saved = api[0]() if api else None
    if api:
        api[1](1)
    try:
        with ThreadPoolExecutor(max(1, count), thread_name_prefix="test-helper") as helpers:
            with ThreadPoolExecutor(
                1, initializer=cores._lend_helpers, initargs=(helpers, count)
            ) as caller:
                yield lambda fn, *args: caller.submit(fn, *args).result(timeout=600)
    finally:
        if api:
            api[1](saved)
