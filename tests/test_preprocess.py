"""Resizing, grayscale conversion, and channel feature extraction."""

from __future__ import annotations

import functools
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from verisemble import preprocess
from verisemble import (
    ChannelSubset,
    Frame,
    ValidationError,
    extract_features,
    resize_aa,
    to_grayscale,
)

from conftest import random_frame, solid_frame
from oracles import luma_pixel, resize_exact, resize_integer


class TestChannelSubset:
    def test_cardinalities(self):
        assert ChannelSubset.RGB.cardinality == 3
        assert ChannelSubset.RG.cardinality == 2
        assert ChannelSubset.GB.cardinality == 2
        assert ChannelSubset.BR.cardinality == 2
        assert ChannelSubset.R.cardinality == 1
        assert ChannelSubset.LUMA.cardinality == 1

    def test_parse(self):
        assert ChannelSubset.parse("RGB") is ChannelSubset.RGB
        assert ChannelSubset.parse("L") is ChannelSubset.LUMA

    def test_parse_unknown(self):
        with pytest.raises(ValidationError):
            ChannelSubset.parse("RGBA")


@functools.cache
def band_cases() -> list[tuple[Frame, int, int, np.ndarray]]:
    """Seeded resize cases, ``(frame, out_w, out_h, integer reference)``."""
    rng = random.Random(1551)
    geometries = [(1280, 720, 300, 300), (4099, 2311, 300, 300)]
    geometries += [tuple(rng.randint(1, 400) for _ in range(4)) for _ in range(30)]
    cases = []
    for case, (in_w, in_h, out_w, out_h) in enumerate(geometries):
        frame = random_frame(seed=900 + case, width=in_w, height=in_h, channels=1 + 2 * (case % 2))
        cases.append((frame, out_w, out_h, resize_integer(frame.pixels, out_w, out_h)))
    return cases


class TestResize:
    def test_identity_at_same_size(self):
        frame = random_frame(seed=3, width=12, height=9)
        out = resize_aa(frame, 12, 9)
        assert out == frame
        assert np.array_equal(out.pixels, frame.pixels)

    def test_two_to_one_average_rounds_half_up(self):
        # (0 + 255) / 2 = 127.5 -> 128
        pixels = np.array([[[0], [255]]], dtype=np.uint8)
        frame = Frame(index=0, pixels=pixels)
        out = resize_aa(frame, 1, 1)
        assert out.pixels.tolist() == [[[128]]]

    def test_constant_downscale_stays_constant(self):
        frame = solid_frame((40, 90, 200), size=600)
        out = resize_aa(frame, 300, 300)
        assert (out.width, out.height) == (300, 300)
        assert np.all(out.pixels == np.array([40, 90, 200], np.uint8))

    def test_constant_upscale_stays_constant(self):
        frame = solid_frame((7, 130, 255), size=4)
        out = resize_aa(frame, 300, 300)
        assert np.all(out.pixels == np.array([7, 130, 255], np.uint8))

    def test_zero_target_rejected(self):
        frame = solid_frame((0, 0, 0))
        with pytest.raises(ValueError):
            resize_aa(frame, 0, 4)
        with pytest.raises(ValueError):
            resize_aa(frame, 4, 0)

    def test_matches_naive_reference(self):
        # Exact references: a pre-rounding value of exactly x.5 must round
        # up, with no allowance for float error.
        rng = random.Random(2024)
        small = [tuple(rng.randint(1, 12) for _ in range(4)) for _ in range(60)]
        # Mixed axes: one upscaled, one downscaled, in both directions.
        small += [(3, 11, 7, 4), (11, 3, 4, 7), (5, 6, 13, 6), (6, 5, 6, 2), (1, 9, 4, 1)]
        for case, (in_w, in_h, out_w, out_h) in enumerate(small):
            channels = 1 if case % 3 == 0 else 3
            frame = random_frame(seed=case, width=in_w, height=in_h, channels=channels)
            label = f"case {case}: {in_w}x{in_h}x{channels} -> {out_w}x{out_h}"
            want = resize_exact(frame.pixels.tolist(), out_w, out_h)
            assert resize_aa(frame, out_w, out_h).pixels.tolist() == want, label
            assert resize_integer(frame.pixels, out_w, out_h).tolist() == want, label
        # Larger geometries against the integer reference: a 1280x720 ->
        # 300x300 downscale, which holds hundreds of exact .5 ties, and a
        # seeded sweep of up-, down- and mixed-axis resizes.
        large = [(1280, 720, 300, 300)]
        large += [tuple(rng.randint(1, 160) for _ in range(4)) for _ in range(40)]
        for case, (in_w, in_h, out_w, out_h) in enumerate(large):
            frame = random_frame(seed=700 + case, width=in_w, height=in_h)
            got = resize_aa(frame, out_w, out_h).pixels
            want = resize_integer(frame.pixels, out_w, out_h)
            assert np.array_equal(got, want), f"{in_w}x{in_h} -> {out_w}x{out_h}"

    # Either side of the int32 bound, 256 * D_y * D_x <= 2**31, where each
    # axis's D is its source size divided by gcd(size, 300) for these
    # downscales. At 3840x2160 (D = 2,304) and 4096x2304 (D = 196,608) the
    # sums run in int32; 4096x2304 ran in int64 before the gcd reduction.
    # 4099x2311 is coprime to 300 on both axes (D = 9,472,789), so its sums
    # run in int64.
    BOUND_GEOMETRIES = [(3840, 2160), (4096, 2304), (4099, 2311)]

    @pytest.mark.parametrize(
        "width, height, int32", [(3840, 2160, True), (4096, 2304, True), (4099, 2311, False)]
    )
    def test_denominator_side_of_int32_bound(self, width, height, int32):
        d_y = preprocess._axis_taps(height, 300)[2]
        d_x = preprocess._axis_taps(width, 300, 3)[2]
        assert (256 * d_y * d_x <= 2**31) == int32

    @pytest.mark.parametrize("width, height", BOUND_GEOMETRIES)
    @pytest.mark.parametrize("value", [0, 1, 254, 255])
    def test_constant_frame_either_side_of_int32_bound(self, width, height, value):
        frame = Frame(index=0, pixels=np.full((height, width, 3), value, np.uint8))
        out = resize_aa(frame, 300, 300)
        assert out.pixels.shape == (300, 300, 3)
        assert np.all(out.pixels == value)

    @pytest.mark.parametrize("width, height", BOUND_GEOMETRIES)
    def test_random_frame_either_side_of_int32_bound(self, width, height):
        frame = random_frame(seed=width, width=width, height=height)
        got = resize_aa(frame, 300, 300).pixels
        assert np.array_equal(got, resize_integer(frame.pixels, 300, 300))

    @pytest.mark.parametrize("band_bytes", [preprocess._BAND_BYTES, 1], ids=["stock", "1row"])
    def test_bands_spread_over_helpers_match_reference(self, lent_helpers, band_bytes, monkeypatch):
        # Seeded up-, down- and mixed-axis geometries, in the stock bands and
        # in bands of one output row, on a thread lent 0, 1 or 3 helpers:
        # byte-identical to the calling thread's own result and the integer
        # reference. 4099x2311 runs in int64.
        monkeypatch.setattr(preprocess, "_BAND_BYTES", band_bytes)
        for case, (frame, out_w, out_h, want) in enumerate(band_cases()):
            got = lent_helpers(resize_aa, frame, out_w, out_h).pixels
            label = f"case {case}: {frame.width}x{frame.height} -> {out_w}x{out_h}"
            assert got.shape == want.shape, label
            assert got.tobytes() == want.tobytes(), label
            assert resize_aa(frame, out_w, out_h).pixels.tobytes() == want.tobytes(), label

    def test_reduced_taps_keep_every_ratio(self):
        # Dividing weights and denominator by their gcd leaves every
        # weight / denominator ratio, so the exact result, as it was.
        for in_n, out_n, channels in [(4096, 300, 3), (2304, 300, 1), (90, 300, 2), (17, 5, 1)]:
            _, weight, denominator = preprocess._axis_taps(in_n, out_n, channels)
            full = in_n if out_n < in_n else 2 * out_n
            common = full // denominator
            assert full % denominator == 0 and common % math.gcd(in_n, out_n) == 0
            assert np.all(weight.sum(axis=0) == denominator)
            assert math.gcd(denominator, int(np.gcd.reduce(weight, axis=None))) == 1

    def test_taps_cached_per_geometry(self):
        frame = random_frame(seed=5, width=37, height=23)
        resize_aa(frame, 19, 41)
        before = preprocess._axis_taps.cache_info()
        resize_aa(frame, 19, 41)
        after = preprocess._axis_taps.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
        index, weight, _ = preprocess._axis_taps(37, 19)
        assert preprocess._axis_taps(37, 19)[0] is index
        for array in (index, weight):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0

    def test_threads_sharing_taps_match_reference(self):
        # More workers than cores and a short switch interval, so threads
        # build and read the shared taps cache concurrently.
        geometries = [(31 + k % 5, 17 + k % 3, 13 + k % 4, 29 - k % 6) for k in range(48)]
        frames = [
            random_frame(seed=k, width=w, height=h)
            for k, (w, h, _, _) in enumerate(geometries)
        ]
        preprocess._axis_taps.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(resize_aa, frame, out_w, out_h)
                    for frame, (_, _, out_w, out_h) in zip(frames, geometries)
                ]
                threaded = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for frame, (_, _, out_w, out_h), got in zip(frames, geometries, threaded):
            assert np.array_equal(got.pixels, resize_integer(frame.pixels, out_w, out_h))

    def test_idempotent_after_first_resize(self):
        frame = random_frame(seed=11, width=10, height=7)
        once = resize_aa(frame, 5, 5)
        twice = resize_aa(once, 5, 5)
        assert np.array_equal(once.pixels, twice.pixels)

    def test_integral_downscale_conserves_mean(self):
        for seed, (size, target) in enumerate([(8, 4), (6, 2), (12, 3), (9, 3)]):
            frame = random_frame(seed=seed + 100, width=size, height=size)
            out = resize_aa(frame, target, target)
            mean_in = float(frame.pixels.mean())
            mean_out = float(out.pixels.mean())
            assert abs(mean_in - mean_out) <= 0.5

    def test_preserves_index(self):
        frame = Frame(index=17, pixels=np.zeros((4, 4, 3), np.uint8))
        assert resize_aa(frame, 2, 2).index == 17


class TestToGrayscale:
    def test_white_is_255(self):
        out = to_grayscale(solid_frame((255, 255, 255), size=2))
        assert np.all(out.pixels == 255)
        assert out.channels == 1

    def test_pure_red_is_76(self):
        out = to_grayscale(solid_frame((255, 0, 0), size=2))
        assert np.all(out.pixels == 76)

    def test_pure_green_is_150(self):
        out = to_grayscale(solid_frame((0, 255, 0), size=2))
        assert np.all(out.pixels == 150)

    def test_pure_blue_is_29(self):
        out = to_grayscale(solid_frame((0, 0, 255), size=2))
        assert np.all(out.pixels == 29)

    @pytest.mark.parametrize(
        "rgb, luma",
        [
            ((0, 36, 12), 23),
            ((0, 80, 110), 60),
            ((0, 204, 68), 128),
            ((255, 195, 235), 218),
            ((255, 203, 71), 204),
            ((255, 213, 116), 215),
        ],
        ids=str,
    )
    def test_tie_rounds_up(self, rgb, luma):
        """Exact luma ``luma - 0.5``; a float64 product at the BT.601
        weights lands just below it and rounded these down."""
        r, g, b = rgb
        assert 299 * r + 587 * g + 114 * b == 1000 * luma - 500
        out = to_grayscale(solid_frame(rgb, size=2))
        assert out.pixels.dtype == np.uint8
        assert np.all(out.pixels == luma)

    def test_gray_pixels_fixed_exhaustively(self):
        # One frame holding every gray value 0..255.
        values = np.arange(256, dtype=np.uint8).reshape(16, 16)
        pixels = np.stack([values] * 3, axis=-1)
        out = to_grayscale(Frame(index=0, pixels=pixels))
        assert np.array_equal(out.pixels[:, :, 0], values)

    def test_matches_per_pixel_reference(self):
        for seed in range(20):
            frame = random_frame(seed=seed + 500, width=6, height=5)
            got = to_grayscale(frame)
            for y in range(frame.height):
                for x in range(frame.width):
                    r, g, b = (int(v) for v in frame.pixels[y, x])
                    assert got.pixels[y, x, 0] == luma_pixel(r, g, b)

    def test_every_rgb_triple_is_exact_bt601(self):
        """All 2**24 triples, in bands of 32 red values, equal the per-mille
        formula; the 16,782 whose exact luma ends in .5 also equal
        ``luma_pixel``, so each of those ties rounds up."""
        green, blue = np.divmod(np.arange(65536), 256)
        ties = []
        for r0 in range(0, 256, 32):
            red = np.arange(r0, r0 + 32)[:, None]
            pixels = np.empty((32, 65536, 3), np.uint8)
            pixels[..., 0], pixels[..., 1], pixels[..., 2] = red, green, blue
            milli = 299 * red + 587 * green + 114 * blue
            got = to_grayscale(Frame(index=0, pixels=pixels)).pixels[:, :, 0]
            assert np.array_equal(got, (milli + 500) // 1000)
            rows, cols = np.nonzero(milli % 1000 == 500)
            ties += zip(r0 + rows, green[cols], blue[cols], got[rows, cols])
        assert len(ties) == 16_782
        assert all(luma == luma_pixel(int(r), int(g), int(b)) for r, g, b, luma in ties)

    def test_luma_of_a_300x300_frame_makes_no_float_copy(self):
        """An L stage's pixels cost an int32 sum and one channel product
        beside the uint8 result, under 1.25 MiB at 300x300; a float64 copy
        of the frame alone is 2.06 MiB."""
        frame = random_frame(seed=3301, width=300, height=300)
        tracemalloc.start()
        try:
            preprocess._stage_pixels(frame, ChannelSubset.LUMA)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 1.25

    def test_single_channel_input_rejected(self):
        frame = Frame(index=0, pixels=np.zeros((2, 2, 1), np.uint8))
        with pytest.raises(ValueError):
            to_grayscale(frame)

    @pytest.mark.parametrize(
        "convert",
        [
            lambda frame: to_grayscale(frame, (1.0, 0.0, 0.0)),
            lambda frame: extract_features(frame, ChannelSubset.LUMA, (1.0, 0.0, 0.0)),
        ],
        ids=["to_grayscale", "extract_features"],
    )
    def test_takes_no_coefficients(self, convert):
        with pytest.raises(TypeError):
            convert(solid_frame((100, 50, 10), size=1))

    def test_weights_are_not_public(self):
        import verisemble

        assert not hasattr(verisemble, "BT601_LUMA")
        assert not hasattr(preprocess, "BT601_LUMA")
        assert preprocess.__all__ == [
            "ChannelSubset", "resize_aa", "to_grayscale", "extract_features"
        ]


class TestExtractFeatures:
    def test_rgb_scaling(self):
        features = extract_features(solid_frame((255, 0, 0), size=1), ChannelSubset.RGB)
        assert features.shape == (1, 1, 3)
        assert features.tolist() == [[[1.0, 0.0, 0.0]]]

    def test_luma_red_pixel(self):
        features = extract_features(solid_frame((255, 0, 0), size=1), ChannelSubset.LUMA)
        assert features.shape == (1, 1, 1)
        assert features[0, 0, 0] == 76 / 255
        assert features[0, 0, 0] == pytest.approx(0.2980, abs=5e-5)

    def test_pair_selection_order(self):
        frame = solid_frame((10, 20, 30), size=1)
        assert extract_features(frame, ChannelSubset.GB).tolist() == [[[20 / 255, 30 / 255]]]
        assert extract_features(frame, ChannelSubset.RG).tolist() == [[[10 / 255, 20 / 255]]]
        # BR runs blue-then-red, wrapping past the channel order.
        assert extract_features(frame, ChannelSubset.BR).tolist() == [[[30 / 255, 10 / 255]]]

    def test_single_channel_selection(self):
        frame = solid_frame((10, 20, 30), size=1)
        assert extract_features(frame, ChannelSubset.G).tolist() == [[[20 / 255]]]

    def test_values_in_unit_interval(self):
        for seed in range(15):
            frame = random_frame(seed=seed + 900, width=7, height=4)
            for subset in ChannelSubset:
                features = extract_features(frame, subset)
                assert features.dtype == np.float64
                assert features.shape == (4, 7, subset.cardinality)
                assert float(features.min()) >= 0.0
                assert float(features.max()) <= 1.0

    def test_every_byte_scales_to_its_exact_quotient(self):
        # Each of the 256 values in each channel, against Python's correctly
        # rounded int / 255.
        values = np.arange(256, dtype=np.uint8)
        pixels = np.stack([values, values[::-1], np.roll(values, 7)], axis=-1).reshape(16, 16, 3)
        frame = Frame(index=0, pixels=pixels)
        for subset in ChannelSubset:
            if subset is ChannelSubset.LUMA:
                source = to_grayscale(frame).pixels
            else:
                source = pixels[:, :, list(subset.channel_indices)]
            features = extract_features(frame, subset)
            want = [[[int(v) / 255 for v in cell] for cell in row] for row in source.tolist()]
            assert features.tolist() == want

    def test_subset_must_be_a_channel_subset(self):
        with pytest.raises(ValueError) as caught:
            extract_features(solid_frame((1, 2, 3), size=1), "RGB")
        assert str(caught.value) == "subset must be a ChannelSubset, got 'RGB'"

    def test_single_channel_frame_rejected(self):
        frame = Frame(index=0, pixels=np.zeros((2, 2, 1), np.uint8))
        with pytest.raises(ValueError) as caught:
            extract_features(frame, ChannelSubset.LUMA)
        assert str(caught.value) == "feature extraction requires a 3-channel frame, got 1"
