"""Frame preprocessing: anti-aliased resizing and color-feature extraction.

The resize suppresses aliasing noise by area-averaging on downscale (every
source pixel contributes in proportion to its coverage of the target cell)
and falls back to bilinear interpolation on upscale. A stage reads
its channel subset, or the frame's ITU-R BT.601 luma, as 8-bit pixels;
``extract_features`` gives them scaled into [0, 1] as float64. Luma has
no setting: it is ``(299*R + 587*G + 114*B + 500) // 1000``, exact in
integers.

All functions are pure and safe to run data-parallel across frames.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .cores import _spread
from .errors import ValidationError
from .frameio import Frame
from .nn import _read_pixels

__all__ = [
    "ChannelSubset",
    "resize_aa",
    "to_grayscale",
    "extract_features",
]

# ITU-R BT.601 luma weights of R, G and B, in thousandths.
_LUMA_PER_MILLE = (299, 587, 114)


class ChannelSubset(enum.Enum):
    """Color channels a classification stage operates on.

    ``LUMA`` is a derived brightness channel, not a stored one; the others
    select stored RGB channels in the order their name declares.
    """

    RGB = "RGB"
    RG = "RG"
    GB = "GB"
    BR = "BR"
    R = "R"
    G = "G"
    B = "B"
    LUMA = "L"

    @property
    def cardinality(self) -> int:
        return 1 if self is ChannelSubset.LUMA else len(self.value)

    @property
    def channel_indices(self) -> tuple[int, ...] | None:
        """Stored-channel indices in declared order; None for the luma path."""
        if self is ChannelSubset.LUMA:
            return None
        return tuple("RGB".index(ch) for ch in self.value)

    @classmethod
    def parse(cls, text: str) -> "ChannelSubset":
        for member in cls:
            if member.value == text:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValidationError(f"unknown channel subset {text!r}; expected one of {valid}")


# About the bytes of one band's resize temporaries: the gathered source rows,
# their sums and the gathered columns of those sums. At 1280x720 -> 300x300
# each of them then stays under glibc's default 128 KiB mmap threshold, so
# bands reuse heap memory rather than map and fault in fresh pages.
_BAND_BYTES = 1 << 18


@functools.lru_cache(maxsize=16)
def _axis_taps(
    in_n: int, out_n: int, channels: int = 1
) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer resample taps for one axis of an ``in_n -> out_n`` resize.

    The axis is read flattened with ``channels`` values per cell, as a row
    of a ``(height, width * channels)`` frame is. Returns ``(index, weight,
    denominator)`` with ``index`` and ``weight`` of shape
    ``(K, out_n * channels)``: output value ``m`` is
    ``sum_k weight[k, m] * src[index[k, m]] / denominator``. Both arrays
    are int64; the weights are non-negative and sum to ``denominator`` in
    every column.

    A downscale is an area average: in units of ``1 / out_n`` of a source
    pixel, cell ``j`` spans ``[j * in_n, (j + 1) * in_n)`` and source pixel
    ``i`` spans ``[i * out_n, (i + 1) * out_n)``, so every coverage is an
    integer and the denominator is ``in_n``. Otherwise the axis is bilinear
    on half-pixel centres: ``src = ((2j + 1) * in_n - out_n) / (2 * out_n)``,
    clamped to ``[0, in_n - 1]``, with denominator ``2 * out_n``. The
    weights and the denominator are then divided by their gcd, which is
    ``gcd(in_n, out_n)`` or a multiple of it; every ratio stays the same.

    Cached per geometry; the arrays are read-only so worker threads can
    share them.
    """
    j = np.arange(out_n, dtype=np.int64)[:, None]
    if out_n < in_n:
        first = j * in_n // out_n
        index = first + np.arange(-(-in_n // out_n) + 1)
        lo = np.maximum(j * in_n, index * out_n)
        hi = np.minimum((j + 1) * in_n, (index + 1) * out_n)
        weight = np.maximum(hi - lo, 0)
        denominator = in_n
    else:
        denominator = 2 * out_n
        src = np.clip((2 * j + 1) * in_n - out_n, 0, denominator * (in_n - 1))
        first = src // denominator
        frac = src - first * denominator
        index = first + np.arange(2)
        weight = np.concatenate([denominator - frac, frac], axis=1)
    # Non-zero taps are a prefix of each row; drop columns that are all zero.
    taps = int(np.count_nonzero(weight, axis=1).max())
    # Column j * channels + c reads value c of the cells that cell j reads.
    index = np.minimum(index[:, :taps], in_n - 1).T
    index = (index[:, :, None] * channels + np.arange(channels)).reshape(taps, -1)
    weight = np.repeat(weight[:, :taps].T, channels, axis=1)
    common = math.gcd(denominator, int(np.gcd.reduce(weight, axis=None)))
    weight //= common
    denominator //= common
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight, denominator


def resize_aa(frame: Frame, out_w: int, out_h: int) -> Frame:
    """Resize a frame to exactly ``out_w`` x ``out_h``.

    Downscaled axes use area-average resampling (the anti-aliasing box
    filter); other axes use bilinear interpolation on half-pixel centres.
    Each output value is the exact round-half-up of the real-valued
    resample; ties round up. Every weight is an integer over a per-axis
    denominator, so with ``D = D_y * D_x`` the weighted sum ``N`` is an
    integer in ``[0, 255 * D]`` and the result ``floor(N / D + 1/2)``
    equals ``(N + D // 2) // D``, computed in integers. Every partial sum,
    and ``N + D // 2``, is below ``256 * D``: the sums are accumulated in
    int32 when ``256 * D <= 2**31`` (a 4096x2304 -> 300x300 downscale
    still is, with ``D`` reduced by the gcds to 196,608) and in int64
    otherwise, which holds them while every axis of the frame and the
    target is under 2**26 pixels. The per-axis taps are
    built once per geometry and cached. The sums run in bands of output
    rows with about ``_BAND_BYTES`` of temporaries, each written straight
    into its rows of the output; on a thread lent helpers the bands are
    spread over them. Same-size requests return the input byte-identically.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError(f"resize target must be at least 1x1, got {out_w}x{out_h}")
    if out_w == frame.width and out_h == frame.height:
        return frame

    height, width, channels = frame.pixels.shape
    y_index, y_weight, d_y = _axis_taps(height, out_h)
    x_index, x_weight, d_x = _axis_taps(width, out_w, channels)
    denominator = d_y * d_x
    dtype = np.int32 if 256 * denominator <= 2**31 else np.int64
    y_weight, x_weight = y_weight.astype(dtype), x_weight.astype(dtype)
    rows = frame.pixels.reshape(height, width * channels)
    out = np.empty((out_h, out_w * channels), np.uint8)
    # Per output row: its gathered source rows, their sum, and that sum's
    # gathered columns, the largest of the band's temporaries.
    row_bytes = len(y_index) * width * channels + (
        width * channels + len(x_index) * out_w * channels
    ) * np.dtype(dtype).itemsize
    band = max(1, _BAND_BYTES // row_bytes)

    # Each band gathers every tap's source rows and sums them over the tap
    # axis k, then the same for the columns, and rounds into its own rows.
    def run_band(j0: int) -> None:
        j = slice(j0, min(j0 + band, out_h))
        sums = np.einsum(
            "kjx,kj->jx", np.take(rows, y_index[:, j], axis=0), y_weight[:, j], dtype=dtype
        )
        sums = np.einsum("ykj,kj->yj", np.take(sums, x_index, axis=1), x_weight, dtype=dtype)
        sums += denominator // 2
        sums //= denominator
        out[j] = sums

    _spread(run_band, range(0, out_h, band))
    pixels = out.reshape(out_h, out_w, channels)
    return Frame(index=frame.index, pixels=pixels)


def to_grayscale(frame: Frame) -> Frame:
    """Collapse a 3-channel frame to a single ITU-R BT.601 luma channel.

    Per pixel: ``(299*R + 587*G + 114*B + 500) // 1000``, the exact
    ``0.299*R + 0.587*G + 0.114*B`` rounded half up, so ties round up. The
    sum is at most 255,000 + 500 and is kept in int32, one channel product
    at a time; no float copy of the frame is made.
    """
    if frame.channels != 3:
        raise ValueError(f"grayscale conversion requires 3 channels, got {frame.channels}")
    luma = np.full(frame.pixels.shape[:2], 500, np.int32)
    for channel, weight in enumerate(_LUMA_PER_MILLE):
        # An explicit int32: under value-based casting (numpy < 2) a uint8
        # array times 587 is uint16, which overflows.
        luma += np.multiply(frame.pixels[:, :, channel], weight, dtype=np.int32)
    luma //= 1000
    return Frame(index=frame.index, pixels=luma.astype(np.uint8)[:, :, np.newaxis])


def _stage_pixels(frame: Frame, subset: ChannelSubset) -> np.ndarray:
    """The 8-bit pixels a classification stage reads: the subset's channels
    in declared order, or the exact BT.601 luma of :func:`to_grayscale` for
    ``LUMA``, as a ``(height, width, channels)`` uint8 array. For ``RGB``
    it is the frame's own pixel array."""
    if not isinstance(subset, ChannelSubset):
        raise ValueError(f"subset must be a ChannelSubset, got {subset!r}")
    if frame.channels != 3:
        raise ValueError(
            f"feature extraction requires a 3-channel frame, got {frame.channels}"
        )
    if subset is ChannelSubset.LUMA:
        return to_grayscale(frame).pixels
    if subset is ChannelSubset.RGB:
        return frame.pixels
    return frame.pixels[:, :, list(subset.channel_indices)]


def extract_features(frame: Frame, subset: ChannelSubset) -> np.ndarray:
    """Extract the feature tensor a classification stage consumes.

    The stage's 8-bit pixels (the subset's channels in declared order, or
    the BT.601 luma of :func:`to_grayscale` for ``LUMA``) scaled by 1/255
    into [0, 1], as a ``(height, width, channels)`` float64 array. The
    pipeline hands a stage the 8-bit pixels themselves; ``nn.forward``
    reads them with this same division.
    """
    return _read_pixels(_stage_pixels(frame, subset))
