"""Two-stage decision fusion for per-frame classifier outputs.

A primary classifier proposes positives; a verifier can only confirm or
veto them, never add new ones. Because every surviving positive needs
both stages to fire, the combined false-positive rate can never exceed
that of either stage alone.

Fusion is one fold, :func:`chain_fuse`, over two steps:

* ``pack_mode``: majority vote over non-overlapping packs of consecutive
  frames, smoothing single-frame flicker in the proposer's stream.
* ``neighbor_validate``: a positive survives if the verifier fired
  anywhere inside a small centered window, tolerating off-by-a-few
  frame misalignment between the stages.

The fold packs the first stage (when packing is enabled), then lets each
later stage veto through a window reaching ``FusionConfig.verifier_radius``
frames either side of each positive. Two-stage fusion is
``chain_fuse((primary, verifier), config)``, and the per-frame AND is
``neighbor_validate(primary, verifier, 1)``. :func:`chain_fuse` is the fold's
definition, over whole series. ``run`` folds with ``_PrefixFold``, which owns
the stages' cells, extends each step as they become known and asks each
verifier only about the frames in its windows around surviving proposals. It
runs the same two steps over slices of the series, not :func:`chain_fuse`,
and is tested bit-equal to it. It marks a fused score exact where every
verifier was asked about the whole window around the frame.

All operations are pure: series are immutable value objects and every
function returns a new series.
"""

from __future__ import annotations

import collections
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import and_, gt
from typing import Sequence

from .errors import ValidationError, _is_int_at_least

__all__ = [
    "FusionConfig",
    "PredictionSeries",
    "pack_mode",
    "neighbor_validate",
    "chain_fuse",
]


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for the fusion pipeline.

    ``pack_size`` frames form one majority-vote pack; ``neighbor_window``
    is the total width (centered, odd) of the verifier search window.
    With ``packing_enabled`` False both refinements are skipped and
    fusion degenerates to the per-frame AND.
    """

    pack_size: int = 3
    neighbor_window: int = 3
    packing_enabled: bool = True

    def __post_init__(self) -> None:
        for name, why in (
            ("pack_size", "a full pack cannot tie"),
            ("neighbor_window", "the window is centered"),
        ):
            value = getattr(self, name)
            if not _is_int_at_least(value, 1):
                raise ValidationError(f"{name} must be a positive int, got {value!r}")
            if value % 2 == 0:
                raise ValidationError(f"{name} must be odd so {why}, got {value}")
        if not isinstance(self.packing_enabled, bool):
            raise ValidationError(
                f"packing_enabled must be a bool, got {self.packing_enabled!r}"
            )

    @property
    def verifier_radius(self) -> int:
        """How far from a proposal each verification step looks.

        ``(neighbor_window - 1) // 2`` with packing enabled; 0 without,
        where each step is the per-frame AND.
        """
        return (self.neighbor_window - 1) // 2 if self.packing_enabled else 0


@dataclass(frozen=True)
class PredictionSeries:
    """Per-frame labels and scores from one classifier over one sequence.

    ``labels[i]`` is the binary decision for frame ``i``; ``scores[i]``
    the probability behind it. Both tuples always have equal length.
    """

    labels: tuple[bool, ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(bool(v) for v in self.labels))
        object.__setattr__(self, "scores", tuple(float(v) for v in self.scores))
        if len(self.labels) != len(self.scores):
            raise ValidationError(
                f"labels and scores differ in length: "
                f"{len(self.labels)} vs {len(self.scores)}"
            )
        for i, score in enumerate(self.scores):
            if not (0.0 <= score <= 1.0):
                raise ValidationError(f"score at frame {i} outside [0, 1]: {score}")

    def __len__(self) -> int:
        return len(self.labels)

    def positive_indices(self) -> tuple[int, ...]:
        return tuple(i for i, label in enumerate(self.labels) if label)

    def positive_count(self) -> int:
        return sum(self.labels)


def _series(labels: tuple[bool, ...], scores: tuple[float, ...]) -> PredictionSeries:
    # Fast path for internally produced values that are valid by
    # construction; skips __post_init__ re-validation in hot loops.
    out = object.__new__(PredictionSeries)
    object.__setattr__(out, "labels", labels)
    object.__setattr__(out, "scores", scores)
    return out


def pack_mode(series: PredictionSeries, pack_size: int = 3) -> PredictionSeries:
    """Majority vote over non-overlapping packs of consecutive frames.

    Every frame in a pack takes the pack's majority label. A trailing
    short pack votes over its own members; an exact tie (possible only
    in a partial pack, since full packs are odd) counts as negative.
    Scores pass through unchanged, only labels are smoothed.
    """
    if pack_size < 1 or pack_size % 2 == 0:
        raise ValidationError(f"pack_size must be a positive odd int, got {pack_size}")
    labels = series.labels
    n = len(labels)
    if pack_size == 1 or n == 0:
        return series
    out: list[bool] = []
    for start in range(0, n, pack_size):
        chunk = labels[start : start + pack_size]
        majority = sum(chunk) * 2 > len(chunk)
        out.extend([majority] * len(chunk))
    return _series(tuple(out), series.scores)


def neighbor_validate(
    primary: PredictionSeries,
    verifier: PredictionSeries,
    window: int = 3,
) -> PredictionSeries:
    """Confirm primary positives against a centered verifier window.

    Frame ``i`` stays positive iff the primary marked it and the verifier
    fired anywhere in ``[i - r, i + r]`` with ``r = (window - 1) // 2``,
    clipped at the sequence boundaries. The fused score is the minimum of
    the primary score and the best verifier score in the window, so
    ``window=1`` is the per-frame AND: a frame stays positive only if both
    stages agree, and its score is the weaker of the two.
    """
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"window must be a positive odd int, got {window}")
    if len(primary.labels) != len(verifier.labels):
        raise ValidationError(
            f"series lengths differ: primary {len(primary.labels)}, "
            f"verifier {len(verifier.labels)}"
        )
    n = len(primary.labels)
    # A radius past the sequence length sees what a radius of n sees; the
    # padding below is sized by it.
    r = min((window - 1) // 2, n)
    # Verifier positives in [i - r, i + r], clipped at the ends: a difference
    # of the cumulative count, held at 0 before the start and at the total
    # past the end.
    counts = (0,) * r + (0, *accumulate(verifier.labels))
    counts += (counts[-1],) * r
    labels = tuple(map(and_, primary.labels, map(gt, counts[2 * r + 1 :], counts[:n])))
    # Sliding max, one pass per window offset in window order. ``>`` keeps
    # the earlier of equal scores (+0.0 and -0.0), as max() over the window
    # does; the -inf padding never wins.
    pad = (-math.inf,) * r
    padded = (*pad, *verifier.scores, *pad)
    best = padded[:n]
    for shift in range(1, 2 * r + 1):
        best = tuple(c if c > b else b for b, c in zip(best, padded[shift : shift + n]))
    scores = tuple(mine if mine < b else b for mine, b in zip(primary.scores, best))
    return _series(labels, scores)


def chain_fuse(
    stages: Sequence[PredictionSeries],
    config: FusionConfig | None = None,
) -> PredictionSeries:
    """Fold any number of stages into one decision stream.

    The first stage proposes; every later stage acts as a verifier in
    order, each able only to veto. A single stage is the fold's base
    case and passes through unchanged. With two or more stages the
    proposer is majority-packed first (when packing is enabled) and each
    verification step keeps a positive only if the stage fired within
    ``config.verifier_radius`` frames of it: 0 with packing disabled, so
    each step is then the plain per-frame AND.
    """
    if config is None:
        config = FusionConfig()
    if not stages:
        raise ValidationError("chain_fuse needs at least one stage")
    fused = stages[0]
    if len(stages) == 1:
        return fused
    if config.packing_enabled:
        fused = pack_mode(fused, config.pack_size)
    window = 2 * config.verifier_radius + 1
    for stage in stages[1:]:
        fused = neighbor_validate(fused, stage, window)
    return fused


class _Cells:
    """Labels and scores written in place; unwritten, label False and score 0.0."""

    def __init__(self, n: int) -> None:
        self.labels, self.scores = [False] * n, [0.0] * n


class _PrefixFold:
    """``run``'s fold over ``count`` stages of ``n`` frames, extended as their cells
    become known: ``folds[k]``, the fold of stages ``0..k``, is final on its first
    ``final[k]`` frames, and equals :func:`chain_fuse`'s there bit for bit.

    It owns the stages' cells and asks stage 0 about every frame, verifier ``k``
    about frame ``j`` once ``folds[k - 1]`` is final and positive within ``r`` of it:
    ``asked[k]`` lists those frames, ``ready`` queues them as ``(k, j)``, and stage
    ``k``'s cells are known below ``known[k]``. ``exact[i]`` says whether every verifier
    was asked about all of frame ``i``'s window, so that its fused score is exact.
    """

    def __init__(self, count: int, n: int, config: FusionConfig) -> None:
        self.n, self.r = n, config.verifier_radius
        # A lone stage is its own fold, unpacked.
        self.pack = config.pack_size if config.packing_enabled and count > 1 else 1
        self.stages = [_Cells(n) for _ in range(count)]
        self.folds, self.final = [_Cells(n) for _ in range(count)], [0] * count
        self.exact = [True] * n
        self.asked = [range(n), *([] for _ in range(1, count))]
        self.decided, self.got, self.known = [n] + [0] * (count - 1), [0] * count, [0] * count
        self.ready: collections.deque[tuple[int, int]] = collections.deque()

    def put(self, stage: int, i: int, score: float, label: bool) -> None:
        """Write ``stage``'s cell at frame ``i``, the next asked of it; extend each fold
        from ``stage`` on as far as it is known, asking the verifiers after ``stage``
        about the frames it now decides. The folds before ``stage`` cannot move, and
        ``stage``'s asks were decided when the fold before it last moved."""
        self.stages[stage].labels[i], self.stages[stage].scores[i] = label, score
        self.got[stage] += 1
        n, r = self.n, self.r
        for k in range(stage, len(self.asked)):
            asked = self.asked[k]
            if k > stage:
                prior, final = self.folds[k - 1].labels, self.final[k - 1]
                end = n if final == n else final - r
                for j in range(self.decided[k], end):
                    if any(prior[max(0, j - r) : j + r + 1]):
                        asked.append(j)
                        self.ready.append((k, j))
                self.decided[k] = max(self.decided[k], end)
            got = self.got[k]
            self.known[k] = asked[got] if got < len(asked) else self.decided[k]
            self.extend(k, self.known[k])

    def extend(self, k: int, known: int) -> None:
        """Extend ``folds[k]``, stage ``k`` being known below frame ``known``: over stage 0's
        whole packs, or where ``folds[k - 1]`` is final and stage ``k`` is known ``r`` past.
        A new frame whose window verifier ``k`` was not wholly asked about is inexact."""
        done, r, n = self.final[k], self.r if k else 0, self.n
        end = known if known == n else known - (r if k else known % self.pack)
        end = min(end, self.final[k - 1]) if k else end
        if end <= done:
            return
        # The frames this step decides and those they read, of stage ``k`` and of
        # the fold before it (none for stage 0).
        lo, hi = max(0, done - r), min(n, end + r)
        stage, *prior = (
            _series(tuple(s.labels[lo:hi]), tuple(s.scores[lo:hi]))
            for s in (self.stages[k], *self.folds[k - 1 : k])
        )
        fused = neighbor_validate(*prior, stage, 2 * r + 1) if k else pack_mode(stage, self.pack)
        self.folds[k].labels[done:end] = fused.labels[done - lo : end - lo]
        self.folds[k].scores[done:end] = fused.scores[done - lo : end - lo]
        self.final[k] = end
        if k:
            for i in range(done, end):
                a, b = max(0, i - r), min(n, i + r + 1)
                if bisect_left(self.asked[k], b) - bisect_left(self.asked[k], a) < b - a:
                    self.exact[i] = False
