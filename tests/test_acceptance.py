"""Release acceptance gate: ten criteria, one printed verdict line each.

Each test covers one release criterion end to end and prints a single
``[criterion NN] PASS`` or ``FAIL`` line (run with ``pytest -s`` to see
the lines interleaved with pytest's own output). Figures that are
reported but deliberately not asserted — absolute latency, the parameter
ratio against a large backbone — appear in parentheses on the verdict
line.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from verisemble import (
    Frame,
    FusionConfig,
    PredictionSeries,
    SplitMix64,
    chain_fuse,
    count_params,
    decode_ppm,
    default_model_spec,
    encode_ppm,
    events_from_series,
    forward,
    load_weights,
    match_score,
    pack_mode,
    random_weights,
    save_weights,
    simulate_predictor,
)
from verisemble.nn import (
    batchnorm_infer,
    conv2d,
    dense,
    expected_weight_shapes,
    flatten,
    maxpool2,
)

import oracles
from conftest import GOLDEN_COLORS, write_mean_config, write_sequence
from test_pipeline import small_cnn_spec


@contextmanager
def criterion(num: int, label: str):
    """Print exactly one verdict line for the enclosed criterion.

    Yields a list; anything appended to it is echoed in parentheses on
    the verdict line (for reported-but-not-asserted figures).
    """
    detail: list[str] = []
    try:
        yield detail
    except BaseException:
        _verdict(num, "FAIL", label, detail)
        raise
    else:
        _verdict(num, "PASS", label, detail)


def _verdict(num: int, status: str, label: str, detail: list[str]) -> None:
    extra = f"  ({'; '.join(detail)})" if detail else ""
    print(f"\n[criterion {num:02d}] {status}  {label}{extra}", flush=True)


# -- criteria 1 + 2: fusion vs. brute-force oracle --------------------------

EXHAUSTIVE_MAX_LEN = 6
RANDOM_PAIRS = 1_000_000
RANDOM_LENGTHS = (7, 8, 9, 10, 11, 12)
SCORE_POOL = 8

SWEEP_CONFIGS = (
    FusionConfig(),
    FusionConfig(pack_size=1, neighbor_window=1),
    FusionConfig(pack_size=5),
    FusionConfig(neighbor_window=5),
    FusionConfig(pack_size=1, neighbor_window=1),
    FusionConfig(pack_size=1, neighbor_window=1),
)


@pytest.fixture(scope="module")
def fusion_sweep():
    """Run the full pair enumeration once; criteria 1 and 2 both read it.

    Every pair of label sequences of length <= 6 is checked exhaustively
    (4^0 + ... + 4^6 = 5461 pairs) plus a million random pairs of length
    7..12, cycling through six fusion configurations and a per-length
    pool of score tuples. For each pair both fusion entry points must
    reproduce the naive reference bit for bit, and the fused positives
    must be a subset of the packed-proposer positives.
    """
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    max_len = max(RANDOM_LENGTHS)
    labels_by_len = [
        [tuple(bool((m >> i) & 1) for i in range(n)) for m in range(1 << n)]
        for n in range(max_len + 1)
    ]
    scores_by_len = [
        [tuple(rng.random() for _ in range(n)) for _ in range(SCORE_POOL)]
        for n in range(max_len + 1)
    ]
    cache: dict[tuple[int, int, int], PredictionSeries] = {}

    def series(n: int, mask: int, sidx: int) -> PredictionSeries:
        key = (n, mask, sidx)
        found = cache.get(key)
        if found is None:
            found = PredictionSeries(labels_by_len[n][mask], scores_by_len[n][sidx])
            cache[key] = found
        return found

    stats = {"pairs": 0, "mismatches": 0, "subset_violations": 0}

    def check(pa: PredictionSeries, pb: PredictionSeries, cfg: FusionConfig) -> None:
        ref_labels, ref_scores, base = oracles.fuse_ref(
            pa.labels,
            pa.scores,
            pb.labels,
            pb.scores,
            cfg.pack_size,
            cfg.neighbor_window,
            True,
        )
        fused = chain_fuse((pa, pb), cfg)
        stats["pairs"] += 1
        if list(fused.labels) != ref_labels or list(fused.scores) != ref_scores:
            stats["mismatches"] += 1
        for flag, packed in zip(fused.labels, base):
            if flag and not packed:
                stats["subset_violations"] += 1

    n_cfg = len(SWEEP_CONFIGS)
    k = 0
    exhaustive = 0
    for n in range(EXHAUSTIVE_MAX_LEN + 1):
        for mask_a in range(1 << n):
            for mask_b in range(1 << n):
                check(
                    series(n, mask_a, k % SCORE_POOL),
                    series(n, mask_b, (k * 5 + 2) % SCORE_POOL),
                    SWEEP_CONFIGS[k % n_cfg],
                )
                k += 1
                exhaustive += 1

    randbits = rng.getrandbits
    n_len = len(RANDOM_LENGTHS)
    for k in range(RANDOM_PAIRS):
        n = RANDOM_LENGTHS[k % n_len]
        check(
            series(n, randbits(n), k % SCORE_POOL),
            series(n, randbits(n), (k * 5 + 2) % SCORE_POOL),
            SWEEP_CONFIGS[k % n_cfg],
        )

    stats["exhaustive_pairs"] = exhaustive
    stats["random_pairs"] = RANDOM_PAIRS
    stats["elapsed_s"] = time.perf_counter() - t0
    return stats


def test_criterion_01_fusion_oracle_equivalence(fusion_sweep):
    with criterion(1, "fusion matches the brute-force oracle on the full enumeration") as detail:
        detail.append(
            f"{fusion_sweep['pairs']:,} pairs in {fusion_sweep['elapsed_s']:.1f}s"
        )
        assert fusion_sweep["exhaustive_pairs"] == 5461
        assert fusion_sweep["random_pairs"] >= 1_000_000
        assert fusion_sweep["mismatches"] == 0
        assert fusion_sweep["elapsed_s"] < 60.0


def test_criterion_02_fused_subset_of_packed(fusion_sweep):
    with criterion(2, "fused positives are a subset of packed-proposer positives"):
        assert fusion_sweep["pairs"] == 5461 + RANDOM_PAIRS
        assert fusion_sweep["subset_violations"] == 0


# -- criterion 3: false-positive product law --------------------------------


def test_criterion_03_false_positive_product_law():
    with criterion(3, "fused FPR on pure noise matches the product of stage FPRs") as detail:
        n = 100_000
        truth = (False,) * n
        master = SplitMix64(3_000_000)
        proposer = simulate_predictor(truth, tpr=0.9, fpr=0.1, rng=master.spawn())
        verifier = simulate_predictor(truth, tpr=0.9, fpr=0.2, rng=master.spawn())
        fused = chain_fuse((proposer, verifier), FusionConfig(pack_size=1, neighbor_window=1))
        fpr = fused.positive_count() / n
        detail.append(f"empirical fpr {fpr:.5f}, expected 0.02000")
        assert 0.0173 <= fpr <= 0.0227


# -- criterion 4: the verifier raises event precision end to end ------------


def test_criterion_04_precision_filter_end_to_end():
    with criterion(4, "verified ensemble beats the proposer alone on event precision") as detail:
        fps = 25.0
        frame_count = 10_000
        burst = 30
        starts = [200 + k * 960 for k in range(10)]
        truth = [False] * frame_count
        for s in starts:
            for i in range(s, s + burst):
                truth[i] = True
        intervals = tuple((s / fps, (s + burst - 1) / fps) for s in starts)
        cfg = FusionConfig()  # pack of 3, neighbor window of 3

        precision_wins = 0
        fp_always_lower = True
        trials = 100
        for trial in range(trials):
            master = SplitMix64(9000 + trial)
            proposer = simulate_predictor(truth, tpr=0.9, fpr=0.05, rng=master.spawn())
            verifier = simulate_predictor(truth, tpr=0.9, fpr=0.05, rng=master.spawn())
            fused = chain_fuse((proposer, verifier), cfg)
            proposer_only = pack_mode(proposer, cfg.pack_size)

            fused_report = match_score(events_from_series(fused, fps), intervals)
            solo_report = match_score(events_from_series(proposer_only, fps), intervals)
            fused_fp = fused_report.events - fused_report.matched_events
            solo_fp = solo_report.events - solo_report.matched_events

            if (
                fused_report.precision is not None
                and solo_report.precision is not None
                and fused_report.precision > solo_report.precision
            ):
                precision_wins += 1
            if not fused_fp < solo_fp:
                fp_always_lower = False

        detail.append(f"precision wins {precision_wins}/{trials}")
        assert precision_wins >= 95
        assert fp_always_lower


# -- criterion 5: layer kernels vs. naive loop oracles ----------------------


def test_criterion_05_layer_oracles():
    with criterion(5, "conv/pool/batchnorm/dense/flatten match naive loop oracles"):
        rng = random.Random(505)
        nprng = np.random.default_rng(505)
        shapes_checked = 0
        for _ in range(1000):
            h = rng.randint(2, 16)
            w = rng.randint(2, 16)
            c = rng.randint(1, 4)
            x = nprng.uniform(-2.0, 2.0, size=(h, w, c))
            x_list = x.tolist()

            kh = rng.randint(1, 3)
            kw = rng.randint(1, 3)
            filters = rng.randint(1, 4)
            stride = rng.choice((1, 2))
            padding = "same" if (kh > h or kw > w) else rng.choice(("same", "valid"))
            kernel = nprng.uniform(-1.0, 1.0, size=(kh, kw, c, filters))
            bias = nprng.uniform(-1.0, 1.0, size=(filters,))
            got = conv2d(x, kernel, bias, stride=stride, padding=padding)
            ref = np.array(
                oracles.conv2d_ref(x_list, kernel.tolist(), bias.tolist(), stride, padding)
            )
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-5

            pool = rng.choice((2, 3)) if min(h, w) >= 3 else 2
            got = maxpool2(x, pool)
            ref = np.array(oracles.maxpool_ref(x_list, pool))
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-5

            gamma = nprng.uniform(-1.5, 1.5, size=(c,))
            beta = nprng.uniform(-1.5, 1.5, size=(c,))
            mean = nprng.uniform(-1.5, 1.5, size=(c,))
            var = nprng.uniform(0.05, 3.0, size=(c,))
            got = batchnorm_infer(x, gamma, beta, mean, var)
            ref = np.array(
                oracles.batchnorm_ref(
                    x_list, gamma.tolist(), beta.tolist(), mean.tolist(), var.tolist()
                )
            )
            assert np.max(np.abs(got - ref)) <= 1e-5

            flat = flatten(x)
            ref_flat = np.array(oracles.flatten_ref(x_list))
            assert flat.shape == ref_flat.shape
            assert np.max(np.abs(flat - ref_flat)) <= 1e-5

            units = rng.randint(1, 6)
            weights = nprng.uniform(-1.0, 1.0, size=(flat.shape[0], units))
            dbias = nprng.uniform(-1.0, 1.0, size=(units,))
            activation = rng.choice((None, "relu", "sigmoid"))
            got = dense(flat, weights, dbias, activation=activation)
            ref = np.array(
                oracles.dense_ref(flat.tolist(), weights.tolist(), dbias.tolist(), activation)
            )
            assert np.max(np.abs(got - ref)) <= 1e-5

            shapes_checked += 1
        assert shapes_checked == 1000


# -- criterion 6: spatial ladder and probability output ---------------------


def test_criterion_06_shape_ladder_and_probability():
    with criterion(6, "stock architecture halves 300x300 down to 9x9 and emits a probability"):
        spec = default_model_spec()
        pools = [
            shape
            for layer, shape in zip(spec.layers, spec.output_shapes())
            if layer.kind == "maxpool2"
        ]
        assert [s[:2] for s in pools] == [
            (150, 150),
            (75, 75),
            (37, 37),
            (18, 18),
            (9, 9),
        ]
        weights = random_weights(spec, seed=606)
        x = np.random.default_rng(606).uniform(0.0, 1.0, size=(300, 300, 3))
        p = forward(spec, weights, x)
        assert isinstance(p, float)
        assert 0.0 <= p <= 1.0


# -- criterion 7: parameter budget ------------------------------------------


def test_criterion_07_parameter_budget():
    with criterion(7, "first conv is 448 params; two-model ensemble stays under 2M") as detail:
        shapes = expected_weight_shapes(default_model_spec(channels=3))
        conv1 = sum(math.prod(s) for s in shapes["conv1"].values())
        assert conv1 == 448
        total = count_params(default_model_spec(channels=3)) + count_params(
            default_model_spec(channels=1)
        )
        assert total == 1_822_050
        assert total < 2_000_000
        detail.append(
            f"ensemble total {total:,}; {25_600_000 / total:.1f}x fewer than a "
            f"25.6M-parameter backbone"
        )


# -- criterion 8: event matching hand examples ------------------------------


def test_criterion_08_metric_oracle():
    with criterion(8, "event matcher reproduces the hand-worked examples"):
        interval = ((10.0, 12.0),)

        inside = match_score([10.5], interval)
        assert (inside.precision, inside.recall, inside.f1) == (1.0, 1.0, 1.0)

        near = match_score([9.1], interval, tolerance_s=1.0)
        assert (near.precision, near.recall, near.f1) == (1.0, 1.0, 1.0)

        far = match_score([5.0], interval)
        assert (far.precision, far.recall, far.f1) == (0.0, 0.0, 0.0)


# -- criterion 9: determinism and round-trips -------------------------------


def test_criterion_09_determinism_and_round_trips(tmp_path):
    with criterion(9, "weight and image round-trips are bit-exact; runs are reproducible"):
        # Weight container round-trip.
        spec = small_cnn_spec(3)
        weights = random_weights(spec, seed=99)
        first = tmp_path / "model.weights"
        second = tmp_path / "again.weights"
        save_weights(first, spec, weights)
        save_weights(second, spec, weights)
        assert first.read_bytes() == second.read_bytes()
        loaded_spec, loaded = load_weights(first)
        assert loaded_spec == spec
        for layer, params in weights.items():
            for name, arr in params.items():
                got = loaded[layer][name]
                assert got.dtype == arr.dtype
                assert got.tobytes() == arr.tobytes()

        # Image codec round-trip.
        pixels = np.random.default_rng(909).integers(
            0, 256, size=(11, 7, 3), dtype=np.uint8
        )
        frame = Frame(index=0, pixels=pixels)
        blob = encode_ppm(frame)
        back = decode_ppm(blob)
        assert np.array_equal(back.pixels, pixels)
        assert encode_ppm(back) == blob

        # Full runs: byte-identical across worker counts and repetitions.
        frames_dir = write_sequence(tmp_path / "frames", GOLDEN_COLORS)
        config = write_mean_config(tmp_path / "config.json")
        outputs = []
        for name, workers in (("a", "1"), ("b", "4"), ("c", "1")):
            out = tmp_path / f"out_{name}"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "verisemble",
                    "run",
                    "--config",
                    str(config),
                    "--frames",
                    str(frames_dir),
                    "--out",
                    str(out),
                    "--workers",
                    workers,
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                (out / "detections.csv").read_bytes()
                + b"\x00"
                + (out / "predictions.csv").read_bytes()
            )
        assert outputs[0] == outputs[1] == outputs[2]


# -- criterion 10: benchmark report on the stock two-model config ------------


def test_criterion_10_bench_report(tmp_path):
    with criterion(10, "benchmark reports sane latency stats and the full param count") as detail:
        spec_rgb = default_model_spec(channels=3)
        spec_luma = default_model_spec(channels=1)
        save_weights(tmp_path / "rgb.weights", spec_rgb, random_weights(spec_rgb, seed=101))
        save_weights(tmp_path / "luma.weights", spec_luma, random_weights(spec_luma, seed=102))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "config_version": 1,
                    "input": {"width": 300, "height": 300},
                    "stages": [
                        {
                            "channels": "RGB",
                            "model": {"type": "cnn", "weights": "rgb.weights"},
                        },
                        {
                            "channels": "L",
                            "model": {"type": "cnn", "weights": "luma.weights"},
                        },
                    ],
                }
            )
        )
        frames_dir = write_sequence(tmp_path / "frames", [(40, 80, 120)])
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "verisemble",
                "bench",
                "--config",
                str(config),
                "--frames",
                str(frames_dir),
                "--warmup",
                "0",
                "--repeats",
                "1",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        (report,) = out["reports"]
        assert report["params_total"] == 1_822_050
        assert [s["channels"] for s in report["stages"]] == ["RGB", "L"]
        assert [s["params"] for s in report["stages"]] == [911_169, 910_881]
        latency = report["latency_ms"]
        assert latency["p95"] >= latency["median"] > 0
        detail.append(
            f"median {latency['median']:.0f} ms per frame through both models"
        )
