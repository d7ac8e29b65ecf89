"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
real-recordings criterion skips unless a directory with the 118 series is
supplied via STRESSTWIN_DATA_DIR (or ./data).
"""

import functools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from stresstwin.cli import EXIT_OK, main
from stresstwin.config import RunConfig
from stresstwin.dsp import band_power, bandpass_filter, welch_psd
from stresstwin.errors import MalformedHeader, UnsupportedFormat
from stresstwin.forest import (
    Dataset,
    ForestParams,
    evaluate,
    predict_proba,
    save_forest,
    stratified_split,
    train_forest,
)
from stresstwin.hrv import FEATURE_COLUMNS, compute_baseline, detect_r_peaks
from stresstwin.ingest import decode_format212, encode_format212, parse_header
from stresstwin.pipeline import (
    feature_rows,
    label_rows,
    load_series,
    rows_to_dataset,
)
from stresstwin.shapley import brute_force_shap, forest_shap, shap_summary, tree_shap
from stresstwin.simulator import export_trace, run_simulation
from stresstwin.stress import composite_score, relative_deviation, rule_label, score_to_level
from stresstwin.synth import make_synthetic_nst, synth_ecg
from tests.test_forest_size import diagonally_dominant, noise_below_hrv, sdnn_pair_on_top
from tests.test_simulator import within_paper_bounds
from tests.test_stress import make_features


def _criterion(num: int, desc: str):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"\n[ACCEPTANCE {num:02d}] FAIL - {desc}")
                raise
            print(f"\n[ACCEPTANCE {num:02d}] PASS - {desc}")

        return wrapper

    return decorator


@pytest.fixture(scope="module")
def synthetic_dataset(tmp_path_factory):
    """Rule-labeled dataset from a generated noise-stress series."""
    d = tmp_path_factory.mktemp("acc_synth")
    make_synthetic_nst(d, seed=2025)
    cfg = RunConfig(data_dir=str(d), baseline_record="S00")
    clean, noisy = load_series(d, "S00")
    baseline = compute_baseline(clean, cfg.window_s, cfg.stride_s, cfg.context_s)
    rows = feature_rows(noisy, clean, baseline, cfg)
    labeled = label_rows(rows)
    return rows_to_dataset(labeled)


@_criterion(1, "deviation and score formulas exact to 1e-12 on 1000 random inputs, <1s")
def test_criterion_01_formula_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        x, b = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        eps = 10.0 ** rng.uniform(-9, -3)
        expected = (x - b) / (b + eps)
        assert abs(relative_deviation(x, b, eps) - expected) < 1e-12
        r1, r2, r3 = rng.uniform(-2, 2, 3)
        expected = min(max(0.5 * abs(r1) + 0.3 * abs(r2) + 0.2 * abs(r3), 0.0), 1.0)
        assert abs(composite_score(r1, r2, r3) - expected) < 1e-12
    assert time.perf_counter() - start < 1.0


@_criterion(2, "threshold-table labeling maps the five canonical vectors to levels 1..5")
def test_criterion_02_table1_labeling():
    canonical = {
        1: (55.0, 70.0, 410.0, 1.0),
        2: (45.0, 85.0, 430.0, 2.0),
        3: (35.0, 95.0, 450.0, 3.0),
        4: (25.0, 105.0, 470.0, 5.0),
        5: (15.0, 115.0, 490.0, 7.0),
    }
    for level, vec in canonical.items():
        label, _ = rule_label(make_features(*vec))
        assert label == level, f"vector {vec} -> {label}, wanted {level}"


@_criterion(3, "score binning maps the eight boundary scores per the range convention")
def test_criterion_03_table2_binning():
    cases = {0.0: 1, 0.1: 1, 0.2: 2, 0.39: 2, 0.4: 3, 0.79: 4, 0.8: 5, 1.0: 5}
    for score, level in cases.items():
        got = score_to_level(score)
        assert got == level, f"score {score} -> {got}, wanted {level}"


@_criterion(4, "format-212 codec round-trips 10k random pairs; malformed headers typed")
def test_criterion_04_parser():
    rng = np.random.default_rng(104)
    a = rng.integers(-2048, 2048, 10000)
    b = rng.integers(-2048, 2048, 10000)
    c0, c1 = decode_format212(encode_format212(a, b), 10000)
    assert np.array_equal(c0, a) and np.array_equal(c1, b)
    with pytest.raises(MalformedHeader):
        parse_header("bad 0 360 1000\n")
    with pytest.raises(MalformedHeader):
        parse_header("x 2 360\n")
    with pytest.raises(UnsupportedFormat):
        parse_header("x 1 360 10\nx.dat 16 200 11 1024 0 0 0 s\n")


@_criterion(5, "filter meets 60 Hz / 10 Hz marks; Welch passes Parseval and peak checks")
def test_criterion_05_dsp():
    fs = 360.0
    t = np.arange(0, 30, 1 / fs)
    mid = slice(int(5 * fs), int(25 * fs))

    y60 = bandpass_filter(np.sin(2 * np.pi * 60 * t), fs)
    att_db = 20 * np.log10(np.sqrt(2 * np.mean(y60[mid] ** 2)))
    assert att_db <= -20.0, f"60 Hz attenuation only {att_db:.1f} dB"

    y10 = bandpass_filter(np.sin(2 * np.pi * 10 * t), fs)
    dev_db = abs(20 * np.log10(np.sqrt(2 * np.mean(y10[mid] ** 2))))
    assert dev_db <= 1.0, f"10 Hz deviation {dev_db:.3f} dB"

    rng = np.random.default_rng(105)
    w = rng.normal(0, 1, 8192)
    psd = welch_psd(w, fs, 1024)
    total = band_power(psd, 0.0, fs / 2)
    assert abs(total / np.var(w) - 1.0) < 0.05

    fs_t = 4.0
    tt = np.arange(0, 600, 1 / fs_t)
    psd_sine = welch_psd(np.sin(2 * np.pi * 0.1 * tt), fs_t, 256)
    assert abs(psd_sine.freqs[np.argmax(psd_sine.psd)] - 0.1) <= psd_sine.df


@_criterion(6, "R-peak counts within +-2 at 60/90/120 bpm under mild noise")
def test_criterion_06_r_peaks():
    for rate in (60, 90, 120):
        for noise in (0.0, 0.05):
            rec = synth_ecg(rate, 60.0, noise_std=noise, seed=rate)
            filt = bandpass_filter(rec.channel(0), rec.fs)
            n = detect_r_peaks(filt, rec.fs).size
            assert abs(n - rate) <= 2, f"{rate} bpm noise {noise}: {n} peaks"


@_criterion(7, "path attribution matches subset enumeration to 1e-9 and is locally exact, <30s")
def test_criterion_07_shap_correctness():
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (60, 13))
        y = rng.integers(1, 6, 60)
        y[0], y[1] = 1, 2
        forest = train_forest(
            Dataset(X, y),
            ForestParams(n_trees=1, mtry=13, min_samples_leaf=2, max_depth=4),
            seed=seed,
        )
        tree = forest.trees[0]
        x = rng.normal(0, 1, 13)
        phi_fast, _ = tree_shap(tree, x, 13)
        phi_brute = brute_force_shap(tree, x, 13)
        assert np.abs(phi_fast - phi_brute).max() < 1e-9

    rng = np.random.default_rng(999)
    X = rng.normal(0, 1, (300, 13))
    y = rng.integers(1, 6, 300)
    y[:5] = [1, 2, 3, 4, 5]
    forest = train_forest(Dataset(X, y), ForestParams(n_trees=20, mtry=4), seed=7)
    probes = rng.normal(0, 1, (100, 13))
    proba = predict_proba(forest, probes)
    for i in range(100):
        exp = forest_shap(forest, probes[i])
        assert np.abs(exp.phi0 + exp.phi.sum(axis=0) - proba[i]).max() < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.1f}s over the 30s budget"


@_criterion(8, "held-out accuracy >= 0.85 on rule-labeled windows; retraining byte-identical")
def test_criterion_08_forest(synthetic_dataset, tmp_path):
    train_ds, test_ds = stratified_split(synthetic_dataset, 0.7, seed=2025)
    forest = train_forest(train_ds, ForestParams(), seed=2025)
    report = evaluate(forest, test_ds)
    assert report.accuracy >= 0.85, f"held-out accuracy {report.accuracy:.3f}"

    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_forest(forest, p1)
    save_forest(train_forest(train_ds, ForestParams(), seed=2025), p2)
    assert p1.read_bytes() == p2.read_bytes()


@_criterion(9, "latency bounds, 200 ms tick cadence, trace determinism, 5 s personal response")
def test_criterion_09_simulator(tmp_path):
    rec = synth_ecg(70, 150.0, seed=5)
    cfg, scripted = RunConfig(seed=9), ((0.0, 1), (100.0, 4))
    trace_a = run_simulation([rec], None, cfg, scripted)
    trace_b = run_simulation([rec], None, cfg, scripted)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    export_trace(trace_a, pa)
    export_trace(trace_b, pb)
    assert pa.read_bytes() == pb.read_bytes()

    ticks = [e.at_ms for e in trace_a.of_kind("StrategyTick")]
    assert ticks == list(range(0, ticks[-1] + 1, 200))

    applied = trace_a.of_kind("ActuatorApplied")
    assert applied
    for e in applied:
        lat = e.at_ms - e.payload["issued_at_ms"]
        assert within_paper_bounds(e.payload["scale"], lat), f"{e.payload['scale']} latency {lat} ms"

    personal = [
        e
        for e in applied
        if e.payload["scale"] == "Personal" and e.payload["stress_level"] == 4
    ]
    assert personal, "the 1->4 step must reach a Personal-scale actuator"
    assert all(e.at_ms - e.payload["issued_at_ms"] < 5000 for e in personal)


def _real_data_dir():
    candidates = []
    env = os.environ.get("STRESSTWIN_DATA_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for cand in candidates:
        if (cand / "118.hea").exists():
            return cand
    return None


@_criterion(10, "real-series run: level-1 majority, diagonal dominance, HRV-led attributions, <2min")
def test_criterion_10_real_series_properties(tmp_path):
    data_dir = _real_data_dir()
    if data_dir is None:
        pytest.skip("real noise-stress series not present (set STRESSTWIN_DATA_DIR)")
    start = time.perf_counter()
    cfg = RunConfig(data_dir=str(data_dir), baseline_record="118")
    clean, noisy = load_series(data_dir, "118")
    baseline = compute_baseline(clean, cfg.window_s, cfg.stride_s, cfg.context_s)
    assert min(baseline.sdnn, baseline.bpm, baseline.qtc, baseline.lfhf) > 0
    rows = feature_rows(noisy, clean, baseline, cfg)
    labeled = label_rows(rows)
    dataset = rows_to_dataset(labeled)
    train_ds, test_ds = stratified_split(dataset, 0.7, seed=cfg.seed)
    forest = train_forest(train_ds, ForestParams(), seed=cfg.seed)

    # (a) predicted levels are level-1 majority
    from stresstwin.forest import predict_levels

    pred = predict_levels(forest, dataset.X)
    assert np.mean(pred == 1) > 0.5

    # (b) confusion matrix diagonally dominant
    assert diagonally_dominant(evaluate(forest, test_ds).confusion)

    # (c) top-2 attribution features are the SDNN pair
    summary, _ = shap_summary(forest, test_ds, list(FEATURE_COLUMNS))
    assert sdnn_pair_on_top(summary), f"top-2 was {[row['feature'] for row in summary[:2]]}"

    # (d) every noise feature ranks below every HRV feature
    assert noise_below_hrv(summary)

    assert time.perf_counter() - start < 120.0


@_criterion(11, "synthetic end-to-end pipeline exits 0 with schema-valid artifacts, <30s")
def test_criterion_11_synthetic_end_to_end(tmp_path):
    out = tmp_path / "e2e"
    start = time.perf_counter()
    code = main(["run", "--synthetic", "--out-dir", str(out)])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"

    import csv as _csv

    with open(out / "features.csv", newline="") as fh:
        header = next(_csv.reader(fh))
    assert len(header) == 16

    for name in ("baseline.json", "model.json", "eval_report.json", "ingest_summary.json"):
        json.loads((out / name).read_text())
    for line in (out / "trace.jsonl").read_text().splitlines():
        json.loads(line)
    payload = json.loads((out / "model.json").read_text())
    assert payload["format_version"] == 1
