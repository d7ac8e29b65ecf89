"""Pipeline stages as functions over in-memory values, plus their artifact I/O.

Stage order: ``load_series``, ``baseline_from_clean``, ``feature_rows``,
``label_rows``, ``train``, ``forest.evaluate``, ``explain``,
``build_report_rows``, ``simulate``.
"""

import csv
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import InvalidParam
from .fanout import fork_map
from .forest import (
    Dataset,
    ForestParams,
    predict_levels,
    record_level_split,
    stratified_split,
    train_forest,
)
from .hrv import (
    FEATURE_COLUMNS,
    BaselineProfile,
    compute_baseline,
    extract_window_features,
    iter_window_segments,
)
from .ingest import load_record, snr_from_name
from .shapley import shap_summary
from .simulator import SimulatorConfig, run_simulation, window_key
from .stress import assess

FEATURE_CSV_COLUMNS = FEATURE_COLUMNS + ("window_start", "record_name", "valid")
LABELED_CSV_COLUMNS = FEATURE_CSV_COLUMNS + ("stress_score", "rule_level", "score_level")
REPORT_CSV_COLUMNS = (
    "record_name",
    "window_start",
    "ecg_bpm",
    "ecg_sdnn",
    "true_level",
    "predicted_level",
    "error",
    "valid",
)
SHAP_SUMMARY_COLUMNS = ("feature", "total_mean_abs_phi") + tuple(f"class_{c}" for c in range(1, 6))
SHAP_BEESWARM_COLUMNS = ("feature", "sample_index", "phi", "feature_value", "predicted_class")


def discover_records(data_dir, clean_name: str):
    """(clean header path, sorted noisy (name, path) list) for one NST series."""
    data_dir = Path(data_dir)
    clean_path = data_dir / f"{clean_name}.hea"
    if not clean_path.exists():
        raise InvalidParam(f"clean record {clean_name!r} not found in {data_dir}")
    noisy = []
    for hea in sorted(data_dir.glob(f"{clean_name}*.hea")):
        name = hea.stem
        if name == clean_name:
            continue
        if snr_from_name(name) is not None:
            noisy.append((name, hea))
    return clean_path, noisy


def load_series(data_dir, clean_name: str):
    clean_path, noisy_paths = discover_records(data_dir, clean_name)
    clean = load_record(clean_path)
    noisy = [load_record(p) for _, p in noisy_paths]
    return clean, noisy


def ingest_summary(records) -> list:
    """One entry per loaded record: name, rate, channels, length, duration, SNR."""
    return [
        {
            "record": rec.record_name,
            "fs": rec.fs,
            "n_channels": len(rec.channels),
            "n_samples": int(rec.channel(0).size),
            "duration_s": rec.duration_s,
            "snr_db": rec.snr_db,
        }
        for rec in records
    ]


def baseline_from_clean(clean, cfg) -> BaselineProfile:
    return compute_baseline(clean, cfg.window_s, cfg.stride_s, cfg.context_s)


def _record_windows(noisy, clean, cfg) -> list:
    """(noisy, clean, window start, context segment) for each window of one record."""
    if noisy.channel(0).size != clean.channel(0).size or noisy.fs != clean.fs:
        raise InvalidParam(
            f"record {noisy.record_name} is not aligned with clean {clean.record_name}"
        )
    return [
        (noisy, clean, start_s, seg)
        for start_s, seg in iter_window_segments(noisy, cfg.window_s, cfg.stride_s, cfg.context_s)
    ]


def _window_row(window, baseline: BaselineProfile, cfg) -> dict:
    """One feature row (a dict keyed by FEATURE_CSV_COLUMNS)."""
    noisy, clean, start_s, seg = window
    feats = extract_window_features(
        noisy.channel(0)[seg],
        clean.channel(0)[seg],
        baseline,
        noisy.fs,
        window_s=cfg.window_s,
        window_start=start_s,
        eps=cfg.eps,
    )
    row = {col: getattr(feats, col) for col in FEATURE_COLUMNS}
    row["window_start"] = start_s
    row["record_name"] = noisy.record_name
    row["valid"] = feats.valid
    return row


def extract_record_rows(noisy, clean, baseline: BaselineProfile, cfg) -> list:
    """Windowed feature rows of one record, in-process."""
    return [_window_row(w, baseline, cfg) for w in _record_windows(noisy, clean, cfg)]


def feature_rows(noisy_records, clean, baseline: BaselineProfile, cfg) -> list:
    """Feature rows of every noisy record, against a baseline of ``clean``.

    The windows of all the records are analysed together on forked workers
    (``fanout.fork_map``); the rows come back in record and window order.
    """
    if baseline.source_record != clean.record_name:
        raise InvalidParam(
            f"baseline was computed from record {baseline.source_record!r}, "
            f"not from the clean record {clean.record_name!r}"
        )
    windows = [w for rec in noisy_records for w in _record_windows(rec, clean, cfg)]
    return fork_map(lambda window: _window_row(window, baseline, cfg), windows)


def label_rows(rows, baseline: BaselineProfile, eps: float) -> list:
    """Append stress_score / rule_level / score_level to valid feature rows."""
    out = []
    for row in rows:
        row = dict(row)
        if row["valid"]:
            result = assess(SimpleNamespace(**row), baseline, eps)
            row["stress_score"] = result.score
            row["rule_level"] = result.rule_level.level
            row["score_level"] = result.score_level.level
        else:
            row["stress_score"] = None
            row["rule_level"] = None
            row["score_level"] = None
        out.append(row)
    return out


def train(dataset: Dataset, cfg):
    """(forest, train set, test set): split the labeled windows, fit on the train part."""
    if cfg.split_unit == "record":
        train_ds, test_ds = record_level_split(dataset, cfg.train_fraction, cfg.seed)
    else:
        train_ds, test_ds = stratified_split(dataset, cfg.train_fraction, cfg.seed)
    params = ForestParams(
        n_trees=cfg.n_trees,
        mtry=cfg.mtry,
        min_samples_leaf=cfg.min_samples_leaf,
        max_depth=cfg.max_depth,
    )
    return train_forest(train_ds, params, cfg.seed), train_ds, test_ds


def explain(forest, dataset: Dataset, split, shap_on: str):
    """(explained set, summary rows, beeswarm rows) of exact SHAP values.

    ``shap_on`` picks a part of the (train, test) ``split``; with "all" or
    no split, every labeled window is explained.
    """
    if shap_on != "all" and split is not None:
        dataset = split[0] if shap_on == "train" else split[1]
    summary, beeswarm = shap_summary(forest, dataset, list(FEATURE_COLUMNS))
    return dataset, summary, beeswarm


def predicted_levels(rows, forest) -> list:
    """The forest's level for each row, None for an invalid row; one batch predict."""
    levels = [None] * len(rows)
    valid = [i for i, row in enumerate(rows) if row["valid"]]
    if valid:
        X = np.asarray([[rows[i][c] for c in FEATURE_COLUMNS] for i in valid])
        for i, level in zip(valid, predict_levels(forest, X)):
            levels[i] = int(level)
    return levels


def window_levels(rows, forest, records) -> dict:
    """``window_key`` -> predicted level (None: invalid) for the rows of ``records``."""
    by_name = {rec.record_name: rec for rec in records}
    rows = [r for r in rows if r["record_name"] in by_name]
    keys = [window_key(by_name[r["record_name"]], r["window_start"]) for r in rows]
    return dict(zip(keys, predicted_levels(rows, forest)))


def simulate(noisy_records, rows, forest, cfg, scripted=None):
    """Closed-loop trace; window levels are predicted from the feature rows unless scripted.

    The simulator reads each record's ``record_name``, ``fs`` and
    ``n_samples`` only, so ``noisy_records`` may be ``RecordHeader``s.
    """
    sim_cfg = SimulatorConfig(
        window_s=cfg.window_s,
        stride_s=cfg.stride_s,
        tick_ms=cfg.tick_ms,
        dwell_windows=cfg.dwell_windows,
        chunk_s=cfg.chunk_s,
        scripted_levels=scripted,
        max_duration_s=cfg.sim_max_duration_s,
        latency_table=cfg.sim_latency_table,
    )
    levels = None if scripted is not None else window_levels(rows, forest, noisy_records)
    return run_simulation(noisy_records, levels, sim_cfg, cfg.seed)


def rows_to_dataset(rows) -> Dataset:
    """Valid labeled rows as a training dataset keyed by (record, window start)."""
    X, y, keys = [], [], []
    for row in rows:
        if not row["valid"] or row.get("rule_level") is None:
            continue
        X.append([row[c] for c in FEATURE_COLUMNS])
        y.append(int(row["rule_level"]))
        keys.append((row["record_name"], float(row["window_start"])))
    if not X:
        return Dataset(np.empty((0, len(FEATURE_COLUMNS))), np.empty(0, dtype=np.int64), [])
    return Dataset(np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64), keys)


# --- CSV I/O ------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(rows, columns, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])


def read_rows_csv(path) -> list:
    """Read a feature/labeled CSV back into typed row dicts."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = {}
            for key, value in raw.items():
                row[key] = _parse_cell(key, value)
            rows.append(row)
    return rows


def _parse_cell(key, value):
    if value == "" or value is None:
        return None
    if key == "valid":
        return value.lower() == "true"
    if key == "record_name":
        return value
    if key in ("rule_level", "score_level", "true_level", "predicted_level", "error"):
        return int(float(value))
    try:
        return float(value)
    except ValueError:
        return value


# --- baseline / split / report artifacts ---------------------------------------


def baseline_to_json(baseline: BaselineProfile, path) -> None:
    payload = {
        "sdnn": baseline.sdnn,
        "bpm": baseline.bpm,
        "qtc": baseline.qtc,
        "lfhf": baseline.lfhf,
        "source_record": baseline.source_record,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def baseline_from_json(path) -> BaselineProfile:
    payload = json.loads(Path(path).read_text())
    return BaselineProfile(
        sdnn=float(payload["sdnn"]),
        bpm=float(payload["bpm"]),
        qtc=float(payload["qtc"]),
        lfhf=float(payload["lfhf"]),
        source_record=str(payload["source_record"]),
    )


def split_to_json(train: Dataset, test: Dataset, path) -> None:
    payload = {
        "train_keys": [[k[0], k[1]] for k in (train.keys or [])],
        "test_keys": [[k[0], k[1]] for k in (test.keys or [])],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def split_from_json(dataset: Dataset, path):
    payload = json.loads(Path(path).read_text())
    index = {key: i for i, key in enumerate(dataset.keys)}
    try:
        train_idx = [index[(k[0], float(k[1]))] for k in payload["train_keys"]]
        test_idx = [index[(k[0], float(k[1]))] for k in payload["test_keys"]]
    except KeyError as exc:
        raise InvalidParam(f"{path} names window {exc.args[0]} that no labeled row holds") from exc
    return dataset.subset(train_idx), dataset.subset(test_idx)


def write_confusion_csv(confusion, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\predicted"] + [f"level_{c}" for c in range(1, 6)])
        for i, row in enumerate(confusion, start=1):
            writer.writerow([f"level_{i}"] + [int(v) for v in row])


def build_report_rows(labeled_rows, forest) -> list:
    """Per-window time series of BPM/SDNN with true vs predicted level."""
    out = []
    ordered = sorted(labeled_rows, key=lambda r: (r["record_name"], float(r["window_start"])))
    for row, pred_level in zip(ordered, predicted_levels(ordered, forest)):
        true_level = row.get("rule_level")
        error = None
        if pred_level is not None and true_level is not None:
            error = int(pred_level != true_level)
        out.append(
            {
                "record_name": row["record_name"],
                "window_start": row["window_start"],
                "ecg_bpm": row["ecg_bpm"] if row["valid"] else None,
                "ecg_sdnn": row["ecg_sdnn"] if row["valid"] else None,
                "true_level": true_level,
                "predicted_level": pred_level,
                "error": error,
                "valid": row["valid"],
            }
        )
    return out


# --- tiny SVG bar chart ---------------------------------------------------------


def svg_bar_chart(summary_rows, path, title: str = "Mean |phi| by feature") -> None:
    """Minimal standalone SVG: one bar per feature, longest on top."""
    width, bar_h, pad = 640, 22, 140
    height = bar_h * len(summary_rows) + 60
    max_total = max((r["total_mean_abs_phi"] for r in summary_rows), default=1.0) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="10" y="20" font-family="monospace" font-size="14">{title}</text>',
    ]
    for i, row in enumerate(summary_rows):
        y = 40 + i * bar_h
        w = (width - pad - 20) * row["total_mean_abs_phi"] / max_total
        parts.append(
            f'<text x="10" y="{y + 14}" font-family="monospace" font-size="11">{row["feature"]}</text>'
        )
        parts.append(
            f'<rect x="{pad}" y="{y}" width="{w:.1f}" height="{bar_h - 6}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{pad + w + 4:.1f}" y="{y + 14}" font-family="monospace" font-size="10">'
            f'{row["total_mean_abs_phi"]:.4g}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
