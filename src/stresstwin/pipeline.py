"""Pipeline stages as functions over in-memory values, plus their artifact I/O.

Stage order: ``load_series``, ``baseline_from_clean``, ``feature_rows``,
``label_rows``, ``train``, ``forest.evaluate``, ``explain``,
``build_report_rows``, ``simulate``.

A window's feature row is made once, in ``hrv``, its deviations from the
baseline in its ``rel_*`` columns; ``feature_rows`` adds the record name.
Later stages read the row as it stands: ``label_rows`` needs nothing else,
and ``feature_matrix`` makes the forest's input from rows. ``read_rows_csv`` reads
them back through one cell table, ``_CELLS``: each column's parser, the cells the
writer produces, and whether every row or only a valid row needs a value.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

from .config import _is_real
from .errors import InvalidParam
from .fanout import fork_map
from .forest import (
    CLASSES,
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
    window_grid,
)
from .ingest import load_record, snr_from_name
from .shapley import shap_summary
from .simulator import run_simulation
from .stress import assess

FEATURE_CSV_COLUMNS = FEATURE_COLUMNS + ("window_start", "record_name", "valid")
LABEL_COLUMNS = ("stress_score", "rule_level", "score_level")
LABELED_CSV_COLUMNS = FEATURE_CSV_COLUMNS + LABEL_COLUMNS
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
            "n_channels": rec.n_channels,
            "n_samples": int(rec.channel(0).size),
            "duration_s": rec.duration_s,
            "snr_db": rec.snr_db,
        }
        for rec in records
    ]


def baseline_from_clean(clean, cfg) -> BaselineProfile:
    return compute_baseline(clean, cfg.window_s, cfg.stride_s, cfg.context_s)


def _window_row(window, baseline: BaselineProfile, cfg) -> dict:
    """One feature row (a dict keyed by FEATURE_CSV_COLUMNS)."""
    noisy, clean, start_s, seg = window
    row = extract_window_features(
        noisy.channel(0)[seg],
        clean.channel(0)[seg],
        baseline,
        noisy.fs,
        window_s=cfg.window_s,
        window_start=start_s,
        eps=cfg.eps,
    ).as_row()
    row["record_name"] = noisy.record_name
    return row


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
    windows = []
    for rec in noisy_records:
        if rec.channel(0).size != clean.channel(0).size or rec.fs != clean.fs:
            raise InvalidParam(f"record {rec.record_name} is not aligned with clean {clean.record_name}")
        grid = window_grid(rec, cfg.window_s, cfg.stride_s, cfg.context_s)
        windows += [(rec, clean, start_s, seg) for start_s, seg in grid]
    return fork_map(lambda window: _window_row(window, baseline, cfg), windows)


def label_rows(rows) -> list:
    """Each feature row, copied, with its ``LABEL_COLUMNS``: ``assess``'s values, None when invalid."""
    out = []
    for row in rows:
        labels = assess(row) if row["valid"] else (None, None, None)
        out.append({**row, **dict(zip(LABEL_COLUMNS, labels))})
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
        X = feature_matrix([rows[i] for i in valid])
        for i, level in zip(valid, predict_levels(forest, X)):
            levels[i] = int(level)
    return levels


def window_levels(rows, forest, records) -> dict:
    """(record name, window start) -> predicted level (None: invalid) for the rows of ``records``."""
    names = {rec.record_name for rec in records}
    rows = [r for r in rows if r["record_name"] in names]
    keys = [(r["record_name"], r["window_start"]) for r in rows]
    return dict(zip(keys, predicted_levels(rows, forest)))


def simulate(noisy_records, rows, forest, cfg, scripted=None):
    """Closed-loop trace; window levels are predicted from the feature rows unless scripted.

    The simulator reads each record's ``record_name``, ``fs`` and
    ``n_samples`` only, so ``noisy_records`` may be ``RecordHeader``s.
    """
    levels = None if scripted is not None else window_levels(rows, forest, noisy_records)
    return run_simulation(noisy_records, levels, cfg, scripted)


def feature_matrix(rows) -> np.ndarray:
    """The ``FEATURE_COLUMNS`` of each row, as one float64 row of a matrix per row."""
    X = np.array([[row[c] for c in FEATURE_COLUMNS] for row in rows], dtype=np.float64)
    return X.reshape(len(rows), len(FEATURE_COLUMNS))


def rows_to_dataset(rows) -> Dataset:
    """Valid labeled rows as a training dataset keyed by (record, window start)."""
    rows = [row for row in rows if row["valid"]]
    keys = [(row["record_name"], row["window_start"]) for row in rows]
    return Dataset(feature_matrix(rows), [row["rule_level"] for row in rows], keys)


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


def _checked(convert, accept=math.isfinite):
    """A cell parser: ``convert`` the cell, then ValueError unless ``accept`` holds for the value."""
    def parse(cell):
        if accept(value := convert(cell)):
            return value
        raise ValueError(cell)
    return parse


# The cell table, one entry per column of LABELED_CSV_COLUMNS: (the parser of a cell the writer
# writes, raising KeyError or ValueError on any other cell; the blank cells an invalid row may
# hold instead, with their values, none where every row needs a value; the error message).
_ROW = "row {n}'s {column} is {cell!r}, not "
_FEATURE = "row {n} is {state} but its {column} is {cell!r}, not a finite number"
_LEVEL = ({str(c): c for c in CLASSES}.__getitem__, {"": None}, _ROW + "a level 1 to 5 (empty only in an invalid row)")
_CELLS = {
    **{c: (_checked(float), {"nan": math.nan}, _FEATURE) for c in FEATURE_COLUMNS},
    **{c: (_checked(float, lambda v: 0.0 <= v < math.inf), {"nan": math.nan}, _FEATURE + " >= 0")
       for c in FEATURE_COLUMNS if c.startswith("ecg_")},
    "window_start": (_checked(float), {}, _ROW + "a finite number"),
    "record_name": (_checked(str, bool), {}, _ROW + "a record name"),
    "valid": ({"true": True, "false": False}.__getitem__, {}, _ROW + "true or false"),
    "stress_score": (_checked(float, lambda v: 0.0 <= v <= 1.0), {"": None}, _ROW + "a number from 0 to 1"),
    "rule_level": _LEVEL,
    "score_level": _LEVEL,
}


def read_rows_csv(path, columns) -> list:
    """Read a feature/labeled CSV back into typed row dicts, each cell checked by ``_CELLS``.

    InvalidParam when the header lacks one of ``columns`` or names a column twice, when a
    row's cell count differs from the header's, a cell is not one the writer produces for
    its column, or a row repeats an earlier row's (record_name, window_start) window.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for column in columns:
            if column not in header:
                raise InvalidParam(f"{path}: the header has no {column} column")
        for column in header:
            if header.count(column) > 1:
                raise InvalidParam(f"{path}: the header names {column} twice")
        # `valid` first: a row's validity decides which of its cells may be blank
        checks = [(c, header.index(c), *_CELLS[c]) for c in sorted(columns, key=lambda c: c != "valid")]
        rows, seen = [], {}
        for number, cells in enumerate(reader, start=1):
            if len(cells) != len(header):
                raise InvalidParam(f"{path}: row {number} has {len(cells)} cells, the header {len(header)}")
            row = {}
            for column, index, parse, blanks, message in checks:
                cell = cells[index]
                try:
                    row[column] = blanks[cell] if cell in blanks and not row["valid"] else parse(cell)
                except (KeyError, ValueError):
                    state = "valid" if row.get("valid") else "invalid"
                    detail = message.format(n=number, column=column, cell=cell, state=state)
                    raise InvalidParam(f"{path}: {detail}") from None
            key = (row["record_name"], row["window_start"])
            if key in seen:
                raise InvalidParam(f"{path}: row {number}'s record_name and window_start {key} repeat row {seen[key]}'s")
            seen[key] = number
            rows.append(row)
    return rows


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
    """InvalidParam unless the four values are positive finite numbers and source_record a string."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise InvalidParam(f"{path} holds no JSON object")
    for key in ("sdnn", "bpm", "qtc", "lfhf"):
        if not (_is_real(payload.get(key)) and payload[key] > 0):
            raise InvalidParam(f"{path}: {key} is {payload.get(key)!r}, not a positive finite number")
    if not isinstance(payload.get("source_record"), str):
        raise InvalidParam(f"{path}: source_record is {payload.get('source_record')!r}, not a string")
    return BaselineProfile(
        sdnn=float(payload["sdnn"]),
        bpm=float(payload["bpm"]),
        qtc=float(payload["qtc"]),
        lfhf=float(payload["lfhf"]),
        source_record=payload["source_record"],
    )


def split_to_json(train: Dataset, test: Dataset, path) -> None:
    payload = {
        "train_keys": [[k[0], k[1]] for k in (train.keys or [])],
        "test_keys": [[k[0], k[1]] for k in (test.keys or [])],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def split_from_json(dataset: Dataset, path):
    """(train, test) subsets of ``dataset`` named by a split.json.

    InvalidParam when it is malformed, names a window no labeled row holds,
    or names a window twice, within one part or in both: a test window that
    is also a train window would score the model on its own training data.
    """
    payload = json.loads(Path(path).read_text())
    index = {key: i for i, key in enumerate(dataset.keys)}
    seen = {}
    parts = []
    for part in ("train_keys", "test_keys"):
        keys = payload.get(part) if isinstance(payload, dict) else None
        if not isinstance(keys, list):
            raise InvalidParam(f"{path}: {part} is {keys!r}, not a list of [record, window start] keys")
        indices = []
        for key in keys:
            if not (isinstance(key, list) and len(key) == 2 and isinstance(key[0], str) and _is_real(key[1])):
                raise InvalidParam(f"{path}: {part} holds {key!r}, not a [record, window start] key")
            key = (key[0], float(key[1]))
            if key not in index:
                raise InvalidParam(f"{path} names window {key} that no labeled row holds")
            if key in seen:
                where = f"twice in {part}" if seen[key] == part else f"in both {seen[key]} and {part}"
                raise InvalidParam(f"{path} names window {key} {where}")
            seen[key] = part
            indices.append(index[key])
        parts.append(dataset.subset(indices))
    return tuple(parts)


def write_confusion_csv(confusion, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\predicted"] + [f"level_{c}" for c in range(1, 6)])
        for i, row in enumerate(confusion, start=1):
            writer.writerow([f"level_{i}"] + [int(v) for v in row])


def build_report_rows(labeled_rows, forest) -> list:
    """Per-window time series of BPM/SDNN with true vs predicted level."""
    out = []
    ordered = sorted(labeled_rows, key=lambda r: (r["record_name"], r["window_start"]))
    for row, pred_level in zip(ordered, predicted_levels(ordered, forest)):
        error = None if pred_level is None else int(pred_level != row["rule_level"])
        out.append(
            {
                "record_name": row["record_name"],
                "window_start": row["window_start"],
                "ecg_bpm": row["ecg_bpm"] if row["valid"] else None,
                "ecg_sdnn": row["ecg_sdnn"] if row["valid"] else None,
                "true_level": row["rule_level"],
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
