"""Command-line entry point: a load/save layer around the pipeline stages.

Subcommands mirror the stages of ``pipeline``: ingest, baseline, features,
label, train, eval, explain, report, simulate. Each loads its inputs (the
records, and the artifacts that earlier steps wrote to the output
directory), runs one stage and saves what it produced. ``run`` loads the
records once and runs every stage in memory, saving each stage's artifacts
as soon as it ends (optionally over a generated synthetic dataset, so
nothing depends on having the real recordings on disk).

Exit codes: 0 success, 1 internal error, 2 usage error, 3 data error.
"""

import argparse
import json
import sys
import traceback
from pathlib import Path

from .config import ENV_DATA_DIR, ENV_OUT_DIR, RunConfig, load_config
from .errors import IoError, StressTwinError
from .forest import evaluate, load_forest, save_forest
from .ingest import load_header, load_record
from .pipeline import (
    FEATURE_CSV_COLUMNS,
    LABELED_CSV_COLUMNS,
    REPORT_CSV_COLUMNS,
    SHAP_BEESWARM_COLUMNS,
    SHAP_SUMMARY_COLUMNS,
    baseline_from_clean,
    baseline_from_json,
    baseline_to_json,
    build_report_rows,
    discover_records,
    explain,
    feature_rows,
    ingest_summary,
    label_rows,
    load_series,
    read_rows_csv,
    rows_to_dataset,
    simulate,
    split_from_json,
    split_to_json,
    svg_bar_chart,
    train,
    write_confusion_csv,
    write_rows_csv,
)
from .simulator import export_trace
from .synth import SYNTHETIC_CLEAN_RECORD, make_synthetic_nst

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data-dir", help=f"record directory (or ${ENV_DATA_DIR})")
    parser.add_argument("--out-dir", help=f"artifact directory (or ${ENV_OUT_DIR})")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--clean-record", help="name of the clean reference record")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stresstwin",
        description="ECG stress scoring and environmental intervention simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate records and write a summary")
    _add_common(p)

    p = sub.add_parser("baseline", help="compute the clean-record baseline profile")
    _add_common(p)
    p.add_argument("--out", help="baseline JSON path")

    p = sub.add_parser("features", help="extract windowed features to CSV")
    _add_common(p)
    p.add_argument("--baseline", help="baseline JSON path")
    p.add_argument("--out", help="features CSV path")

    p = sub.add_parser("label", help="append stress scores and levels to features")
    _add_common(p)
    p.add_argument("--features", help="features CSV path")
    p.add_argument("--baseline", help="baseline JSON path")
    p.add_argument("--out", help="labeled CSV path")

    p = sub.add_parser("train", help="train the forest on labeled windows")
    _add_common(p)
    p.add_argument("--labeled", help="labeled CSV path")
    p.add_argument("--model", help="model JSON output path")
    p.add_argument("--split", help="split JSON output path")

    p = sub.add_parser("eval", help="confusion matrix and metrics on the test split")
    _add_common(p)
    p.add_argument("--labeled", help="labeled CSV path")
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--split", help="split JSON path")

    p = sub.add_parser("explain", help="per-feature attribution summary and beeswarm CSV")
    _add_common(p)
    p.add_argument("--labeled", help="labeled CSV path")
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--split", help="split JSON path")
    p.add_argument("--svg", action="store_true", help="also emit an SVG bar chart")

    p = sub.add_parser("simulate", help="run the closed-loop simulator")
    _add_common(p)
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--out", help="trace JSONL path")
    p.add_argument("--records", nargs="*", help="noisy record names (default: all)")
    p.add_argument("--max-duration-s", type=float, help="cap per-record simulated time")
    p.add_argument(
        "--scripted",
        help='scripted levels as JSON, e.g. "[[0,1],[100,4]]" (bypasses features and model)',
    )

    p = sub.add_parser("report", help="per-record time series of levels and errors")
    _add_common(p)
    p.add_argument("--labeled", help="labeled CSV path")
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--out", help="report CSV path")

    p = sub.add_parser("run", help="full pipeline: ingest through simulate")
    _add_common(p)
    p.add_argument("--synthetic", action="store_true", help="generate and use synthetic records")
    p.add_argument("--svg", action="store_true", help="emit the SVG chart too")

    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {
        "data_dir": getattr(args, "data_dir", None),
        "output_dir": getattr(args, "out_dir", None),
        "seed": getattr(args, "seed", None),
        "baseline_record": getattr(args, "clean_record", None),
    }
    return load_config(getattr(args, "config", None), overrides)


def _output(given, out: Path, name: str) -> Path:
    return Path(given) if given else out / name


def _artifact(given, out: Path, name: str) -> Path:
    """Path of an artifact that an earlier step wrote; IoError when it is missing."""
    path = _output(given, out, name)
    if not path.is_file():
        raise IoError(f"{path} not found: run the step that writes {name} first")
    return path


# --- saving: each stage's artifacts and progress line ------------------------


def _save_ingest(summary, out: Path) -> None:
    target = out / "ingest_summary.json"
    target.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"ingest: {len(summary)} records ok -> {target}")


def _save_baseline(baseline, target: Path) -> None:
    baseline_to_json(baseline, target)
    print(
        f"baseline[{baseline.source_record}]: sdnn={baseline.sdnn:.1f} bpm={baseline.bpm:.1f} "
        f"qtc={baseline.qtc:.1f} lfhf={baseline.lfhf:.2f} -> {target}"
    )


def _save_features(rows, target: Path) -> None:
    write_rows_csv(rows, FEATURE_CSV_COLUMNS, target)
    n_valid = sum(1 for r in rows if r["valid"])
    print(f"features: {len(rows)} windows ({n_valid} valid) -> {target}")


def _save_labeled(labeled, target: Path) -> None:
    write_rows_csv(labeled, LABELED_CSV_COLUMNS, target)
    print(f"label: {len(labeled)} rows -> {target}")


def _save_model(forest, train_ds, test_ds, model_path: Path, split_path: Path) -> None:
    save_forest(forest, model_path)
    split_to_json(train_ds, test_ds, split_path)
    print(
        f"train: {len(train_ds)} train / {len(test_ds)} test windows, "
        f"{len(forest.trees)} trees -> {model_path}"
    )


def _save_eval(report, out: Path) -> None:
    (out / "eval_report.json").write_text(
        json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    )
    write_confusion_csv(report.confusion, out / "confusion_matrix.csv")
    print(f"eval: accuracy={report.accuracy:.4f} on {report.confusion.sum()} held-out windows")


def _save_explain(explained, summary, beeswarm, out: Path, svg: bool) -> None:
    write_rows_csv(summary, SHAP_SUMMARY_COLUMNS, out / "shap_summary.csv")
    write_rows_csv(beeswarm, SHAP_BEESWARM_COLUMNS, out / "shap_beeswarm.csv")
    if svg:
        svg_bar_chart(summary, out / "shap_summary.svg")
    top = ", ".join(r["feature"] for r in summary[:2])
    print(f"explain: {len(explained)} samples, top features: {top}")


def _save_report(report_rows, target: Path) -> None:
    write_rows_csv(report_rows, REPORT_CSV_COLUMNS, target)
    n_err = sum(1 for r in report_rows if r["error"])
    print(f"report: {len(report_rows)} windows, {n_err} mismatches -> {target}")


def _save_trace(trace, target: Path) -> None:
    export_trace(trace, target)
    n_cmds = len(trace.of_kind("CommandIssued"))
    print(f"simulate: {len(trace)} events, {n_cmds} commands -> {target}")


# --- subcommands: load, run one stage, save ----------------------------------


def _cmd_ingest(args, cfg: RunConfig, out: Path) -> None:
    clean, noisy = load_series(cfg.data_dir, cfg.baseline_record)
    _save_ingest(ingest_summary([clean] + noisy), out)


def _cmd_baseline(args, cfg: RunConfig, out: Path) -> None:
    clean = load_record(discover_records(cfg.data_dir, cfg.baseline_record)[0])
    _save_baseline(baseline_from_clean(clean, cfg), _output(args.out, out, "baseline.json"))


def _cmd_features(args, cfg: RunConfig, out: Path) -> None:
    baseline = baseline_from_json(_artifact(args.baseline, out, "baseline.json"))
    clean, noisy = load_series(cfg.data_dir, cfg.baseline_record)
    rows = feature_rows(noisy, clean, baseline, cfg)
    _save_features(rows, _output(args.out, out, "features.csv"))


def _cmd_label(args, cfg: RunConfig, out: Path) -> None:
    rows = read_rows_csv(_artifact(args.features, out, "features.csv"))
    baseline = baseline_from_json(_artifact(args.baseline, out, "baseline.json"))
    _save_labeled(label_rows(rows, baseline, cfg.eps), _output(args.out, out, "labeled.csv"))


def _cmd_train(args, cfg: RunConfig, out: Path) -> None:
    dataset = rows_to_dataset(read_rows_csv(_artifact(args.labeled, out, "labeled.csv")))
    forest, train_ds, test_ds = train(dataset, cfg)
    model_path = _output(args.model, out, "model.json")
    _save_model(forest, train_ds, test_ds, model_path, _output(args.split, out, "split.json"))


def _cmd_eval(args, cfg: RunConfig, out: Path) -> None:
    dataset = rows_to_dataset(read_rows_csv(_artifact(args.labeled, out, "labeled.csv")))
    forest = load_forest(_artifact(args.model, out, "model.json"))
    _, test_ds = split_from_json(dataset, _artifact(args.split, out, "split.json"))
    _save_eval(evaluate(forest, test_ds), out)


def _cmd_explain(args, cfg: RunConfig, out: Path) -> None:
    dataset = rows_to_dataset(read_rows_csv(_artifact(args.labeled, out, "labeled.csv")))
    forest = load_forest(_artifact(args.model, out, "model.json"))
    split_path = _output(args.split, out, "split.json")
    split = split_from_json(dataset, split_path) if split_path.exists() else None
    _save_explain(*explain(forest, dataset, split, cfg.shap_on), out, args.svg)


def _cmd_report(args, cfg: RunConfig, out: Path) -> None:
    labeled = read_rows_csv(_artifact(args.labeled, out, "labeled.csv"))
    forest = load_forest(_artifact(args.model, out, "model.json"))
    _save_report(build_report_rows(labeled, forest), _output(args.out, out, "report.csv"))


def _cmd_simulate(args, cfg: RunConfig, out: Path) -> None:
    # the simulator reads only each record's name, rate and length
    _, noisy_paths = discover_records(cfg.data_dir, cfg.baseline_record)
    noisy = [load_header(p) for name, p in noisy_paths if not args.records or name in args.records]
    if args.max_duration_s is not None:
        cfg.sim_max_duration_s = args.max_duration_s
        cfg.validate()
    if args.scripted:
        scripted = tuple((float(t), int(lvl)) for t, lvl in json.loads(args.scripted))
        trace = simulate(noisy, None, None, cfg, scripted)
    else:
        rows = read_rows_csv(_artifact(None, out, "features.csv"))
        forest = load_forest(_artifact(args.model, out, "model.json"))
        trace = simulate(noisy, rows, forest, cfg)
    _save_trace(trace, _output(args.out, out, "trace.jsonl"))


def _cmd_run(args, cfg: RunConfig, out: Path) -> None:
    """Every stage once, in order, on the records loaded once."""
    if args.synthetic:
        cfg.data_dir = str(out / "synthetic_records")
        cfg.baseline_record = SYNTHETIC_CLEAN_RECORD
        make_synthetic_nst(cfg.data_dir, seed=cfg.seed)
        if cfg.sim_max_duration_s is None:
            cfg.sim_max_duration_s = 120.0
    clean, noisy = load_series(cfg.data_dir, cfg.baseline_record)
    _save_ingest(ingest_summary([clean] + noisy), out)
    baseline = baseline_from_clean(clean, cfg)
    _save_baseline(baseline, out / "baseline.json")
    rows = feature_rows(noisy, clean, baseline, cfg)
    _save_features(rows, out / "features.csv")
    labeled = label_rows(rows, baseline, cfg.eps)
    _save_labeled(labeled, out / "labeled.csv")
    dataset = rows_to_dataset(labeled)
    forest, train_ds, test_ds = train(dataset, cfg)
    _save_model(forest, train_ds, test_ds, out / "model.json", out / "split.json")
    _save_eval(evaluate(forest, test_ds), out)
    _save_explain(*explain(forest, dataset, (train_ds, test_ds), cfg.shap_on), out, args.svg)
    _save_report(build_report_rows(labeled, forest), out / "report.csv")
    _save_trace(simulate(noisy, rows, forest, cfg), out / "trace.jsonl")


_COMMANDS = {
    "ingest": _cmd_ingest,
    "baseline": _cmd_baseline,
    "features": _cmd_features,
    "label": _cmd_label,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "explain": _cmd_explain,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](args, cfg, out)
        return EXIT_OK
    except StressTwinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
