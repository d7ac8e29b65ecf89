"""Command-line entry point: a load/save layer around the pipeline stages.

Subcommands mirror the stages of ``pipeline``: ingest, baseline, features,
label, train, eval, explain, report, simulate. Each loads its inputs (the
records, and the artifacts that earlier steps wrote to the output
directory), runs one stage and saves what it produced. Every artifact has
one fixed name under the output directory. ``run`` loads the
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
from .errors import InvalidParam, IoError, StressTwinError
from .forest import evaluate, load_forest, save_forest
from .hrv import window_grid
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


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: argparse would otherwise read a prefix such as --out as --out-dir
    parser = argparse.ArgumentParser(
        prog="stresstwin",
        description="ECG stress scoring and environmental intervention simulation",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, (_, help_text) in _COMMANDS.items():
        p = subs[name] = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--data-dir", help=f"record directory (or ${ENV_DATA_DIR})")
        p.add_argument("--out-dir", help=f"artifact directory (or ${ENV_OUT_DIR})")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="run seed")
        p.add_argument("--clean-record", help="name of the clean reference record")
    subs["explain"].add_argument("--svg", action="store_true", help="also emit an SVG bar chart")
    p = subs["simulate"]
    p.add_argument("--records", nargs="*", help="noisy record names (default: all)")
    p.add_argument("--max-duration-s", type=float, help="cap per-record simulated time")
    p.add_argument(
        "--scripted",
        help='scripted levels as JSON, e.g. "[[0,1],[100,4]]" (bypasses features and model)',
    )
    subs["run"].add_argument("--synthetic", action="store_true", help="generate and use synthetic records")
    subs["run"].add_argument("--svg", action="store_true", help="emit the SVG chart too")
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {
        "data_dir": args.data_dir,
        "output_dir": args.out_dir,
        "seed": args.seed,
        "baseline_record": args.clean_record,
        "sim_max_duration_s": args.max_duration_s if args.command == "simulate" else None,
    }
    return load_config(args.config, overrides)


def _artifact(out: Path, name: str) -> Path:
    """Path of an artifact that an earlier step wrote; IoError when it is missing."""
    path = out / name
    if not path.is_file():
        raise IoError(f"{path} not found: run the step that writes {name} first")
    return path


# --- saving: each stage's artifacts and progress line ------------------------


def _save_ingest(summary, out: Path) -> None:
    target = out / "ingest_summary.json"
    target.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"ingest: {len(summary)} records ok -> {target}")


def _save_baseline(baseline, out: Path) -> None:
    target = out / "baseline.json"
    baseline_to_json(baseline, target)
    print(
        f"baseline[{baseline.source_record}]: sdnn={baseline.sdnn:.1f} bpm={baseline.bpm:.1f} "
        f"qtc={baseline.qtc:.1f} lfhf={baseline.lfhf:.2f} -> {target}"
    )


def _save_features(rows, out: Path) -> None:
    target = out / "features.csv"
    write_rows_csv(rows, FEATURE_CSV_COLUMNS, target)
    n_valid = sum(1 for r in rows if r["valid"])
    print(f"features: {len(rows)} windows ({n_valid} valid) -> {target}")


def _save_labeled(labeled, out: Path) -> None:
    target = out / "labeled.csv"
    write_rows_csv(labeled, LABELED_CSV_COLUMNS, target)
    print(f"label: {len(labeled)} rows -> {target}")


def _save_model(forest, train_ds, test_ds, out: Path) -> None:
    model_path = out / "model.json"
    save_forest(forest, model_path)
    split_to_json(train_ds, test_ds, out / "split.json")
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


def _save_report(report_rows, out: Path) -> None:
    target = out / "report.csv"
    write_rows_csv(report_rows, REPORT_CSV_COLUMNS, target)
    n_err = sum(1 for r in report_rows if r["error"])
    print(f"report: {len(report_rows)} windows, {n_err} mismatches -> {target}")


def _save_trace(trace, out: Path) -> None:
    target = out / "trace.jsonl"
    export_trace(trace, target)
    n_cmds = len(trace.of_kind("CommandIssued"))
    print(f"simulate: {len(trace)} events, {n_cmds} commands -> {target}")


# --- subcommands: load, run one stage, save ----------------------------------


def _cmd_ingest(args, cfg: RunConfig, out: Path) -> None:
    clean, noisy = load_series(cfg.data_dir, cfg.baseline_record)
    _save_ingest(ingest_summary([clean] + noisy), out)


def _cmd_baseline(args, cfg: RunConfig, out: Path) -> None:
    clean = load_record(discover_records(cfg.data_dir, cfg.baseline_record)[0])
    _save_baseline(baseline_from_clean(clean, cfg), out)


def _cmd_features(args, cfg: RunConfig, out: Path) -> None:
    baseline = baseline_from_json(_artifact(out, "baseline.json"))
    clean, noisy = load_series(cfg.data_dir, cfg.baseline_record)
    _save_features(feature_rows(noisy, clean, baseline, cfg), out)


def _cmd_label(args, cfg: RunConfig, out: Path) -> None:
    rows = read_rows_csv(_artifact(out, "features.csv"), FEATURE_CSV_COLUMNS)
    _save_labeled(label_rows(rows), out)


def _labeled_dataset(out: Path):
    return rows_to_dataset(read_rows_csv(_artifact(out, "labeled.csv"), LABELED_CSV_COLUMNS))


def _cmd_train(args, cfg: RunConfig, out: Path) -> None:
    _save_model(*train(_labeled_dataset(out), cfg), out)


def _cmd_eval(args, cfg: RunConfig, out: Path) -> None:
    dataset = _labeled_dataset(out)
    forest = load_forest(_artifact(out, "model.json"))
    _, test_ds = split_from_json(dataset, _artifact(out, "split.json"))
    _save_eval(evaluate(forest, test_ds), out)


def _cmd_explain(args, cfg: RunConfig, out: Path) -> None:
    dataset = _labeled_dataset(out)
    forest = load_forest(_artifact(out, "model.json"))
    split_path = out / "split.json"
    split = split_from_json(dataset, split_path) if split_path.exists() else None
    _save_explain(*explain(forest, dataset, split, cfg.shap_on), out, args.svg)


def _cmd_report(args, cfg: RunConfig, out: Path) -> None:
    labeled = read_rows_csv(_artifact(out, "labeled.csv"), LABELED_CSV_COLUMNS)
    forest = load_forest(_artifact(out, "model.json"))
    _save_report(build_report_rows(labeled, forest), out)


def _cmd_simulate(args, cfg: RunConfig, out: Path) -> None:
    # the simulator reads only each record's name, rate and length
    _, noisy_paths = discover_records(cfg.data_dir, cfg.baseline_record)
    unknown = sorted(set(args.records or ()) - {name for name, _ in noisy_paths})
    if unknown:
        raise InvalidParam(f"--records names no noisy record of {cfg.baseline_record}: {', '.join(unknown)}")
    noisy = [load_header(p) for name, p in noisy_paths if not args.records or name in args.records]
    if args.scripted:
        trace = simulate(noisy, None, None, cfg, json.loads(args.scripted))
    else:
        rows = read_rows_csv(_artifact(out, "features.csv"), FEATURE_CSV_COLUMNS)
        forest = load_forest(_artifact(out, "model.json"))
        trace = simulate(noisy, rows, forest, cfg)
    _save_trace(trace, out)


def _cmd_run(args, cfg: RunConfig, out: Path) -> None:
    """Every stage once, in order, on the records loaded once."""
    if args.synthetic:
        cfg.data_dir = str(out / "synthetic_records")
        cfg.baseline_record = SYNTHETIC_CLEAN_RECORD
        make_synthetic_nst(cfg.data_dir, seed=cfg.seed)
        if cfg.sim_max_duration_s is None:
            cfg.sim_max_duration_s = 120.0
    clean, noisy = load_series(cfg.data_dir, cfg.baseline_record)
    for record in [clean] + noisy:  # a bad window grid fails before the first stage writes
        window_grid(record, cfg.window_s, cfg.stride_s, cfg.context_s)
    _save_ingest(ingest_summary([clean] + noisy), out)
    baseline = baseline_from_clean(clean, cfg)
    _save_baseline(baseline, out)
    rows = feature_rows(noisy, clean, baseline, cfg)
    _save_features(rows, out)
    labeled = label_rows(rows)
    _save_labeled(labeled, out)
    dataset = rows_to_dataset(labeled)
    forest, train_ds, test_ds = train(dataset, cfg)
    _save_model(forest, train_ds, test_ds, out)
    _save_eval(evaluate(forest, test_ds), out)
    _save_explain(*explain(forest, dataset, (train_ds, test_ds), cfg.shap_on), out, args.svg)
    _save_report(build_report_rows(labeled, forest), out)
    _save_trace(simulate(noisy, rows, forest, cfg), out)


# name -> (handler, help); the parser's subcommands, in this order
_COMMANDS = {
    "ingest": (_cmd_ingest, "validate records and write a summary"),
    "baseline": (_cmd_baseline, "compute the clean-record baseline profile"),
    "features": (_cmd_features, "extract windowed features to CSV"),
    "label": (_cmd_label, "append stress scores and levels to features"),
    "train": (_cmd_train, "train the forest on labeled windows"),
    "eval": (_cmd_eval, "confusion matrix and metrics on the test split"),
    "explain": (_cmd_explain, "per-feature attribution summary and beeswarm CSV"),
    "simulate": (_cmd_simulate, "run the closed-loop simulator"),
    "report": (_cmd_report, "per-record time series of levels and errors"),
    "run": (_cmd_run, "full pipeline: ingest through simulate"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command][0](args, cfg, out)
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
