import argparse
import csv
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from stresstwin import cli
from stresstwin.cli import EXIT_DATA, EXIT_OK, main
from stresstwin.config import RunConfig
from stresstwin.forest import load_forest, predict_proba
from stresstwin.hrv import window_grid
from stresstwin.ingest import decode_format212, encode_format212, load_record
from stresstwin.synth import synth_ecg, write_wfdb212
from stresstwin.pipeline import (
    FEATURE_COLUMNS,
    FEATURE_CSV_COLUMNS,
    LABELED_CSV_COLUMNS,
    REPORT_CSV_COLUMNS,
    read_rows_csv,
    write_rows_csv,
)
from tests.test_forest import MODEL_FAULTS, _corrupt, predict_proba_reference
from tests.test_pinned_run import PINNED_SHA256


@pytest.fixture(scope="session")
def synthetic_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic_run")
    code = main(["run", "--synthetic", "--out-dir", str(out), "--svg"])
    assert code == EXIT_OK
    return out


class TestRunArtifacts:
    def test_all_artifacts_exist(self, synthetic_run):
        expected = [
            "ingest_summary.json",
            "baseline.json",
            "features.csv",
            "labeled.csv",
            "model.json",
            "split.json",
            "eval_report.json",
            "confusion_matrix.csv",
            "shap_summary.csv",
            "shap_beeswarm.csv",
            "shap_summary.svg",
            "report.csv",
            "trace.jsonl",
        ]
        for name in expected:
            assert (synthetic_run / name).exists(), name

    def test_features_schema(self, synthetic_run):
        with open(synthetic_run / "features.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == list(FEATURE_CSV_COLUMNS)
        assert len(header) == 16

    def test_labeled_schema(self, synthetic_run):
        with open(synthetic_run / "labeled.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == list(LABELED_CSV_COLUMNS)

    def test_report_schema(self, synthetic_run):
        with open(synthetic_run / "report.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == list(REPORT_CSV_COLUMNS)

    def test_labeled_rows_are_typed(self, synthetic_run):
        rows = read_rows_csv(synthetic_run / "labeled.csv", LABELED_CSV_COLUMNS)
        valid = [r for r in rows if r["valid"]]
        assert valid
        for row in valid[:20]:
            assert isinstance(row["rule_level"], int)
            assert 0.0 <= row["stress_score"] <= 1.0

    def test_invalid_rows_have_blank_labels(self, synthetic_run):
        rows = read_rows_csv(synthetic_run / "labeled.csv", LABELED_CSV_COLUMNS)
        invalid = [r for r in rows if not r["valid"]]
        assert invalid, "synthetic set should include warm-up invalid windows"
        assert all(r["rule_level"] is None for r in invalid)

    def test_model_is_versioned_json(self, synthetic_run):
        payload = json.loads((synthetic_run / "model.json").read_text())
        assert payload["format_version"] == 1
        assert payload["n_features"] == 13
        assert len(payload["trees"]) == payload["params"]["n_trees"] == RunConfig.n_trees

    def test_pinned_model_predicts_as_per_tree_walk(self, synthetic_run):
        forest = load_forest(synthetic_run / "model.json")
        rows = [r for r in read_rows_csv(synthetic_run / "features.csv", FEATURE_CSV_COLUMNS) if r["valid"]]
        X = np.asarray([[r[c] for c in FEATURE_COLUMNS] for r in rows])
        assert np.array_equal(predict_proba(forest, X), predict_proba_reference(forest, X))

    def test_eval_report_contents(self, synthetic_run):
        payload = json.loads((synthetic_run / "eval_report.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert len(payload["confusion"]) == 5

    def test_trace_lines_parse(self, synthetic_run):
        lines = (synthetic_run / "trace.jsonl").read_text().splitlines()
        assert lines
        kinds = set()
        for line in lines:
            event = json.loads(line)
            kinds.add(event["kind"])
        assert {"SensorChunk", "WindowReady", "Inference", "StrategyTick", "CommandIssued"} <= kinds

    def test_baseline_fields(self, synthetic_run):
        payload = json.loads((synthetic_run / "baseline.json").read_text())
        assert set(payload) == {"sdnn", "bpm", "qtc", "lfhf", "source_record"}
        assert payload["source_record"] == "S00"

    def test_svg_emitted(self, synthetic_run):
        text = (synthetic_run / "shap_summary.svg").read_text()
        assert text.startswith("<svg")
        assert "rel_sdnn" in text


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_label_takes_no_baseline_option(self, tmp_path, capsys):
        # the rel_* columns of features.csv already hold the deviations from the baseline
        with pytest.raises(SystemExit) as exc:
            main(["label", "--baseline", "x", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_data_dir_is_data_error(self, tmp_path):
        code = main(["baseline", "--data-dir", str(tmp_path), "--out-dir", str(tmp_path)])
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text.replace(" 360 ", " nan ", 1).encode(),
            lambda text: b"\xff\xfe" + text.encode(),
        ],
        ids=["nan_sampling_rate", "not_utf8"],
    )
    def test_bad_header_is_data_error(self, tmp_path, capsys, corrupt):
        data, out = tmp_path / "data", tmp_path / "out"
        rec = synth_ecg(70, 12.0, seed=1)
        for name in ("118", "118e06"):
            write_wfdb212(data, name, rec.channels, rec.fs)
        hea = data / "118e06.hea"
        hea.write_bytes(corrupt(hea.read_text()))
        code = main(["ingest", "--data-dir", str(data), "--out-dir", str(out)])
        assert code == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "ingest_summary.json").exists()

    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ('{"window_s": "10"}', "window_s"),
            ('{"n_trees": 2.5}', "n_trees"),
            ('{"window_s": NaN}', "window_s"),
            ('{"context_s": 5}', "context_s"),
            ('{"max_depth": -1}', "max_depth"),
            ('{"sim_max_duration_s": -5}', "sim_max_duration_s"),
        ],
        ids=["string_number", "fractional_count", "nan", "context_shorter_than_window",
             "negative_depth", "negative_duration"],
    )
    def test_bad_config_is_config_invalid(self, tmp_path, capsys, payload, field):
        config = tmp_path / "config.json"
        config.write_text(payload)
        out = tmp_path / "out"
        code = main(["run", "--synthetic", "--config", str(config), "--out-dir", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"error: {field} ")
        assert not (out / "synthetic_records").exists()

    def test_latency_table_is_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"sim_latency_table": {"Personal": [60000, 90000]}}')
        code = main(["run", "--synthetic", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: unknown config key 'sim_latency_table'")

    def test_stride_below_one_sample_is_config_invalid(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"stride_s": 0.001}')
        code = main(["run", "--synthetic", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: stride_s ")
        assert not (tmp_path / "out" / "ingest_summary.json").exists()

    def test_record_shorter_than_a_window_fails_before_writing(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "out"
        rec = synth_ecg(70, 9.0, seed=1)  # the default window is 10 s
        for name in ("118", "118e06"):
            write_wfdb212(data, name, rec.channels, rec.fs)
        assert main(["run", "--data-dir", str(data), "--out-dir", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error: record 118 holds 3240 samples")
        assert not (out / "ingest_summary.json").exists()

    @pytest.mark.parametrize("value", ["-5", "0", "nan"])
    def test_bad_simulate_duration_is_config_invalid(self, synthetic_run, tmp_path, capsys, value):
        argv = ["simulate", *_synthetic_args(synthetic_run, tmp_path, "--max-duration-s", value)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error: sim_max_duration_s ")
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize(
        ("extra", "message"),
        [
            (("--scripted", '"x"'), "scripted schedule "),
            (("--scripted", '{"0": 1}'), "scripted schedule "),
            (("--scripted", "[[0]]"), "scripted entry "),
            (("--scripted", '[["a", 2]]'), "scripted time "),
            (("--scripted", "[[NaN, 2]]"), "scripted time "),
            (("--scripted", "[[Infinity, 2]]"), "scripted time "),
            (("--scripted", "[[0, 1.5]]"), "scripted level "),
            (("--scripted", "[[0, 1]]", "--records", "S00e99"), "--records "),
            (("--scripted", "[[0, 1]]", "--records", "S00e06", "nope"), "--records "),
        ],
        ids=["scripted_string", "scripted_object", "scripted_no_level", "scripted_string_time",
             "scripted_nan_time", "scripted_infinite_time", "scripted_fractional_level",
             "unknown_record", "one_unknown_record"],
    )
    def test_bad_simulate_input_is_data_error(self, synthetic_run, tmp_path, capsys, extra, message):
        argv = ["simulate", *_synthetic_args(synthetic_run, tmp_path, *extra)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith(f"error: {message}")
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize("chunk_s", [1e-9, 0.001])
    def test_chunk_shorter_than_a_sample_is_config_invalid(self, synthetic_run, tmp_path, capsys, chunk_s):
        # at 360 Hz a chunk must hold round(chunk_s * 360) >= 1 samples
        config = tmp_path / "config.json"
        config.write_text(f'{{"chunk_s": {chunk_s}}}')
        out = tmp_path / "out"
        extra = ("--config", str(config), "--records", "S00e24", "--scripted", "[[0,1],[60,3]]")
        argv = ["simulate", *_synthetic_args(synthetic_run, out, *extra)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error: chunk_s ")
        assert not (out / "trace.jsonl").exists()

    @pytest.mark.parametrize(
        "argv", [["simulate", "--out", "x"], ["train", "--model", "x"]], ids=["simulate_out", "train_model"]
    )
    def test_artifact_path_options_are_usage_errors(self, tmp_path, capsys, argv):
        # every artifact has one fixed name under --out-dir, and no option is abbreviated
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_every_option_is_read(self):
        # no option that nothing reads: each subcommand option is read as args.<dest> in cli.py
        text = Path(cli.__file__).read_text()
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {
            action.dest
            for sub in subparsers.choices.values()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert sorted(d for d in dests if not re.search(rf"\bargs\.{d}\b", text)) == []

    def test_individual_steps_rerun_on_existing_artifacts(self, synthetic_run):
        data_dir = synthetic_run / "synthetic_records"
        code = main(
            [
                "label",
                "--data-dir",
                str(data_dir),
                "--out-dir",
                str(synthetic_run),
                "--clean-record",
                "S00",
            ]
        )
        assert code == EXIT_OK

    def test_retraining_reproduces_model_bytes(self, synthetic_run, tmp_path):
        shutil.copy(synthetic_run / "labeled.csv", tmp_path / "labeled.csv")
        data_dir = synthetic_run / "synthetic_records"
        code = main(
            [
                "train",
                "--data-dir",
                str(data_dir),
                "--out-dir",
                str(tmp_path),
                "--clean-record",
                "S00",
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "model.json").read_bytes() == (synthetic_run / "model.json").read_bytes()
        assert (tmp_path / "split.json").read_bytes() == (synthetic_run / "split.json").read_bytes()

    def test_scripted_simulate_without_model(self, synthetic_run, tmp_path):
        data_dir = synthetic_run / "synthetic_records"
        code = main(
            [
                "simulate",
                "--data-dir",
                str(data_dir),
                "--out-dir",
                str(tmp_path),
                "--clean-record",
                "S00",
                "--records",
                "S00e24",
                "--scripted",
                "[[0,1],[60,3]]",
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "trace.jsonl").exists()

    def test_simulate_decodes_no_sample(self, synthetic_run, tmp_path, monkeypatch):
        # the simulator reads each record's name, rate and length from its header
        def no_decode(*args):
            raise AssertionError("simulate decoded samples")

        monkeypatch.setattr("stresstwin.ingest.decode_format212", no_decode)
        for name in ("features.csv", "model.json"):
            shutil.copy(synthetic_run / name, tmp_path / name)
        argv = ["simulate", *_synthetic_args(synthetic_run, tmp_path, "--max-duration-s", "120")]
        assert main(argv) == EXIT_OK
        assert (tmp_path / "trace.jsonl").read_bytes() == (synthetic_run / "trace.jsonl").read_bytes()


def _synthetic_args(synthetic_run, out, *extra):
    data_dir = synthetic_run / "synthetic_records"
    return ["--data-dir", str(data_dir), "--out-dir", str(out), "--clean-record", "S00", *extra]


class TestSubcommandChain:
    STEPS = ("ingest", "baseline", "features", "label", "train", "eval", "explain", "report")

    def test_steps_write_the_pinned_run_bytes(self, synthetic_run, tmp_path):
        # `run --synthetic` caps the simulated time at 120 s per record
        steps = [[step] for step in self.STEPS] + [["simulate", "--max-duration-s", "120"]]
        for step in steps:
            argv = [*step, *_synthetic_args(synthetic_run, tmp_path, "--seed", "2025")]
            assert main(argv) == EXIT_OK, step
        got = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in PINNED_SHA256}
        assert sorted(n for n in PINNED_SHA256 if got[n] != PINNED_SHA256[n]) == []

    def test_label_reads_only_features_csv(self, synthetic_run, tmp_path):
        shutil.copy(synthetic_run / "features.csv", tmp_path / "features.csv")
        assert main(["label", "--out-dir", str(tmp_path)]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv", "labeled.csv"]
        got = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in ("features.csv", "labeled.csv")}
        assert got == {n: PINNED_SHA256[n] for n in got}


class TestInvalidSamples:
    def test_run_marks_windows_over_invalid_samples(self, synthetic_run, tmp_path, capsys):
        # S00e24 holds the invalid-sample code from 100 s to 101 s in both channels
        data_dir = tmp_path / "records"
        data_dir.mkdir()
        for name in ("S00", "S00e06", "S00e24"):
            for ext in ("hea", "dat"):
                shutil.copy(synthetic_run / "synthetic_records" / f"{name}.{ext}", data_dir)
        record = load_record(data_dir / "S00e24.hea")
        lo, hi = int(100 * record.fs), int(101 * record.fs)
        dat = data_dir / "S00e24.dat"
        c0, c1 = decode_format212(dat.read_bytes(), record.n_samples)
        c0[lo:hi] = c1[lo:hi] = -2048
        dat.write_bytes(encode_format212(c0, c1))

        out = tmp_path / "out"
        argv = ["run", "--data-dir", str(data_dir), "--out-dir", str(out), "--clean-record", "S00"]
        assert main(argv) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err

        hit = {
            start_s
            for start_s, seg in window_grid(record)
            if seg.start < hi and seg.stop > lo
        }
        assert hit

        def rows_and_lines(path):
            rows = read_rows_csv(path, FEATURE_CSV_COLUMNS)
            lines = path.read_text().splitlines()[1:]
            return [(r, line) for r, line in zip(rows, lines) if r["record_name"] in ("S00e06", "S00e24")]

        before = rows_and_lines(synthetic_run / "features.csv")
        after = rows_and_lines(out / "features.csv")
        assert len(after) == len(before) == 2 * len(window_grid(record))
        for (old, old_line), (new, new_line) in zip(before, after):
            assert (new["record_name"], new["window_start"]) == (old["record_name"], old["window_start"])
            if new["record_name"] == "S00e24" and new["window_start"] in hit:
                assert new["valid"] is False
                assert all(np.isnan(new[c]) for c in FEATURE_COLUMNS)
            else:
                assert new_line == old_line


class TestLoadErrors:
    def _fails(self, argv, capsys, fragment):
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert fragment in err

    def test_simulate_without_feature_row(self, synthetic_run, tmp_path, capsys):
        rows = read_rows_csv(synthetic_run / "features.csv", FEATURE_CSV_COLUMNS)
        other = [r for r in rows if r["record_name"] == "S00e24"]
        write_rows_csv(other, FEATURE_CSV_COLUMNS, tmp_path / "features.csv")
        shutil.copy(synthetic_run / "model.json", tmp_path / "model.json")
        argv = ["simulate", *_synthetic_args(synthetic_run, tmp_path, "--records", "S00e06")]
        self._fails(argv, capsys, "no feature row for record S00e06 window at 0.0 s")

    def test_simulate_with_truncated_dat(self, synthetic_run, tmp_path, capsys):
        data_dir = tmp_path / "records"
        shutil.copytree(synthetic_run / "synthetic_records", data_dir)
        dat = data_dir / "S00e24.dat"
        dat.write_bytes(dat.read_bytes()[:-3])
        argv = ["simulate", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                "--clean-record", "S00", "--records", "S00e24", "--scripted", "[[0,1]]"]
        self._fails(argv, capsys, "S00e24: decoded 86399 samples per channel, header says 86400")
        assert not (tmp_path / "trace.jsonl").exists()

    def test_split_window_without_labeled_row(self, synthetic_run, tmp_path, capsys):
        rows = read_rows_csv(synthetic_run / "labeled.csv", LABELED_CSV_COLUMNS)
        kept = [r for r in rows if r["record_name"] != "S00e24"]
        write_rows_csv(kept, LABELED_CSV_COLUMNS, tmp_path / "labeled.csv")
        for name in ("model.json", "split.json"):
            shutil.copy(synthetic_run / name, tmp_path / name)
        argv = ["eval", *_synthetic_args(synthetic_run, tmp_path)]
        self._fails(argv, capsys, "names window ('S00e24'")

    def test_eval_on_training_windows_rejected(self, synthetic_run, tmp_path, capsys):
        # the train keys appended to the test keys would score the model on its own training windows
        split = json.loads((synthetic_run / "split.json").read_text())
        split["test_keys"] += split["train_keys"]
        (tmp_path / "split.json").write_text(json.dumps(split))
        for name in ("labeled.csv", "model.json"):
            shutil.copy(synthetic_run / name, tmp_path / name)
        first = tuple(split["train_keys"][0])
        self._fails(["eval", "--out-dir", str(tmp_path)], capsys, f"names window {first} in both train_keys and test_keys")
        assert not (tmp_path / "eval_report.json").exists()

    def test_eval_on_a_window_twice_rejected(self, synthetic_run, tmp_path, capsys):
        split = json.loads((synthetic_run / "split.json").read_text())
        split["test_keys"].append(split["test_keys"][0])
        (tmp_path / "split.json").write_text(json.dumps(split))
        for name in ("labeled.csv", "model.json"):
            shutil.copy(synthetic_run / name, tmp_path / name)
        self._fails(["eval", "--out-dir", str(tmp_path)], capsys, "twice in test_keys")

    @pytest.mark.parametrize(
        ("column", "cell"),
        [
            ("rule_level", "2.5"),
            ("rule_level", "abc"),
            ("rule_level", "nan"),
            ("rule_level", "inf"),
            ("window_start", ""),
        ],
    )
    def test_train_on_a_bad_labeled_cell(self, synthetic_run, tmp_path, capsys, column, cell):
        lines = (synthetic_run / "labeled.csv").read_text().splitlines()
        header = lines[0].split(",")
        number = next(i for i, line in enumerate(lines[1:], start=1) if line.split(",")[header.index("valid")] == "true")
        fields = lines[number].split(",")
        fields[header.index(column)] = cell
        lines[number] = ",".join(fields)
        (tmp_path / "labeled.csv").write_text("\n".join(lines) + "\n")
        self._fails(["train", "--out-dir", str(tmp_path)], capsys, f"row {number}'s {column} is '{cell}'")
        assert not (tmp_path / "model.json").exists()

    def test_label_with_blank_feature_cell(self, synthetic_run, tmp_path, capsys):
        rows = read_rows_csv(synthetic_run / "features.csv", FEATURE_CSV_COLUMNS)
        first_valid = next(i for i, row in enumerate(rows) if row["valid"])
        rows[first_valid]["ecg_sdnn"] = None  # written as an empty cell
        write_rows_csv(rows, FEATURE_CSV_COLUMNS, tmp_path / "features.csv")
        self._fails(["label", "--out-dir", str(tmp_path)], capsys, f"row {first_valid + 1} is valid but its ecg_sdnn is ''")
        assert not (tmp_path / "labeled.csv").exists()

    def test_features_with_baseline_of_another_record(self, synthetic_run, tmp_path, capsys):
        payload = json.loads((synthetic_run / "baseline.json").read_text())
        payload["source_record"] = "S00e24"
        (tmp_path / "baseline.json").write_text(json.dumps(payload))
        argv = ["features", *_synthetic_args(synthetic_run, tmp_path)]
        self._fails(argv, capsys, "baseline was computed from record 'S00e24'")
        assert not (tmp_path / "features.csv").exists()

    @pytest.mark.parametrize(
        ("step", "missing"), [("features", "baseline.json"), ("simulate", "features.csv")]
    )
    def test_missing_artifact(self, synthetic_run, tmp_path, capsys, step, missing):
        argv = [step, *_synthetic_args(synthetic_run, tmp_path)]
        self._fails(argv, capsys, f"{missing} not found")

    @pytest.mark.parametrize("fault", MODEL_FAULTS)
    def test_corrupt_model(self, synthetic_run, tmp_path, capsys, fault):
        payload = json.loads((synthetic_run / "model.json").read_text())
        _corrupt(payload["trees"][3], fault)
        (tmp_path / "model.json").write_text(json.dumps(payload))
        for name in ("labeled.csv", "split.json"):
            shutil.copy(synthetic_run / name, tmp_path / name)
        argv = ["eval", *_synthetic_args(synthetic_run, tmp_path)]
        self._fails(argv, capsys, "tree 3: ")
        assert not (tmp_path / "eval_report.json").exists()


    def test_model_with_other_classes(self, synthetic_run, tmp_path, capsys):
        payload = json.loads((synthetic_run / "model.json").read_text())
        payload["classes"] = [5, 4, 3, 2, 1]
        (tmp_path / "model.json").write_text(json.dumps(payload))
        for name in ("labeled.csv", "split.json"):
            shutil.copy(synthetic_run / name, tmp_path / name)
        argv = ["eval", *_synthetic_args(synthetic_run, tmp_path)]
        self._fails(argv, capsys, "model classes [5, 4, 3, 2, 1] are not the levels [1, 2, 3, 4, 5]")
        assert not (tmp_path / "eval_report.json").exists()

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda payload: payload.pop("qtc"), "qtc is None, not a positive finite number"),
            (lambda payload: payload.update(sdnn=-5), "sdnn is -5, not a positive finite number"),
        ],
        ids=["missing_qtc", "negative_sdnn"],
    )
    def test_malformed_baseline(self, synthetic_run, tmp_path, capsys, edit, message):
        payload = json.loads((synthetic_run / "baseline.json").read_text())
        edit(payload)
        (tmp_path / "baseline.json").write_text(json.dumps(payload))
        argv = ["features", *_synthetic_args(synthetic_run, tmp_path)]
        self._fails(argv, capsys, f"baseline.json: {message}")
        assert not (tmp_path / "features.csv").exists()

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda payload: payload["test_keys"].insert(0, [["x"], 1.0]), "test_keys holds [['x'], 1.0], not a"),
            (lambda payload: payload.update(test_keys=None), "test_keys is None, not a list"),
        ],
        ids=["key_not_a_pair", "null_test_keys"],
    )
    def test_malformed_split(self, synthetic_run, tmp_path, capsys, edit, message):
        payload = json.loads((synthetic_run / "split.json").read_text())
        edit(payload)
        (tmp_path / "split.json").write_text(json.dumps(payload))
        for name in ("labeled.csv", "model.json"):
            shutil.copy(synthetic_run / name, tmp_path / name)
        argv = ["eval", *_synthetic_args(synthetic_run, tmp_path)]
        self._fails(argv, capsys, f"split.json: {message}")
        assert not (tmp_path / "eval_report.json").exists()

    def test_features_csv_without_a_header_column(self, synthetic_run, tmp_path, capsys):
        text = (synthetic_run / "features.csv").read_text()
        (tmp_path / "features.csv").write_text(text.replace("rel_qtc,", "", 1))
        self._fails(["label", "--out-dir", str(tmp_path)], capsys, "features.csv: the header has no rel_qtc column")
        assert not (tmp_path / "labeled.csv").exists()

    # cells and layouts that read back without an error before every cell was checked
    CELL_CASES = [
        pytest.param(column, cell, fragment, id=f"{column}={cell}")
        for column, cell, fragment in [
            ("valid", "abc", "row {first}'s valid is 'abc', not true or false"),
            ("valid", "TRUE", "row {first}'s valid is 'TRUE', not true or false"),
            ("record_name", "", "row {first}'s record_name is '', not a record name"),
            ("ecg_bpm", "-5", "row {first} is valid but its ecg_bpm is '-5', not a finite number >= 0"),
            ("stress_score", "abc", "row {first}'s stress_score is 'abc', not a number from 0 to 1"),
            ("stress_score", "7", "row {first}'s stress_score is '7', not a number from 0 to 1"),
        ]
    ]
    FEATURE_CELL_CASES = [case for case in CELL_CASES if case.values[0] in FEATURE_CSV_COLUMNS]

    @staticmethod
    def _edited_csv(src, dst, edit):
        """Copy a CSV with ``edit(header, rows, first)`` applied, ``first`` being the number of
        its first valid row; the names that the expected error fragments are formatted with."""
        with open(src, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        first = next(i for i, row in enumerate(rows, start=1) if row[header.index("valid")] == "true")
        key = (rows[first - 1][header.index("record_name")], float(rows[first - 1][header.index("window_start")]))
        names = {"first": first, "repeat": len(rows) + 1, "key": key}
        edit(header, rows, first)
        with open(dst, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        return names

    @staticmethod
    def _set_cell(column, cell):
        def edit(header, rows, first):
            rows[first - 1][header.index(column)] = cell
        return edit

    @staticmethod
    def _repeat_valid_rows(header, rows, first):
        rows += [list(row) for row in rows if row[header.index("valid")] == "true"]

    @staticmethod
    def _name_twice(column, copied):
        """A second column named ``column`` that holds the ``copied`` column's cells."""
        def edit(header, rows, first):
            for row in rows:
                row.append(row[header.index(copied)])
            header.append(column)
        return edit

    REPEATED = "row {repeat}'s record_name and window_start {key} repeat row {first}'s"

    def _rejected(self, argv, artifact, outputs, synthetic_run, tmp_path, capsys, edit, fragment):
        names = self._edited_csv(synthetic_run / artifact, tmp_path / artifact, edit)
        self._fails(argv, capsys, f"{artifact}: " + fragment.format(**names))
        assert not any((tmp_path / name).exists() for name in outputs)

    def _train_rejects(self, synthetic_run, tmp_path, capsys, edit, fragment):
        argv = ["train", "--out-dir", str(tmp_path)]
        self._rejected(argv, "labeled.csv", ("model.json", "split.json"), synthetic_run, tmp_path, capsys, edit, fragment)

    def _feature_reader_rejects(self, step, synthetic_run, tmp_path, capsys, edit, fragment):
        shutil.copy(synthetic_run / "model.json", tmp_path / "model.json")
        argv = [step, *_synthetic_args(synthetic_run, tmp_path)]
        outputs = {"label": ("labeled.csv",), "simulate": ("trace.jsonl",)}[step]
        self._rejected(argv, "features.csv", outputs, synthetic_run, tmp_path, capsys, edit, fragment)

    @pytest.mark.parametrize(("column", "cell", "fragment"), CELL_CASES)
    def test_train_rejects_a_cell(self, synthetic_run, tmp_path, capsys, column, cell, fragment):
        self._train_rejects(synthetic_run, tmp_path, capsys, self._set_cell(column, cell), fragment)

    def test_train_rejects_repeated_windows(self, synthetic_run, tmp_path, capsys):
        self._train_rejects(synthetic_run, tmp_path, capsys, self._repeat_valid_rows, self.REPEATED)

    def test_train_rejects_a_column_named_twice(self, synthetic_run, tmp_path, capsys):
        edit = self._name_twice("rule_level", "score_level")
        self._train_rejects(synthetic_run, tmp_path, capsys, edit, "the header names rule_level twice")

    @pytest.mark.parametrize("step", ["label", "simulate"])
    @pytest.mark.parametrize(("column", "cell", "fragment"), FEATURE_CELL_CASES)
    def test_feature_readers_reject_a_cell(self, synthetic_run, tmp_path, capsys, step, column, cell, fragment):
        self._feature_reader_rejects(step, synthetic_run, tmp_path, capsys, self._set_cell(column, cell), fragment)

    @pytest.mark.parametrize("step", ["label", "simulate"])
    def test_feature_readers_reject_repeated_windows(self, synthetic_run, tmp_path, capsys, step):
        self._feature_reader_rejects(step, synthetic_run, tmp_path, capsys, self._repeat_valid_rows, self.REPEATED)

    @pytest.mark.parametrize("step", ["label", "simulate"])
    def test_feature_readers_reject_a_column_named_twice(self, synthetic_run, tmp_path, capsys, step):
        edit = self._name_twice("ecg_bpm", "ecg_sdnn")
        self._feature_reader_rejects(step, synthetic_run, tmp_path, capsys, edit, "the header names ecg_bpm twice")
