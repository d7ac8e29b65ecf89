import csv
import hashlib
import json
import shutil

import numpy as np
import pytest

from stresstwin.cli import EXIT_DATA, EXIT_OK, main
from stresstwin.forest import load_forest, predict_proba
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
        rows = read_rows_csv(synthetic_run / "labeled.csv")
        valid = [r for r in rows if r["valid"]]
        assert valid
        for row in valid[:20]:
            assert isinstance(row["rule_level"], int)
            assert 0.0 <= row["stress_score"] <= 1.0

    def test_invalid_rows_have_blank_labels(self, synthetic_run):
        rows = read_rows_csv(synthetic_run / "labeled.csv")
        invalid = [r for r in rows if not r["valid"]]
        assert invalid, "synthetic set should include warm-up invalid windows"
        assert all(r["rule_level"] is None for r in invalid)

    def test_model_is_versioned_json(self, synthetic_run):
        payload = json.loads((synthetic_run / "model.json").read_text())
        assert payload["format_version"] == 1
        assert payload["n_features"] == 13
        assert len(payload["trees"]) == 100

    def test_pinned_model_predicts_as_per_tree_walk(self, synthetic_run):
        forest = load_forest(synthetic_run / "model.json")
        rows = [r for r in read_rows_csv(synthetic_run / "features.csv") if r["valid"]]
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

    @pytest.mark.parametrize("value", ["-5", "0", "nan"])
    def test_bad_simulate_duration_is_config_invalid(self, synthetic_run, tmp_path, capsys, value):
        argv = ["simulate", *_synthetic_args(synthetic_run, tmp_path, "--max-duration-s", value)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error: sim_max_duration_s ")
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize("chunk_s", [1e-9, 0.001])
    def test_chunk_shorter_than_a_sample_is_config_invalid(self, synthetic_run, tmp_path, capsys, chunk_s):
        # at 360 Hz a chunk must hold round(chunk_s * 360) >= 1 samples
        config = tmp_path / "config.json"
        config.write_text(f'{{"chunk_s": {chunk_s}}}')
        out = tmp_path / "scripted_trace.jsonl"
        extra = ("--config", str(config), "--records", "S00e24", "--scripted", "[[0,1],[60,3]]", "--out", str(out))
        argv = ["simulate", *_synthetic_args(synthetic_run, tmp_path, *extra)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error: chunk_s ")
        assert not out.exists()

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
        data_dir = synthetic_run / "synthetic_records"
        code = main(
            [
                "train",
                "--data-dir",
                str(data_dir),
                "--out-dir",
                str(synthetic_run),
                "--clean-record",
                "S00",
                "--model",
                str(tmp_path / "model2.json"),
                "--split",
                str(tmp_path / "split2.json"),
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "model2.json").read_bytes() == (synthetic_run / "model.json").read_bytes()
        assert (tmp_path / "split2.json").read_bytes() == (synthetic_run / "split.json").read_bytes()

    def test_scripted_simulate_without_model(self, synthetic_run, tmp_path):
        data_dir = synthetic_run / "synthetic_records"
        out = tmp_path / "scripted_trace.jsonl"
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
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.exists()

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


class TestLoadErrors:
    def _fails(self, argv, capsys, fragment):
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert fragment in err

    def test_simulate_without_feature_row(self, synthetic_run, tmp_path, capsys):
        rows = read_rows_csv(synthetic_run / "features.csv")
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
        rows = read_rows_csv(synthetic_run / "labeled.csv")
        kept = [r for r in rows if r["record_name"] != "S00e24"]
        write_rows_csv(kept, LABELED_CSV_COLUMNS, tmp_path / "labeled.csv")
        for name in ("model.json", "split.json"):
            shutil.copy(synthetic_run / name, tmp_path / name)
        argv = ["eval", *_synthetic_args(synthetic_run, tmp_path)]
        self._fails(argv, capsys, "names window ('S00e24'")

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

