import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stresstwin
from stresstwin.config import ENV_DATA_DIR, RunConfig, load_config
from stresstwin.errors import ConfigInvalid, InvalidParam
from stresstwin.forest import Dataset
from stresstwin.hrv import FEATURE_COLUMNS, BaselineProfile
from stresstwin.ingest import EcgRecord
from stresstwin.pipeline import (
    FEATURE_CSV_COLUMNS,
    LABELED_CSV_COLUMNS,
    baseline_from_clean,
    baseline_from_json,
    baseline_to_json,
    feature_rows,
    label_rows,
    load_series,
    read_rows_csv,
    rows_to_dataset,
    split_from_json,
    split_to_json,
    write_rows_csv,
)
from stresstwin.stress import relative_deviation
from stresstwin.synth import SYNTHETIC_CLEAN_RECORD, make_synthetic_nst


BASELINE = BaselineProfile(sdnn=50.0, bpm=70.0, qtc=400.0, lfhf=1.0, source_record="t")


def make_row(record, start, valid=True, sdnn=55.0, bpm=70.0, qtc=410.0, lfhf=1.0):
    """A feature row whose rel_* columns are its ecg_* metrics' deviations from BASELINE."""
    row = {c: 0.0 for c in FEATURE_COLUMNS}
    for name, value in (("sdnn", sdnn), ("bpm", bpm), ("qtc", qtc), ("lfhf", lfhf)):
        row[f"ecg_{name}"] = value if valid else float("nan")
        row[f"rel_{name}"] = relative_deviation(value, getattr(BASELINE, name)) if valid else float("nan")
    row.update(window_start=start, record_name=record, valid=valid)
    return row


@pytest.fixture
def baseline():
    return BASELINE


class TestExtractRecordRows:
    @pytest.mark.parametrize(("n", "fs"), [(7200, 360.0), (10800, 250.0)], ids=["length", "rate"])
    def test_misaligned_pair_rejected(self, baseline, n, fs):
        clean = EcgRecord(channels=[np.zeros(10800)], fs=360.0, record_name="t")
        noisy = EcgRecord(channels=[np.zeros(n)], fs=fs, record_name="te06")
        with pytest.raises(InvalidParam, match="not aligned"):
            feature_rows([noisy], clean, baseline, RunConfig())


class TestRelativeColumnsAreAffineCopies:
    """Under one baseline, rel_x = (ecg_x - b) / (b + eps) is strictly increasing in ecg_x."""

    @pytest.fixture(scope="class")
    def valid_rows(self, tmp_path_factory):
        cfg = RunConfig()
        data_dir = tmp_path_factory.mktemp("affine")
        make_synthetic_nst(data_dir, seed=2025)
        clean, noisy = load_series(data_dir, SYNTHETIC_CLEAN_RECORD)
        rows = feature_rows(noisy, clean, baseline_from_clean(clean, cfg), cfg)
        return [row for row in rows if row["valid"]]

    @pytest.mark.parametrize("name", ["sdnn", "bpm", "qtc", "lfhf"])
    def test_rel_column_orders_valid_windows_as_its_ecg_column(self, valid_rows, name):
        ecg = np.array([row[f"ecg_{name}"] for row in valid_rows])
        rel = np.array([row[f"rel_{name}"] for row in valid_rows])
        assert len(valid_rows) == 222
        # equal dense ranks: the same strict order and the same ties
        assert np.array_equal(np.unique(ecg, return_inverse=True)[1], np.unique(rel, return_inverse=True)[1])


class TestLabeling:
    def test_invalid_rows_excluded_from_dataset(self):
        rows = [
            make_row("a", 0.0),
            make_row("a", 5.0, valid=False),
            make_row("a", 10.0, sdnn=15.0, bpm=115.0, qtc=490.0, lfhf=7.0),
        ]
        labeled = label_rows(rows)
        ds = rows_to_dataset(labeled)
        assert len(ds) == 2
        assert labeled[1]["rule_level"] is None
        assert ds.y.tolist() == [1, 5]

    def test_score_in_unit_range(self):
        rows = [make_row("a", 0.0, sdnn=5.0, bpm=140.0, qtc=500.0, lfhf=9.0)]
        labeled = label_rows(rows)
        assert 0.0 <= labeled[0]["stress_score"] <= 1.0


class TestCsvRoundtrip:
    def test_feature_rows_roundtrip(self, tmp_path):
        rows = label_rows([make_row("a", 0.0), make_row("a", 5.0, valid=False)])
        path = tmp_path / "rows.csv"
        from stresstwin.pipeline import LABELED_CSV_COLUMNS

        write_rows_csv(rows, LABELED_CSV_COLUMNS, path)
        back = read_rows_csv(path, LABELED_CSV_COLUMNS)
        assert back[0]["valid"] is True
        assert back[1]["valid"] is False
        assert back[0]["rule_level"] == rows[0]["rule_level"]
        assert back[0]["ecg_sdnn"] == rows[0]["ecg_sdnn"]
        assert back[1]["rule_level"] is None

    def test_float_repr_roundtrip_exact(self, tmp_path):
        row = make_row("a", 0.0)
        row["ecg_sdnn"] = 1.0 / 3.0
        path = tmp_path / "x.csv"
        write_rows_csv([row], FEATURE_CSV_COLUMNS, path)
        assert read_rows_csv(path, FEATURE_CSV_COLUMNS)[0]["ecg_sdnn"] == 1.0 / 3.0

    @pytest.mark.parametrize("cell", ["", "abc", "nan", "inf"])
    def test_valid_row_needs_finite_features(self, tmp_path, cell):
        rows = [make_row("a", 0.0), make_row("a", 5.0)]
        path = tmp_path / "features.csv"
        write_rows_csv(rows, FEATURE_CSV_COLUMNS, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        fields = lines[2].split(",")
        fields[header.index("rel_qtc")] = cell
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParam, match=f"features.csv: row 2 is valid but its rel_qtc is '{cell}'"):
            read_rows_csv(path, FEATURE_CSV_COLUMNS)

    def test_row_with_extra_cell(self, tmp_path):
        path = tmp_path / "features.csv"
        write_rows_csv([make_row("a", 0.0), make_row("a", 5.0)], FEATURE_CSV_COLUMNS, path)
        lines = path.read_text().splitlines()
        lines[2] += ",1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParam, match="features.csv: row 2 has 17 cells, the header 16"):
            read_rows_csv(path, FEATURE_CSV_COLUMNS)

    def _labeled_with_cell(self, tmp_path, row_index, column, cell):
        rows = label_rows([make_row("a", 0.0), make_row("a", 5.0, valid=False)])
        path = tmp_path / "labeled.csv"
        write_rows_csv(rows, LABELED_CSV_COLUMNS, path)
        lines = path.read_text().splitlines()
        fields = lines[1 + row_index].split(",")
        fields[LABELED_CSV_COLUMNS.index(column)] = cell
        lines[1 + row_index] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("column", ["rule_level", "score_level"])
    @pytest.mark.parametrize("cell", ["2.5", "abc", "nan", "inf", "0", "6", "2.0", " 2", ""])
    def test_valid_row_needs_a_level_literal(self, tmp_path, column, cell):
        path = self._labeled_with_cell(tmp_path, 0, column, cell)
        with pytest.raises(InvalidParam, match=f"labeled.csv: row 1's {column} is '{re.escape(cell)}', not a level 1 to 5"):
            read_rows_csv(path, LABELED_CSV_COLUMNS)

    def test_invalid_row_may_hold_a_level_or_none(self, tmp_path):
        path = self._labeled_with_cell(tmp_path, 1, "rule_level", "4")
        assert [row["rule_level"] for row in read_rows_csv(path, LABELED_CSV_COLUMNS)][1] == 4
        path = self._labeled_with_cell(tmp_path, 1, "rule_level", "2.5")
        with pytest.raises(InvalidParam, match="row 2's rule_level is '2.5'"):
            read_rows_csv(path, LABELED_CSV_COLUMNS)

    @pytest.mark.parametrize("row_index", [0, 1])
    @pytest.mark.parametrize("cell", ["", "abc", "nan", "inf"])
    def test_window_start_must_be_finite(self, tmp_path, row_index, cell):
        path = self._labeled_with_cell(tmp_path, row_index, "window_start", cell)
        with pytest.raises(InvalidParam, match=f"row {row_index + 1}'s window_start is '{cell}', not a finite number"):
            read_rows_csv(path, LABELED_CSV_COLUMNS)

    def test_invalid_row_keeps_blank_features(self, tmp_path):
        path = tmp_path / "features.csv"
        write_rows_csv([make_row("a", 0.0, valid=False)], FEATURE_CSV_COLUMNS, path)
        row = read_rows_csv(path, FEATURE_CSV_COLUMNS)[0]
        assert row["valid"] is False and np.isnan(row["ecg_sdnn"])


def _floats(low=None, high=None):
    """Finite floats from ``low`` to ``high``, with -0.0, the least subnormal and 1/3 drawn often."""
    edges = [x for x in (-0.0, 0.0, 5e-324, 1.0 / 3.0, 1.0) if (low is None or x >= low) and (high is None or x <= high)]
    return st.sampled_from(edges) | st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def written_rows(draw, columns):
    """A row as the pipeline makes it: an invalid row may hold NaN features and no labels."""
    valid = draw(st.booleans())
    name = draw(st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1))
    row = {"valid": valid, "window_start": draw(_floats()), "record_name": name}
    for column in FEATURE_COLUMNS:
        value = _floats(0.0 if column.startswith("ecg_") else None)
        row[column] = draw(value if valid else value | st.just(math.nan))
    if columns == LABELED_CSV_COLUMNS:
        level, score = st.integers(1, 5), _floats(0.0, 1.0)
        if not valid:
            level, score = level | st.none(), score | st.none()
        row.update(stress_score=draw(score), rule_level=draw(level), score_level=draw(level))
    return row


def _typed(row) -> dict:
    """Each value's type and repr: -0.0 differs from 0.0, and NaN equals NaN."""
    return {column: (type(value), repr(value)) for column, value in row.items()}


class TestCsvRoundtripProperty:
    @pytest.mark.parametrize("columns", [FEATURE_CSV_COLUMNS, LABELED_CSV_COLUMNS], ids=["features", "labeled"])
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_written_rows_read_back_equal(self, tmp_path, columns, data):
        unique_window = lambda row: (row["record_name"], row["window_start"])
        rows = data.draw(st.lists(written_rows(columns), max_size=8, unique_by=unique_window))
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, columns, path)
        assert [_typed(row) for row in read_rows_csv(path, columns)] == [_typed(row) for row in rows]


class TestBaselineJson:
    def test_roundtrip(self, tmp_path, baseline):
        path = tmp_path / "b.json"
        baseline_to_json(baseline, path)
        back = baseline_from_json(path)
        assert back == baseline


class TestSplitJson:
    def test_roundtrip_partition(self, tmp_path):
        rng = np.random.default_rng(0)
        keys = [("r", float(i)) for i in range(30)]
        ds = Dataset(rng.normal(0, 1, (30, 3)), rng.integers(1, 4, 30), keys)
        from stresstwin.forest import stratified_split

        train, test = stratified_split(ds, 0.7, seed=1)
        path = tmp_path / "split.json"
        split_to_json(train, test, path)
        train2, test2 = split_from_json(ds, path)
        assert np.array_equal(train.X, train2.X)
        assert np.array_equal(test.y, test2.y)

    def _split_file(self, tmp_path, train_keys, test_keys):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"train_keys": train_keys, "test_keys": test_keys}))
        return path

    def _dataset(self):
        keys = [("r", float(i)) for i in range(6)]
        return Dataset(np.zeros((6, 2)), np.ones(6, dtype=int), keys)

    def test_window_in_both_parts_rejected(self, tmp_path):
        path = self._split_file(tmp_path, [["r", 0.0], ["r", 1.0]], [["r", 2.0], ["r", 1]])
        with pytest.raises(InvalidParam, match=r"names window \('r', 1.0\) in both train_keys and test_keys"):
            split_from_json(self._dataset(), path)

    @pytest.mark.parametrize("part", ["train_keys", "test_keys"])
    def test_window_twice_in_one_part_rejected(self, tmp_path, part):
        twice = [["r", 3.0], ["r", 4.0], ["r", 3.0]]
        other = [["r", 0.0]]
        train_keys, test_keys = (twice, other) if part == "train_keys" else (other, twice)
        path = self._split_file(tmp_path, train_keys, test_keys)
        with pytest.raises(InvalidParam, match=rf"names window \('r', 3.0\) twice in {part}"):
            split_from_json(self._dataset(), path)


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_every_field_is_read(self):
        # no config knob that nothing reads: each field is read as cfg.<field> outside config.py
        package = Path(stresstwin.__file__).parent
        text = "\n".join(p.read_text() for p in sorted(package.glob("*.py")) if p.name != "config.py")
        assert [f.name for f in fields(RunConfig) if not re.search(rf"\bcfg\.{f.name}\b", text)] == []

    def test_json_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_trees": 10}))
        cfg = load_config(path, {"seed": 7})
        assert cfg.n_trees == 10
        assert cfg.seed == 7
        path.write_text(json.dumps({"n_trees": 10, "custom_note": "x"}))
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_env_data_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DATA_DIR, str(tmp_path))
        assert load_config().data_dir == str(tmp_path)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigInvalid):
            load_config(None, {"train_fraction": 1.5})
        with pytest.raises(ConfigInvalid):
            load_config(None, {"split_unit": "nonsense"})

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": True},
            {"seed": -1},
            {"n_trees": True},
            {"tick_ms": 0},
            {"stride_s": float("inf")},
            {"eps": 10**400},  # an int beyond the float range
            {"max_depth": 0},
            {"max_depth": 2.0},
            {"sim_max_duration_s": float("nan")},
            {"chunk_s": [1, 2]},
            {"data_dir": 5},
        ],
    )
    def test_mistyped_values_rejected(self, override):
        with pytest.raises(ConfigInvalid):
            load_config(None, override)

    def test_edge_values_accepted(self):
        cfg = load_config(None, {"context_s": 10, "window_s": 10, "max_depth": 1, "sim_max_duration_s": 1})
        assert cfg.context_s == cfg.window_s

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigInvalid):
            load_config(None, {"not_a_key": 1})
