import hashlib
import json
from collections import defaultdict

import pytest

from stresstwin.errors import ConfigInvalid, InvalidParam, IoError
from stresstwin.forest import Dataset, ForestParams, train_forest
from stresstwin.hrv import compute_baseline, window_grid
from stresstwin.interventions import CATALOG
from stresstwin.pipeline import (
    FEATURE_CSV_COLUMNS,
    feature_rows,
    label_rows,
    read_rows_csv,
    rows_to_dataset,
    simulate,
    window_levels,
    write_rows_csv,
)
from stresstwin.config import RunConfig
from stresstwin.simulator import (
    commit_level,
    export_trace,
    run_simulation,
)
from stresstwin.synth import synth_ecg, synth_ecg_profile

SCRIPT = ((0.0, 1), (100.0, 4))
# recorded while every tick still went through the event heap
TIE_ORDER_SHA256 = "0e05e19ac5530902c2448bdf88382ba2cb4e2425f46410e2d46614f6a6aa5fe8"
ALL_KINDS = {
    "SensorChunk",
    "WindowReady",
    "Inference",
    "StrategyTick",
    "CommandIssued",
    "ActuatorApplied",
    "Feedback",
}


# The paper's response-time bounds per scale, in ms: Personal under 5 s,
# Room 15-30 s, Building 1-5 min, Landscape 5-15 min.
PAPER_LATENCY_MS = {
    "Personal": (0, 5000),
    "Room": (15000, 30000),
    "Building": (60000, 300000),
    "Landscape": (300000, 900000),
}


def within_paper_bounds(scale: str, latency_ms: int) -> bool:
    """Personal is open at both ends, every other scale closed."""
    lo, hi = PAPER_LATENCY_MS[scale]
    return lo < latency_ms < hi if scale == "Personal" else lo <= latency_ms <= hi



@pytest.fixture(scope="module")
def scripted_trace():
    rec = synth_ecg(70, 150.0, seed=5)
    return run_simulation([rec], None, RunConfig(seed=9), SCRIPT)


@pytest.fixture(scope="module")
def levels_trace():
    """A run driven by a window-level map, as a model's predictions drive it, over a
    record whose name needs escaping; 1.1 s chunks end at times such as 31.900000000000002 s."""
    rec = synth_ecg(70, 90.0, seed=3)
    rec.record_name = 'S"é\\'
    cycle = (None, 2, 2, None, 4, 4, 4, 1, 1, 5, 5, 3, 3)
    levels = {
        (rec.record_name, start_s): cycle[i % len(cycle)]
        for i, (start_s, _) in enumerate(window_grid(rec, 10.0, 5.0))
    }
    return run_simulation([rec], levels, RunConfig(chunk_s=1.1, seed=4))


def canonical_lines(trace) -> list:
    return [
        json.dumps(
            {"at_ms": e.at_ms, "seq": e.seq, "kind": e.kind, "payload": e.payload},
            ensure_ascii=True,
            sort_keys=True,
            separators=(",", ":"),
        )
        for e in trace.events
    ]


def dwell_fold(levels, dwell_windows=2):
    """Committed level after each window, starting from the first window's level."""
    committed = levels[0] if levels else None
    out = []
    for i in range(len(levels)):
        committed = commit_level(committed, levels[: i + 1], dwell_windows)
        out.append(committed)
    return out


class TestDwellFilter:
    def test_single_spike_suppressed(self):
        assert dwell_fold([1, 1, 3, 1, 1]) == [1, 1, 1, 1, 1]

    def test_commits_on_second_agreement(self):
        assert dwell_fold([1, 3, 3, 3]) == [1, 1, 3, 3]

    def test_constant_unchanged(self):
        assert dwell_fold([2, 2, 2]) == [2, 2, 2]

    def test_empty(self):
        assert dwell_fold([]) == []

    def test_alternating_never_commits(self):
        assert dwell_fold([1, 2, 1, 2, 1]) == [1, 1, 1, 1, 1]

    def test_three_window_dwell(self):
        assert dwell_fold([1, 3, 3, 1, 3, 3, 3, 1], 3) == [1, 1, 1, 1, 1, 1, 3, 3]


class TestScriptedRun:
    def test_trace_determinism_bytes(self, tmp_path, scripted_trace):
        rec = synth_ecg(70, 150.0, seed=5)
        again = run_simulation([rec], None, RunConfig(seed=9), SCRIPT)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_trace(scripted_trace, p1)
        export_trace(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tick_cadence_exact(self, scripted_trace):
        ats = [e.at_ms for e in scripted_trace.of_kind("StrategyTick")]
        assert ats == list(range(0, ats[-1] + 1, 200))

    def test_latencies_within_scale_bounds(self, scripted_trace):
        applied = scripted_trace.of_kind("ActuatorApplied")
        assert applied
        for e in applied:
            lat = e.at_ms - e.payload["issued_at_ms"]
            assert lat == e.payload["latency_ms"]
            assert within_paper_bounds(e.payload["scale"], lat), (e.payload["scale"], lat)

    def test_personal_scale_applies_within_5s(self, scripted_trace):
        personal = [
            e
            for e in scripted_trace.of_kind("ActuatorApplied")
            if e.payload["scale"] == "Personal" and e.payload["stress_level"] == 4
        ]
        assert personal
        for e in personal:
            assert 0 < e.at_ms - e.payload["issued_at_ms"] < 5000

    def test_commands_issue_after_window_end(self, scripted_trace):
        # the step at t=100 s is visible to the window ending exactly at
        # 100 s; the second agreeing window ends at 105 s and commits
        issued4 = [
            e
            for e in scripted_trace.of_kind("CommandIssued")
            if e.payload["stress_level"] == 4
        ]
        assert issued4
        assert min(e.at_ms for e in issued4) >= 105000

    def test_initial_level1_batch_at_t0(self, scripted_trace):
        first_batch = [
            e for e in scripted_trace.of_kind("CommandIssued") if e.payload["batch"] == 1
        ]
        assert first_batch
        assert all(e.at_ms == 0 for e in first_batch)
        assert all(e.payload["stress_level"] == 1 for e in first_batch)

    def test_actuator_state_purged_after_level_change(self, scripted_trace):
        feedback = scripted_trace.of_kind("Feedback")
        final = feedback[-1].payload["actuators"]
        level4 = {action for action, _ in CATALOG[4]}
        active = {a for entry in final.values() for a in entry["actions"]}
        assert active <= level4
        # every scale present in the level-4 plan ends up active
        assert active == level4

    def test_causality_apply_after_issue(self, scripted_trace):
        issued_at = {
            e.payload["command_id"]: e.at_ms for e in scripted_trace.of_kind("CommandIssued")
        }
        for e in scripted_trace.of_kind("ActuatorApplied"):
            assert e.at_ms > issued_at[e.payload["command_id"]]

    def test_event_order_in_trace(self, scripted_trace):
        keys = [(e.at_ms, e.seq) for e in scripted_trace.events]
        assert keys == sorted(keys)


class TestExportTrace:
    def test_jsonl_roundtrip(self, tmp_path, scripted_trace):
        path = tmp_path / "trace.jsonl"
        export_trace(scripted_trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(scripted_trace)
        for line in lines:
            payload = json.loads(line)
            assert {"at_ms", "seq", "kind", "payload"} <= set(payload)
        assert lines == canonical_lines(scripted_trace)

    def test_every_line_is_canonical_json(self, tmp_path, levels_trace):
        path = tmp_path / "trace.jsonl"
        export_trace(levels_trace, path)
        text = path.read_text()
        assert text.splitlines() == canonical_lines(levels_trace)
        assert text.endswith("\n") and "\r" not in text
        # what the trace holds, so that the comparison above covers it
        assert {e.kind for e in levels_trace.events} == ALL_KINDS
        assert any(e.payload["actuators"] for e in levels_trace.of_kind("Feedback"))
        assert any(e.payload["level"] is None for e in levels_trace.of_kind("Inference"))
        assert '"t_local_s":31.900000000000002' in text
        assert '"record":"S\\"\\u00e9\\\\"' in text

    def test_empty_trace(self, tmp_path):
        from stresstwin.simulator import SimTrace

        path = tmp_path / "empty.jsonl"
        export_trace(SimTrace(), path)
        assert path.read_text() == ""

    def test_unwritable_path_is_io_error(self, tmp_path, scripted_trace):
        with pytest.raises(IoError, match="cannot write trace"):
            export_trace(scripted_trace, tmp_path / "missing" / "trace.jsonl")


class TestTieOrder:
    def test_chunk_tick_and_batch_ties_pinned(self, tmp_path):
        # 200 ms chunks and ticks share every tick's millisecond with a chunk,
        # windows end on the same grid and each batch is issued on a tick; the
        # digest pins the order of every such tie
        rec = synth_ecg(70, 150.0, seed=5)
        script = ((0.0, 1), (30.0, 3), (60.0, 5), (100.0, 2))
        trace = run_simulation([rec], None, RunConfig(seed=9, chunk_s=0.2, tick_ms=200), script)
        kinds_at = defaultdict(set)
        for e in trace.events:
            kinds_at[e.at_ms].add(e.kind)
        shared = [k for k in kinds_at.values() if {"SensorChunk", "StrategyTick", "CommandIssued"} <= k]
        assert len(shared) >= 3
        assert any({"WindowReady", "Inference", "SensorChunk", "StrategyTick"} <= k for k in kinds_at.values())
        path = tmp_path / "trace.jsonl"
        export_trace(trace, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == TIE_ORDER_SHA256


class TestSensorChunks:
    @pytest.mark.parametrize("dur_s", [33.0, 55.0, 66.0, 99.0, 110.0, 121.0])
    def test_last_chunk_kept(self, dur_s):
        # 33 / 1.1 is 29.999999999999996 in floating point
        rec = synth_ecg(70, dur_s)
        trace = run_simulation([rec], None, RunConfig(chunk_s=1.1), [[0, 1]])
        chunks = trace.of_kind("SensorChunk")
        assert len(chunks) == round(dur_s / 1.1)
        assert chunks[-1].at_ms == int(dur_s * 1000)

    def test_default_chunk_count(self, scripted_trace):
        chunks = scripted_trace.of_kind("SensorChunk")
        assert [e.at_ms for e in chunks] == list(range(1000, 150001, 1000))


class TestConfigValidation:
    def test_bad_tick(self):
        rec = synth_ecg(70, 30.0)
        with pytest.raises(ConfigInvalid, match="^tick_ms "):
            run_simulation([rec], None, RunConfig(tick_ms=0), SCRIPT)

    def test_bad_scripted_level(self):
        rec = synth_ecg(70, 30.0)
        with pytest.raises(ConfigInvalid):
            run_simulation([rec], None, RunConfig(), ((0.0, 9),))

    def test_model_required_without_script(self):
        rec = synth_ecg(70, 30.0)
        with pytest.raises(ConfigInvalid):
            run_simulation([rec], None, RunConfig())


@pytest.fixture(scope="module")
def steady_model():
    """A clean low-variability record, its baseline and a forest that scores it level 1."""
    clean = synth_ecg_profile([(90.0, 70.0, 58.0, 378.0)], seed=21, record_name="C0")
    baseline = compute_baseline(clean)
    cfg = RunConfig()
    rows = feature_rows([clean], clean, baseline, cfg)
    # force a second class so training is non-degenerate
    ds = rows_to_dataset(label_rows(rows))
    y = ds.y.copy()
    y[-1] = 2
    forest = train_forest(Dataset(ds.X, y, ds.keys), ForestParams(n_trees=10, mtry=3), seed=0)
    return clean, baseline, rows, forest


class TestModelDrivenRun:
    def test_clean_steady_state_emits_single_batch(self, steady_model):
        # a clean low-variability record classifies level 1 throughout:
        # only the startup batch is ever issued
        clean, _, rows, forest = steady_model
        cfg = RunConfig(sim_max_duration_s=60.0, seed=3)
        trace = run_simulation([clean], window_levels(rows, forest, [clean]), cfg)
        issued = trace.of_kind("CommandIssued")
        assert issued
        assert {e.payload["stress_level"] for e in issued} == {1}
        assert {e.payload["batch"] for e in issued} == {1}
        levels = [
            e.payload["level"] for e in trace.of_kind("Inference") if e.payload["valid"]
        ]
        assert levels and all(lv == 1 for lv in levels)

    def test_fractional_stride_windows_are_feature_rows(self, tmp_path, steady_model):
        # 5.001 s is 1800.36 samples: windows fall on the 1800-sample grid of
        # the features stage, not on accumulated multiples of 5.001 s
        clean, baseline, _, forest = steady_model
        cfg = RunConfig(stride_s=5.001)
        path = tmp_path / "features.csv"
        write_rows_csv(feature_rows([clean], clean, baseline, cfg), FEATURE_CSV_COLUMNS, path)
        rows = read_rows_csv(path, FEATURE_CSV_COLUMNS)
        trace = simulate([clean], rows, forest, cfg)
        simulated = {
            (e.payload["record"], e.payload["window_start_s"]): e.payload["valid"]
            for e in trace.of_kind("Inference")
        }
        features = {(r["record_name"], r["window_start"]): r["valid"] for r in rows}
        assert simulated == features
        assert set(features.values()) == {True, False}

    def test_window_without_feature_row_is_named(self, steady_model):
        clean, _, rows, forest = steady_model
        levels = window_levels(rows, forest, [clean])
        del levels[("C0", 25.0)]
        with pytest.raises(InvalidParam, match=r"record C0 window at 25\.0 s"):
            run_simulation([clean], levels, RunConfig(seed=3))
