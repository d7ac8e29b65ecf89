import json
from collections import defaultdict

import pytest

from stresstwin.config import RunConfig
from stresstwin.errors import InvalidLevel
from stresstwin.interventions import CATALOG, LATENCY_MS, commands_for_level
from stresstwin.simulator import export_trace, run_simulation
from stresstwin.synth import synth_ecg
from tests.test_simulator import within_paper_bounds

ALL_CATALOG_ACTIONS = {action for level in range(1, 6) for action, _ in CATALOG[level]}
SCALE_ORDER = ("Personal", "Room", "Building", "Landscape")


def actions(level):
    return tuple(action for action, _ in CATALOG[level])


def outdoor_actions(level):
    return tuple(action for action, scale in CATALOG[level] if scale == "Landscape")


def scale_of(action):
    return next(scale for level in range(1, 6) for a, scale in CATALOG[level] if a == action)


@pytest.fixture(scope="module")
def issued_lines(tmp_path_factory):
    """The CommandIssued lines of a scripted trace whose committed level goes 1, 3, 1, 3."""
    rec = synth_ecg(70, 150.0, seed=5)
    trace = run_simulation([rec], None, RunConfig(seed=9), ((0.0, 3), (40.0, 1), (80.0, 3)))
    path = tmp_path_factory.mktemp("commands") / "trace.jsonl"
    export_trace(trace, path)
    return [line for line in path.read_text().splitlines() if '"kind":"CommandIssued"' in line]


def batches(lines) -> list:
    """The CommandIssued payloads of each batch, in issue order."""
    by_batch = defaultdict(list)
    for line in lines:
        payload = json.loads(line)["payload"]
        by_batch[payload["batch"]].append(payload)
    return [by_batch[b] for b in sorted(by_batch)]


class TestPlan:
    def test_level1_maintains_baseline(self):
        assert ("Maintain baseline environment", "Building") in CATALOG[1]

    def test_level3_indoor_catalog(self):
        assert CATALOG[3] == (
            ("Biowall oxygen-boosting mode", "Building"),
            ("Local temperature gradient (±2°C)", "Building"),
            ("Directional natural soundscape", "Room"),
            ("Intermittent fog system", "Landscape"),
            ("Dynamic tree canopy shading", "Landscape"),
        )

    def test_level5_drones(self):
        assert "Deploy drones with aromatic diffusers" in outdoor_actions(5)

    def test_invalid_levels(self):
        for bad in (0, 6, -1):
            with pytest.raises(InvalidLevel):
                commands_for_level(bad)

    def test_all_levels_non_empty(self):
        for level in range(1, 6):
            assert outdoor_actions(level) and len(outdoor_actions(level)) < len(actions(level))


class TestScaleAssignment:
    def test_pinned_assignments(self):
        assert scale_of("Dynamic sunrise lighting (3000K)") == "Room"
        assert scale_of("Emergency mist cooling") == "Building"

    def test_outdoor_actions_land_on_landscape(self):
        # the paper's outdoor actions, all of which act at the Landscape scale
        outdoor = {
            "Preserve natural ventilation paths",
            "Low-intensity landscape lighting",
            "Activate shallow water flow",
            "Trigger aromatic plant airflow",
            "Intermittent fog system",
            "Dynamic tree canopy shading",
            "Enhanced waterfall mode",
            "Activate magnetic walking trail",
            "Open emergency shelter kiosks",
            "Deploy drones with aromatic diffusers",
        }
        assert {a for level in range(1, 6) for a in outdoor_actions(level)} == outdoor

    def test_latency_ranges_respect_scale_bounds(self):
        assert list(LATENCY_MS) == list(SCALE_ORDER)
        for name, (lo_ms, hi_ms) in LATENCY_MS.items():
            assert lo_ms <= hi_ms
            assert within_paper_bounds(name, lo_ms) and within_paper_bounds(name, hi_ms)


class TestCommands:
    def test_one_command_per_action(self):
        for level in range(1, 6):
            cmds = commands_for_level(level)
            assert len(cmds) == len(actions(level))
            assert {(action, scale) for action, scale, _ in cmds} == set(CATALOG[level])

    def test_actions_verbatim_from_catalog(self):
        for level in range(1, 6):
            for action, _, _ in commands_for_level(level):
                assert action in ALL_CATALOG_ACTIONS

    def test_scale_then_catalog_order(self):
        cmds = commands_for_level(4)
        ranks = [SCALE_ORDER.index(scale) for _, scale, _ in cmds]
        assert ranks == sorted(ranks)
        room = [action for action, scale, _ in cmds if scale == "Room"]
        assert room == ["Full-spectrum light therapy"]

    def test_ids_strictly_increasing_across_batches(self, issued_lines):
        ids = [json.loads(line)["payload"]["command_id"] for line in issued_lines]
        assert len(batches(issued_lines)) == 4
        assert ids == list(range(1, len(ids) + 1))

    def test_ttl_exceeds_scale_latency(self):
        ttl_s = {"Personal": 10.0, "Room": 60.0, "Building": 600.0, "Landscape": 1800.0}
        for level in range(1, 6):
            for _, scale, ttl in commands_for_level(level):
                assert ttl == ttl_s[scale]
                assert ttl * 1000 > LATENCY_MS[scale][1]

    def test_deterministic_except_ids(self, issued_lines):
        # both level-3 batches issue the same commands under new ids
        first, second = (b for b in batches(issued_lines) if b[0]["stress_level"] == 3)
        def commands(batch):
            return [(p["stress_level"], p["scale"], p["action"], p["parameters"], p["ttl_s"]) for p in batch]

        assert commands(first) == commands(second)
        assert {p["command_id"] for p in first}.isdisjoint(p["command_id"] for p in second)

    def test_command_count_grows_through_level4(self):
        # the level-5 catalog row holds four actions, one fewer than level 4
        counts = [len(commands_for_level(lv)) for lv in range(1, 6)]
        assert counts[:4] == sorted(counts[:4])
        assert counts == [4, 4, 5, 5, 4]


class TestWireFormat:
    """A command's wire form is its CommandIssued line in the trace."""

    def test_parameters_always_present(self, issued_lines):
        assert issued_lines and all('"parameters":{}' in line for line in issued_lines)

    def test_canonical_field_order(self, issued_lines):
        # json.loads keeps the keys in the order the line writes them
        keys = list(json.loads(issued_lines[0])["payload"])
        assert keys == [
            "action",
            "batch",
            "command_id",
            "issued_at",
            "parameters",
            "scale",
            "stress_level",
            "ttl_s",
        ]

    def test_ascii_safe_wire_form(self, issued_lines):
        gradient = next(line for line in issued_lines if "temperature gradient" in line)
        assert gradient == gradient.encode("ascii", "strict").decode("ascii")
        assert "\\u00b1" in gradient
        assert json.loads(gradient)["payload"]["action"] == "Local temperature gradient (±2°C)"
