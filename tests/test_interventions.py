import json

import pytest

from stresstwin.errors import InvalidLevel
from stresstwin.interventions import (
    LATENCY_MS,
    CommandIdAllocator,
    commands_for_level,
    parse_command,
    plan_for_level,
    serialize_command,
)
from tests.test_simulator import within_paper_bounds

ALL_CATALOG_ACTIONS = {action for level in range(1, 6) for action, _ in plan_for_level(level)}
SCALE_ORDER = ("Personal", "Room", "Building", "Landscape")


def actions(level):
    return tuple(action for action, _ in plan_for_level(level))


def outdoor_actions(level):
    return tuple(action for action, scale in plan_for_level(level) if scale == "Landscape")


def scale_of(action):
    return next(scale for level in range(1, 6) for a, scale in plan_for_level(level) if a == action)


class TestPlan:
    def test_level1_maintains_baseline(self):
        assert ("Maintain baseline environment", "Building") in plan_for_level(1)

    def test_level3_indoor_catalog(self):
        assert plan_for_level(3) == (
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
                plan_for_level(bad)

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
            cmds = commands_for_level(level, 0.0, CommandIdAllocator())
            assert len(cmds) == len(actions(level))
            assert {(c.action, c.scale) for c in cmds} == set(plan_for_level(level))

    def test_actions_verbatim_from_catalog(self):
        for level in range(1, 6):
            for cmd in commands_for_level(level, 1.0, CommandIdAllocator()):
                assert cmd.action in ALL_CATALOG_ACTIONS

    def test_scale_then_catalog_order(self):
        cmds = commands_for_level(4, 0.0, CommandIdAllocator())
        ranks = [SCALE_ORDER.index(c.scale) for c in cmds]
        assert ranks == sorted(ranks)
        room = [c.action for c in cmds if c.scale == "Room"]
        assert room == ["Full-spectrum light therapy"]

    def test_ids_strictly_increasing_across_batches(self):
        alloc = CommandIdAllocator()
        ids = [c.command_id for c in commands_for_level(2, 0.0, alloc)]
        ids += [c.command_id for c in commands_for_level(5, 1.0, alloc)]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_ttl_exceeds_scale_latency(self):
        ttl_s = {"Personal": 10.0, "Room": 60.0, "Building": 600.0, "Landscape": 1800.0}
        for level in range(1, 6):
            for cmd in commands_for_level(level, 0.0, CommandIdAllocator()):
                assert cmd.ttl_s == ttl_s[cmd.scale]
                assert cmd.ttl_s * 1000 > LATENCY_MS[cmd.scale][1]

    def test_deterministic_except_ids(self):
        a = commands_for_level(3, 2.0, CommandIdAllocator())
        b = commands_for_level(3, 2.0, CommandIdAllocator(start=100))
        assert [(c.action, c.scale) for c in a] == [(c.action, c.scale) for c in b]

    def test_command_count_grows_through_level4(self):
        # the level-5 catalog row holds four actions, one fewer than level 4
        counts = [len(commands_for_level(lv, 0.0, CommandIdAllocator())) for lv in range(1, 6)]
        assert counts[:4] == sorted(counts[:4])
        assert counts == [4, 4, 5, 5, 4]


class TestWireFormat:
    def test_roundtrip(self):
        for level in range(1, 6):
            for cmd in commands_for_level(level, 7.4, CommandIdAllocator()):
                assert parse_command(serialize_command(cmd)) == cmd

    def test_parameters_always_present(self):
        cmd = commands_for_level(1, 0.0, CommandIdAllocator())[0]
        assert '"parameters":{}' in serialize_command(cmd)

    def test_canonical_field_order(self):
        cmd = commands_for_level(2, 0.0, CommandIdAllocator())[0]
        keys = list(json.loads(serialize_command(cmd)).keys())
        assert keys == [
            "command_id",
            "issued_at",
            "stress_level",
            "scale",
            "action",
            "parameters",
            "ttl_s",
        ]

    def test_equal_commands_byte_identical(self):
        a = commands_for_level(3, 1.5, CommandIdAllocator())[0]
        b = commands_for_level(3, 1.5, CommandIdAllocator())[0]
        assert serialize_command(a) == serialize_command(b)

    def test_ascii_safe_wire_form(self):
        cmds = commands_for_level(3, 0.0, CommandIdAllocator())
        gradient = next(c for c in cmds if "temperature gradient" in c.action)
        wire = serialize_command(gradient)
        assert wire == wire.encode("ascii", "strict").decode("ascii")
        assert parse_command(wire).action == gradient.action
