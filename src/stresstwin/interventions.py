"""Rules engine mapping stress levels to tiered environmental commands.

``CATALOG`` is the paper's Five-Level Stress–Intervention Mapping: each
level's actions, indoor then outdoor in the paper's order, each with the one
spatial scale it acts at. Wearable and enclosure-level devices act at the
Personal scale, light and sound shaping at the Room scale, HVAC-class
systems at the Building scale, and every outdoor action at the Landscape
scale. ``LATENCY_MS`` holds each scale's response-time bounds.
"""

import json
import math
from dataclasses import dataclass, field

from .errors import InvalidLevel, InvalidParam

# level -> ((action, scale), ...)
CATALOG = {
    # Homeostatic Maintenance
    1: (
        ("Maintain baseline environment", "Building"),
        ("Mild negative ion release", "Room"),
        ("Preserve natural ventilation paths", "Landscape"),
        ("Low-intensity landscape lighting", "Landscape"),
    ),
    # Ulrich, 1991
    2: (
        ("Dynamic sunrise lighting (3000K)", "Room"),
        ("Background white noise (45 dB)", "Room"),
        ("Activate shallow water flow", "Landscape"),
        ("Trigger aromatic plant airflow", "Landscape"),
    ),
    # Kaplan, 1995
    3: (
        ("Biowall oxygen-boosting mode", "Building"),
        ("Local temperature gradient (±2°C)", "Building"),
        ("Directional natural soundscape", "Room"),
        ("Intermittent fog system", "Landscape"),
        ("Dynamic tree canopy shading", "Landscape"),
    ),
    # Sternberg, 2009
    4: (
        ("Full-spectrum light therapy", "Room"),
        ("Whole-body vibration (40Hz)", "Personal"),
        ("Emergency mist cooling", "Building"),
        ("Enhanced waterfall mode", "Landscape"),
        ("Activate magnetic walking trail", "Landscape"),
    ),
    # WHO Guidelines
    5: (
        ("Emergency pod activation (isolation + VR natural scene)", "Personal"),
        ("Temporary hyperbaric oxygen support", "Personal"),
        ("Open emergency shelter kiosks", "Landscape"),
        ("Deploy drones with aromatic diffusers", "Landscape"),
    ),
}

# scale -> integer millisecond [lo, hi] that actuator latencies are drawn
# from, in command order. The paper's bounds: Personal under 5 s (kept
# strictly inside (0 s, 5 s)), Room 15-30 s, Building 1-5 min, Landscape
# 5-15 min.
LATENCY_MS = {
    "Personal": (1, 4999),
    "Room": (15000, 30000),
    "Building": (60000, 300000),
    "Landscape": (300000, 900000),
}

# level -> ((action, scale, ttl_s), ...) ordered by scale, catalog order kept
# within a scale; a command lives twice its scale's bound in whole seconds
_COMMAND_ORDER = {
    level: tuple(
        (action, scale, 2.0 * math.ceil(LATENCY_MS[scale][1] / 1000))
        for action, scale in sorted(actions, key=lambda pair: list(LATENCY_MS).index(pair[1]))
    )
    for level, actions in CATALOG.items()
}


@dataclass
class ControlCommand:
    command_id: int
    issued_at: float  # virtual-time seconds
    stress_level: int
    scale: str
    action: str
    parameters: dict = field(default_factory=dict)
    ttl_s: float = 0.0


def plan_for_level(level: int) -> tuple:
    """The catalog row of one stress level: its (action, scale) pairs."""
    if level not in CATALOG:
        raise InvalidLevel(f"no intervention plan for level {level!r}")
    return CATALOG[level]


class CommandIdAllocator:
    """Strictly increasing command ids, owned by one simulation run."""

    def __init__(self, start: int = 1):
        self._next = start

    def take(self) -> int:
        value = self._next
        self._next += 1
        return value


def commands_for_level(level: int, now_s: float, allocator: CommandIdAllocator) -> list:
    """One command per catalog action, ordered by scale then catalog order."""
    plan_for_level(level)
    return [
        ControlCommand(
            command_id=allocator.take(),
            issued_at=now_s,
            stress_level=level,
            scale=scale,
            action=action,
            ttl_s=ttl_s,
        )
        for action, scale, ttl_s in _COMMAND_ORDER[level]
    ]


def command_to_dict(cmd: ControlCommand) -> dict:
    return {
        "command_id": cmd.command_id,
        "issued_at": cmd.issued_at,
        "stress_level": cmd.stress_level,
        "scale": cmd.scale,
        "action": cmd.action,
        "parameters": dict(sorted(cmd.parameters.items())),
        "ttl_s": cmd.ttl_s,
    }


def serialize_command(cmd: ControlCommand) -> str:
    """Canonical JSON wire form; equal commands serialize byte-identically."""
    return json.dumps(command_to_dict(cmd), ensure_ascii=True, separators=(",", ":"))


def parse_command(text: str) -> ControlCommand:
    payload = json.loads(text)
    try:
        return ControlCommand(
            command_id=int(payload["command_id"]),
            issued_at=float(payload["issued_at"]),
            stress_level=int(payload["stress_level"]),
            scale=str(payload["scale"]),
            action=str(payload["action"]),
            parameters=dict(payload["parameters"]),
            ttl_s=float(payload["ttl_s"]),
        )
    except KeyError as exc:
        raise InvalidParam(f"command JSON missing field {exc}") from exc
