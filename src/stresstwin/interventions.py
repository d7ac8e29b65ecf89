"""Rules engine mapping stress levels to tiered environmental commands.

``CATALOG`` is the paper's Five-Level Stress–Intervention Mapping: each
level's actions, indoor then outdoor in the paper's order, each with the one
spatial scale it acts at. Wearable and enclosure-level devices act at the
Personal scale, light and sound shaping at the Room scale, HVAC-class
systems at the Building scale, and every outdoor action at the Landscape
scale. ``LATENCY_MS`` holds each scale's response-time bounds.
"""

import math

from .errors import InvalidLevel

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


def commands_for_level(level: int) -> tuple:
    """The level's commands as (action, scale, ttl_s) rows, by scale then catalog order."""
    if level not in _COMMAND_ORDER:
        raise InvalidLevel(f"no intervention plan for level {level!r}")
    return _COMMAND_ORDER[level]
