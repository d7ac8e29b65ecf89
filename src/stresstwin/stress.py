"""Stress quantification: relative deviations, composite score, level rules.

``hrv`` puts a window's relative deviations in the ``rel_*`` columns of its
feature row; ``assess`` scores the row from those and labels it from its
``ecg_*`` columns. Levels are plain ints 1..5. Four absolute HRV metrics map
to a level each through the rows of ``LEVEL_EDGES``; the overall rule level
is the median of the four, with even splits broken toward the SDNN level
(the dominant weight in the composite score). The composite score bins
through its own row into the same 1..5 scale, reported next to the rule
level.
"""

import math
from bisect import bisect_left, bisect_right

from .config import RunConfig
from .errors import InvalidWindow, NonFiniteInput, OutOfRange

# The level table: per quantity, the four edges between levels 1..5, read with
# bisect. A value's level is 1 + the number of edges it has passed; bisect_left
# passes only the edges below the value, so a value at an edge keeps the lower
# level ((lo, hi] bins), while bisect_right also passes an equal edge ([lo, hi)
# bins). SDNN falls as stress rises, so its row holds negated edges and reads
# the negated value: above 50 ms is level 1, 50 ms itself is level 2.
LEVEL_EDGES = {
    "ecg_sdnn": (bisect_right, -1, (-50, -40, -30, -20)),  # ms
    "ecg_bpm": (bisect_left, 1, (80, 90, 100, 110)),  # below the first row is level 1
    "ecg_qtc": (bisect_left, 1, (420, 440, 460, 480)),  # ms
    "ecg_lfhf": (bisect_left, 1, (1.5, 2.5, 4, 6)),
    "score": (bisect_right, 1, (0.2, 0.4, 0.6, 0.8)),  # [0,.2) [.2,.4) [.4,.6) [.6,.8) [.8,1]
}


def _level(row: str, value: float) -> int:
    passed, sign, edges = LEVEL_EDGES[row]
    return 1 + passed(edges, sign * value)


def relative_deviation(x_noisy: float, x_baseline: float, eps: float = RunConfig.eps) -> float:
    """(x_noisy - x_baseline) / (x_baseline + eps)."""
    if not (math.isfinite(x_noisy) and math.isfinite(x_baseline)):
        raise NonFiniteInput("relative deviation needs finite inputs")
    if eps <= 0:
        raise NonFiniteInput("eps must be positive")
    return (x_noisy - x_baseline) / (x_baseline + eps)


def composite_score(rel_sdnn: float, rel_bpm: float, rel_qtc: float) -> float:
    """Weighted sum of absolute relative deviations, clamped to [0, 1].

    Magnitudes are used because stress drives SDNN down (negative rel)
    while the weights are positive; clamping keeps the score in the
    range the score bins expect.
    """
    for v in (rel_sdnn, rel_bpm, rel_qtc):
        if not math.isfinite(v):
            raise NonFiniteInput("composite score needs finite inputs")
    raw = 0.5 * abs(rel_sdnn) + 0.3 * abs(rel_bpm) + 0.2 * abs(rel_qtc)
    return min(max(raw, 0.0), 1.0)


def per_feature_levels(ecg_sdnn: float, ecg_bpm: float, ecg_qtc: float, ecg_lfhf: float) -> dict:
    for v in (ecg_sdnn, ecg_bpm, ecg_qtc, ecg_lfhf):
        if not math.isfinite(v):
            raise NonFiniteInput("per-feature levels need finite metrics")
    return {
        "ecg_sdnn": _level("ecg_sdnn", ecg_sdnn),
        "ecg_bpm": _level("ecg_bpm", ecg_bpm),
        "ecg_qtc": _level("ecg_qtc", ecg_qtc),
        "ecg_lfhf": _level("ecg_lfhf", ecg_lfhf),
    }


def fuse_levels(levels: dict) -> int:
    """Median of the four per-feature levels; ambiguous medians take SDNN's."""
    ordered = sorted(levels.values())
    if ordered[1] == ordered[2]:
        return ordered[1]
    return levels["ecg_sdnn"]


def rule_label(row) -> tuple:
    """Threshold-table label for a valid feature row.

    Returns (level, per-feature level map). ``row`` maps the ecg_* columns
    and ``valid`` to their values.
    """
    if not row["valid"]:
        raise InvalidWindow("cannot label an invalid window")
    levels = per_feature_levels(row["ecg_sdnn"], row["ecg_bpm"], row["ecg_qtc"], row["ecg_lfhf"])
    return fuse_levels(levels), levels


def score_to_level(score: float) -> int:
    """Bin a [0, 1] score: [0,.2) [.2,.4) [.4,.6) [.6,.8) [.8,1] -> 1..5."""
    if not math.isfinite(score) or score < 0.0 or score > 1.0:
        raise OutOfRange(f"score {score} outside [0, 1]")
    return _level("score", score)


def assess(row) -> tuple:
    """(score, rule_level, score_level) of one valid feature row.

    The score weighs the row's own ``rel_sdnn``, ``rel_bpm`` and ``rel_qtc``;
    the rule level reads its ``ecg_*`` columns.
    """
    rule, _ = rule_label(row)
    score = composite_score(row["rel_sdnn"], row["rel_bpm"], row["rel_qtc"])
    return score, rule, score_to_level(score)
