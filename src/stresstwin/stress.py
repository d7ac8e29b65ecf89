"""Stress quantification: relative deviations, composite score, level rules.

Four absolute HRV metrics map to a 1..5 level each through threshold rows;
the overall rule level is the median of the four, with even splits broken
toward the SDNN level (the dominant weight in the composite score). Score
ranges bin separately into the same 1..5 scale for intervention selection.
"""

import math
from dataclasses import dataclass

from .errors import InvalidLevel, InvalidWindow, NonFiniteInput, OutOfRange

LEVEL_LABELS = {1: "Normal", 2: "Mild", 3: "Moderate", 4: "High", 5: "Extreme"}

DEFAULT_EPS = 1e-6


@dataclass(frozen=True)
class StressLevel:
    level: int
    label: str

    @classmethod
    def from_int(cls, level: int) -> "StressLevel":
        if level not in LEVEL_LABELS:
            raise InvalidLevel(f"level {level} outside 1..5")
        return cls(level=level, label=LEVEL_LABELS[level])


@dataclass(frozen=True)
class StressAssessment:
    score: float
    rule_level: StressLevel
    score_level: StressLevel
    per_feature_levels: dict


def relative_deviation(x_noisy: float, x_baseline: float, eps: float = DEFAULT_EPS) -> float:
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
    range the intervention bins expect.
    """
    for v in (rel_sdnn, rel_bpm, rel_qtc):
        if not math.isfinite(v):
            raise NonFiniteInput("composite score needs finite inputs")
    raw = 0.5 * abs(rel_sdnn) + 0.3 * abs(rel_bpm) + 0.2 * abs(rel_qtc)
    return min(max(raw, 0.0), 1.0)


def _sdnn_level(v: float) -> int:
    # descending column: higher variability is healthier
    if v > 50:
        return 1
    if v > 40:
        return 2
    if v > 30:
        return 3
    if v > 20:
        return 4
    return 5


def _bpm_level(v: float) -> int:
    # below the table's first row counts as level 1 (bradycardia out of scope)
    if v <= 80:
        return 1
    if v <= 90:
        return 2
    if v <= 100:
        return 3
    if v <= 110:
        return 4
    return 5


def _qtc_level(v: float) -> int:
    if v <= 420:
        return 1
    if v <= 440:
        return 2
    if v <= 460:
        return 3
    if v <= 480:
        return 4
    return 5


def _lfhf_level(v: float) -> int:
    if v <= 1.5:
        return 1
    if v <= 2.5:
        return 2
    if v <= 4:
        return 3
    if v <= 6:
        return 4
    return 5


def per_feature_levels(ecg_sdnn: float, ecg_bpm: float, ecg_qtc: float, ecg_lfhf: float) -> dict:
    for v in (ecg_sdnn, ecg_bpm, ecg_qtc, ecg_lfhf):
        if not math.isfinite(v):
            raise NonFiniteInput("per-feature levels need finite metrics")
    return {
        "ecg_sdnn": _sdnn_level(ecg_sdnn),
        "ecg_bpm": _bpm_level(ecg_bpm),
        "ecg_qtc": _qtc_level(ecg_qtc),
        "ecg_lfhf": _lfhf_level(ecg_lfhf),
    }


def fuse_levels(levels: dict) -> int:
    """Median of the four per-feature levels; ambiguous medians take SDNN's."""
    ordered = sorted(levels.values())
    if ordered[1] == ordered[2]:
        return ordered[1]
    return levels["ecg_sdnn"]


def rule_label(features) -> tuple:
    """Threshold-table label for a valid feature window.

    Returns (StressLevel, per-feature level map). ``features`` needs the
    ecg_* attributes plus ``valid``.
    """
    if not getattr(features, "valid", False):
        raise InvalidWindow("cannot label an invalid window")
    levels = per_feature_levels(
        features.ecg_sdnn, features.ecg_bpm, features.ecg_qtc, features.ecg_lfhf
    )
    return StressLevel.from_int(fuse_levels(levels)), levels


def score_to_level(score: float) -> StressLevel:
    """Bin a [0, 1] score: [0,.2) [.2,.4) [.4,.6) [.6,.8) [.8,1] -> 1..5."""
    if not math.isfinite(score) or score < 0.0 or score > 1.0:
        raise OutOfRange(f"score {score} outside [0, 1]")
    if score < 0.2:
        level = 1
    elif score < 0.4:
        level = 2
    elif score < 0.6:
        level = 3
    elif score < 0.8:
        level = 4
    else:
        level = 5
    return StressLevel.from_int(level)


def assess(features, baseline, eps: float = DEFAULT_EPS) -> StressAssessment:
    """Full assessment of one valid window against a baseline profile."""
    rule, per_feature = rule_label(features)
    score = composite_score(
        relative_deviation(features.ecg_sdnn, baseline.sdnn, eps),
        relative_deviation(features.ecg_bpm, baseline.bpm, eps),
        relative_deviation(features.ecg_qtc, baseline.qtc, eps),
    )
    return StressAssessment(
        score=score,
        rule_level=rule,
        score_level=score_to_level(score),
        per_feature_levels=per_feature,
    )
