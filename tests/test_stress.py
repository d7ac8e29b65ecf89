import math

import numpy as np
import pytest

from stresstwin.errors import InvalidWindow, NonFiniteInput, OutOfRange
from stresstwin.hrv import FEATURE_COLUMNS
from stresstwin.stress import (
    assess,
    composite_score,
    fuse_levels,
    per_feature_levels,
    relative_deviation,
    rule_label,
    score_to_level,
)


def make_features(sdnn, bpm, qtc, lfhf, valid=True):
    """A feature row with the given ecg_* metrics and every other feature column 0."""
    row = dict.fromkeys(FEATURE_COLUMNS, 0.0)
    row.update(ecg_sdnn=sdnn, ecg_bpm=bpm, ecg_qtc=qtc, ecg_lfhf=lfhf, window_start=0.0, valid=valid)
    return row


class TestRelativeDeviation:
    def test_zero_case(self):
        assert relative_deviation(50.0, 50.0) == 0.0

    def test_direct_substitution(self):
        assert abs(relative_deviation(60.0, 50.0) - 0.2) < 1e-6

    def test_eps_guard(self):
        v = relative_deviation(1.0, 0.0, eps=1e-6)
        assert math.isfinite(v)
        assert abs(v - 1e6) < 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            relative_deviation(float("nan"), 1.0)
        with pytest.raises(NonFiniteInput):
            relative_deviation(1.0, float("inf"))

    def test_identity_property(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1e6, 1e6, 100):
            assert relative_deviation(x, x) == 0.0


class TestCompositeScore:
    def test_zero(self):
        assert composite_score(0.0, 0.0, 0.0) == 0.0

    def test_direct_substitution(self):
        assert abs(composite_score(0.2, 0.1, 0.05) - 0.14) < 1e-12

    def test_clamped(self):
        assert composite_score(1.5, 1.0, 1.0) == 1.0

    def test_magnitudes_used(self):
        assert composite_score(-0.2, -0.1, -0.05) == composite_score(0.2, 0.1, 0.05)

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = rng.uniform(0, 1, 3)
            bump = rng.uniform(0, 0.5)
            base = composite_score(a, b, c)
            assert composite_score(a + bump, b, c) >= base
            assert composite_score(a, b + bump, c) >= base
            assert composite_score(a, b, c + bump) >= base
            assert 0.0 <= base <= 1.0

    def test_non_finite(self):
        with pytest.raises(NonFiniteInput):
            composite_score(float("nan"), 0.0, 0.0)


class TestRuleLabel:
    CANONICAL = {
        1: (55.0, 70.0, 410.0, 1.0),
        2: (45.0, 85.0, 430.0, 2.0),
        3: (35.0, 95.0, 450.0, 3.0),
        4: (25.0, 105.0, 470.0, 5.0),
        5: (15.0, 115.0, 490.0, 7.0),
    }

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_canonical_rows(self, level):
        label, _ = rule_label(make_features(*self.CANONICAL[level]))
        assert label == level

    def test_extreme_rows(self):
        assert rule_label(make_features(55, 70, 410, 1.0))[0] == 1
        assert rule_label(make_features(15, 115, 490, 7.0))[0] == 5

    def test_median_tie_breaks_to_sdnn(self):
        # SDNN=35 (L3), BPM=85 (L2), QTc=430 (L2), LF/HF=3 (L3)
        label, per_feature = rule_label(make_features(35, 85, 430, 3.0))
        assert per_feature == {
            "ecg_sdnn": 3,
            "ecg_bpm": 2,
            "ecg_qtc": 2,
            "ecg_lfhf": 3,
        }
        assert label == 3

    def test_invalid_window_rejected(self):
        with pytest.raises(InvalidWindow):
            rule_label(make_features(55, 70, 410, 1.0, valid=False))

    def test_bradycardia_maps_level_1(self):
        assert per_feature_levels(55, 45, 410, 1.0)["ecg_bpm"] == 1

    def test_stability_inside_bins(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sdnn = rng.uniform(30.01, 39.99)
            bpm = rng.uniform(90.01, 99.99)
            qtc = rng.uniform(440.01, 459.99)
            lfhf = rng.uniform(2.51, 3.99)
            label, _ = rule_label(make_features(sdnn, bpm, qtc, lfhf))
            assert label == 3

    def test_fusion_rule_even_split(self):
        assert fuse_levels({"ecg_sdnn": 1, "ecg_bpm": 3, "ecg_qtc": 3, "ecg_lfhf": 1}) == 1
        assert fuse_levels({"ecg_sdnn": 3, "ecg_bpm": 2, "ecg_qtc": 2, "ecg_lfhf": 3}) == 3
        assert fuse_levels({"ecg_sdnn": 2, "ecg_bpm": 2, "ecg_qtc": 5, "ecg_lfhf": 4}) == 2


class TestAssess:
    def test_score_follows_the_rel_columns(self):
        row = make_features(55.0, 70.0, 410.0, 1.0)
        row.update(rel_sdnn=-0.1, rel_bpm=0.05, rel_qtc=0.02, rel_lfhf=3.0)
        assert assess(row) == (composite_score(-0.1, 0.05, 0.02), 1, 1)
        row["rel_sdnn"] = -0.9
        assert assess(row) == (composite_score(-0.9, 0.05, 0.02), 1, 3)

    def test_ecg_columns_move_only_the_rule_level(self):
        # SDNN=35 (L3), BPM=85 (L2), QTc=430 (L2), LF/HF=3 (L3): the tie takes SDNN's level
        row = make_features(35.0, 85.0, 430.0, 3.0)
        row.update(rel_sdnn=-0.5, rel_bpm=0.2, rel_qtc=0.1)
        score, rule, score_level = assess(row)
        assert (rule, score_level) == (3, 2)
        row["ecg_sdnn"] = 15.0
        assert assess(row) == (score, 5, score_level)


class TestScoreToLevel:
    @pytest.mark.parametrize(
        "score,level",
        [(0.0, 1), (0.1, 1), (0.2, 2), (0.39, 2), (0.4, 3), (0.6, 4), (0.79, 4), (0.8, 5), (1.0, 5)],
    )
    def test_bins(self, score, level):
        assert score_to_level(score) == level

    def test_monotone(self):
        rng = np.random.default_rng(3)
        scores = np.sort(rng.uniform(0, 1, 300))
        levels = [score_to_level(float(s)) for s in scores]
        assert all(a <= b for a, b in zip(levels, levels[1:]))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            score_to_level(1.5)
        with pytest.raises(OutOfRange):
            score_to_level(-0.01)


# Reference level rules written as plain if-chains, one per row of the table,
# to check the bisect-read table against value by value at each edge.
def _ref_sdnn(v):
    if v > 50:
        return 1
    if v > 40:
        return 2
    if v > 30:
        return 3
    if v > 20:
        return 4
    return 5


def _ref_ascending(edges):
    def level(v):
        for lvl, edge in enumerate(edges, start=1):
            if v <= edge:
                return lvl
        return 5

    return level


def _ref_score(v):
    if v < 0.2:
        return 1
    if v < 0.4:
        return 2
    if v < 0.6:
        return 3
    if v < 0.8:
        return 4
    return 5


FEATURE_EDGES = {
    "ecg_sdnn": (_ref_sdnn, (20, 30, 40, 50)),
    "ecg_bpm": (_ref_ascending((80, 90, 100, 110)), (80, 90, 100, 110)),
    "ecg_qtc": (_ref_ascending((420, 440, 460, 480)), (420, 440, 460, 480)),
    "ecg_lfhf": (_ref_ascending((1.5, 2.5, 4, 6)), (1.5, 2.5, 4, 6)),
}
MID_METRICS = {"ecg_sdnn": 35.0, "ecg_bpm": 95.0, "ecg_qtc": 450.0, "ecg_lfhf": 3.0}


def _around(edge):
    """The edge and its float neighbours below and above."""
    edge = float(edge)
    return float(np.nextafter(edge, -np.inf)), edge, float(np.nextafter(edge, np.inf))


class TestLevelEdges:
    @pytest.mark.parametrize("feature", sorted(FEATURE_EDGES))
    def test_feature_edges(self, feature):
        reference, edges = FEATURE_EDGES[feature]
        for edge in edges:
            below, at, above = _around(edge)
            assert reference(below) != reference(above), (feature, edge)
            for v in (below, at, above):
                metrics = dict(MID_METRICS, **{feature: v})
                assert per_feature_levels(**metrics)[feature] == reference(v), (feature, v)

    def test_score_edges(self):
        for edge in (0.2, 0.4, 0.6, 0.8):
            below, at, above = _around(edge)
            assert _ref_score(below) != _ref_score(above), edge
            for v in (below, at, above):
                assert score_to_level(v) == _ref_score(v), v
        for v in (0.0, float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0)), 1.0):
            assert score_to_level(v) == _ref_score(v), v
