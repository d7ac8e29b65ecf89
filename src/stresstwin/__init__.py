"""Stress scoring from noisy ECG with closed-loop environmental control.

Pipeline: WFDB-212 ingest -> windowed HRV features -> rule labels and
composite scores -> random forest with exact per-feature attributions ->
tiered intervention commands -> deterministic virtual-time simulation.
"""

from .forest import (
    Dataset,
    ForestParams,
    RandomForest,
    evaluate,
    predict,
    stratified_split,
    train_forest,
)
from .hrv import (
    FEATURE_COLUMNS,
    BaselineProfile,
    RrSeries,
    WindowFeatures,
    compute_baseline,
    detect_r_peaks,
    extract_window_features,
)
from .ingest import EcgRecord, RecordHeader, decode_format212, load_record, parse_header
from .interventions import commands_for_level
from .shapley import ShapExplanation, brute_force_shap, forest_shap, tree_shap
from .simulator import SimTrace, export_trace, run_simulation
from .stress import composite_score, relative_deviation, rule_label, score_to_level
from .synth import synth_ecg

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ForestParams",
    "RandomForest",
    "evaluate",
    "predict",
    "stratified_split",
    "train_forest",
    "FEATURE_COLUMNS",
    "BaselineProfile",
    "RrSeries",
    "WindowFeatures",
    "compute_baseline",
    "detect_r_peaks",
    "extract_window_features",
    "EcgRecord",
    "RecordHeader",
    "decode_format212",
    "load_record",
    "parse_header",
    "commands_for_level",
    "ShapExplanation",
    "brute_force_shap",
    "forest_shap",
    "tree_shap",
    "SimTrace",
    "export_trace",
    "run_simulation",
    "composite_score",
    "relative_deviation",
    "rule_label",
    "score_to_level",
    "synth_ecg",
    "__version__",
]
