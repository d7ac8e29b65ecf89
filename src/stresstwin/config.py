"""Run configuration: one overridable home for every pipeline constant."""

import json
import math
import os
from dataclasses import dataclass, fields

from .errors import ConfigInvalid

ENV_DATA_DIR = "STRESSTWIN_DATA_DIR"
ENV_OUT_DIR = "STRESSTWIN_OUT_DIR"


@dataclass
class RunConfig:
    data_dir: str = "."
    output_dir: str = "out"
    baseline_record: str = "118"
    window_s: float = 10.0
    stride_s: float = 5.0
    context_s: float = 60.0
    eps: float = 1e-6
    train_fraction: float = 0.7
    seed: int = 2025
    n_trees: int = 50
    mtry: int = 3
    min_samples_leaf: int = 2
    max_depth: int | None = None
    # or "record": whole records on each side, which holds out no beat, since
    # every noisy record is the clean record plus noise
    split_unit: str = "window"
    shap_on: str = "test"  # or "train" / "all"
    dwell_windows: int = 2
    tick_ms: int = 200
    chunk_s: float = 1.0
    sim_max_duration_s: float | None = None

    def validate(self) -> None:
        for name in _NAMES:
            if not isinstance(getattr(self, name), str):
                raise ConfigInvalid(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in _REALS:
            value = getattr(self, name)
            if not _is_real(value) or value <= 0:
                raise ConfigInvalid(f"{name} must be a positive finite number, got {value!r}")
        for name in _COUNTS:
            value = getattr(self, name)
            if not _is_count(value) or value <= 0:
                raise ConfigInvalid(f"{name} must be a positive integer, got {value!r}")
        if not _is_count(self.seed) or self.seed < 0:
            raise ConfigInvalid(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.max_depth is not None and (not _is_count(self.max_depth) or self.max_depth < 1):
            raise ConfigInvalid(f"max_depth must be null or an integer of at least 1, got {self.max_depth!r}")
        duration = self.sim_max_duration_s
        if duration is not None and (not _is_real(duration) or duration <= 0):
            raise ConfigInvalid(f"sim_max_duration_s must be null or a positive finite number, got {duration!r}")
        if not self.train_fraction < 1.0:
            raise ConfigInvalid("train_fraction must be inside (0, 1)")
        if self.context_s < self.window_s:
            raise ConfigInvalid(f"context_s ({self.context_s}) must be at least window_s ({self.window_s})")
        if self.split_unit not in ("window", "record"):
            raise ConfigInvalid(f"split_unit {self.split_unit!r} unknown")
        if self.shap_on not in ("test", "train", "all"):
            raise ConfigInvalid(f"shap_on {self.shap_on!r} unknown")


_NAMES = ("data_dir", "output_dir", "baseline_record", "split_unit", "shap_on")
_REALS = ("window_s", "stride_s", "context_s", "eps", "train_fraction", "chunk_s")
_COUNTS = ("n_trees", "mtry", "min_samples_leaf", "dwell_windows", "tick_ms")


def _is_real(value) -> bool:
    """A finite int or float; a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional JSON file, env, and overrides."""
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    if path is not None:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ConfigInvalid("config file must hold a JSON object")
        for key, value in payload.items():
            if key not in known:
                raise ConfigInvalid(f"unknown config key {key!r} in {path}")
            setattr(cfg, key, value)
    if os.environ.get(ENV_DATA_DIR):
        cfg.data_dir = os.environ[ENV_DATA_DIR]
    if os.environ.get(ENV_OUT_DIR):
        cfg.output_dir = os.environ[ENV_OUT_DIR]
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in known:
            raise ConfigInvalid(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg
