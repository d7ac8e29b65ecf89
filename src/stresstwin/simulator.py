"""Deterministic closed-loop simulation: sensor -> edge -> inference -> actuators.

Runs on a virtual millisecond clock driven by a (time, sequence) ordered
event heap, so a run is a pure function of (records, window levels, config,
seed). Real time never enters; repeated runs produce byte-identical traces.
Records play back sequentially on one timeline with windowing state reset at
record boundaries. Windows follow ``hrv.window_iter``'s sample grid, as the
features stage does, and each window's level is looked up in a map that the
caller builds from the feature rows.
"""

import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid, InvalidParam, IoError
from .hrv import window_iter
from .interventions import (
    LATENCY_RANGE_MS,
    CommandIdAllocator,
    command_to_dict,
    commands_for_level,
)

KIND_SENSOR = "SensorChunk"
KIND_WINDOW = "WindowReady"
KIND_INFER = "Inference"
KIND_TICK = "StrategyTick"
KIND_ISSUED = "CommandIssued"
KIND_APPLIED = "ActuatorApplied"
KIND_FEEDBACK = "Feedback"

INITIAL_LEVEL = 1  # committed before the first window, commanded at t = 0


@dataclass(frozen=True)
class SimEvent:
    at_ms: int
    seq: int
    kind: str
    payload: dict


@dataclass
class SimTrace:
    events: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]


@dataclass
class SimulatorConfig:
    window_s: float = 10.0
    stride_s: float = 5.0
    tick_ms: int = 200
    dwell_windows: int = 2
    chunk_s: float = 1.0
    scripted_levels: tuple | None = None  # ((t_s, level), ...) replaces the window levels
    max_duration_s: float | None = None
    latency_table: dict | None = None  # scale -> (lo_ms, hi_ms) override

    def validate(self) -> None:
        if self.window_s <= 0 or self.stride_s <= 0 or self.tick_ms <= 0:
            raise ConfigInvalid("window, stride and tick period must be positive")
        if self.dwell_windows < 1:
            raise ConfigInvalid("dwell needs at least 1 window")
        if self.chunk_s <= 0:
            raise ConfigInvalid("chunk period must be positive")
        if self.scripted_levels is not None:
            for t_s, lvl in self.scripted_levels:
                if lvl not in (1, 2, 3, 4, 5):
                    raise ConfigInvalid(f"scripted level {lvl} outside 1..5")
                if t_s < 0:
                    raise ConfigInvalid("scripted times must be non-negative")
        if self.latency_table is not None:
            if set(self.latency_table) != set(LATENCY_RANGE_MS):
                raise ConfigInvalid("latency table must cover exactly the four scales")
            for scale, (lo, hi) in self.latency_table.items():
                if not 0 < lo <= hi:
                    raise ConfigInvalid(f"bad latency range for {scale}: [{lo}, {hi}]")

    def latency_range_ms(self, scale: str) -> tuple:
        table = self.latency_table or LATENCY_RANGE_MS
        return tuple(table[scale])


def window_key(record, start_s: float) -> tuple:
    """Key of a window in the levels map: (record name, window start sample)."""
    return record.record_name, int(round(start_s * record.fs))


def commit_level(committed: int, levels, dwell_windows: int) -> int:
    """The committed level after the valid window levels seen so far.

    A change commits only once the last ``dwell_windows`` levels agree with
    each other; until then ``committed`` stands.
    """
    tail = levels[-dwell_windows:]
    if len(tail) == dwell_windows and len(set(tail)) == 1 and tail[0] != committed:
        return tail[0]
    return committed


class _Actuators:
    """Per-scale active action sets; stale scales purge when a batch completes.

    A command from a batch older than the newest issued one is superseded:
    it is dropped instead of applied, so slow scales can never resurrect a
    replaced intervention level.
    """

    def __init__(self):
        self.state: dict = {}
        self._batch_pending: dict = {}
        self._newest_batch = 0

    def expect_batch(self, batch_id: int, n_commands: int) -> None:
        self._batch_pending[batch_id] = n_commands
        self._newest_batch = max(self._newest_batch, batch_id)

    def apply(self, scale: str, action: str, batch_id: int, at_ms: int) -> bool:
        if batch_id < self._newest_batch:
            return False
        entry = self.state.get(scale)
        if entry is None or entry["batch"] != batch_id:
            self.state[scale] = {"batch": batch_id, "actions": [action], "applied_at_ms": at_ms}
        else:
            entry["actions"].append(action)
            entry["applied_at_ms"] = at_ms
        self._batch_pending[batch_id] -= 1
        if self._batch_pending[batch_id] == 0:
            del self._batch_pending[batch_id]
            for sc in list(self.state):
                if self.state[sc]["batch"] < batch_id:
                    del self.state[sc]
        return True

    def snapshot(self) -> dict:
        return {
            sc: {"batch": entry["batch"], "actions": sorted(entry["actions"])}
            for sc, entry in sorted(self.state.items())
        }


class _Run:
    def __init__(self, noisy_records, levels, config, seed):
        config.validate()
        self.config = config
        self.records = list(noisy_records)
        for rec in self.records:
            if round(config.chunk_s * rec.fs) < 1:
                raise ConfigInvalid(
                    f"chunk_s {config.chunk_s} holds no sample of {rec.record_name} at {rec.fs} Hz"
                )
        self.levels = levels
        if config.scripted_levels is None and levels is None:
            raise ConfigInvalid("window levels are required unless levels are scripted")
        self.rng = np.random.default_rng(seed)
        self.trace = SimTrace()
        self.heap: list = []
        self.seq = 0
        self.committed = INITIAL_LEVEL
        self.window_levels: list = []
        self.last_commanded = None
        self.allocator = CommandIdAllocator()
        self.actuators = _Actuators()
        self.batch_counter = 0

    # -- scheduling --------------------------------------------------------

    def schedule(self, at_ms: int, kind: str, payload: dict) -> None:
        heapq.heappush(self.heap, (int(at_ms), self.seq, kind, payload))
        self.seq += 1

    def log(self, at_ms: int, seq: int, kind: str, payload: dict) -> None:
        self.trace.events.append(SimEvent(at_ms=at_ms, seq=seq, kind=kind, payload=payload))

    # -- handlers ----------------------------------------------------------

    def run(self) -> SimTrace:
        cfg = self.config
        offset_ms = 0
        for rec_idx, rec in enumerate(self.records):
            dur_s = rec.n_samples / rec.fs
            if cfg.max_duration_s is not None:
                dur_s = min(dur_s, cfg.max_duration_s)
            dur_ms = int(round(dur_s * 1000))
            n_chunks = int(dur_s / cfg.chunk_s)
            for k in range(1, n_chunks + 1):
                at = offset_ms + int(round(k * cfg.chunk_s * 1000))
                self.schedule(
                    at,
                    KIND_SENSOR,
                    {
                        "record": rec.record_name,
                        "t_local_s": k * cfg.chunk_s,
                        "n_samples": int(round(cfg.chunk_s * rec.fs)),
                    },
                )
            for start_s, window in window_iter(rec, cfg.window_s, cfg.stride_s):
                end_s = window.stop / rec.fs
                if end_s > dur_s + 1e-9:
                    break
                self.schedule(
                    offset_ms + int(round(end_s * 1000)),
                    KIND_WINDOW,
                    {
                        "record": rec.record_name,
                        "window_start_s": start_s,
                        "window_end_local_s": end_s,
                        "record_offset_ms": offset_ms,
                        "record_index": rec_idx,
                    },
                )
            offset_ms += dur_ms

        for at in range(0, offset_ms + 1, cfg.tick_ms):
            self.schedule(at, KIND_TICK, {})

        while self.heap:
            at_ms, seq, kind, payload = heapq.heappop(self.heap)
            if kind == KIND_WINDOW:
                self.schedule(at_ms, KIND_INFER, dict(payload))
            elif kind == KIND_INFER:
                self._on_infer(at_ms, payload)
            elif kind == KIND_TICK:
                payload["committed"] = self.committed
                payload["issued"] = self.committed != self.last_commanded
            self.log(at_ms, seq, kind, payload)
            if kind == KIND_TICK and payload["issued"]:
                self._issue_batch(at_ms)
            elif kind == KIND_APPLIED:
                self._on_applied(at_ms, payload)
        return self.trace

    def _scripted_level(self, t_s: float) -> int:
        level = INITIAL_LEVEL
        for start_s, lvl in sorted(self.config.scripted_levels):
            if t_s >= start_s:
                level = lvl
        return level

    def _window_level(self, payload: dict):
        """The window's level, or None when the window is invalid."""
        if self.config.scripted_levels is not None:
            end_local_s = payload["window_end_local_s"]
            global_t_s = (payload["record_offset_ms"] + end_local_s * 1000.0) / 1000.0
            return self._scripted_level(global_t_s)
        key = window_key(self.records[payload["record_index"]], payload["window_start_s"])
        if key not in self.levels:
            raise InvalidParam(
                f"no feature row for record {key[0]} window at {payload['window_start_s']} s "
                f"(sample {key[1]}): the features were built for other records or windows"
            )
        return self.levels[key]

    def _on_infer(self, at_ms: int, payload: dict) -> None:
        level = self._window_level(payload)
        if level is not None:
            self.window_levels.append(level)
            self.committed = commit_level(
                self.committed, self.window_levels, self.config.dwell_windows
            )
        payload["level"] = level
        payload["valid"] = level is not None
        payload["committed"] = self.committed

    def _issue_batch(self, at_ms: int) -> None:
        self.batch_counter += 1
        batch_id = self.batch_counter
        commands = commands_for_level(self.committed, at_ms / 1000.0, self.allocator)
        self.actuators.expect_batch(batch_id, len(commands))
        for cmd in commands:
            lo, hi = self.config.latency_range_ms(cmd.scale)
            latency_ms = int(self.rng.integers(lo, hi + 1))
            issued = dict(command_to_dict(cmd))
            issued["batch"] = batch_id
            self.schedule(at_ms, KIND_ISSUED, issued)
            self.schedule(
                at_ms + latency_ms,
                KIND_APPLIED,
                {
                    "command_id": cmd.command_id,
                    "action": cmd.action,
                    "scale": cmd.scale,
                    "stress_level": cmd.stress_level,
                    "issued_at_ms": at_ms,
                    "latency_ms": latency_ms,
                    "batch": batch_id,
                },
            )
        self.last_commanded = self.committed

    def _on_applied(self, at_ms: int, payload: dict) -> None:
        applied = self.actuators.apply(
            payload["scale"], payload["action"], payload["batch"], at_ms
        )
        payload["superseded"] = not applied
        if applied:
            self.schedule(at_ms, KIND_FEEDBACK, {"actuators": self.actuators.snapshot()})


def run_simulation(
    noisy_records,
    levels: dict | None,
    config: SimulatorConfig | None = None,
    seed: int = 0,
) -> SimTrace:
    """Simulate the closed loop over the given records; see module docstring.

    ``levels`` maps the ``window_key`` of each window to its level (None:
    invalid window); it may be None when the config scripts the levels.
    """
    run = _Run(noisy_records, levels, config or SimulatorConfig(), seed)
    return run.run()


def export_trace(trace: SimTrace, path) -> None:
    """One canonical JSON object per event, ordered by (time, sequence)."""
    try:
        with open(path, "w") as fh:
            for ev in trace.events:
                fh.write(
                    json.dumps(
                        {"at_ms": ev.at_ms, "seq": ev.seq, "kind": ev.kind, "payload": ev.payload},
                        ensure_ascii=True,
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write trace to {path}: {exc}") from exc
