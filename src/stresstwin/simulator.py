"""Deterministic closed-loop simulation: sensor -> edge -> inference -> actuators.

Runs on a virtual millisecond clock that plays events in (time, sequence)
order, so a run is a pure function of the records, the window levels (or a
scripted level schedule) and the ``RunConfig``, whose ``seed`` draws the
actuator latencies. Real time never enters; repeated runs produce
byte-identical traces.
Records play back sequentially on one timeline with windowing state reset at
record boundaries. Windows follow ``hrv.window_grid``, as the features stage
does: each is ready at its segment's last sample, and its level is looked up
by (record name, window start) in a map that the caller builds from the
feature rows.

Sequence numbers are taken in order of scheduling: first the sensor chunks
and windows of every record, then one contiguous block for the strategy
ticks (one per ``tick_ms`` from 0 to the end of the timeline), then every
event that the play-out itself schedules. The ticks never enter the event
heap: tick ``i`` carries sequence number ``block start + i`` and plays
whenever its ``(at_ms, seq)`` sorts before the heap's top. A tick that
shares a millisecond with a chunk or window thus plays after it, and before
every event that the play-out schedules for that millisecond (inferences,
commands, actuator and feedback events).

``export_trace`` writes one line per event, the canonical JSON form
``json.dumps(event, ensure_ascii=True, sort_keys=True, separators=(",", ":"))``
of the object with keys ``at_ms``, ``seq``, ``kind`` and ``payload``:
``{"at_ms":<int>,"kind":<string>,"payload":<object>,"seq":<int>}``.
"""

import heapq
import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .config import RunConfig, _is_count, _is_real
from .errors import ConfigInvalid, InvalidParam, IoError
from .hrv import window_grid
from .interventions import CATALOG, LATENCY_MS, commands_for_level

KIND_SENSOR = "SensorChunk"
KIND_WINDOW = "WindowReady"
KIND_INFER = "Inference"
KIND_TICK = "StrategyTick"
KIND_ISSUED = "CommandIssued"
KIND_APPLIED = "ActuatorApplied"
KIND_FEEDBACK = "Feedback"

INITIAL_LEVEL = 1  # committed before the first window, commanded at t = 0


class SimEvent(NamedTuple):
    """One trace event; as a tuple it sorts by (at_ms, seq) on the event heap."""

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


def _checked_schedule(scripted) -> tuple:
    """A scripted schedule as ((t_s, level), ...); ConfigInvalid unless it is a
    list of [time, level] pairs, each time finite and >= 0, each level an
    integer from 1 to 5."""
    if not isinstance(scripted, (list, tuple)):
        raise ConfigInvalid(f"scripted schedule must be a list of [time, level] pairs, got {scripted!r}")
    for entry in scripted:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigInvalid(f"scripted entry {entry!r} is not a [time, level] pair")
        t_s, level = entry
        if not _is_real(t_s) or t_s < 0:
            raise ConfigInvalid(f"scripted time {t_s!r} is not a finite number >= 0")
        if not _is_count(level) or level not in CATALOG:
            raise ConfigInvalid(f"scripted level {level!r} is not an integer from 1 to 5")
    return tuple(sorted((float(t_s), level) for t_s, level in scripted))


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
    replaced intervention level. Batch ids increase, so only the newest
    batch's commands apply, and only its count of unapplied commands is kept.
    """

    def __init__(self):
        self.state: dict = {}
        self._newest_batch = 0
        self._remaining = 0  # the newest batch's commands not yet applied

    def expect_batch(self, batch_id: int, n_commands: int) -> None:
        self._newest_batch = batch_id
        self._remaining = n_commands

    def apply(self, scale: str, action: str, batch_id: int) -> bool:
        if batch_id < self._newest_batch:
            return False
        entry = self.state.get(scale)
        if entry is None or entry["batch"] != batch_id:
            self.state[scale] = {"batch": batch_id, "actions": [action]}
        else:
            entry["actions"].append(action)
        self._remaining -= 1
        if self._remaining == 0:
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
    def __init__(self, noisy_records, levels, cfg, scripted):
        cfg.validate()
        self.cfg = cfg
        self.records = list(noisy_records)
        for rec in self.records:
            if round(cfg.chunk_s * rec.fs) < 1:
                raise ConfigInvalid(
                    f"chunk_s {cfg.chunk_s} holds no sample of {rec.record_name} at {rec.fs} Hz"
                )
        self.scripted = None if scripted is None else _checked_schedule(scripted)
        self.levels = levels
        if self.scripted is None and levels is None:
            raise ConfigInvalid("window levels are required unless levels are scripted")
        self.rng = np.random.default_rng(cfg.seed)
        self.trace = SimTrace()
        self.heap: list = []
        self.seq = 0
        self.committed = INITIAL_LEVEL
        self.window_levels: list = []
        self.last_commanded = None
        self.next_command_id = 1  # strictly increasing over the run
        self.actuators = _Actuators()
        self.batch_counter = 0

    # -- scheduling --------------------------------------------------------

    def schedule(self, at_ms: int, kind: str, payload: dict) -> None:
        heapq.heappush(self.heap, SimEvent._make((at_ms, self.seq, kind, payload)))
        self.seq += 1

    # -- handlers ----------------------------------------------------------

    def run(self) -> SimTrace:
        cfg = self.cfg
        offset_ms = 0
        for rec_idx, rec in enumerate(self.records):
            dur_s = rec.n_samples / rec.fs
            if cfg.sim_max_duration_s is not None:
                dur_s = min(dur_s, cfg.sim_max_duration_s)
            dur_ms = int(round(dur_s * 1000))
            # chunk k ends at k * chunk_s, kept with the window loop's tolerance
            n_chunks = int((dur_s + 1e-9) / cfg.chunk_s)
            chunk_n = int(round(cfg.chunk_s * rec.fs))
            for k in range(1, n_chunks + 1):
                t_local_s = k * cfg.chunk_s
                self.schedule(
                    offset_ms + int(round(t_local_s * 1000)),
                    KIND_SENSOR,
                    {"record": rec.record_name, "t_local_s": t_local_s, "n_samples": chunk_n},
                )
            for start_s, segment in window_grid(rec, cfg.window_s, cfg.stride_s, cfg.context_s):
                end_s = segment.stop / rec.fs
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

        # the ticks take the next block of sequence numbers and play from a
        # range, merged with the heap by (at_ms, seq); see the module docstring
        ticks = range(0, offset_ms + 1, cfg.tick_ms)
        tick_seq = self.seq
        self.seq += len(ticks)
        heap = self.heap
        pop = heapq.heappop
        log = self.trace.events.append
        make = SimEvent._make  # a plain tuple.__new__, without SimEvent()'s Python frame
        for seq, at_ms in enumerate(ticks, tick_seq):
            while heap and heap[0] < (at_ms, seq):
                self._play(pop(heap))
            issued = self.committed != self.last_commanded
            log(make((at_ms, seq, KIND_TICK, {"committed": self.committed, "issued": issued})))
            if issued:
                self._issue_batch(at_ms)
        while heap:
            self._play(pop(heap))
        return self.trace

    def _play(self, event: SimEvent) -> None:
        """Handle and log one event from the heap."""
        at_ms, _, kind, payload = event
        if kind == KIND_WINDOW:
            self.schedule(at_ms, KIND_INFER, dict(payload))
        elif kind == KIND_INFER:
            self._on_infer(at_ms, payload)
        self.trace.events.append(event)
        if kind == KIND_APPLIED:
            self._on_applied(at_ms, payload)

    def _scripted_level(self, t_s: float) -> int:
        level = INITIAL_LEVEL
        for start_s, lvl in self.scripted:
            if t_s >= start_s:
                level = lvl
        return level

    def _window_level(self, payload: dict):
        """The window's level, or None when the window is invalid."""
        if self.scripted is not None:
            end_local_s = payload["window_end_local_s"]
            global_t_s = (payload["record_offset_ms"] + end_local_s * 1000.0) / 1000.0
            return self._scripted_level(global_t_s)
        key = (payload["record"], payload["window_start_s"])
        if key not in self.levels:
            raise InvalidParam(
                f"no feature row for record {key[0]} window at {key[1]} s: "
                "the features were built for other records or windows"
            )
        return self.levels[key]

    def _on_infer(self, at_ms: int, payload: dict) -> None:
        level = self._window_level(payload)
        if level is not None:
            self.window_levels.append(level)
            self.committed = commit_level(
                self.committed, self.window_levels, self.cfg.dwell_windows
            )
        payload["level"] = level
        payload["valid"] = level is not None
        payload["committed"] = self.committed

    def _issue_batch(self, at_ms: int) -> None:
        self.batch_counter += 1
        batch_id = self.batch_counter
        level = self.committed
        commands = commands_for_level(level)
        self.actuators.expect_batch(batch_id, len(commands))
        for action, scale, ttl_s in commands:
            command_id = self.next_command_id
            self.next_command_id += 1
            lo, hi = LATENCY_MS[scale]
            latency_ms = int(self.rng.integers(lo, hi + 1))
            self.schedule(
                at_ms,
                KIND_ISSUED,
                {
                    "command_id": command_id,
                    "issued_at": at_ms / 1000.0,
                    "stress_level": level,
                    "scale": scale,
                    "action": action,
                    "parameters": {},
                    "ttl_s": ttl_s,
                    "batch": batch_id,
                },
            )
            self.schedule(
                at_ms + latency_ms,
                KIND_APPLIED,
                {
                    "command_id": command_id,
                    "action": action,
                    "scale": scale,
                    "stress_level": level,
                    "issued_at_ms": at_ms,
                    "latency_ms": latency_ms,
                    "batch": batch_id,
                },
            )
        self.last_commanded = level

    def _on_applied(self, at_ms: int, payload: dict) -> None:
        applied = self.actuators.apply(payload["scale"], payload["action"], payload["batch"])
        payload["superseded"] = not applied
        if applied:
            self.schedule(at_ms, KIND_FEEDBACK, {"actuators": self.actuators.snapshot()})


def run_simulation(noisy_records, levels: dict | None, cfg: RunConfig, scripted=None) -> SimTrace:
    """Simulate the closed loop over the given records; see module docstring.

    The window geometry, tick period, dwell, chunk period, duration cap and
    seed of ``cfg`` drive the run, and ``cfg`` is validated first.
    ``levels`` maps each window's ``(record_name, window_start)``, the start
    in seconds as ``hrv.window_grid`` gives it, to its level (None: invalid
    window). ``scripted``, a list of [time_s, level]
    pairs, replaces the window levels: each window takes the level of the
    latest pair at or before its end; ``levels`` may then be None.
    """
    return _Run(noisy_records, levels, cfg, scripted).run()


_EXPORT_BATCH = 4096  # events per write


def export_trace(trace: SimTrace, path) -> None:
    """One canonical JSON line per event, in trace order; see module docstring."""
    # json.dumps builds an encoder per call; one C encoder (the one json.dumps
    # itself runs underneath) with the same settings, made once, writes the
    # same bytes
    canonical = json.JSONEncoder(ensure_ascii=True, sort_keys=True, separators=(",", ":"))
    encode = c_make_encoder(
        {},
        canonical.default,
        encode_basestring_ascii,
        None,
        canonical.key_separator,
        canonical.item_separator,
        canonical.sort_keys,
        canonical.skipkeys,
        canonical.allow_nan,
    )
    events = trace.events
    try:
        with open(path, "w") as fh:
            for start in range(0, len(events), _EXPORT_BATCH):
                fh.write(
                    "".join(
                        [
                            f'{{"at_ms":{at_ms},"kind":{encode_basestring_ascii(kind)},'
                            f'"payload":{"".join(encode(payload, 0))},"seq":{seq}}}\n'
                            for at_ms, seq, kind, payload in events[start : start + _EXPORT_BATCH]
                        ]
                    )
                )
    except OSError as exc:
        raise IoError(f"cannot write trace to {path}: {exc}") from exc
