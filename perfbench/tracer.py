"""In-memory span tracing of the stresstwin package, installed from outside.

The tracer wraps every public function of each layer module and patches the
wrapper into every ``stresstwin`` module that binds the function, so a call
through ``hrv.bandpass_filter`` is recorded as well as one through
``dsp.bandpass_filter``. Each call becomes a span ``(name, start, end,
parent)``; a span's self time is its duration minus the durations of its
direct children (calls are nested and single-threaded, so the children never
overlap). Nothing under ``src/`` is changed; ``uninstall`` restores every
binding.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "ingest",
    "synth",
    "dsp",
    "hrv",
    "stress",
    "forest",
    "shapley",
    "interventions",
    "simulator",
    "pipeline",
    "cli",
)

# Functions the per-layer metrics name. A name missing from the package is
# reported as absent with value 0, so deleting code does not break the run.
NAMED = {
    "calls_and_self": (
        "shapley.tree_shap",
        "dsp.bandpass_filter",
        "dsp.welch_psd",
        "hrv.detect_r_peaks",
        "hrv.filter_rr",
        "hrv.qtc",
        "hrv.lf_hf",
        "hrv.noise_stats",
        "hrv.extract_window_features",
        "forest.predict_proba",
        "ingest.load_record",
    ),
    "self_only": (
        "shapley.shap_summary",
        "hrv.compute_baseline",
        "simulator.run_simulation",
        "simulator.export_trace",
        "forest.train_forest",
        "pipeline.read_rows_csv",
        "pipeline.write_rows_csv",
        "pipeline.extract_record_rows",
        "stress.assess",
        "interventions.commands_for_level",
    ),
    "calls_only": ("pipeline.load_series",),
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _keep(key):
    """Keep a call's result, to be read after the run instead of on the clock."""

    def keep(tracer, args, kwargs, result):
        tracer.kept.setdefault(key, []).append(result)

    return keep


class Tracer:
    """Records spans and per-call work counts while installed."""

    def __init__(self, window_s: float, stride_s: float):
        self.window_s = window_s
        self.stride_s = stride_s
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack: list = []
        self.counts: dict = {}
        self.kept: dict = {}
        self.present: set = set()
        self.uncounted: set = set()  # counters whose call signature changed
        self._patched: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        after = self._after.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.uncounted.add(name)
            return result

        return traced

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _count_filtered(self, args, kwargs, result):
        self.add("dsp.samples_filtered", len(_arg(args, kwargs, 0, "x")))

    def _count_window(self, args, kwargs, result):
        fs = _arg(args, kwargs, 3, "fs")
        self.add("hrv.samples_analysed", int(round(self.stride_s * fs)))
        self.add("hrv.valid_windows", int(bool(result.valid)))

    def _count_baseline(self, args, kwargs, result):
        record = _arg(args, kwargs, 0, "clean_record")
        stride_n = int(round(self.stride_s * record.fs))
        window_n = int(round(self.window_s * record.fs))
        n = record.channel(0).size
        windows = max(0, (n - window_n) // stride_n + 1)
        self.add("hrv.samples_analysed", windows * stride_n)

    def _count_decoded(self, args, kwargs, result):
        self.add("ingest.bytes_decoded", len(_arg(args, kwargs, 0, "raw")))

    def _count_explained(self, args, kwargs, result):
        self.add("shapley.samples", len(_arg(args, kwargs, 1, "dataset")))

    _after = {
        "dsp.bandpass_filter": _count_filtered,
        "hrv.extract_window_features": _count_window,
        "hrv.compute_baseline": _count_baseline,
        "ingest.decode_format212": _count_decoded,
        "shapley.shap_summary": _count_explained,
        "simulator.run_simulation": _keep("traces"),
        "forest.train_forest": _keep("forests"),
    }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module that exists."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules.get(f"stresstwin.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    targets[id(obj)] = (obj, self._wrap(name, obj))
                    self.present.add(name)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "stresstwin" or modname.startswith("stresstwin.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def metrics(self, absent: list) -> dict:
        """Per-layer metrics: layer self time, named calls/self time, work counts."""
        self_s = self.self_times()
        per_fn: dict = {}
        per_layer = {layer: 0.0 for layer in LAYERS}
        for name, s in zip(self.names, self_s):
            calls, total = per_fn.get(name, (0, 0.0))
            per_fn[name] = (calls + 1, total + s)
            per_layer[name.split(".", 1)[0]] += s

        out = {f"{layer}.self_s": (v, "s") for layer, v in per_layer.items()}
        for group, fields in (
            ("calls_and_self", ("calls", "self_s")),
            ("self_only", ("self_s",)),
            ("calls_only", ("calls",)),
        ):
            for name in NAMED[group]:
                if name not in self.present:
                    absent.append(name)
                calls, total = per_fn.get(name, (0, 0.0))
                if "calls" in fields:
                    out[f"{name}.calls"] = (calls, "count")
                if "self_s" in fields:
                    out[f"{name}.self_s"] = (total, "s")

        c = self.counts
        explained = c.get("shapley.samples", 0)
        summary_s = sum(
            self.ends[i] - self.starts[i]
            for i, n in enumerate(self.names)
            if n == "shapley.shap_summary"
        )
        out["shapley.samples"] = (explained, "count")
        out["shapley.ms_per_sample"] = (1000.0 * summary_s / explained if explained else 0.0, "ms")

        filtered = c.get("dsp.samples_filtered", 0)
        analysed = c.get("hrv.samples_analysed", 0)
        out["dsp.samples_filtered"] = (filtered, "count")
        out["dsp.filter_reuse"] = (filtered / analysed if analysed else 0.0, "ratio")

        windows = per_fn.get("hrv.extract_window_features", (0, 0.0))[0]
        valid = c.get("hrv.valid_windows", 0)
        out["hrv.valid_ratio"] = (valid / windows if windows else 0.0, "ratio")

        events = applied = superseded = 0
        for trace in self.kept.get("traces", []):
            events += len(trace.events)
            for ev in trace.events:
                if ev.kind == "ActuatorApplied":
                    applied += 1
                    superseded += int(bool(ev.payload.get("superseded")))
        out["simulator.events"] = (events, "count")
        out["simulator.superseded_ratio"] = (superseded / applied if applied else 0.0, "ratio")
        out["simulator.windows_reextracted"] = (
            sum(
                1
                for i, n in enumerate(self.names)
                if n == "hrv.extract_window_features"
                and self.parents[i] >= 0
                and self.names[self.parents[i]] == "simulator.run_simulation"
            ),
            "count",
        )

        nodes = sum(t.n_nodes for f in self.kept.get("forests", []) for t in f.trees)
        out["forest.nodes"] = (nodes, "count")
        out["ingest.bytes_decoded"] = (c.get("ingest.bytes_decoded", 0), "bytes")
        return out

    def write_spans(self, path) -> None:
        """One JSON array [name, start_s, end_s, parent_index] per span."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps([name, self.starts[i], self.ends[i], self.parents[i]]) + "\n"
                )
