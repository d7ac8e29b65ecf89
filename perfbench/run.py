"""stresstwin benchmark: three workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py                          # all workloads, one process each
    python3 perfbench/run.py --workload nst_batch --seed 7 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs one
traced unit and prints the per-layer metrics. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See
perfbench/README.md for the workloads and metrics.
"""

import os

# one process, no extra threads: cap every BLAS/OpenMP pool before numpy loads
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.util
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "stresstwin" / "__init__.py"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("synthetic_run", "nst_batch", "nst_online")

# metric -> (unit, step whose time it is). Times are in reference seconds
# (refclock.py): wall time rescaled to a fixed interpreter speed, because the
# shared host's own speed drifts by half within a minute. END_TO_END are the
# result of an untraced run. REPORTED are printed too but are steps too short
# or too seed-dependent to gate; a traced run returns them with the per-layer
# metrics, taken from its untraced units.
END_TO_END = {
    "wall_s": ("s", None),
    "setup_s": ("s", None),
    "peak_rss_mb": ("MB", None),
    "features_s": ("s", "features"),
    "simulate_s": ("s", "simulate"),
}
REPORTED = {
    "baseline_s": ("s", "baseline"),
    "train_s": ("s", "train"),
    "score_p50_ms": ("ms", None),
    "score_p95_ms": ("ms", None),
}


def _import_package():
    """Import stresstwin from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import stresstwin

    if not Path(stresstwin.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: stresstwin imported from {stresstwin.__file__}, not {SRC}")


def _git(*args):
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    revision = dirty = None
    if (ROOT / ".git").exists():
        revision = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": revision,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _percentile(values, q):
    return float(numpy.percentile(values, q)) if len(values) else 0.0


def _number(value):
    """A JSON number: counts stay whole, numpy floats become floats."""
    return value if isinstance(value, int) else float(value)


def _median(values):
    return float(numpy.median(values)) if len(values) else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_package()
    from refclock import ReferenceClock
    from workloads import WORKLOADS, SetupFailed

    workload = WORKLOADS[name]
    print("env " + json.dumps(environment(name, seed), sort_keys=True), flush=True)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        clock = ReferenceClock()
        with clock:
            # set-up, repeated so its median is steady; the last one is used
            setups, setup_steps = [], []
            for i in range(workload.setup_repeats):
                dest = work / f"setup-{i}"
                gc.collect()
                clock.probe()
                t0 = time.perf_counter()
                try:
                    state, steps = workload.setup(dest, seed)
                except SetupFailed as exc:
                    print(f"error: set-up failed: {exc}", file=sys.stderr)
                    return 1
                setups.append((t0, time.perf_counter()))
                setup_steps.append(steps)
                if i < workload.setup_repeats - 1:
                    shutil.rmtree(dest)

            # untraced units until --seconds are measured; checks run on the first
            units, checks, check_s = [], [], 0.0
            while not units or sum(u.end - u.start for u in units) < seconds:
                out = work / f"out-{len(units)}"
                gc.collect()
                clock.probe()
                unit = workload.unit(state, out)
                units.append(unit)
                if len(units) == 1:
                    t0 = time.perf_counter()
                    checks = _run_checks(workload, state, out, unit, seed)
                    check_s = time.perf_counter() - t0
                shutil.rmtree(out, ignore_errors=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = sum(u.attempted for u in units) + len(checks)
        failed = sum(u.failed for u in units) + sum(1 for _, ok, _ in checks if not ok)
        spans = {
            "wall_s": [(u.start, u.end) for u in units],
            "setup_s": setups,
            "score_ms": [w for u in units for w in u.windows],
        }
        for steps in setup_steps + [u.steps for u in units]:
            for step, span in steps.items():
                spans.setdefault(step, []).append(span)
        measured = {"peak_rss_mb": (peak_rss_mb, peak_rss_mb, "MB", 1)}
        for metric, (unit_name, step) in {**END_TO_END, **REPORTED}.items():
            if metric == "peak_rss_mb":
                continue
            key = "score_ms" if metric.startswith("score_") else step or metric
            t0, t1 = numpy.array(spans.get(key, []), dtype=float).reshape(-1, 2).T
            ref, raw = clock.ref(t0, t1), clock.raw(t0, t1)
            if key == "score_ms":
                q = 50 if metric == "score_p50_ms" else 95
                measured[metric] = (_percentile(1000 * ref, q), _percentile(1000 * raw, q), unit_name, ref.size)
            else:
                measured[metric] = (_median(ref), _median(raw), unit_name, ref.size)

        print(
            f"workload {name}: seed {seed}, {workload.setup_repeats} set-ups, "
            f"{len(units)} timed unit(s); times in reference seconds, wall clock after '/'; "
            f"host ran {clock.slowdown():.2f}x the reference probe time"
        )
        for metric, (value, raw, unit_name, n) in measured.items():
            if n:
                tag = "" if metric in END_TO_END else "  (reported, not gated)"
                print(f"  {metric:<34}{value:>12.6g} / {raw:<12.6g}{unit_name:<6} n={n}{tag}")
        rate = failed / attempted if attempted else 0.0
        print(f"  {'error_rate':<34}{rate:>12.6g} {'ratio':<21} n={attempted} ({failed} failed)")
        for check, ok, detail in checks:
            print(f"  check {'ok    ' if ok else 'FAILED'} {check}: {detail}")
        print(f"  checks took {check_s:.2f} s, outside the timed part")

        if trace:
            raw_wall = measured["wall_s"][1]
            metrics, traced = _traced_unit(workload, state, work, name, seed, raw_wall)
            metrics.update({k: (measured[k][0], measured[k][2]) for k in REPORTED})
            metrics["raw.wall_s"] = (raw_wall, "s")
            metrics["raw.setup_s"] = (measured["setup_s"][1], "s")
            metrics["bench.slowdown"] = (clock.slowdown(), "ratio")
            attempted += traced.attempted
            failed += traced.failed
        else:
            metrics = {k: (measured[k][0], measured[k][2]) for k in END_TO_END}
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": _number(v[0]), "unit": v[1]} for k, v in metrics.items()},
        }
        print(json.dumps(result, sort_keys=True), flush=True)
        # a printed result is a finished run; its correctness is in the result
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_checks(workload, state, out, unit, seed) -> list:
    if unit.failed:
        return [("operations_succeeded", False, f"{unit.failed} of {unit.attempted} failed")]
    try:
        return workload.check(state, out, unit, seed)
    except Exception as exc:  # a check that cannot run is a failed check
        return [("checks_ran", False, f"{type(exc).__name__}: {exc}")]


def _traced_unit(workload, state, work, name, seed, untraced_wall):
    """Run one unit under the tracer, on the wall clock; return (per-layer metrics, the unit)."""
    from stresstwin.config import RunConfig
    from tracer import Tracer

    cfg = RunConfig()
    tracer = Tracer(cfg.window_s, cfg.stride_s)
    out = work / "out-traced"
    gc.collect()
    tracer.install()
    try:
        unit = workload.unit(state, out)
    finally:
        tracer.uninstall()
    absent = []
    layers = tracer.metrics(absent)
    roots = sum(
        tracer.ends[i] - tracer.starts[i] for i, p in enumerate(tracer.parents) if p < 0
    )
    traced_wall = unit.end - unit.start
    layers["bench.self_s"] = (traced_wall - roots, "s")
    layers["trace.wall_s"] = (traced_wall, "s")
    layers["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    print(f"traced unit: {len(tracer.names)} spans -> {spans_path.relative_to(ROOT)}")
    print(f"  tracing overhead {traced_wall - untraced_wall:+.3f} s on an untraced wall time of {untraced_wall:.3f} s")
    shares = sorted(
        ((k, v[0]) for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s")),
        key=lambda kv: -kv[1],
    )
    for key, s in shares:
        if s > 0:
            print(f"  {key:<34}{s:>14.6g} s   {100.0 * s / traced_wall:5.1f}% of the traced unit")
    if absent:
        print(f"  absent from the package: {', '.join(sorted(absent))}")
    if tracer.uncounted:
        print(f"  counters skipped, call signature changed: {', '.join(sorted(tracer.uncounted))}")
    return layers, unit


def run_all(args) -> int:
    """Each workload in its own process; a summary JSON keyed workload.metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time; whole timed units repeat until reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: no stresstwin package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
