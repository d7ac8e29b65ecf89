#!/usr/bin/env python3
"""Benchmark the jitted hot kernels against their numpy/scipy fallbacks.

Run:  python benchmarks/bench_kernels.py
The package dispatches to the jitted side unless STRESSTWIN_NO_NUMBA=1;
this script times both sides regardless of the flag.
"""

import time

import numpy as np

from stresstwin._accel import NUMBA_ENABLED
from stresstwin.dsp import _sosfilt_loop, _sosfilt_scipy, design_bandpass_sos
from stresstwin.forest import (
    Dataset,
    ForestParams,
    _best_split_loop,
    _best_split_numpy,
    _traverse_loop,
    _traverse_numpy,
    train_forest,
)
from stresstwin.ingest import _decode212_loop, _decode212_numpy, encode_format212


def timeit(fn, *args, repeat=5):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_decode212():
    rng = np.random.default_rng(0)
    n = 650_000
    raw = np.frombuffer(
        encode_format212(rng.integers(-2048, 2048, n), rng.integers(-2048, 2048, n)),
        dtype=np.uint8,
    )
    t_jit, a = timeit(_decode212_loop, raw, n)
    t_np, b = timeit(_decode212_numpy, raw, n)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    return "format-212 decode (650k pairs)", t_jit, t_np


def bench_sosfilt():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, 650_000)
    sos = design_bandpass_sos(0.5, 45.0, 360.0)
    t_jit, a = timeit(_sosfilt_loop, sos, x)
    t_sp, b = timeit(_sosfilt_scipy, sos, x)
    assert np.allclose(a, b, atol=1e-10)
    return "biquad cascade (650k samples)", t_jit, t_sp


def bench_best_split():
    rng = np.random.default_rng(2)
    xs = np.sort(rng.normal(0, 1, 20_000))
    ys = rng.integers(0, 5, 20_000)
    t_jit, a = timeit(_best_split_loop, xs, ys, 5, 2)
    t_np, b = timeit(_best_split_numpy, xs, ys, 5, 2)
    assert abs(a[0] - b[0]) < 1e-9
    return "gini split scan (20k rows)", t_jit, t_np


def bench_traverse():
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, (4000, 13))
    y = rng.integers(1, 6, 4000)
    forest = train_forest(Dataset(X, y), ForestParams(n_trees=1, mtry=13), seed=0)
    t = forest.trees[0]
    t_jit, a = timeit(_traverse_loop, t.feature, t.threshold, t.left, t.right, X)
    t_np, b = timeit(_traverse_numpy, t.feature, t.threshold, t.left, t.right, X)
    assert np.array_equal(a, b)
    return "tree traversal (4k rows)", t_jit, t_np


def main():
    label = "jit" if NUMBA_ENABLED else "python(loop)"
    print(f"acceleration enabled: {NUMBA_ENABLED}")
    print(f"{'kernel':38s} {label:>12s} {'fallback':>12s} {'speedup':>9s}")
    benches = (bench_decode212, bench_sosfilt, bench_best_split, bench_traverse)
    for bench in benches:
        name, t_fast, t_slow = bench()
        ratio = t_slow / t_fast if t_fast > 0 else float("inf")
        print(f"{name:38s} {t_fast * 1e3:10.2f}ms {t_slow * 1e3:10.2f}ms {ratio:8.1f}x")


if __name__ == "__main__":
    main()
