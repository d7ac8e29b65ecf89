"""fanout.fork_map: results in order and bit for bit, errors and dead workers
reaching the caller, no worker outliving a call, and the in-process path."""

import hashlib
import json
import multiprocessing
import os
import resource
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from stresstwin import fanout
from stresstwin.cli import EXIT_DATA, EXIT_OK, main
from stresstwin.config import RunConfig
from stresstwin.errors import InvalidParam, NoValidWindows
from stresstwin.fanout import fork_map
from stresstwin.forest import Dataset, ForestParams, forest_to_dict, train_forest
from stresstwin.hrv import compute_baseline
from stresstwin.ingest import EcgRecord
from stresstwin.pipeline import baseline_from_clean, feature_rows, load_series
from stresstwin.synth import SYNTHETIC_CLEAN_RECORD, make_synthetic_nst, synth_ecg


def _usable_cpus(monkeypatch, n):
    """Pretend this process may run on ``n`` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def two_cpus(monkeypatch):
    _usable_cpus(monkeypatch, 2)


@pytest.fixture
def deadline():
    """Turn a wait on workers that never ends into a failure after 60 s."""

    def expire(signum, frame):
        raise TimeoutError("the workers did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _no_worker_left():
    assert multiprocessing.active_children() == []


def _map_in_worker(n):
    return fork_map(lambda i: (i, os.getpid()), range(n))


class TestForkMap:
    def test_results_in_order_and_bitwise_equal(self, two_cpus, deadline):
        parent = os.getpid()
        data = np.random.default_rng(5).standard_normal((37, 100))

        def fn(i):
            return np.cumsum(data[i]) / 3.0, os.getpid()

        got = fork_map(fn, range(len(data)))
        _no_worker_left()
        want = [fn(i) for i in range(len(data))]
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for (a, _), (b, _) in zip(got, want))
        assert parent not in {pid for _, pid in got}

    def test_package_error_keeps_its_type_and_message(self, two_cpus, deadline):
        parent = os.getpid()

        def fn(i):
            if i == 7 and os.getpid() != parent:
                raise NoValidWindows(f"window {i} has no beats")
            return i

        with pytest.raises(NoValidWindows) as info:
            fork_map(fn, range(20))
        _no_worker_left()
        assert type(info.value) is NoValidWindows
        assert str(info.value) == "window 7 has no beats"

    def test_dead_worker_raises_broken_pool(self, two_cpus, deadline):
        parent = os.getpid()

        def fn(i):
            if i == 3 and os.getpid() != parent:
                os._exit(1)
            return i

        t0 = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            fork_map(fn, range(20))
        assert time.monotonic() - t0 < 10.0
        _no_worker_left()

    def test_one_cpu_runs_in_process(self, monkeypatch):
        _usable_cpus(monkeypatch, 1)
        parent = os.getpid()
        assert fork_map(lambda i: (i, os.getpid()), range(5)) == [(i, parent) for i in range(5)]

    def test_live_thread_runs_in_process(self, two_cpus, deadline):
        # a forked child would hold only the forking thread, maybe with another's lock taken
        parent = os.getpid()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            got = fork_map(lambda i: (i, os.getpid()), range(5))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert got == [(i, parent) for i in range(5)]

    def test_daemonic_process_runs_in_process(self, two_cpus, deadline):
        # a multiprocessing.Pool worker is daemonic and may not start children
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.map_async(_map_in_worker, [5]).get(timeout=30)
        assert got == [[(i, got[0][0][1]) for i in range(5)]]
        assert got[0][0][1] != os.getpid()


class TestStages:
    """Each fanned-out stage leaves no worker behind and matches the in-process path."""

    @pytest.fixture(scope="class")
    def records(self):
        clean = synth_ecg(70, 90.0, qt_ms=380.0)
        rng = np.random.default_rng(3)
        noisy = EcgRecord(
            channels=[clean.channel(0) + 0.05 * rng.standard_normal(clean.channel(0).size)],
            fs=clean.fs,
            record_name=clean.record_name + "e06",
        )
        return clean, noisy

    def _both_paths(self, monkeypatch, call):
        results = []
        for cpus in (1, 2):
            _usable_cpus(monkeypatch, cpus)
            results.append(call())
            _no_worker_left()
        return results

    def test_baseline(self, records, monkeypatch, deadline):
        clean, _ = records
        serial, forked = self._both_paths(monkeypatch, lambda: compute_baseline(clean))
        assert serial == forked

    def test_feature_rows(self, records, monkeypatch, deadline):
        clean, noisy = records
        cfg = RunConfig()
        baseline = compute_baseline(clean)
        serial, forked = self._both_paths(
            monkeypatch, lambda: feature_rows([noisy, noisy], clean, baseline, cfg)
        )
        assert json.dumps(serial) == json.dumps(forked)

    def test_train_forest(self, monkeypatch, deadline):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((120, 4))
        ds = Dataset(X, 1 + (X[:, 0] > 0) + 2 * (X[:, 1] > 0.5))
        params = ForestParams(n_trees=9, mtry=2)
        serial, forked = self._both_paths(monkeypatch, lambda: train_forest(ds, params, seed=4))
        assert json.dumps(forest_to_dict(serial)) == json.dumps(forest_to_dict(forked))

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="fork_map runs in-process on one usable CPU")
    def test_workers_reuse_their_heap(self, tmp_path, deadline):
        """Forked feature rows of the 240 s set stay under 100 worker minor faults per window.

        A worker that maps and unmaps each window's temporaries takes about 250.
        """
        cfg = RunConfig()
        make_synthetic_nst(tmp_path, seed=2025)
        clean, noisy = load_series(tmp_path, SYNTHETIC_CLEAN_RECORD)
        baseline = baseline_from_clean(clean, cfg)
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        rows = feature_rows(noisy, clean, baseline, cfg)
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
        _no_worker_left()
        assert len(rows) == 282
        assert 0 < faults < 100 * len(rows), f"{faults / len(rows):.0f} minor faults per window"

    def test_failing_feature_rows(self, records, two_cpus, deadline):
        clean, noisy = records
        cfg = RunConfig(window_s=0.01)
        baseline = compute_baseline(clean)
        with pytest.raises(InvalidParam, match="noise stats need at least 8 samples"):
            feature_rows([noisy], clean, baseline, cfg)
        _no_worker_left()


def _digests(out):
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def test_worker_error_exits_3_without_traceback(tmp_path, two_cpus, capsys, deadline):
    run = tmp_path / "run"
    assert main(["run", "--synthetic", "--out-dir", str(run)]) == EXIT_OK
    out = tmp_path / "features"
    out.mkdir()
    (out / "baseline.json").write_bytes((run / "baseline.json").read_bytes())
    config = tmp_path / "config.json"
    config.write_text('{"window_s": 0.01}')
    capsys.readouterr()
    argv = ["features", "--data-dir", str(run / "synthetic_records"), "--clean-record", "S00",
            "--out-dir", str(out), "--config", str(config)]
    assert main(argv) == EXIT_DATA
    _no_worker_left()
    assert capsys.readouterr().err == "error: noise stats need at least 8 samples\n"
    assert not (out / "features.csv").exists()


def test_serial_path_writes_the_forked_bytes(tmp_path, monkeypatch, deadline):
    """`run --synthetic` on one CPU, never forking, writes every artifact of the 2-worker run."""
    _usable_cpus(monkeypatch, 2)
    assert main(["run", "--synthetic", "--out-dir", str(tmp_path / "forked")]) == EXIT_OK
    _no_worker_left()

    def no_pool(*args, **kwargs):
        raise AssertionError("the one-CPU path started a process pool")

    _usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(fanout, "ProcessPoolExecutor", no_pool)
    assert main(["run", "--synthetic", "--out-dir", str(tmp_path / "serial")]) == EXIT_OK
    forked, serial = _digests(tmp_path / "forked"), _digests(tmp_path / "serial")
    assert "model.json" in forked
    assert forked == serial
