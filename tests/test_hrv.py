import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import uniform_filter1d

from stresstwin.config import RunConfig
from stresstwin.dsp import band_power, bandpass_filter, welch_psd, zscore
from stresstwin.errors import (
    EmptyBand,
    InsufficientData,
    NoMeasurableBeats,
    NoValidWindows,
    RecordTooShort,
    TooFewIntervals,
)
from stresstwin.hrv import (
    NOISE_SEGMENT,
    _fill_gaps,
    _local_maxima,
    _median,
    _moving_mean,
    _noise_lfhf,
    _noise_moments,
    _percentile,
    _refine_to_signal,
    _rolling_block_stats,
    _segment_absolute_features,
    _select_peaks,
    _sorted_prefix_medians,
    _sorted_row_mads,
    _sorted_row_medians,
    RrSeries,
    bpm,
    compute_baseline,
    detect_r_peaks,
    extract_window_features,
    filter_rr,
    lf_hf,
    qtc,
    rr_from_peaks,
    sdnn,
    window_grid,
)
from stresstwin.ingest import EcgRecord
from stresstwin.synth import _colored_noise, synth_ecg, synth_ecg_profile

FS = 360.0


def _detect(rec):
    filt = bandpass_filter(rec.channel(0), rec.fs)
    return filt, detect_r_peaks(filt, rec.fs)


class TestDetector:
    @pytest.mark.parametrize("rate", [60, 90, 120])
    def test_counts_clean(self, rate):
        rec = synth_ecg(rate, 60.0)
        _, peaks = _detect(rec)
        assert abs(peaks.size - rate) <= 1

    @pytest.mark.parametrize("rate", [60, 90, 120])
    def test_counts_mild_noise(self, rate):
        rec = synth_ecg(rate, 60.0, noise_std=0.05, seed=rate)
        _, peaks = _detect(rec)
        assert abs(peaks.size - rate) <= 2

    def test_all_zero(self):
        assert detect_r_peaks(np.zeros(int(60 * FS)), FS).size == 0

    def test_too_short_returns_empty(self):
        assert detect_r_peaks(np.zeros(100), FS).size == 0

    def test_shift_equivariance_interior(self):
        rec = synth_ecg(72, 40.0, noise_std=0.02, seed=9)
        x = rec.channel(0)
        k = 37
        filt_a = bandpass_filter(x, FS)
        filt_b = bandpass_filter(np.concatenate([np.zeros(k), x]), FS)
        pa = detect_r_peaks(filt_a, FS)
        pb = detect_r_peaks(filt_b, FS)
        interior_a = pa[(pa > 5 * FS) & (pa < 35 * FS)]
        interior_b = pb[(pb > 5 * FS + k) & (pb < 35 * FS + k)]
        assert np.array_equal(interior_b, interior_a + k)

    def test_peaks_strictly_increasing_with_refractory(self):
        rec = synth_ecg(120, 60.0, noise_std=0.05, seed=1)
        _, peaks = _detect(rec)
        assert np.all(np.diff(peaks) >= int(0.25 * FS))

    def test_detected_rr_sdnn_within_quantization(self):
        # equal construction intervals: detected spread is grid jitter only
        rec = synth_ecg(60, 60.0)
        _, peaks = _detect(rec)
        detected = sdnn(rr_from_peaks(peaks, FS))
        assert detected <= 1000.0 / FS  # one sample step in ms


class TestFilterRr:
    def _series(self, intervals):
        intervals = np.asarray(intervals, dtype=float)
        onsets = np.concatenate([[0.0], np.cumsum(intervals[:-1]) / 1000.0])
        return RrSeries(intervals_ms=intervals, onsets_s=onsets)

    def test_absolute_bound(self):
        rr = self._series([800, 810, 805, 2500, 795])
        out = filter_rr(rr)
        assert 2500 not in out.intervals_ms
        assert len(out) == 4

    def test_clean_train_unchanged(self):
        rr = self._series([800.0] * 20)
        out = filter_rr(rr)
        assert np.array_equal(out.intervals_ms, rr.intervals_ms)

    def test_running_median_outlier(self):
        rr = self._series([800.0] * 10 + [560.0] + [800.0] * 10)
        out = filter_rr(rr)
        assert 560.0 not in out.intervals_ms
        assert len(out) == 20

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        rr = self._series(800 + rng.normal(0, 60, 200))
        once = filter_rr(rr)
        twice = filter_rr(once)
        assert np.array_equal(once.intervals_ms, twice.intervals_ms)

    def test_empty(self):
        out = filter_rr(self._series([]))
        assert len(out) == 0

    @pytest.mark.parametrize("n", [0, 1, 5, 10, 11, 12, 40])
    def test_matches_per_interval_loop(self, n):
        rng = np.random.default_rng(n)
        iv = 800 + rng.normal(0, 150, n)
        iv[::7] = 450.0  # ties and rejected intervals
        rr = RrSeries(intervals_ms=iv, onsets_s=0.8 * np.arange(n))
        run_med = np.array([np.median(iv[max(0, i - 5) : i + 6]) for i in range(n)])
        keep = (iv >= 300.0) & (iv <= 2000.0) & (np.abs(iv - run_med) <= 0.20 * run_med)
        out = filter_rr(rr)
        assert np.array_equal(out.intervals_ms, iv[keep])
        assert np.array_equal(out.onsets_s, rr.onsets_s[keep])


def _block_stats_loop(v, block_n):
    """Reference: median and MAD of each block's 5-block span, one block at a time."""
    n = v.size
    n_blocks = max(1, (n + block_n - 1) // block_n)
    med_b = np.empty(n_blocks)
    mad_b = np.empty(n_blocks)
    for i in range(n_blocks):
        seg = v[max(0, (i - 2) * block_n) : min(n, (i + 3) * block_n)]
        m = float(np.median(seg))
        med_b[i] = m
        mad_b[i] = float(np.median(np.abs(seg - m)))
    return np.repeat(med_b, block_n)[:n], np.repeat(mad_b, block_n)[:n]


class TestRollingBlockStats:
    @pytest.mark.parametrize(
        "n, block_n",
        [
            (9, 4),  # under 5 blocks: every span is truncated
            (20, 4),  # exactly 5 blocks: one whole span
            (47, 4),  # not a multiple of the block
            (int(RunConfig.context_s * FS), int(FS)),  # a 60 s context at 360 Hz
        ],
    )
    def test_matches_per_block_loop(self, n, block_n):
        rng = np.random.default_rng(n)
        v = rng.gamma(0.5, 1.0, n)
        v[::5] = 0.25  # repeated values
        med_b, mad_b = _rolling_block_stats(v, block_n)
        ref_med, ref_mad = _block_stats_loop(v, block_n)
        assert med_b.size == mad_b.size == -(-n // block_n)  # one value per block
        assert np.array_equal(np.repeat(med_b, block_n)[:n], ref_med)
        assert np.array_equal(np.repeat(mad_b, block_n)[:n], ref_mad)

    # block_n 5, n 37: edge spans of 15, 20, 22, 17 and 12 values, odd and even
    @pytest.mark.parametrize("n, block_n", [(1, 4), (2, 4), (3, 4), (7, 4), (37, 5), (38, 5), (21600 + 179, 360)])
    @pytest.mark.parametrize("kind", ["ties", "nan_at_start", "nan_at_end", "skewed"])
    def test_edge_spans_match_np_median(self, n, block_n, kind):
        rng = np.random.default_rng(n * block_n)
        if kind == "ties":
            v = rng.integers(0, 3, n).astype(np.float64)  # long runs of tied values
        else:
            v = rng.gamma(0.5, 1.0, n)
        if kind == "nan_at_start":
            v[0] = np.nan
        elif kind == "nan_at_end":
            v[-1] = np.nan
        med_b, mad_b = _rolling_block_stats(v, block_n)
        ref_med, ref_mad = _block_stats_loop(v, block_n)
        _assert_same_bits(np.repeat(med_b, block_n)[:n], ref_med)
        _assert_same_bits(np.repeat(mad_b, block_n)[:n], ref_mad)
        if kind.startswith("nan"):  # the NaN reaches the three spans that hold it, and no other
            assert np.isnan(med_b).sum() == np.isnan(mad_b).sum() == min(3, med_b.size)


def _fill_gaps_loop(integ, maxima, kept, thr_low, med_rr, gap_factor, ref_n):
    """Reference: every kept pair in turn, masking all maxima for each long gap."""
    additions = []
    for a, b in zip(kept[:-1], kept[1:]):
        if b - a <= gap_factor * med_rr:
            continue
        lo, hi = a + ref_n, b - ref_n
        in_gap = maxima[(maxima > lo) & (maxima < hi)]
        in_gap = in_gap[integ[in_gap] >= thr_low[in_gap]]
        if in_gap.size:
            additions.append(int(in_gap[np.argmax(integ[in_gap])]))
    if not additions:
        return None
    return np.sort(np.concatenate([kept, np.asarray(additions, dtype=np.int64)]))


class TestFillGaps:
    REF_N = 5
    GAP_FACTOR = 1.8

    def _both(self, kept, maxima, integ=None, seed=0):
        rng = np.random.default_rng(seed)
        if integ is None:
            integ = rng.uniform(1.0, 2.0, 240)
        thr_low = np.full(integ.size, 1.5)  # about half the maxima pass
        kept = np.asarray(kept, dtype=np.int64)
        maxima = np.asarray(maxima, dtype=np.int64)
        med_rr = float(np.median(np.diff(kept)))
        low_maxima = maxima[integ[maxima] >= thr_low[maxima]]
        got = _fill_gaps(integ, low_maxima, kept, med_rr, self.GAP_FACTOR, self.REF_N)
        ref = _fill_gaps_loop(integ, maxima, kept, thr_low, med_rr, self.GAP_FACTOR, self.REF_N)
        return got, ref

    def _assert_same(self, got, ref):
        if ref is None:
            assert got is None
        else:
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize(
        "kept",
        [[10, 30, 50, 70, 90], [10, 20, 30, 40, 58]],
        ids=["even", "gap_equal_to_factor"],  # 18 == 1.8 * median 10 is not long
    )
    def test_no_long_gap(self, kept):
        integ = np.full(240, 1.6)
        got, ref = self._both(kept, np.arange(1, 239, 3), integ)
        assert ref is None
        self._assert_same(got, ref)

    def test_gap_holding_no_maxima(self):
        # kept 50 -> 120 is a long gap; its inside (55, 115) holds no maximum
        got, ref = self._both([10, 30, 50, 120, 140], [20, 40, 54, 116, 130, 150])
        assert ref is None
        self._assert_same(got, ref)

    def test_several_gaps(self):
        # gaps 50 -> 110 and 150 -> 200 are long, and both hold maxima
        integ = np.random.default_rng(3).uniform(1.0, 2.0, 240)
        integ[[70, 90, 170]] = 5.0
        integ[180] = 5.0  # a tie in the second gap: the earlier maximum wins
        got, ref = self._both(
            [10, 30, 50, 110, 130, 150, 200], sorted({*range(2, 238, 4), 70, 90, 170, 180}), integ
        )
        assert ref is not None and ref.size == 9 and 70 in ref and 170 in ref
        self._assert_same(got, ref)

    @pytest.mark.parametrize("inside", [[], [80]], ids=["bounds_only", "bounds_and_inside"])
    def test_maximum_on_a_bound_is_excluded(self, inside):
        # gap 50 -> 110: lo = 55 and hi = 105 are the strongest maxima but not inside
        integ = np.full(240, 1.6)
        integ[[55, 105]] = 9.0
        got, ref = self._both([10, 30, 50, 110, 130, 150], sorted([20, 55, 105, 140, *inside]), integ)
        assert (ref is None) == (not inside)
        if inside:
            assert ref.tolist() == [10, 30, 50, 80, 110, 130, 150]
        self._assert_same(got, ref)

    def test_three_kept_peaks(self):
        # diffs 5 and 105: the median is 55, so 15 -> 120 is a long gap
        got, ref = self._both([10, 15, 120], np.arange(3, 237, 6))
        assert ref is not None and ref.size == 4
        self._assert_same(got, ref)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_layouts(self, seed):
        rng = np.random.default_rng(seed)
        kept = np.cumsum(rng.choice([8, 10, 12, 30, 45], size=rng.integers(3, 12)))
        maxima = np.nonzero(rng.random(kept[-1] + 10) < 0.3)[0]
        integ = rng.uniform(1.0, 2.0, kept[-1] + 10)
        got, ref = self._both(kept, maxima, integ)
        self._assert_same(got, ref)


def _assert_same_bits(got, ref):
    """Equal as float64 bit patterns, sign of zero included; NaN matches any NaN."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref)
    assert ref.dtype == np.float64 and got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), ref[~nan].view(np.int64))


def _np_median(a, axis=None):
    with np.errstate(all="ignore"):  # inf - inf in the two-value mean
        return np.median(a, axis=axis)


def _row_medians(a):
    with np.errstate(all="ignore"):  # the same inf - inf as np.median's
        return _sorted_row_medians(np.sort(a, axis=1))


def _row_mads(a):
    """(sort-based MADs, np.median's MADs about np.median's medians) of each row."""
    with np.errstate(all="ignore"):
        s = np.sort(a, axis=1)
        got = _sorted_row_mads(s, _sorted_row_medians(s))
        ref = np.median(np.abs(a - np.median(a, axis=1)[:, None]), axis=1)
    return got, ref


# few distinct values, so ties and signed zeros are common, plus any float64
_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, math.inf, -math.inf, math.nan]) | st.floats()
# sample counts between beats, as np.diff(kept) gives them, plus the whole int64 range
_INTS = st.integers(1, 800) | st.integers(-(2**63), 2**63 - 1)
_ROWS = st.tuples(st.integers(1, 6), st.integers(1, 50))


class TestMedian:
    """The sort-based medians give np.median's bits on every input the hot path can pass."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_FLOATS, min_size=1, max_size=50))
    def test_float_median(self, values):
        v = np.array(values, dtype=np.float64)
        _assert_same_bits(_median(v), _np_median(v))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_INTS, min_size=1, max_size=50))
    def test_int64_median(self, values):
        v = np.array(values, dtype=np.int64)
        _assert_same_bits(_median(v), _np_median(v))

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, _ROWS, elements=_FLOATS))
    def test_float_row_medians(self, a):
        _assert_same_bits(_row_medians(a), _np_median(a, axis=1))

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.int64, _ROWS, elements=_INTS))
    def test_int64_row_medians(self, a):
        _assert_same_bits(_row_medians(a), _np_median(a, axis=1))

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 50)), elements=_FLOATS))
    def test_float_row_mads(self, a):
        _assert_same_bits(*_row_mads(a))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_FLOATS, min_size=1, max_size=12), min_size=1, max_size=5))
    def test_padded_prefix_medians(self, rows):
        width = max(len(r) for r in rows)
        padded = np.array([r + [math.inf] * (width - len(r)) for r in rows])
        lengths = np.array([len(r) for r in rows])
        with np.errstate(all="ignore"):
            got = _sorted_prefix_medians(np.sort(padded, axis=1), lengths)
        _assert_same_bits(got, np.array([_np_median(np.array(r)) for r in rows]))

    @pytest.mark.parametrize("seed", range(5))
    def test_row_mads_of_skewed_spans(self, seed):
        # five-second spans of a squared, smoothed signal, as the detector sees them
        v = np.convolve(np.random.default_rng(seed).normal(0, 1, 6000) ** 2, np.ones(9) / 9, "same")
        _assert_same_bits(*_row_mads(sliding_window_view(v, 1800)[::360]))

    @pytest.mark.parametrize(
        "values", [[-0.0], [-0.0, -0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, 1.0, -1.0], [-5e-324, 0.0]]
    )
    def test_signed_zeros(self, values):
        # np.median sums from 0.0, so a zero median is +0.0, except when a
        # negative sum is halved to zero
        v = np.array(values)
        _assert_same_bits(_median(v), _np_median(v))
        _assert_same_bits(_row_medians(v[None, :]), _np_median(v[None, :], axis=1))
        if v.size >= 2:
            _assert_same_bits(*_row_mads(v[None, :]))


def _special_values(rng, n, pool):
    """n floats: ties from a small pool, then NaN, +inf or -inf at a few places."""
    kind = rng.integers(4)
    if kind == 0:
        v = rng.choice(np.array([0.0, -0.0, 0.25, 1.0, 3.0]), n)
    elif kind == 1:
        v = rng.normal(0.0, 1.0, n)
    elif kind == 2:
        v = rng.gamma(0.3, 1.0, n)  # skewed, as the integrated signal
    else:
        v = np.round(rng.normal(0.0, 3.0, n))
    special = pool[rng.integers(len(pool))]
    if special is not None:
        v[rng.integers(0, n, rng.integers(1, 4))] = special
    return v


class TestBracketedMad:
    """The bracketed run search gives np.median's MAD for rows long enough to need the bracket."""

    @pytest.mark.parametrize("step", [1, 2, 3, 32])
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_np_median(self, seed, step):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        specials = [None] * 3 + [np.nan, np.inf, -np.inf]
        rows = np.stack([_special_values(rng, n, specials) for _ in range(int(rng.integers(1, 5)))])
        with np.errstate(all="ignore"):
            s = np.sort(rows, axis=1)
            got = _sorted_row_mads(s, _sorted_row_medians(s), step)
            ref = np.median(np.abs(rows - np.median(rows, axis=1)[:, None]), axis=1)
        _assert_same_bits(got, ref)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(2, 120)), elements=_FLOATS),
           st.integers(1, 40))
    def test_any_floats_any_step(self, a, step):
        with np.errstate(all="ignore"):
            s = np.sort(a, axis=1)
            got = _sorted_row_mads(s, _sorted_row_medians(s), step)
            ref = np.median(np.abs(a - np.median(a, axis=1)[:, None]), axis=1)
        _assert_same_bits(got, ref)


def _np_percentile(v, q):
    with np.errstate(all="ignore"):  # inf - inf in numpy's lerp
        return np.percentile(v, q)


def _assert_same_percentile(got, ref):
    """Bits equal, except that a zero may have either sign: numpy's own sign
    of a zero percentile follows where its partition leaves -0.0 and 0.0."""
    if ref == 0.0:
        assert got == 0.0
    else:
        _assert_same_bits(got, ref)


class TestPercentile:
    """One partition and numpy's own lerp give np.percentile's bits."""

    @settings(max_examples=400, deadline=None)
    @given(arrays(np.float64, st.integers(1, 60), elements=_FLOATS),
           st.sampled_from([99, 0, 50, 100, 99.0]) | st.floats(0.0, 100.0))
    def test_small_arrays(self, v, q):
        with np.errstate(all="ignore"):
            got = _percentile(v, q)
        _assert_same_percentile(got, _np_percentile(v, q))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 50_000), st.integers(0, 2**32 - 1), st.sampled_from([99, 1, 50, 99.9, 100]))
    def test_long_arrays(self, n, seed, q):
        v = _special_values(np.random.default_rng(seed), n, [None] * 3 + [np.nan, np.inf, -np.inf])
        with np.errstate(all="ignore"):
            got = _percentile(v, q)
        _assert_same_percentile(got, _np_percentile(v, q))

    @pytest.mark.parametrize("v", [[0.1, 0.7], [0.1, 0.3, 0.7, 0.9], [1.0, 1.0 + 2**-52], [-0.7, 0.1]])
    def test_half_weight_interpolates_from_above(self, v):
        # at a weight of exactly 0.5 numpy interpolates down from the upper
        # value, which rounds differently from up from the lower one
        v = np.array(v)
        _assert_same_bits(_percentile(v, 50), _np_percentile(v, 50))

    def test_leaves_input_unchanged(self):
        v = np.random.default_rng(0).normal(size=1000)
        before = v.copy()
        _percentile(v, 99)
        assert np.array_equal(v, before)


def _thin_loop(v, cands, ref_n):
    """The refractory rule as one loop: a candidate within ref_n of the last kept one replaces it if higher."""
    kept: list = []
    for idx in cands:
        if kept and idx - kept[-1] < ref_n:
            if v[idx] > v[kept[-1]]:
                kept[-1] = int(idx)
        else:
            kept.append(int(idx))
    return np.asarray(kept, dtype=np.int64)


def _select_peaks_loop(integ, maxima, thr, ref_n):
    return _thin_loop(integ, maxima[integ[maxima] >= thr[maxima]], ref_n)


def _refine_loop(x, peaks, radius):
    refined = np.empty(peaks.size, dtype=np.int64)
    for i, p in enumerate(peaks):
        lo = max(0, p - radius)
        hi = min(x.size, p + radius + 1)
        refined[i] = lo + int(np.argmax(x[lo:hi]))
    return np.unique(refined)


def _detect_r_peaks_reference(x, fs):
    """Reference detector: per-sample thresholds, np.median and a loop per peak."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < int(2 * fs):
        return np.empty(0, dtype=np.int64)
    front = bandpass_filter(x, fs, 5.0, 15.0)
    deriv = np.diff(front, prepend=front[0])
    sq = deriv * deriv
    win = max(3, int(round(0.150 * fs)))
    integ = np.convolve(sq, np.ones(win) / win, mode="same")
    med, mad = _block_stats_loop(integ, int(fs))
    scale = float(np.percentile(integ, 99))
    thr = med + np.maximum(4.0 * mad, 0.10 * scale)
    thr_low = med + np.maximum(0.5 * 4.0 * mad, 0.05 * scale)
    maxima = _local_maxima(integ)
    ref_n = int(round(0.25 * fs))
    kept = _select_peaks_loop(integ, maxima, thr, ref_n)
    if kept.size >= 3:
        for _ in range(5):
            med_rr = float(np.median(np.diff(kept)))
            inserted = _fill_gaps_loop(integ, maxima, kept, thr_low, med_rr, 1.8, ref_n)
            if inserted is None:
                break
            kept = inserted
    refined = _refine_loop(x, kept, int(round(0.10 * fs)))
    return _thin_loop(x, refined, ref_n)


def _ecg_at_snr(snr_db, seconds=60.0, seed=0):
    """Filtered, z-scored synthetic ECG plus ambulatory noise at an SNR, as a window sees it."""
    clean = synth_ecg_profile([(seconds, 75.0, 40.0, 380.0)], seed=seed).channel(0)
    noise = _colored_noise(clean.size, FS, np.random.default_rng(seed + 1))
    noisy = clean + noise * math.sqrt(np.mean(clean**2) / 10.0 ** (snr_db / 10.0))
    return zscore(bandpass_filter(noisy, FS))


def _flat_then_burst():
    x = np.zeros(int(60 * FS))
    x[int(40 * FS) :] = _ecg_at_snr(12.0, seconds=20.0, seed=3)
    return x


def _with_nan():
    x = _ecg_at_snr(24.0, seconds=20.0)
    x[1000] = np.nan
    return x


def _clustered_spikes(seed=5, seconds=60.0):
    """Chains of spikes each closer than the refractory period to the next, the chain longer than it."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 0.02, int(seconds * FS))
    t = 200
    while t < x.size - 400:
        for off in np.cumsum(rng.integers(20, 80, rng.integers(1, 5))):
            x[t + off] += rng.uniform(0.5, 2.0)
        t += int(rng.integers(250, 450))
    return zscore(bandpass_filter(x, FS))


def _artifact_spikes():
    """A clean ECG carrying a few +-1e4 spikes, as electrode pops leave in a window.

    The running sum of the integrator carries each spike's rounding error
    past it. The spikes also set the detector's scale, so it keeps them and
    none of the 75 beats it finds without them.
    """
    x = _ecg_at_snr(24.0, seed=4)
    x[[2000, 7500, 13000, 19500]] += [1e4, -1e4, 1e4, -1e4]
    return x


def _double_humps():
    """Each beat of a clean ECG followed by a copy at 0.7 of its height, 90 ms later."""
    x = _ecg_at_snr(30.0)
    echo = np.zeros_like(x)
    echo[int(0.09 * FS) :] = 0.7 * x[: -int(0.09 * FS)]
    return zscore(x + echo)


DETECTOR_INPUTS = {
    "snr_-12": lambda: _ecg_at_snr(-12.0),
    "clustered_spikes": _clustered_spikes,
    "double_humps": _double_humps,
    "artifact_spikes": _artifact_spikes,
    "snr_-6": lambda: _ecg_at_snr(-6.0),
    "snr_0": lambda: _ecg_at_snr(0.0),
    "snr_12": lambda: _ecg_at_snr(12.0),
    "snr_24": lambda: _ecg_at_snr(24.0),
    "random_noise": lambda: np.random.default_rng(17).normal(0.0, 1.0, int(60 * FS)),
    "flat_then_burst": _flat_then_burst,
    "two_blocks": lambda: _ecg_at_snr(24.0, seconds=2.0),  # the shortest input detected
    "under_five_blocks": lambda: _ecg_at_snr(24.0, seconds=4.5),
    "five_blocks": lambda: _ecg_at_snr(24.0, seconds=5.0),
    "partial_last_block": lambda: _ecg_at_snr(12.0, seconds=7.3),
    "nan_sample": _with_nan,
}


def _convolved_mean(v, win):
    """``np.convolve(v, np.ones(win) / win, "same")``, cut to v's length when v is the shorter.

    "same" returns max(v.size, win) values, centred on the full convolution;
    the v.size values centred the same way are the moving mean of each sample.
    """
    full = np.convolve(v, np.ones(win) / win, mode="full")
    return full[(win - 1) // 2 : (win - 1) // 2 + v.size]


class TestMovingMean:
    """The detector's running-sum integrator against the convolution it replaces."""

    @pytest.mark.parametrize("win", [3, 4, 54, 55])
    @pytest.mark.parametrize("n", [1, 2, 5, 53, 54, 55, 21600])
    def test_matches_convolution(self, n, win):
        v = np.random.default_rng(n * 100 + win).normal(0.0, 1.0, n) ** 2
        ref = _convolved_mean(v, win)
        if n >= win:
            assert np.array_equal(ref, np.convolve(v, np.ones(win) / win, mode="same"))
        got = _moving_mean(v, win)
        assert got.shape == v.shape
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-14 * ref.max())

    @pytest.mark.parametrize("win", [3, 4, 54, 55])
    @pytest.mark.parametrize("n", [1, 2, 5, 53, 54, 55, 21600])
    def test_bitwise_matches_uniform_filter1d(self, n, win):
        rng = np.random.default_rng(n * 1000 + win)
        magnitude = 10.0 ** rng.uniform(-8.0, 3.0, n)  # 1e-8 to 1e3 in one signal
        for v in (magnitude, magnitude * rng.choice([-1.0, 1.0], n), rng.normal(0.0, 1.0, n) ** 2):
            got = _moving_mean(v, win)
            ref = uniform_filter1d(v, win, mode="constant")
            assert got.shape == v.shape and got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("win", [3, 4, 54, 55])
    @pytest.mark.parametrize("n", [5, 60, 200])
    def test_impulse_lands_on_the_same_samples(self, n, win):
        for at in sorted({0, 1, n // 2, n - 2, n - 1}):
            v = np.zeros(n)
            v[at] = 1.0
            got = np.nonzero(_moving_mean(v, win))[0]
            assert np.array_equal(got, np.nonzero(_convolved_mean(v, win))[0])
            assert got.tolist() == list(range(max(0, at - (win - 1) // 2), min(n, at + win // 2 + 1)))


class TestRefineToSignal:
    # shorter than a neighbourhood, as long as one, and longer
    @pytest.mark.parametrize("n", [7, 10, 11, 12, 60])
    def test_matches_loop_at_every_position(self, n):
        rng = np.random.default_rng(n)
        x = rng.integers(0, 4, n).astype(np.float64)  # ties: the first maximum wins
        peaks = np.arange(n, dtype=np.int64)
        got = _refine_to_signal(x, peaks, 5)
        assert got.dtype == np.int64 and np.array_equal(got, _refine_loop(x, peaks, 5))

    def test_no_peaks(self):
        assert _refine_to_signal(np.zeros(20), np.empty(0, dtype=np.int64), 5).size == 0


class TestSelectPeaks:
    """The list-based refractory rule keeps the candidates the per-candidate loop keeps."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=0, max_size=80), st.integers(1, 25), st.integers(0, 2**32 - 1))
    def test_matches_loop(self, gaps, ref_n, seed):
        rng = np.random.default_rng(seed)
        cands = np.cumsum([3, *gaps]).astype(np.int64)
        v = np.zeros(cands[-1] + 1)
        # ties and NaN heights, or distinct ones
        pool = np.array([0.0, 1.0, 2.0, 2.0, 5.0, math.nan])
        v[cands] = rng.choice(pool, cands.size) if seed % 2 else rng.normal(0.0, 1.0, cands.size)
        got = _select_peaks(v, cands, ref_n)
        ref = _thin_loop(v, cands, ref_n)
        assert got.dtype == np.int64 and np.array_equal(got, ref)

    def test_chain_compares_with_the_kept_peak(self):
        # 0 -> 6 -> 12 are each closer than 10 to the next, but 12 is 12 past
        # the kept 0, so it starts a new run even though 6 was dropped
        v = np.zeros(20)
        v[[0, 6, 12]] = [3.0, 1.0, 2.0]
        cands = np.array([0, 6, 12])
        assert _select_peaks(v, cands, 10).tolist() == _thin_loop(v, cands, 10).tolist() == [0, 12]

    def test_no_conflict_returns_input(self):
        cands = np.array([0, 10, 25], dtype=np.int64)
        assert _select_peaks(np.ones(30), cands, 10) is cands


class TestDetectorMatchesReference:
    @pytest.mark.parametrize("name", DETECTOR_INPUTS)
    def test_same_peaks(self, name):
        x = DETECTOR_INPUTS[name]()
        got = detect_r_peaks(x, FS)
        ref = _detect_r_peaks_reference(x, FS)
        if name.startswith("snr_") or name in ("flat_then_burst", "clustered_spikes", "double_humps"):
            assert ref.size > 5
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestScalarMetrics:
    def _series(self, intervals):
        intervals = np.asarray(intervals, dtype=float)
        onsets = np.concatenate([[0.0], np.cumsum(intervals[:-1]) / 1000.0])
        return RrSeries(intervals_ms=intervals, onsets_s=onsets)

    def test_sdnn_constant(self):
        assert sdnn(self._series([800, 800, 800])) == 0.0

    def test_sdnn_oracle(self):
        assert abs(sdnn(self._series([800, 810, 790, 805])) - 8.539) < 0.001

    def test_sdnn_homogeneity(self):
        a = self._series([800, 810, 790, 805])
        b = self._series([1600, 1620, 1580, 1610])
        assert abs(sdnn(b) - 2 * sdnn(a)) < 1e-9

    def test_sdnn_order_invariant(self):
        assert sdnn(self._series([790, 800, 805, 810])) == sdnn(self._series([810, 790, 805, 800]))

    def test_sdnn_too_few(self):
        with pytest.raises(TooFewIntervals):
            sdnn(self._series([800]))

    def test_bpm_values(self):
        assert bpm(self._series([1000, 1000])) == 60.0
        assert bpm(self._series([500, 500])) == 120.0
        assert abs(bpm(self._series([800, 810, 790, 805])) - 74.88) < 0.01

    def test_bpm_empty(self):
        with pytest.raises(TooFewIntervals):
            bpm(self._series([]))


def _qtc_loop(x, fs, r_peaks):
    """Reference: the tangent-method QTc one beat at a time, with np.median."""
    x = np.asarray(x, dtype=np.float64)
    r_peaks = np.asarray(r_peaks, dtype=np.int64)
    if r_peaks.size < 2:
        raise NoMeasurableBeats("need at least 2 R-peaks")
    values = []
    for i in range(1, r_peaks.size):
        r = int(r_peaks[i])
        rr_s = (r_peaks[i] - r_peaks[i - 1]) / fs
        if not 0.3 <= rr_s <= 2.0:
            continue
        a = r - int(round(0.050 * fs))
        if a < 1 or r - a < 3:
            continue
        q = a + int(np.argmin(x[a:r] - x[a - 1 : r - 1]))
        lo, hi = r - int(round(0.090 * fs)), r - int(round(0.050 * fs))
        if lo < 0 or hi - lo < 2:
            continue
        iso = float(np.median(x[lo:hi]))
        lo = r + int(round(0.100 * fs))
        hi = min(r + int(round(min(0.400, 0.7 * rr_s) * fs)), x.size - 2)
        if hi - lo < 4:
            continue
        apex = lo + int(np.argmax(x[lo:hi]))
        d_hi = min(apex + int(round(0.160 * fs)), x.size - 1)
        if d_hi - apex < 3:
            continue
        slopes = x[apex + 1 : d_hi + 1] - x[apex:d_hi]
        k = int(np.argmin(slopes))
        slope_per_s = slopes[k] * fs
        if slope_per_s >= 0:
            continue
        s_idx = apex + k
        extension_s = (iso - x[s_idx]) / slope_per_s
        if not 0.0 <= extension_s <= 0.30:
            continue
        qt_ms = (s_idx / fs + extension_s - q / fs) * 1000.0
        if not 200.0 <= qt_ms <= 600.0:
            continue
        values.append(qt_ms / math.sqrt(rr_s))
    if not values:
        raise NoMeasurableBeats("no beat yielded a usable QT")
    return float(np.median(values))


def _qtc_outcome(fn, x, peaks):
    with np.errstate(all="ignore"):
        try:
            return fn(x, FS, peaks)
        except NoMeasurableBeats:
            return "NoMeasurableBeats"


def _assert_same_qtc(got, ref):
    if isinstance(ref, str):
        assert got == ref
    else:
        _assert_same_bits(got, ref)


def _qtc_case(name):
    """(signal, R peaks) for one oracle case."""
    rec = synth_ecg(75, 20.0, qt_ms=380.0)
    filt, peaks = _detect(rec)
    n = filt.size
    if name == "clean":
        return filt, peaks
    if name == "rr_out_of_range":
        # a 0.14 s and a 3.2 s interval between usable ones
        return filt, np.sort(np.concatenate([np.delete(peaks, [5, 6, 7]), [peaks[10] + 50]]))
    if name == "near_end":
        # beats whose T-wave and down-slope windows run into the end of x
        return filt[: peaks[-2] + int(0.35 * FS)], peaks[:-1]
    if name == "at_the_very_end":
        return filt, np.concatenate([peaks[peaks < n - 400], [n - 140, n - 40, n - 3]])
    if name == "near_start":
        return filt, np.concatenate([[3, 17, 33], peaks[peaks > 400]])
    if name == "flat_t_wave":
        x = filt.copy()
        for p in peaks[::2]:
            x[p + int(0.06 * FS) : p + int(0.6 * FS)] = x[p + int(0.06 * FS)]
        return x, peaks
    if name == "nan_sample":
        x = filt.copy()
        x[peaks[2] - 10] = np.nan  # inside a Q-onset window
        x[peaks[3] - 25] = np.nan  # inside an isoelectric window
        x[peaks[4] + int(0.2 * FS)] = np.nan  # on a T wave
        return x, peaks
    if name.startswith("snr_"):
        x = _ecg_at_snr(float(name[4:]))
        return x, detect_r_peaks(x, FS)
    # one beat 120 samples before the end, its T apex `back` samples before it
    back = {"apex_ten_before_the_end": 10, "apex_three_before_the_end": 3}[name]
    t = np.arange(2000)
    x = np.exp(-0.5 * ((t - (t.size - back)) / 4.0) ** 2)
    x[t.size - 120] = 5.0
    if back == 10:
        x[-2] = 1.5  # higher than the apex, one sample past the apex search
    return x, np.array([t.size - 420, t.size - 120])


QTC_CASES = ["clean", "rr_out_of_range", "near_end", "at_the_very_end", "near_start", "flat_t_wave",
             "nan_sample", "snr_-6", "snr_6", "snr_24", "apex_ten_before_the_end", "apex_three_before_the_end"]


class TestQtc:
    @pytest.mark.parametrize("name", QTC_CASES)
    def test_matches_per_beat_loop(self, name):
        x, peaks = _qtc_case(name)
        got = _qtc_outcome(qtc, x, peaks)
        ref = _qtc_outcome(_qtc_loop, x, peaks)
        # an apex three samples from the end leaves too short a down-slope
        assert isinstance(ref, str) == (name == "apex_three_before_the_end")
        _assert_same_qtc(got, ref)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_beats_match_per_beat_loop(self, seed):
        # random signals and beat positions, with every exclusion reachable
        rng = np.random.default_rng(seed)
        n = int(rng.integers(200, 4000))
        x = np.cumsum(rng.normal(0.0, 1.0, n)) * 0.05
        peaks = np.unique(rng.integers(0, n, int(rng.integers(2, 30))))
        if seed % 3 == 0:
            x[rng.integers(0, n, 3)] = np.nan
        if seed % 4 == 1:
            x = np.round(x, 1)  # ties in every argmin, argmax and median
        _assert_same_qtc(_qtc_outcome(qtc, x, peaks), _qtc_outcome(_qtc_loop, x, peaks))

    def test_bazett_identity_at_60(self):
        # constant 60 bpm: sqrt(RR)=1, so QTc == QT as constructed
        rec = synth_ecg(60, 60.0, qt_ms=380.0)
        filt, peaks = _detect(rec)
        assert abs(qtc(filt, rec.fs, peaks) - 380.0) <= 10.0

    def test_bazett_correction_at_93(self):
        # RR = 0.645 s: QTc should be QT / sqrt(0.645)
        rec = synth_ecg(93, 60.0, qt_ms=350.0)
        filt, peaks = _detect(rec)
        expected = 350.0 / np.sqrt(60.0 / 93.0)
        assert abs(qtc(filt, rec.fs, peaks) - expected) <= 12.0

    def test_too_few_peaks(self):
        with pytest.raises(NoMeasurableBeats):
            qtc(np.zeros(1000), FS, [100])

    def test_flat_signal_has_no_t_wave(self):
        with pytest.raises(NoMeasurableBeats):
            qtc(np.zeros(int(10 * FS)), FS, [720, 1080, 1440])


class TestLfHf:
    def _modulated(self, freq, duration=120.0, depth=50.0):
        onsets, intervals, t = [], [], 0.0
        while t < duration:
            iv = 800.0 + depth * np.sin(2 * np.pi * freq * t)
            onsets.append(t)
            intervals.append(iv)
            t += iv / 1000.0
        return RrSeries(np.asarray(intervals), np.asarray(onsets))

    def test_lf_dominant(self):
        assert lf_hf(self._modulated(0.10)) > 10.0

    def test_hf_dominant(self):
        assert lf_hf(self._modulated(0.25)) < 0.1

    def test_balanced(self):
        onsets, intervals, t = [], [], 0.0
        while t < 120.0:
            iv = 800.0 + 35 * np.sin(2 * np.pi * 0.1 * t) + 35 * np.sin(2 * np.pi * 0.25 * t)
            onsets.append(t)
            intervals.append(iv)
            t += iv / 1000.0
        ratio = lf_hf(RrSeries(np.asarray(intervals), np.asarray(onsets)))
        assert 0.5 <= ratio <= 2.0

    def test_short_span_rejected(self):
        rr = self._modulated(0.1, duration=20.0)
        with pytest.raises(InsufficientData):
            lf_hf(rr)


def _noise_moments_reference(noise):
    """Reference: np.std for the spread, a second centred pass for the shape moments.

    The third and fourth powers come from the squares, as ``_noise_moments``
    takes them.
    """
    mu = float(np.mean(noise))
    std = float(np.std(noise, ddof=1))
    centered = noise - mu
    sq = centered**2
    m2 = float(np.mean(sq))
    if m2 == 0.0:
        return mu, std, 0.0, 0.0
    skew = float(np.mean(sq * centered)) / m2**1.5
    kurt = float(np.mean(sq * sq)) / m2**2 - 3.0
    return mu, std, skew, kurt


def _pow_shape_moments(noise):
    """Skewness and excess kurtosis from ``centered**3`` and ``centered**4``, the formula before the squares."""
    centered = noise - float(np.mean(noise))
    m2 = float(np.mean(centered**2))
    return float(np.mean(centered**3)) / m2**1.5, float(np.mean(centered**4)) / m2**2 - 3.0


def _exact_shape_moments(noise):
    """Skewness and excess kurtosis of the float samples in exact arithmetic, then rounded.

    The central moments are fractions; the kurtosis is one, and the skewness
    is the signed square root of the fraction ``m3**2 / m2**3``, taken to 60
    digits.
    """
    xs = [Fraction(v) for v in noise.tolist()]
    mu = sum(xs) / len(xs)
    centered = [x - mu for x in xs]
    sq = [c * c for c in centered]
    m2 = sum(sq) / len(xs)
    m3 = sum(s * c for s, c in zip(sq, centered)) / len(xs)
    m4 = sum(s * s for s in sq) / len(xs)
    skew_sq = m3 * m3 / m2**3
    with localcontext() as ctx:
        ctx.prec = 60
        skew = float((Decimal(skew_sq.numerator) / Decimal(skew_sq.denominator)).sqrt())
    return math.copysign(skew, m3), float(m4 / (m2 * m2) - 3)


def _shape_test_noise(seed):
    """Windows of skewed, heavy-tailed, coloured and far-from-zero noise, 8 to 3,600 samples."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    if kind == 0:
        return rng.normal(0.1, 0.3, int(rng.choice([8, 64, 3600]))) ** 3
    if kind == 1:
        return _colored_noise(3600, FS, rng) * 0.3 + 0.01
    if kind == 2:
        return rng.exponential(1.0, int(rng.choice([8, 500, 3600]))) * 1e3 + 5e3
    return rng.standard_t(3, int(rng.choice([9, 64, 3600]))) * 1e-3


def _noise_stats(noise):
    """Noise moments of a trace and its LF/HF ratio, as the feature row takes them."""
    return (*_noise_moments(noise), _noise_lfhf(noise, FS, NOISE_SEGMENT))


class TestNoiseStats:
    def test_constant_convention(self):
        mu, std, skew, kurt, ratio = _noise_stats(np.full(100, 3.25))
        assert (mu, std, skew, kurt, ratio) == (3.25, 0.0, 0.0, 0.0, 0.0)

    def test_standard_normal_sample(self):
        rng = np.random.default_rng(11)
        _, _, skew, kurt, _ = _noise_stats(rng.normal(0, 1, 100000))
        assert abs(skew) < 0.05
        assert abs(kurt) < 0.1

    @pytest.mark.parametrize("n", [8, 3600, 21600])
    def test_same_as_before_split(self, n):
        noise = np.random.default_rng(n).normal(0.1, 0.3, n) ** 3
        mu = float(np.mean(noise))
        centered = noise - mu
        sq = centered**2
        m2 = float(np.mean(sq))
        psd = welch_psd(noise, FS, min(8192, n))
        try:
            ratio = band_power(psd, 0.04, 0.15) / max(band_power(psd, 0.15, 0.40), 1e-12)
        except EmptyBand:
            ratio = 0.0
        expected = (
            mu,
            float(np.std(noise, ddof=1)),
            float(np.mean(sq * centered)) / m2**1.5,
            float(np.mean(sq * sq)) / m2**2 - 3.0,
            ratio,
        )
        assert _noise_stats(noise) == expected

    @pytest.mark.parametrize(
        "noise",
        [
            np.full(3600, -0.7),
            np.random.default_rng(8).normal(0.0, 1.0, 8),
            _colored_noise(3600, FS, np.random.default_rng(36)) * 0.3 + 0.01,
        ],
        ids=["constant", "eight_samples", "window_3600"],
    )
    def test_moments_match_reference_bitwise(self, noise):
        got = np.array(_noise_moments(noise))
        assert got.tobytes() == np.array(_noise_moments_reference(noise)).tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_shape_moments_near_exact(self, seed):
        # both the shared-squares and the ** formula round to within 1e-13 of
        # the exact moments (measured: under 2e-15), relative to 1 + |value|
        noise = _shape_test_noise(seed)
        exact = _exact_shape_moments(noise)
        for got in (_noise_moments(noise)[2:], _pow_shape_moments(noise)):
            for g, e in zip(got, exact):
                assert abs(g - e) <= 1e-13 * (1.0 + abs(e))

    def test_hand_computed_skew(self):
        # pattern 0,0,0,1: g1 = +2/sqrt(3)
        _, _, skew, _, _ = _noise_stats(np.array([0.0, 0.0, 0.0, 1.0] * 2))
        assert abs(skew - 2.0 / np.sqrt(3.0)) < 1e-12


class TestWindowIter:
    def _record(self, seconds):
        n = int(seconds * FS)
        return EcgRecord(channels=[np.zeros(n), np.zeros(n)], fs=FS, record_name="w")

    def test_30s_record(self):
        starts = [s for s, _ in window_grid(self._record(30))]
        assert starts == [0.0, 5.0, 10.0, 15.0, 20.0]

    def test_exact_window(self):
        assert len(window_grid(self._record(10))) == 1

    def test_too_short(self):
        with pytest.raises(RecordTooShort):
            window_grid(self._record(9.9))

    def test_segments_are_causal_and_bounded(self):
        rec = self._record(120)
        for start_s, seg in window_grid(rec):
            assert seg.stop == int(round((start_s + 10.0) * FS))
            assert seg.stop - seg.start <= int(RunConfig.context_s * FS)


class TestExtractWindowFeatures:
    def _segments(self, rec, idx=-1):
        segs = window_grid(rec)
        start_s, seg = segs[idx]
        return rec.channel(0)[seg], start_s

    def test_matching_baseline_gives_zero_rel(self):
        rec = synth_ecg(72, 90.0, qt_ms=380.0, noise_std=0.01, seed=2)
        noisy_seg, start_s = self._segments(rec)
        baseline_rec = compute_baseline(rec)
        feats = extract_window_features(
            noisy_seg, noisy_seg.copy(), baseline_rec, FS, window_start=start_s
        )
        assert feats.valid
        assert abs(feats.rel_bpm) < 0.05
        assert abs(feats.rel_qtc) < 0.05
        assert feats.noise_std == 0.0

    def test_too_few_beats_invalid(self, flat_baseline):
        # 30 bpm -> 5 beats per 10 s window, under the 5-interval bar
        rec = synth_ecg(30, 70.0, qt_ms=380.0)
        noisy_seg, start_s = self._segments(rec)
        feats = extract_window_features(
            noisy_seg, np.zeros_like(noisy_seg), flat_baseline, FS, window_start=start_s
        )
        assert not feats.valid

    def test_raised_bpm_shows_in_rel(self):
        clean_rec = synth_ecg(70, 90.0, noise_std=0.0)
        baseline_rec = compute_baseline(clean_rec)
        fast = synth_ecg(84, 90.0, noise_std=0.0)  # 20% over 70
        noisy_seg, start_s = self._segments(fast)
        feats = extract_window_features(
            noisy_seg, np.zeros_like(noisy_seg), baseline_rec, FS, window_start=start_s
        )
        assert feats.valid
        assert abs(feats.rel_bpm - 0.2) < 0.02

    def test_invalid_windows_keep_noise_stats(self, flat_baseline):
        n = int(60 * FS)
        rng = np.random.default_rng(3)
        noisy = rng.normal(0, 0.05, n)
        feats = extract_window_features(noisy, np.zeros(n), flat_baseline, FS)
        assert not feats.valid
        assert np.isfinite(feats.noise_std)

    @pytest.mark.parametrize("side", ["noisy", "clean"])
    def test_invalid_sample_in_context_invalidates_window(self, side):
        # one NaN (an invalid sample after ingest) in the first second of the
        # 60 s context, 50 s before the analysis window
        rec = synth_ecg(72, 90.0, qt_ms=380.0, noise_std=0.01, seed=2)
        baseline = compute_baseline(rec)
        noisy_seg, start_s = self._segments(rec)
        segments = {"noisy": noisy_seg.copy(), "clean": np.zeros_like(noisy_seg)}
        assert extract_window_features(*segments.values(), baseline, FS, window_start=start_s).valid
        segments[side][100] = np.nan
        feats = extract_window_features(*segments.values(), baseline, FS, window_start=start_s)
        assert not feats.valid
        assert feats.window_start == start_s
        assert np.isnan(feats.as_vector()).all()


class TestComputeBaseline:
    def test_synthetic_oracle(self):
        rec = synth_ecg(60, 120.0, qt_ms=380.0, noise_std=0.005, seed=6)
        profile = compute_baseline(rec)
        assert abs(profile.bpm - 60.0) < 1.5
        assert abs(profile.qtc - 380.0) < 10.0
        assert profile.sdnn >= 0.0
        assert profile.source_record == rec.record_name

    def test_all_zero_record(self):
        n = int(120 * FS)
        rec = EcgRecord(channels=[np.zeros(n), np.zeros(n)], fs=FS, record_name="z")
        with pytest.raises(NoValidWindows):
            compute_baseline(rec)

    def test_invalid_samples_skip_windows(self):
        rec = synth_ecg(60, 120.0, qt_ms=380.0, noise_std=0.005, seed=6)
        at = int(100 * FS)
        masked = EcgRecord(channels=[c.copy() for c in rec.channels], fs=FS, record_name=rec.record_name)
        masked.channels[0][at : at + 36] = np.nan
        ch = rec.channel(0)
        kept = []
        for _, seg in window_grid(rec):
            values = _segment_absolute_features(masked.channel(0)[seg], FS, 3600)
            if seg.start < at + 36 and seg.stop > at:
                assert values is None
            else:
                assert values == _segment_absolute_features(ch[seg], FS, 3600)
                kept.append(values)
        assert kept
        expected = np.maximum(np.median(np.asarray([v for v in kept if v is not None]), axis=0), 1e-9)
        profile = compute_baseline(masked)
        assert (profile.sdnn, profile.bpm, profile.qtc, profile.lfhf) == tuple(expected)

    def test_profile_record_spans_regimes(self):
        rec = synth_ecg_profile(
            [(60.0, 70.0, 20.0, 380.0), (60.0, 100.0, 20.0, 360.0)], seed=8
        )
        profile = compute_baseline(rec)
        assert 60.0 < profile.bpm < 110.0
