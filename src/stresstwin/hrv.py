"""R-peak detection, RR conditioning, HRV metrics and window feature assembly.

The detector is a Pan-Tompkins style front end (5-15 Hz bandpass,
derivative, squaring, 150 ms moving integration) followed by local-maxima
selection against a rolling robust threshold, with a second lower-threshold
pass inside suspiciously long RR gaps. The thresholds are computed once per
1 s block, from the median and MAD of the five blocks around it, and read
only at the local maxima. The detector's settings are the module constants
``FRONT_BAND``, ``INTEGRATION_S``, ``PROMINENCE_K``, ``REFRACTORY_S`` and
``GAP_FACTOR``; the tachogram's LF/HF ratio uses ``TACHOGRAM_HZ`` and
``TACHOGRAM_SEGMENT``. QT is measured with the tangent method and
rate-corrected with Bazett's formula.

The moving integration is a running sum (``_moving_mean``), as Pan and
Tompkins define it, in O(n) where a convolution costs O(n * window): numpy's
sequential ``np.cumsum`` over the window's first sum and the sample that
enters less the one that leaves, each sum divided by the window, which is
``scipy.ndimage.uniform_filter1d(v, win, mode="constant")`` bit for bit. It
rounds differently from the convolution, by about 1e-11 relative, but its
bits reach no output: the integrated signal is only compared (against the
thresholds it sets, with its neighbours for local maxima, and between
candidates), and the peaks kept are then moved to the largest sample of the
signal itself.

Every median here, MADs included, comes from one ``np.sort`` and the
arithmetic of ``np.median``: ``_median`` for one array, ``_sorted_row_medians``
and ``_sorted_prefix_medians`` for rows already sorted. ``_sorted_row_mads``
takes the MAD of a sorted row without sorting its deviations: the k-th
smallest deviation is the least, over runs of k consecutive samples, of the
larger deviation at the run's two ends, and a coarse grid of run starts
brackets where that least lies, so only the starts inside the bracket are
evaluated. The detector's scale, ``np.percentile(integ, 99)``, comes from
``_percentile``: one ``np.partition`` at the lower of the two ranks around
numpy's virtual index and numpy's own interpolation between them. The values
are those of ``np.median`` and ``np.percentile`` bit for bit, without their
per-call overhead. The refractory rule runs over plain lists and only when
two candidates are closer than the refractory period, and QT is measured for
every beat of a window at once.

The noise moments take the third and fourth powers of the centred samples
from their squares (``sq * centered`` and ``sq * sq``), the squares that the
standard deviation already sums, in place of a libm ``pow`` per sample. The
skewness and kurtosis then round differently in their last bits (within
2e-15 of the ``**`` formula on the synthetic noise records); every other
feature keeps its bits.
"""

import math
from dataclasses import dataclass

import numpy as np
import numpy.ma  # np.unique loads it on first use; here, once, before any worker forks

from .config import RunConfig
from .dsp import band_power, bandpass_filter, strided_rows, welch_psd, zscore
from .errors import (
    ConfigInvalid,
    EmptyBand,
    InsufficientData,
    InvalidParam,
    LengthMismatch,
    NoMeasurableBeats,
    NoValidWindows,
    RecordTooShort,
    SignalTooShort,
    TooFewIntervals,
    ZeroVariance,
)
from .fanout import fork_map
from .stress import relative_deviation

FEATURE_COLUMNS = (
    "ecg_sdnn",
    "ecg_bpm",
    "ecg_qtc",
    "ecg_lfhf",
    "rel_sdnn",
    "rel_bpm",
    "rel_qtc",
    "rel_lfhf",
    "noise_mean",
    "noise_std",
    "noise_skew",
    "noise_kurt",
    "noise_lfhf",
)

LF_BAND = (0.04, 0.15)
HF_BAND = (0.15, 0.40)
TACHOGRAM_HZ = 4.0
TACHOGRAM_SEGMENT = 256  # Welch segment (samples) of the tachogram's LF/HF ratio
RR_ABS_BOUNDS_MS = (300.0, 2000.0)
RR_RELATIVE_TOL = 0.20
MIN_WINDOW_RR = 5  # at least the 2 intervals that sdnn needs
LFHF_MIN_SPAN_S = 30.0
NOISE_SEGMENT = 8192  # Welch segment (samples) of the noise LF/HF ratio

# R-peak detector
FRONT_BAND = (5.0, 15.0)  # Pan-Tompkins front-end bandpass, Hz
INTEGRATION_S = 0.150  # moving-integration window
PROMINENCE_K = 4.0  # threshold: block median plus this many MADs
REFRACTORY_S = 0.25  # two peaks closer than this are one beat
GAP_FACTOR = 1.8  # RR gaps this many median RRs long are searched again


@dataclass(frozen=True)
class RrSeries:
    """Beat-to-beat intervals (ms) with the start time of each interval (s)."""

    intervals_ms: np.ndarray
    onsets_s: np.ndarray

    def __len__(self) -> int:
        return int(self.intervals_ms.size)

    def span_s(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(self.onsets_s[-1] + self.intervals_ms[-1] / 1000.0 - self.onsets_s[0])


@dataclass
class WindowFeatures:
    ecg_sdnn: float
    ecg_bpm: float
    ecg_qtc: float
    ecg_lfhf: float
    rel_sdnn: float
    rel_bpm: float
    rel_qtc: float
    rel_lfhf: float
    noise_mean: float
    noise_std: float
    noise_skew: float
    noise_kurt: float
    noise_lfhf: float
    window_start: float
    valid: bool

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, c) for c in FEATURE_COLUMNS], dtype=np.float64)

    def as_row(self) -> dict:
        """The window's feature row: every field by name, in a new dict (no deep copy)."""
        return dict(vars(self))


@dataclass(frozen=True)
class BaselineProfile:
    sdnn: float
    bpm: float
    qtc: float
    lfhf: float
    source_record: str


# --- R-peak detection --------------------------------------------------------


def detect_r_peaks(x, fs: float) -> np.ndarray:
    """R-peak sample indices in a bandpass-filtered ECG.

    May return an empty array; never raises on degenerate input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < int(2 * fs):
        return np.empty(0, dtype=np.int64)

    try:
        front = bandpass_filter(x, fs, *FRONT_BAND)
    except SignalTooShort:
        return np.empty(0, dtype=np.int64)
    # the squared np.diff(front, prepend=front[0]), in one buffer
    sq = np.empty_like(front)
    sq[0] = front[0] - front[0]
    np.subtract(front[1:], front[:-1], out=sq[1:])
    sq *= sq
    win = max(3, int(round(INTEGRATION_S * fs)))
    integ = _moving_mean(sq, win)

    block_n = int(fs)
    med, mad = _rolling_block_stats(integ, block_n)
    scale = _percentile(integ, 99)
    thr = med + np.maximum(PROMINENCE_K * mad, 0.10 * scale)
    thr_low = med + np.maximum(0.5 * PROMINENCE_K * mad, 0.05 * scale)

    maxima = _local_maxima(integ)
    height = integ[maxima]
    block = maxima // block_n
    ref_n = int(round(REFRACTORY_S * fs))
    kept = _select_peaks(integ, maxima[height >= thr[block]], ref_n)

    # second pass: hunt for missed beats inside gaps much longer than typical
    if kept.size >= 3:
        low_maxima = maxima[height >= thr_low[block]]
        for _ in range(5):
            med_rr = _median(kept[1:] - kept[:-1])
            inserted = _fill_gaps(integ, low_maxima, kept, med_rr, GAP_FACTOR, ref_n)
            if inserted is None:
                break
            kept = inserted

    refined = _refine_to_signal(x, kept, int(round(0.10 * fs)))
    return _select_peaks(x, refined, ref_n)


def _moving_mean(v, win: int) -> np.ndarray:
    """Mean of ``v[i - win // 2 .. i + (win - 1) // 2]`` at each i, zero-padded, as a running sum.

    The window of ``np.convolve(v, np.ones(win) / win, "same")`` when
    ``v.size >= win``, to rounding; O(n) whatever ``win`` is. The bits of
    ``scipy.ndimage.uniform_filter1d(v, win, mode="constant")``: the zero-padded
    first window summed in order from 0.0, then each step's entering sample
    less its leaving one, accumulated in order, and each sum divided by ``win``.
    The steps are built in the output, without a padded copy of ``v``.
    """
    n = v.size
    left = win // 2  # samples before i in its window; win - 1 - left after it
    out = np.empty(n)
    # np.add.accumulate sums in order; adding it to 0.0 gives the sum from 0.0
    out[0] = 0.0 + np.add.accumulate(v[: win - left])[-1]
    steps = out[1:]  # steps[j]: v[j + win - left] enters, v[j - left] leaves
    entering = max(0, n - win + left)
    steps[:entering] = v[win - left :]
    steps[entering:] = 0.0
    steps[left:] -= v[: max(0, n - 1 - left)]
    np.cumsum(out, out=out)
    out /= win
    return out


def _median(v) -> float:
    """``np.median`` of a non-empty 1-D array, bit for bit, from one ``np.sort``.

    The middle value, or the mean of the two middle values, is summed from
    0.0 as ``np.median``'s mean does (so a -0.0 sample gives 0.0); a NaN
    anywhere gives NaN. Integer input gives a float.
    """
    s = np.sort(v)
    k = s.size // 2
    if s[-1] != s[-1]:
        return float(s[-1])
    if s.size % 2:
        return 0.0 + float(s[k])
    return (0.0 + float(s[k - 1]) + float(s[k])) / 2.0


def _percentile(v, q: float) -> float:
    """``np.percentile(v, q)`` of a non-empty 1-D float array, bit for bit, from one ``np.partition``.

    numpy's default 'linear' method: the virtual index ``(n - 1) * q / 100``
    lies between two ranks, read from one partition at the lower rank (the
    upper one is the least value above it), and numpy's ``_lerp`` weighs
    them. An index at or past the top rank reads the top value with the
    weight numpy gives it (rank -1). NaNs sort last, so a NaN anywhere
    reaches the lerp and gives NaN, as in numpy. The one difference: a zero
    result may carry the other sign, since numpy's sign then follows where
    its own partition leaves -0.0 and 0.0.
    """
    n = v.size
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        rank, gamma = n - 1, virtual + 1.0
    else:
        rank = math.floor(virtual)
        gamma = virtual - rank
    part = np.partition(v, rank)
    below = float(part[rank])
    above = float(part[rank + 1 :].min()) if rank < n - 1 else below
    diff = above - below
    if gamma >= 0.5:
        return above - diff * (1 - gamma)
    return below + diff * gamma


def _sorted_row_medians(s) -> np.ndarray:
    """``np.median(rows, axis=1)``, bit for bit, of rows already sorted along axis 1."""
    k = s.shape[1] // 2
    if s.shape[1] % 2:
        med = 0.0 + s[:, k]
    else:
        med = (0.0 + s[:, k - 1] + s[:, k]) / 2.0
    last = s[:, -1]
    return np.where(np.isnan(last), last, med)


def _sorted_prefix_medians(s, lengths) -> np.ndarray:
    """``np.median`` of each row's ``lengths`` values, bit for bit, from sorted padded rows.

    Each row holds its values padded with +inf and is sorted along axis 1,
    so its values come first; a NaN among them sorts past the padding and
    makes the row's median NaN.
    """
    rows = np.arange(s.shape[0])
    k = lengths // 2
    upper = s[rows, k]
    lower = s[rows, np.maximum(k - 1, 0)]
    med = np.where(lengths % 2 == 1, 0.0 + upper, (0.0 + lower + upper) / 2.0)
    last = s[:, -1]
    return np.where(np.isnan(last), last, med)


def _sorted_row_mads(s, med, step: int = 32) -> np.ndarray:
    """``np.median(np.abs(s - med[:, None]), axis=1)``, bit for bit, for sorted rows.

    Rows hold at least 2 values, sorted along axis 1, and ``med`` is their
    median. Along such a row the deviations from ``med`` fall and then rise,
    so the j smallest belong to j consecutive samples, and the j-th smallest
    is the least, over all runs of j consecutive samples, of the larger
    deviation at a run's two ends. At those ends ``med - s`` and ``s - med``
    equal the absolute deviations whenever they are the larger one.

    With n = 2k or 2k + 1 values the median of the deviations needs the
    (k + 1)-th smallest, and the k-th when n is even. As a run's start a
    moves right its first-sample deviation ``med - s[a]`` falls and its
    last-sample one rises, both monotone in floating point, so the larger is
    least just before or just after the start where the rising one reaches
    the falling one. For runs of k + 1 every ``step``-th start brackets that
    crossing; the crossing for runs of k lies at most one start later. Only
    the ``step + 2`` starts from the bracket's left end are evaluated: the
    least over a subset holding the minimiser is the same value. A deviation
    is NaN only where ``med`` is NaN or an infinity the row holds; every
    bracket of two or more starts then reaches such a sample, so the NaN
    reaches the result as it reaches ``np.median``'s.
    """
    n_rows, n = s.shape
    k = n // 2
    mc = med[:, None]
    # grid starts at which a run of k + 1 still has the larger deviation at
    # its first sample: all of them lie before the crossing
    below = (s[:, k::step] - mc < mc - s[:, : n - k : step]).sum(axis=1)
    width = min(step + 2, n - k + 1)
    first = np.minimum(np.maximum((below - 1) * step, 0), n - k + 1 - width)
    a = (first + np.arange(0, n_rows * n, n))[:, None] + np.arange(width)
    flat = s.ravel()
    left = mc - flat[a]  # at the first sample of the runs starting at a
    right = flat[a + (k - 1)] - mc  # at the last sample of the runs of k
    # the run of k + 1 starting at a ends where the run of k starting at a + 1 does
    upper = np.maximum(left[:, :-1], right[:, 1:]).min(axis=1)  # the (k + 1)-th smallest
    if n % 2:
        return 0.0 + upper
    return (0.0 + np.maximum(left, right).min(axis=1) + upper) / 2.0


def _rolling_block_stats(v, block_n: int):
    """Median and MAD of each block's overlapping 5-block span, one value per block.

    Block i spans blocks i - 2 .. i + 2, truncated at the signal's ends; the
    last block may be partial.
    """
    n = v.size
    n_blocks = max(1, (n + block_n - 1) // block_n)
    med_b = np.empty(n_blocks)
    mad_b = np.empty(n_blocks)
    # blocks 2 .. last have a whole 5-block span inside v: row j of the
    # strided view is the span of block j + 2
    last = n // block_n - 3
    if last >= 2:
        spans = np.sort(strided_rows(v, 5 * block_n, block_n), axis=1)
        med_b[2 : last + 1] = _sorted_row_medians(spans)
        mad_b[2 : last + 1] = _sorted_row_mads(spans, med_b[2 : last + 1])
    for i in [*range(min(2, n_blocks)), *range(max(2, last + 1), n_blocks)]:
        lo = max(0, (i - 2) * block_n)
        hi = min(n, (i + 3) * block_n)
        seg = v[lo:hi]
        m = _median(seg)
        med_b[i] = m
        mad_b[i] = _median(np.abs(seg - m))
    return med_b, mad_b


def _local_maxima(v) -> np.ndarray:
    if v.size < 3:
        return np.empty(0, dtype=np.int64)
    core = (v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])
    return np.nonzero(core)[0] + 1


def _select_peaks(v, cands, ref_n: int) -> np.ndarray:
    """Candidates in order; one within ``ref_n`` of the last kept peak replaces it if higher in v.

    Candidates no two of which are closer than ``ref_n`` are all kept as
    they are; otherwise the rule runs over plain Python lists.
    """
    if not (cands[1:] - cands[:-1] < ref_n).any():
        return cands
    at = cands.tolist()
    height = v[cands].tolist()
    kept = [0]
    for j in range(1, len(at)):
        last = kept[-1]
        if at[j] - at[last] < ref_n:
            if height[j] > height[last]:
                kept[-1] = j
        else:
            kept.append(j)
    return cands[kept]


def _fill_gaps(integ, low_maxima, kept, med_rr, gap_factor, ref_n):
    """Kept peaks plus the strongest low-threshold maximum strictly inside each long gap.

    ``low_maxima`` are the maxima at or above the low threshold, sorted, so
    each gap's maxima are one slice of them. None when no gap gains a peak.
    """
    gaps = np.nonzero(kept[1:] - kept[:-1] > gap_factor * med_rr)[0]
    if gaps.size == 0:
        return None
    starts = np.searchsorted(low_maxima, kept[gaps] + ref_n, "right")
    stops = np.searchsorted(low_maxima, kept[gaps + 1] - ref_n, "left")
    additions = []
    for i, j in zip(starts.tolist(), stops.tolist()):
        in_gap = low_maxima[i:j]
        if in_gap.size:
            additions.append(int(in_gap[np.argmax(integ[in_gap])]))
    if not additions:
        return None
    return np.sort(np.concatenate([kept, np.asarray(additions, dtype=np.int64)]))


def _refine_to_signal(x, peaks, radius: int) -> np.ndarray:
    """Each peak moved to the largest sample within ``radius`` of it, deduplicated.

    One argmax over the strided neighbourhoods of x padded with ``radius``
    -inf samples at each end, which never win it, so a neighbourhood that
    reaches past an end is truncated there.
    """
    pad = np.full(radius, -np.inf)
    rows = strided_rows(np.concatenate([pad, x, pad]), 2 * radius + 1)
    return np.unique(peaks - radius + np.argmax(rows[peaks], axis=1))


# --- RR conditioning and metrics ---------------------------------------------


def rr_from_peaks(peaks, fs: float) -> RrSeries:
    peaks = np.asarray(peaks, dtype=np.int64)
    if peaks.size < 2:
        return RrSeries(np.empty(0), np.empty(0))
    intervals = np.diff(peaks) / fs * 1000.0
    onsets = peaks[:-1] / fs
    return RrSeries(intervals_ms=intervals, onsets_s=onsets)


def filter_rr(rr: RrSeries) -> RrSeries:
    """Keep intervals inside absolute bounds and within 20% of a running median.

    The running median uses a centered window of 11 raw intervals,
    truncated at the edges. Idempotent on clean data.
    """
    iv = rr.intervals_ms
    if iv.size == 0:
        return rr
    n = iv.size
    at = np.arange(n)[:, None] + np.arange(-5, 6)
    inside = (at >= 0) & (at < n)
    windows = np.where(inside, iv[np.clip(at, 0, n - 1)], np.inf)
    run_med = _sorted_prefix_medians(np.sort(windows, axis=1), inside.sum(axis=1))
    keep = (
        (iv >= RR_ABS_BOUNDS_MS[0])
        & (iv <= RR_ABS_BOUNDS_MS[1])
        & (np.abs(iv - run_med) <= RR_RELATIVE_TOL * run_med)
    )
    return RrSeries(intervals_ms=iv[keep], onsets_s=rr.onsets_s[keep])


def sdnn(rr: RrSeries) -> float:
    if len(rr) < 2:
        raise TooFewIntervals("sdnn needs at least 2 intervals")
    return float(np.std(rr.intervals_ms, ddof=1))


def bpm(rr: RrSeries) -> float:
    if len(rr) < 1:
        raise TooFewIntervals("bpm needs at least 1 interval")
    return 60000.0 / float(np.mean(rr.intervals_ms))


def qtc(x, fs: float, r_peaks) -> float:
    """Median Bazett-corrected QT over beats, via the tangent method.

    Q onset is the steepest negative slope within 50 ms before R; the T end
    is where the steepest post-apex descending tangent meets the local
    isoelectric level (median of the PR segment). A beat counts when its RR
    lies in [0.3, 2] s, each of its search windows fits inside x, the tangent
    descends and meets the level within 0.3 s, and QT lies in [200, 600] ms.
    Every beat is measured at once: windows of one length are rows of
    samples, and the T-wave windows, whose length follows the RR, are padded
    with values that never win their argmax or argmin.
    """
    x = np.asarray(x, dtype=np.float64)
    r_peaks = np.asarray(r_peaks, dtype=np.int64)
    if r_peaks.size < 2:
        raise NoMeasurableBeats("need at least 2 R-peaks")
    n = x.size
    q_n = int(round(0.050 * fs))
    iso_n = int(round(0.090 * fs))
    t_n = int(round(0.100 * fs))
    down_n = int(round(0.160 * fs))
    r = r_peaks[1:]
    rr_s = np.diff(r_peaks) / fs
    t_lo = r + t_n
    t_hi = np.minimum(r + np.rint(np.minimum(0.400, 0.7 * rr_s) * fs).astype(np.int64), n - 2)
    ok = (
        (rr_s >= 0.3)
        & (rr_s <= 2.0)
        & (q_n >= 3)
        & (r - iso_n >= 0)  # so r - q_n >= 2, and the Q window's first slope lies inside x
        & (iso_n - q_n >= 2)
        & (t_hi - t_lo >= 4)
    )
    if not ok.any():
        raise NoMeasurableBeats("no beat yielded a usable QT")
    r, rr_s, t_lo, t_hi = r[ok], rr_s[ok], t_lo[ok], t_hi[ok]

    # Q onset: the steepest single-sample fall in the q_n samples before R
    q_at = (r - q_n)[:, None] + np.arange(q_n)
    q = r - q_n + np.argmin(x[q_at] - x[q_at - 1], axis=1)
    # isoelectric level: median of the samples 90 to 50 ms before R
    iso = _sorted_row_medians(np.sort(x[(r - iso_n)[:, None] + np.arange(iso_n - q_n)], axis=1))
    # T apex: the highest sample in [t_lo, t_hi)
    at = np.arange(int((t_hi - t_lo).max()))
    in_t = at < (t_hi - t_lo)[:, None]
    apex = t_lo + np.argmax(np.where(in_t, x[np.minimum(t_lo[:, None] + at, n - 1)], -np.inf), axis=1)
    # the steepest fall in the down_n samples after the apex, inside x
    d_hi = np.minimum(apex + down_n, n - 1)
    at = np.arange(int((d_hi - apex).max()))
    in_d = at < (d_hi - apex)[:, None]
    d_at = np.minimum(apex[:, None] + at, n - 2)
    slopes = np.where(in_d, x[d_at + 1] - x[d_at], np.inf)
    k = np.argmin(slopes, axis=1)
    slope_per_s = slopes[np.arange(k.size), k] * fs
    ok = (d_hi - apex >= 3) & (slope_per_s < 0)
    s_idx = apex[ok] + k[ok]
    extension_s = (iso[ok] - x[s_idx]) / slope_per_s[ok]
    qt_ms = (s_idx / fs + extension_s - q[ok] / fs) * 1000.0
    usable = (extension_s >= 0.0) & (extension_s <= 0.30) & (qt_ms >= 200.0) & (qt_ms <= 600.0)
    if not usable.any():
        raise NoMeasurableBeats("no beat yielded a usable QT")
    return _median(qt_ms[usable] / np.sqrt(rr_s[ok][usable]))


def lf_hf(rr: RrSeries) -> float:
    """LF/HF power ratio of the tachogram, resampled to a ``TACHOGRAM_HZ`` grid."""
    if len(rr) < 4:
        raise InsufficientData("too few intervals for a spectral estimate")
    if rr.span_s() < LFHF_MIN_SPAN_S:
        raise InsufficientData(f"tachogram spans {rr.span_s():.1f} s, need {LFHF_MIN_SPAN_S}")
    t_end = rr.onsets_s[-1]
    grid = np.arange(rr.onsets_s[0], t_end, 1.0 / TACHOGRAM_HZ)
    if grid.size < 16:
        raise InsufficientData("resampled tachogram too short")
    tach = np.interp(grid, rr.onsets_s, rr.intervals_ms)
    tach = tach - tach.mean()
    return _lf_hf_ratio(welch_psd(tach, TACHOGRAM_HZ, min(TACHOGRAM_SEGMENT, tach.size)))


def _noise_moments(noise):
    """(mean, sample std, Fisher g1, excess g2); zero shape statistics for constant input."""
    if noise.size < 8:
        raise InvalidParam("noise stats need at least 8 samples")
    # np.std(noise, ddof=1) and np.mean(centered**2) take the same mean, the
    # same squares and the same sum: one centred pass gives both, and the
    # squares give the third and fourth powers without a pow per sample
    mu = float(np.mean(noise))
    centered = noise - mu
    sq = centered * centered
    sum_sq = float(np.sum(sq))
    std = math.sqrt(sum_sq / (noise.size - 1))
    m2 = sum_sq / noise.size
    if m2 == 0.0:
        return mu, std, 0.0, 0.0
    skew = float(np.mean(sq * centered)) / m2**1.5
    kurt = float(np.mean(sq * sq)) / m2**2 - 3.0
    return mu, std, skew, kurt


def _noise_lfhf(noise, fs: float, segment_len: int) -> float:
    """LF/HF power ratio of a noise trace's Welch PSD; 0 when a band holds no bin."""
    return _lf_hf_ratio(welch_psd(noise, fs, min(segment_len, noise.size)))


def _lf_hf_ratio(psd) -> float:
    """LF over HF band power of a PSD, the HF power floored at 1e-12; 0 when a band holds no bin."""
    try:
        lf = band_power(psd, *LF_BAND)
        hf = band_power(psd, *HF_BAND)
    except EmptyBand:
        return 0.0
    return lf / max(hf, 1e-12)


# --- windowing and feature assembly -----------------------------------------


def window_grid(
    record,
    window_s: float = RunConfig.window_s,
    stride_s: float = RunConfig.stride_s,
    context_s: float = RunConfig.context_s,
) -> list:
    """(window start in s, segment slice) for each full window of a record; partial tail dropped.

    Windows of ``round(window_s * fs)`` samples start every ``round(stride_s
    * fs)`` samples from 0. Each segment ends with its window and holds up to
    ``round(context_s * fs)`` samples of causal history: it only looks
    backwards from the window end. ConfigInvalid when the window or the
    stride rounds to no sample; RecordTooShort when no window fits.
    """
    fs = record.fs
    win_n = int(round(window_s * fs))
    stride_n = int(round(stride_s * fs))
    for name, value, n_samples in (("window_s", window_s, win_n), ("stride_s", stride_s, stride_n)):
        if n_samples < 1:
            raise ConfigInvalid(f"{name} {value} holds no sample of {record.record_name} at {fs} Hz")
    n = record.n_samples
    if win_n > n:
        raise RecordTooShort(f"record {record.record_name} holds {n} samples, a window needs {win_n}")
    context_n = int(round(context_s * fs))
    return [
        (start / fs, slice(max(0, start + win_n - context_n), start + win_n))
        for start in range(0, n - win_n + 1, stride_n)
    ]


def _segment_absolute_features(segment, fs: float, win_n: int):
    """Absolute HRV features where the window is the segment's last ``win_n`` samples.

    The segment is bandpassed then z-scored; every downstream measure
    (adaptive peak threshold, tangent QT, RR statistics) is amplitude-scale
    invariant, so standardization only evens out per-record gain. Returns
    (sdnn, bpm, qtc, lfhf) or None when the window cannot produce valid
    features (too few beats, unmeasurable QT, under-spanned LF/HF). Both
    callers reject a segment holding an invalid sample, which ingest makes
    NaN, before they get here, each with the one scan it needs; a NaN would
    spread through the filter to every sample and leave no beat.
    """
    try:
        filt = zscore(bandpass_filter(segment, fs))
    except (SignalTooShort, ZeroVariance):
        return None
    peaks = detect_r_peaks(filt, fs)
    rr_all = filter_rr(rr_from_peaks(peaks, fs))
    lo = max(0, segment.size - win_n)  # the window's first sample

    # an onset is its peak's index over fs: these intervals start at or after lo
    in_window = rr_all.onsets_s >= lo / fs
    rr_win = RrSeries(rr_all.intervals_ms[in_window], rr_all.onsets_s[in_window])
    if len(rr_win) < MIN_WINDOW_RR:
        return None
    v_sdnn = sdnn(rr_win)
    v_bpm = bpm(rr_win)

    first = int(peaks.searchsorted(lo))  # the window's first peak, led by the one before it
    win_peaks = peaks[max(0, first - 1) :] if first < peaks.size else peaks[:0]
    try:
        v_qtc = qtc(filt, fs, win_peaks)
    except NoMeasurableBeats:
        return None
    try:
        v_lfhf = lf_hf(rr_all)
    except InsufficientData:
        return None

    values = (v_sdnn, v_bpm, v_qtc, v_lfhf)
    if not all(math.isfinite(v) for v in values):
        return None
    return values


def extract_window_features(
    noisy_segment,
    clean_segment,
    baseline: BaselineProfile,
    fs: float,
    window_s: float = RunConfig.window_s,
    window_start: float = 0.0,
    eps: float = RunConfig.eps,
) -> WindowFeatures:
    """Feature vector for one window.

    The segments may carry up to ``context_s`` of leading context; the
    analysis window is their trailing ``window_s`` seconds. Absolute HRV
    comes from the noisy window, relative deviations compare against the
    clean-baseline profile, and the noise descriptors come from the
    noisy-minus-clean residual: its mean, standard deviation, skewness and
    kurtosis over the analysis window, its LF/HF ratio over the whole
    segment (window plus context). A window whose noisy or clean segment
    holds an invalid (NaN) sample is invalid, with every column NaN; one
    whose HRV cannot be measured is invalid, with NaN ecg_* and rel_* columns.
    """
    noisy_segment = np.asarray(noisy_segment, dtype=np.float64)
    clean_segment = np.asarray(clean_segment, dtype=np.float64)
    if noisy_segment.size != clean_segment.size:
        raise LengthMismatch("noisy and clean segments differ in length")

    win_n = int(round(window_s * fs))
    noise_full = noisy_segment - clean_segment
    columns = dict.fromkeys(FEATURE_COLUMNS, math.nan)  # filled by name as each is measured
    if np.isnan(noise_full).any():
        return WindowFeatures(**columns, window_start=window_start, valid=False)
    moments = _noise_moments(noise_full[-win_n:])
    columns.update(zip(("noise_mean", "noise_std", "noise_skew", "noise_kurt"), moments))
    columns["noise_lfhf"] = _noise_lfhf(noise_full, fs, NOISE_SEGMENT)

    absolute = _segment_absolute_features(noisy_segment, fs, win_n)
    if absolute is not None:
        for name, value in zip(("sdnn", "bpm", "qtc", "lfhf"), absolute):
            columns[f"ecg_{name}"] = value
            columns[f"rel_{name}"] = relative_deviation(value, getattr(baseline, name), eps)
    return WindowFeatures(**columns, window_start=window_start, valid=absolute is not None)


def compute_baseline(
    clean_record,
    window_s: float = RunConfig.window_s,
    stride_s: float = RunConfig.stride_s,
    context_s: float = RunConfig.context_s,
) -> BaselineProfile:
    """Median absolute features over all valid windows of the clean record.

    The windows are analysed on forked workers (``fanout.fork_map``).
    """
    ch = clean_record.channel(0)
    win_n = int(round(window_s * clean_record.fs))

    def analyse(window):
        segment = ch[window[1]]
        if np.isnan(segment).any():  # an invalid sample, which ingest makes NaN
            return None
        return _segment_absolute_features(segment, clean_record.fs, win_n)

    windows = window_grid(clean_record, window_s, stride_s, context_s)
    rows = [values for values in fork_map(analyse, windows) if values is not None]
    if not rows:
        raise NoValidWindows(f"record {clean_record.record_name} has no valid windows")
    med = _sorted_row_medians(np.sort(np.asarray(rows).T, axis=1))
    # a perfectly regular beat train yields sdnn or lf/hf of exactly zero;
    # floor keeps the profile strictly positive for the eps-guarded ratios
    med = np.maximum(med, 1e-9)
    return BaselineProfile(
        sdnn=float(med[0]),
        bpm=float(med[1]),
        qtc=float(med[2]),
        lfhf=float(med[3]),
        source_record=clean_record.record_name,
    )
