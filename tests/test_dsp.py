import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as scipy_signal

from stresstwin.dsp import (
    BUTTER_ORDER,
    PsdEstimate,
    band_power,
    bandpass_filter,
    design_bandpass_sos,
    strided_rows,
    welch_psd,
    zscore,
)
from stresstwin.errors import (
    EmptyBand,
    InvalidBand,
    SegmentTooLong,
    SignalTooShort,
    ZeroVariance,
)

FS = 360.0


def steady_amplitude(y, fs, trim_s=5.0):
    mid = y[int(trim_s * fs) : -int(trim_s * fs)]
    return np.sqrt(2.0 * np.mean(mid**2))


class TestBandpass:
    def test_dc_removed(self):
        y = bandpass_filter(np.ones(int(30 * FS)), FS)
        assert np.max(np.abs(y[int(5 * FS) : int(25 * FS)])) < 0.01

    def test_passband_10hz_within_1pct(self):
        t = np.arange(0, 30, 1 / FS)
        y = bandpass_filter(np.sin(2 * np.pi * 10 * t), FS)
        assert abs(steady_amplitude(y, FS) - 1.0) < 0.01

    def test_60hz_attenuated_20db(self):
        t = np.arange(0, 30, 1 / FS)
        y = bandpass_filter(np.sin(2 * np.pi * 60 * t), FS)
        assert 20 * np.log10(steady_amplitude(y, FS)) <= -20.0

    def test_invalid_band(self):
        with pytest.raises(InvalidBand):
            bandpass_filter(np.zeros(1000), FS, 45.0, 0.5)
        with pytest.raises(InvalidBand):
            bandpass_filter(np.zeros(1000), FS, 0.5, 200.0)

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            bandpass_filter(np.zeros(30), FS)

    def test_zero_phase_time_reversal(self):
        # the 0.5 Hz corner transient decays with tau ~0.3 s; sixteen
        # seconds of trim brings the asymmetric remainder under 1e-9
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, int(42 * FS))
        fwd = bandpass_filter(x, FS)
        rev = bandpass_filter(x[::-1], FS)[::-1]
        trim = int(16 * FS)
        assert np.allclose(fwd[trim:-trim], rev[trim:-trim], atol=1e-9)

    def test_design_cached_but_returned_fresh(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, 3000)
        before = bandpass_filter(x, FS, 5.0, 15.0)
        sos = design_bandpass_sos(5.0, 15.0, FS)
        assert sos is not design_bandpass_sos(5.0, 15.0, FS)
        sos[:] = 0.0  # a caller writing into its copy leaves the filter intact
        assert np.array_equal(bandpass_filter(x, FS, 5.0, 15.0), before)


class TestDesignMatchesScipy:
    """The ported design gives ``scipy.signal.butter``'s coefficients bit for bit."""

    @pytest.mark.parametrize(
        "fs, band",
        [
            (fs, band)
            for fs in (128.0, 200.0, 250.0, 256.0, 360.0, 500.0, 1000.0, 1024.0)
            for band in ((0.5, 45.0), (5.0, 15.0), (1.0, 100.0), (0.05, 40.0), (0.67, 35.0), (10.0, 60.0))
            if band[1] < fs / 2
        ],
    )
    def test_bitwise(self, fs, band):
        ref = scipy_signal.butter(BUTTER_ORDER, list(band), btype="bandpass", fs=fs, output="sos")
        got = design_bandpass_sos(*band, fs)
        assert got.shape == ref.shape and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize(
        "band",
        [(45.0, 0.5), (5.0, 5.0), (0.5, 180.0), (0.5, 200.0), (0.0, 45.0), (-1.0, 45.0), (float("nan"), 45.0)],
    )
    def test_invalid_band(self, band):
        with pytest.raises(InvalidBand):
            design_bandpass_sos(*band, FS)


def _bandpass_reference(x, fs, low_hz=0.5, high_hz=45.0):
    """Reference: np.pad reflect, forward pass, backward pass over a contiguous reversed copy."""
    sos = design_bandpass_sos(low_hz, high_hz, fs)
    padded = np.pad(np.asarray(x, dtype=np.float64), 24, mode="reflect")
    y = scipy_signal.sosfilt(sos, padded)
    y = scipy_signal.sosfilt(sos, y[::-1].copy())[::-1]
    return np.ascontiguousarray(y[24 : 24 + np.size(x)])


class TestBandpassMatchesReference:
    """The direct kernel calls give the public ``scipy.signal.sosfilt``'s bits."""

    @pytest.mark.parametrize("n", [49, 50, 73, 1000, 21600])
    @pytest.mark.parametrize("band", [(0.5, 45.0), (5.0, 15.0)])
    def test_bitwise(self, n, band):
        self._assert_bitwise(n, band, FS)

    @pytest.mark.parametrize("n", [49, 50, 73, 1000, 21600])
    @pytest.mark.parametrize(
        "fs, band",
        [(fs, band) for fs in (250.0, 500.0, 1000.0) for band in ((0.5, 45.0), (5.0, 15.0), (1.0, 100.0))]
        + [(FS, (1.0, 100.0))],
    )
    def test_bitwise_at_other_rates_and_bands(self, n, fs, band):
        self._assert_bitwise(n, band, fs)

    @staticmethod
    def _assert_bitwise(n, band, fs):
        x = np.random.default_rng(n).normal(0.0, 1.0, n)
        got = bandpass_filter(x, fs, *band)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), _bandpass_reference(x, fs, *band).view(np.int64))

    def test_strided_input(self):
        x = np.random.default_rng(1).normal(0.0, 1.0, 4001)[::2]
        assert np.array_equal(bandpass_filter(x, FS).view(np.int64), _bandpass_reference(x, FS).view(np.int64))

    @pytest.mark.parametrize(
        "view",
        [
            lambda a: a,
            lambda a: a[::-1],  # negative stride
            lambda a: a[::-3],
            lambda a: a.astype(np.float32),  # converted on the way in
            lambda a: a.tolist(),
        ],
        ids=["contiguous", "reversed", "reversed_strided", "float32", "list"],
    )
    def test_input_left_unmodified(self, view):
        base = np.random.default_rng(4).normal(0.0, 1.0, 9000)
        base.setflags(write=False)  # a read-only input is filtered, not written
        x = view(base)
        before = np.array(x, dtype=np.float64)
        got = bandpass_filter(x, FS)
        assert np.array_equal(np.asarray(x, dtype=np.float64), before)
        assert np.array_equal(base, np.random.default_rng(4).normal(0.0, 1.0, 9000))
        assert np.array_equal(got.view(np.int64), _bandpass_reference(before, FS).view(np.int64))
        assert got.flags.c_contiguous and got.flags.writeable


class TestStridedRows:
    @pytest.mark.parametrize(("n", "width", "step"), [(5, 5, 1), (10, 3, 1), (21, 8, 4), (22, 8, 4), (23, 8, 4)])
    def test_rows_of_sliding_window_view(self, n, width, step):
        x = np.arange(n, dtype=np.float64)
        for v in (x, np.arange(2 * n, dtype=np.float64)[::2]):
            rows = strided_rows(v, width, step)
            assert np.array_equal(rows, sliding_window_view(v, width)[::step])
            assert not rows.flags.writeable


class TestZscore:
    @pytest.mark.parametrize("offset", [0.0, 1e6, -3.5])
    @pytest.mark.parametrize("n", [2, 3, 999, 21600])
    def test_matches_mean_and_std(self, n, offset):
        x = np.random.default_rng(n).normal(offset, 2.0, n)
        ref = (x - float(np.mean(x))) / float(np.std(x, ddof=1))
        assert np.array_equal(zscore(x).view(np.int64), ref.view(np.int64))

    def test_triple(self):
        assert np.allclose(zscore([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])

    def test_moments(self):
        rng = np.random.default_rng(2)
        z = zscore(rng.normal(3.0, 5.0, 1000))
        assert abs(z.mean()) < 1e-12
        assert abs(z.std(ddof=1) - 1.0) < 1e-12

    def test_constant_rejected(self):
        with pytest.raises(ZeroVariance):
            zscore([5.0, 5.0, 5.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 500)
        assert np.allclose(zscore(x), zscore(2.5 * x + 7.0), atol=1e-10)


class TestWelch:
    def test_zero_signal(self):
        psd = welch_psd(np.zeros(2048), FS, 512)
        assert np.all(psd.psd == 0.0)

    def test_peak_localization(self):
        fs = 4.0
        t = np.arange(0, 600, 1 / fs)
        x = np.sin(2 * np.pi * 0.1 * t)
        psd = welch_psd(x, fs, 256)
        peak = psd.freqs[np.argmax(psd.psd)]
        assert abs(peak - 0.1) <= psd.df

    def test_parseval_white_noise(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 8192)
        psd = welch_psd(x, FS, 1024)
        total = np.sum(psd.psd) * psd.df
        assert abs(total / np.var(x) - 1.0) < 0.05

    def test_segment_too_long(self):
        with pytest.raises(SegmentTooLong):
            welch_psd(np.zeros(100), FS, 256)

    def test_offset_invariance_with_detrend(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 4096)
        a = welch_psd(x, FS, 512).psd
        b = welch_psd(x + 100.0, FS, 512).psd
        assert np.allclose(a, b, atol=1e-6)


def _welch_loop(x, fs, segment_len):
    """Reference: one detrended, Hann-windowed periodogram per half-overlapping segment, summed in order."""
    win = np.hanning(segment_len)
    step = max(1, segment_len - int(0.5 * segment_len))
    scale = 1.0 / (fs * np.sum(win**2))
    acc = np.zeros(segment_len // 2 + 1)
    count = 0
    for start in range(0, x.size - segment_len + 1, step):
        seg = x[start : start + segment_len]
        n = seg.size
        t = np.arange(n, dtype=np.float64)
        t_mean = (n - 1) / 2.0
        denom = np.sum((t - t_mean) ** 2)
        slope = np.sum((t - t_mean) * (seg - seg.mean())) / denom
        seg = seg - (seg.mean() + slope * (t - t_mean))
        spec = np.fft.rfft(seg * win)
        pxx = (spec.real**2 + spec.imag**2) * scale
        pxx[1:] *= 2.0
        if segment_len % 2 == 0:
            pxx[-1] /= 2.0
        acc += pxx
        count += 1
    return acc / count


class TestWelchMatchesSegmentLoop:
    """The batched segments give the per-segment loop's bits, not just its values."""

    @pytest.mark.parametrize(
        "size, segment_len",
        [
            (3600, 3600),  # one segment spanning the signal
            (5000, 1001),  # odd segment: no unmirrored Nyquist bin
            (21600, 8192),  # noise LF/HF over a 60 s context
            (4000, 256),  # tachogram LF/HF segment
            (300, 4),  # shortest segment: a step of two samples
        ],
    )
    def test_bitwise(self, size, segment_len):
        rng = np.random.default_rng(size + segment_len)
        x = rng.normal(0, 1, size) + np.linspace(0, 3, size)
        got = welch_psd(x, FS, segment_len).psd
        assert np.array_equal(got, _welch_loop(x, FS, segment_len))


class TestWelchCache:
    """The per-segment-length constants are shared; what a call returns is not."""

    @pytest.mark.parametrize("field", ["freqs", "psd"])
    def test_mutating_a_result_leaves_the_next_call_alone(self, field):
        x = np.random.default_rng(5).normal(0, 1, 2048)
        first = welch_psd(x, FS, 256)
        expected = (first.freqs.copy(), first.psd.copy())
        getattr(first, field)[:] = -1.0
        second = welch_psd(x, FS, 256)
        assert np.array_equal(second.freqs, expected[0])
        assert np.array_equal(second.freqs, np.fft.rfftfreq(256, d=1.0 / FS))
        assert np.array_equal(second.psd, expected[1])


def _band_power_reference(psd, lo_hz, hi_hz):
    """Reference: a boolean mask of the bins and np.trapezoid."""
    mask = (psd.freqs >= lo_hz) & (psd.freqs <= hi_hz)
    if not np.any(mask):
        raise EmptyBand("no bins")
    return float(np.trapezoid(psd.psd[mask], psd.freqs[mask]))


class TestBandPowerMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        segment_len = int(rng.integers(8, 600))
        fs = float(rng.choice([4.0, 360.0, rng.uniform(1.0, 500.0)]))
        psd = welch_psd(rng.normal(size=segment_len + int(rng.integers(0, 400))), fs, segment_len)
        edges = psd.freqs[rng.integers(0, psd.freqs.size, 4)]  # bands ending exactly on bins
        bands = [(0.04, 0.15), (0.15, 0.40), tuple(sorted(rng.uniform(0.0, fs / 2, 2))), *zip(edges[:2], edges[2:])]
        for lo, hi in bands:
            if not 0 <= lo < hi:
                continue
            try:
                ref = _band_power_reference(psd, lo, hi)
            except EmptyBand:
                with pytest.raises(EmptyBand):
                    band_power(psd, lo, hi)
                continue
            assert band_power(psd, lo, hi).hex() == ref.hex()


class TestBandPower:
    def _psd(self):
        freqs = np.linspace(0, 2.0, 41)
        return PsdEstimate(freqs=freqs, psd=np.ones_like(freqs), df=0.05)

    def test_full_band_equals_total(self):
        psd = self._psd()
        assert abs(band_power(psd, 0.0, 2.0) - 2.0) < 1e-12

    def test_zero_psd(self):
        psd = PsdEstimate(np.linspace(0, 2, 41), np.zeros(41), 0.05)
        assert band_power(psd, 0.1, 0.5) == 0.0

    def test_additivity_at_bin_edge(self):
        psd = self._psd()
        total = band_power(psd, 0.0, 2.0)
        assert abs(band_power(psd, 0.0, 1.0) + band_power(psd, 1.0, 2.0) - total) < 1e-9

    def test_empty_band(self):
        psd = self._psd()
        with pytest.raises(EmptyBand):
            band_power(psd, 0.011, 0.014)

    def test_invalid_band(self):
        psd = self._psd()
        with pytest.raises(InvalidBand):
            band_power(psd, 0.5, 0.1)
