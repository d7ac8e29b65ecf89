"""Numeric signal kernels: zero-phase bandpass, z-scoring, Welch PSD, band power.

``bandpass_filter`` runs scipy's second-order-section cascade forward and
backward over a Butterworth design of order ``BUTTER_ORDER``, on the input
reflect-padded by slicing. It calls the compiled kernel that
``scipy.signal.sosfilt`` ends in, ``scipy.signal._sosfilt._sosfilt``, on a
1 x n buffer that it filters in place, with a zeroed state per pass. The
public wrapper's argument handling (array-API dispatch, axis moves, a state
and a copy of the input per call) took about a fifth of each call on a 60 s
context at 360 Hz, and every argument here already has the shape and type the
kernel needs; the samples it filters are the wrapper's, so are the bits. The
kernel is private to scipy: the package is tested against scipy 1.17. The
filter designs each (band, fs) once per process and reuses the cached
sections; ``design_bandpass_sos`` itself returns a fresh array on every
call, so no caller can write into the cached one. ``zscore``
takes the mean and the sample standard deviation as ``np.mean`` and
``np.std`` do, operation for operation, from one centred copy. ``welch_psd``
cuts half-overlapping segments and linearly detrends, Hann-windows and
transforms all of them as one array of ``strided_rows``, with the window,
its scale, the frequency grid and the detrend ramp made once per (segment
length, rate); each call hands out its own copy of the frequency grid, so no
caller can write into the cached one. ``band_power``
integrates the one slice of an ascending grid that a band covers. Every
result is bit for bit that of the plain numpy calls named in each function.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import signal as _scipy_signal
from scipy.signal._sosfilt import _sosfilt

from .errors import EmptyBand, InvalidBand, SegmentTooLong, SignalTooShort, ZeroVariance

DEFAULT_BAND = (0.5, 45.0)
BUTTER_ORDER = 4  # Butterworth design order; bandpass realizes 4 biquads


@dataclass(frozen=True)
class PsdEstimate:
    freqs: np.ndarray
    psd: np.ndarray
    df: float


def design_bandpass_sos(low_hz: float, high_hz: float, fs: float):
    """Butterworth bandpass coefficients as second-order sections."""
    if low_hz >= high_hz or high_hz >= fs / 2 or low_hz < 0:
        raise InvalidBand(f"band [{low_hz}, {high_hz}] invalid for fs={fs}")
    return _scipy_signal.butter(BUTTER_ORDER, [low_hz, high_hz], btype="bandpass", fs=fs, output="sos")


# Shared by every bandpass_filter call with the same arguments. Not marked
# read-only: scipy's sosfilt kernel rejects a read-only coefficient buffer.
_cached_bandpass_sos = functools.lru_cache(design_bandpass_sos)


def bandpass_filter(x, fs: float, low_hz: float = DEFAULT_BAND[0], high_hz: float = DEFAULT_BAND[1]):
    """Zero-phase bandpass: reflect-pad, filter forward, then backward.

    Output has the input's length; passband gain is ~1 because the
    forward-backward pass squares the magnitude response and cancels phase.
    """
    sos = _cached_bandpass_sos(low_hz, high_hz, fs)
    x = np.asarray(x, dtype=np.float64)
    n_poles = 2 * BUTTER_ORDER
    if x.size <= 6 * n_poles:
        raise SignalTooShort(f"need more than {6 * n_poles} samples, got {x.size}")
    padlen = 3 * n_poles
    # np.pad(x, padlen, mode="reflect"), without its per-call overhead, as the
    # one row of the 2-D buffer that the kernel filters in place
    y = np.concatenate((x[padlen:0:-1], x, x[-2 : -padlen - 2 : -1]))[None, :]
    _sosfilt(sos, y, np.zeros((1, sos.shape[0], 2)))
    y = y[:, ::-1].copy()  # the backward pass runs over a contiguous reversed copy
    _sosfilt(sos, y, np.zeros((1, sos.shape[0], 2)))
    return y[0, ::-1][padlen : padlen + x.size].copy()


def strided_rows(x, width: int, step: int = 1):
    """Read-only rows ``x[i * step : i * step + width]``, one for each whole row.

    The rows of ``sliding_window_view(x, width)[::step]`` for a 1-D x at
    least ``width`` long, without that function's per-call argument checks.
    """
    stride = x.strides[0]
    return as_strided(x, ((x.size - width) // step + 1, width), (step * stride, stride), writeable=False)


def zscore(x):
    """Normalize to zero mean and unit sample standard deviation."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise SignalTooShort("z-score needs at least 2 samples")
    # np.mean(x) and np.std(x, ddof=1) operation for operation, sharing the
    # centred samples with the result
    centered = x - float(np.sum(x)) / x.size
    sd = math.sqrt(float(np.sum(centered * centered)) / (x.size - 1))
    if sd == 0.0:
        raise ZeroVariance("constant input has no z-score")
    return centered / sd


@dataclass(frozen=True)
class _SegmentConstants:
    """What every Welch call with one segment length and rate shares."""

    win: np.ndarray
    scale: float  # density normalization: 1 / (fs * sum(win**2))
    freqs: np.ndarray
    ramp: np.ndarray  # sample index minus its mean, for the linear detrend
    ramp_ss: float  # sum(ramp**2)


# Bounded: the tachogram's segment length follows the beats in each context,
# so lf_hf alone asks for a few hundred lengths.
@functools.lru_cache(maxsize=1024)
def _segment_constants(segment_len: int, fs: float) -> _SegmentConstants:
    win = np.hanning(segment_len)
    t = np.arange(segment_len, dtype=np.float64)
    ramp = t - (segment_len - 1) / 2.0
    freqs = np.fft.rfftfreq(segment_len, d=1.0 / fs)
    return _SegmentConstants(
        win=win,
        scale=1.0 / (fs * np.sum(win**2)),
        freqs=freqs,
        ramp=ramp,
        ramp_ss=np.sum(ramp**2),
    )


def _detrended_windowed(segs, const: _SegmentConstants):
    """Each row less its least-squares line, times the window, in one new buffer.

    ``(segs - (mean + slope * ramp)) * win``: the line is built, subtracted
    and windowed in place, and the adds commute, so the bits are the same.
    """
    mean = segs.mean(axis=1)[:, None]
    slope = np.sum(const.ramp * (segs - mean), axis=1)[:, None] / const.ramp_ss
    t = slope * const.ramp
    t += mean
    np.subtract(segs, t, out=t)
    t *= const.win
    return t


def welch_psd(x, fs: float, segment_len: int) -> PsdEstimate:
    """One-sided Welch PSD: mean of the periodograms of half-overlapping,
    linearly detrended, Hann-windowed segments.

    Density-normalized so that sum(psd) * df approximates the signal variance.
    """
    x = np.asarray(x, dtype=np.float64)
    if segment_len > x.size:
        raise SegmentTooLong(f"segment {segment_len} longer than signal {x.size}")
    if segment_len < 4:
        raise SignalTooShort("segment must hold at least 4 samples")
    const = _segment_constants(segment_len, fs)
    segs = strided_rows(x, segment_len, segment_len - segment_len // 2)
    spec = np.fft.rfft(_detrended_windowed(segs, const), axis=1)
    pxx = spec.real**2
    pxx += spec.imag**2
    pxx *= const.scale
    pxx[:, 1:] *= 2.0
    if segment_len % 2 == 0:
        pxx[:, -1] /= 2.0  # Nyquist bin is not mirrored
    # accumulated row by row in segment order, so the rounding does not depend
    # on the order numpy picks for a reduction
    acc = np.zeros(pxx.shape[1])
    for row in pxx:
        acc += row
    psd = acc / len(pxx)
    return PsdEstimate(freqs=const.freqs.copy(), psd=psd, df=fs / segment_len)


def band_power(psd: PsdEstimate, lo_hz: float, hi_hz: float) -> float:
    """Trapezoidal integral of the PSD over [lo_hz, hi_hz].

    The frequency grid ascends, as ``welch_psd`` makes it, so the bins inside
    the band are one slice found by binary search; the sum is
    ``np.trapezoid``'s over those bins, operation for operation.
    """
    freqs = psd.freqs
    if lo_hz < 0 or lo_hz >= hi_hz or hi_hz > freqs[-1] + 1e-12:
        raise InvalidBand(f"band [{lo_hz}, {hi_hz}] outside spectrum")
    lo = int(freqs.searchsorted(lo_hz, "left"))
    hi = int(freqs.searchsorted(hi_hz, "right"))
    if hi <= lo:
        raise EmptyBand(f"no bins inside [{lo_hz}, {hi_hz}] at df={psd.df}")
    f = freqs[lo:hi]
    p = psd.psd[lo:hi]
    return float(((f[1:] - f[:-1]) * (p[1:] + p[:-1]) / 2.0).sum())
