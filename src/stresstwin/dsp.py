"""Numeric signal kernels: zero-phase bandpass, z-scoring, Welch PSD, band power.

``bandpass_filter`` runs scipy's second-order-section cascade forward and
backward over a Butterworth design of order ``BUTTER_ORDER``, on the input
reflect-padded by slicing. ``design_bandpass_sos`` is scipy 1.17's
``butter(BUTTER_ORDER, band, "bandpass", fs=fs, output="sos")`` written out
for this one case (``buttap``, ``lp2bp_zpk``, ``bilinear_zpk``, then
``zpk2sos`` with "nearest" pairing, every pole complex and every zero at +1
or -1), operation for operation, so its coefficients are scipy's bits. The
filter calls the compiled kernel that ``scipy.signal.sosfilt`` ends in,
``scipy.signal._sosfilt._sosfilt``, on a 1 x n buffer that it filters in
place, with a zeroed state per pass; the public wrapper's argument handling
took about a fifth of each call on a 60 s context at 360 Hz, and the samples
it filters are the wrapper's, so are the bits. The kernel's extension module
is loaded from its file (``_load_sosfilt``): importing it through
``scipy.signal`` would run that package's init, which imports
``scipy.stats``, ``scipy.linalg`` and more and took most of the package's
import time and resident memory. The module is left out of ``sys.modules``,
so a later ``import scipy.signal`` imports it as its submodule and gets the
same module, so the same kernel, from the extension. The kernel is
private to scipy: the package is tested against scipy 1.17. The filter
designs each (band, fs) once per process and reuses the cached sections;
``design_bandpass_sos`` itself returns a fresh array on every call, so no
caller can write into the cached one. ``zscore``
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
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy loads it on first use; here, once, before any worker forks
from numpy.lib.stride_tricks import as_strided

from .errors import EmptyBand, InvalidBand, SegmentTooLong, SignalTooShort, ZeroVariance

DEFAULT_BAND = (0.5, 45.0)
BUTTER_ORDER = 4  # Butterworth design order; bandpass realizes 4 biquads


@dataclass(frozen=True)
class PsdEstimate:
    freqs: np.ndarray
    psd: np.ndarray
    df: float


def _load_sosfilt():
    """``scipy.signal._sosfilt._sosfilt``, loaded without running ``scipy.signal``'s init."""
    name = "scipy.signal._sosfilt"
    module = sys.modules.get(name)
    if module is None:
        signal_dir = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "signal")
        spec = importlib.machinery.PathFinder.find_spec(name, [signal_dir])
        if spec is None:
            raise ImportError(f"no {name} extension module in {signal_dir}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # it registers itself; unregistered, a later import binds it to scipy.signal
        sys.modules.pop(name, None)
    return module._sosfilt


_sosfilt = _load_sosfilt()


def design_bandpass_sos(low_hz: float, high_hz: float, fs: float):
    """Butterworth bandpass coefficients as second-order sections.

    The bits of ``scipy.signal.butter(BUTTER_ORDER, [low_hz, high_hz],
    "bandpass", fs=fs, output="sos")``: each step below is the scipy 1.17
    function it names, operation for operation, for an even order and a band
    strictly inside (0, fs / 2).
    """
    if not 0 < low_hz < high_hz < fs / 2:
        raise InvalidBand(f"band [{low_hz}, {high_hz}] invalid for fs={fs}")
    # iirfilter: pre-warp the band edges for the bilinear transform at fs = 2
    wn = np.array([low_hz, high_hz], dtype=np.float64) / (float(fs) / 2)
    warped = 2 * 2.0 * np.tan(np.pi * wn / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # buttap: analog lowpass prototype, no zeros, unit gain
    m = np.arange(-BUTTER_ORDER + 1, BUTTER_ORDER, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * BUTTER_ORDER))
    # lp2bp_zpk: each pole splits in two; BUTTER_ORDER zeros land at s = 0
    p_lp = p * bw / 2
    p_bp = np.concatenate((p_lp + np.sqrt(p_lp**2 - wo**2), p_lp - np.sqrt(p_lp**2 - wo**2)))
    # bilinear_zpk at fs = 2: zeros at s = 0 map to z = +1, those at infinity to z = -1
    fs2 = 4.0
    p_z = (fs2 + p_bp) / (fs2 - p_bp)
    # the gain: prod(fs2 - z) over the zeros at s = 0 is fs2**BUTTER_ORDER exactly
    k = bw**BUTTER_ORDER * np.real(complex(fs2**BUTTER_ORDER) / np.prod(fs2 - p_bp))
    # zpk2sos, "nearest": the poles come in exact conjugate pairs, so _cplxreal
    # keeps the upper half, ordered by real part, then imaginary part
    poles = p_z[p_z.imag > 0]
    poles = poles[np.lexsort((poles.imag, poles.real))]
    zeros_left = {1.0: BUTTER_ORDER, -1.0: BUTTER_ORDER}
    sos = np.zeros((BUTTER_ORDER, 6))
    for si in range(BUTTER_ORDER - 1, -1, -1):
        # the pole nearest the unit circle goes last, with its conjugate and
        # the two zeros nearest it among those left
        i = np.argmin(np.abs(1 - np.abs(poles)))
        p1 = poles[i]
        poles = np.delete(poles, i)
        zero = 1.0 if np.abs(1.0 - p1) < np.abs(-1.0 - p1) else -1.0
        if not zeros_left[zero]:
            zero = -zero
        zeros_left[zero] -= 2
        a = np.convolve(np.array([1, -p1]), np.array([1, -p1.conjugate()])).real
        sos[si] = (1.0, -2.0 * zero, 1.0, *a)
    sos[0, :3] *= k
    return sos


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
    # with at least 3 bins per row, numpy sums along the outer axis one row at
    # a time in index order: the rounding is that of a loop over the segments
    psd = pxx.sum(axis=0) / len(pxx)
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
