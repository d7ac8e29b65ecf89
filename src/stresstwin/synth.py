"""Synthetic ECG generation.

The generator places template beats (Q dip, R spike, S dip, T wave) at
exactly known onsets, so detected R-peak counts, RR statistics and the
tangent-measured QT all have construction-time ground truth. A Gaussian
T wave of width sigma centered at c has its tangent-method endpoint at
exactly c + 2*sigma, which is how ``qt_ms`` is honoured.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam, LengthMismatch
from .ingest import INVALID_ADU, EcgRecord, encode_format212, snr_from_name

# beat geometry relative to the beat onset (seconds)
_Q_CENTER, _Q_SIGMA, _Q_AMP = 0.010, 0.008, -0.15
_R_CENTER, _R_SIGMA, _R_AMP = 0.040, 0.010, 1.00
_S_CENTER, _S_SIGMA, _S_AMP = 0.070, 0.009, -0.25
_T_SIGMA, _T_AMP = 0.050, 0.35

R_OFFSET_S = _R_CENTER  # R peak sits this far after the beat onset
_START_OFFSET_S = 0.2   # first beat onset, keeps the first QRS off the edge


# the waves of a beat in the order they are added: Q, R, S, T
_WAVE_SIGMA = np.array([_Q_SIGMA, _R_SIGMA, _S_SIGMA, _T_SIGMA])
_WAVE_AMP = np.array([_Q_AMP, _R_AMP, _S_AMP, _T_AMP])
_RENDER_BLOCK = 256  # beats per array pass; bounds the (beat, sample) scratch arrays


def render_beats(onsets_s, qt_s, duration_s: float, fs: float) -> np.ndarray:
    """Render template beats at the given onsets; qt_s is scalar or per beat.

    Each wave is a Gaussian over the samples within 5 sigma of its center.
    A sample's terms are summed in (beat, wave) order, as adding the beats
    one after another would, so where a T wave reaches into the next beat's
    QRS at a high rate the sum has the same bits.
    """
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    out = np.zeros(n)
    onsets = np.asarray(onsets_s, dtype=float)
    qt = np.broadcast_to(np.asarray(qt_s, dtype=float), onsets.shape)
    if n == 0 or onsets.size == 0:
        return out
    # tangent endpoint of a Gaussian is center + 2*sigma
    t_centers = onsets + qt - 2 * _T_SIGMA
    centers = np.stack([onsets + _Q_CENTER, onsets + _R_CENTER, onsets + _S_CENTER, t_centers], axis=1)
    lo = np.searchsorted(t, centers - 5 * _WAVE_SIGMA)
    hi = np.searchsorted(t, centers + 5 * _WAVE_SIGMA)
    # one column per sample of each wave's widest span, wave after wave
    widths = (hi - lo).max(axis=0)
    wave = np.repeat(np.arange(4), widths)
    offset = np.arange(widths.sum()) - np.repeat(np.cumsum(widths) - widths, widths)
    for b in range(0, onsets.size, _RENDER_BLOCK):
        block = slice(b, b + _RENDER_BLOCK)
        idx = lo[block][:, wave] + offset
        keep = idx < hi[block][:, wave]
        x = t[np.minimum(idx, n - 1)]
        x -= centers[block][:, wave]
        x /= _WAVE_SIGMA[wave]
        np.square(x, out=x)
        x *= -0.5
        np.exp(x, out=x)
        x *= _WAVE_AMP[wave]
        # unbuffered and in index order: (beat, wave, sample)
        np.add.at(out, idx[keep], x[keep])
    return out


def synth_ecg(
    bpm: float,
    duration_s: float,
    fs: float = 360.0,
    qt_ms: float = 380.0,
    noise_std: float = 0.0,
    seed: int = 0,
) -> EcgRecord:
    """Deterministic two-channel synthetic ECG with beats exactly 60/bpm apart."""
    if not 30.0 <= bpm <= 220.0:
        raise InvalidParam(f"bpm {bpm} outside [30, 220]")
    if duration_s <= 0:
        raise InvalidParam("duration must be positive")
    rr_s = 60.0 / bpm
    if qt_ms <= 0 or qt_ms / 1000.0 >= 0.95 * rr_s:
        raise InvalidParam(f"qt {qt_ms} ms does not fit into an RR of {rr_s * 1000:.0f} ms")
    if noise_std < 0:
        raise InvalidParam("noise_std must be non-negative")

    onsets = np.arange(_START_OFFSET_S, duration_s - R_OFFSET_S - 0.02, rr_s)
    ch0 = render_beats(onsets, qt_ms / 1000.0, duration_s, fs)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        ch0 = ch0 + rng.normal(0.0, noise_std, ch0.size)
    ch1 = 0.5 * ch0
    return EcgRecord(
        channels=[ch0, ch1],
        fs=fs,
        record_name=f"synth{int(round(bpm)):03d}",
        snr_db=None,
    )


def synth_ecg_profile(
    segments,
    fs: float = 360.0,
    seed: int = 0,
    record_name: str = "S00",
) -> EcgRecord:
    """Stitch regimes of (duration_s, bpm, rr_jitter_ms, qt_ms) into one record.

    The jitter is white Gaussian on the beat-to-beat interval, which sets
    the SDNN of the resulting RR series to about rr_jitter_ms.
    """
    segments = list(segments)
    n_draws = 0
    for duration_s, bpm, jitter_ms, _ in segments:
        if not 30.0 <= bpm <= 220.0:
            raise InvalidParam(f"bpm {bpm} outside [30, 220]")
        if not jitter_ms >= 0:
            raise InvalidParam(f"rr jitter {jitter_ms} ms is not a non-negative number")
        # at most one beat per shortest interval, plus the one that may start it
        n_draws += max(0, int(duration_s / (0.62 * 60.0 / bpm))) + 2
    # rng.normal(0, s) is 0 + s * standard_normal(): one block of draws is
    # the same stream as one draw per beat, and the unused tail is never seen
    jitter = iter(np.random.default_rng(seed).standard_normal(n_draws).tolist())
    onsets, qts = [], []
    t = _START_OFFSET_S
    total = 0.0
    for duration_s, bpm, jitter_ms, qt_ms in segments:
        base_rr = 60.0 / bpm
        scale = jitter_ms / 1000.0
        shortest, longest = 0.62 * base_rr, 1.55 * base_rr
        seg_end = total + duration_s
        while t < seg_end - R_OFFSET_S - 0.02:
            onsets.append(t)
            qts.append(qt_ms / 1000.0)
            t += min(max(base_rr + scale * next(jitter), shortest), longest)
        total = seg_end
    ch0 = render_beats(np.asarray(onsets), np.asarray(qts), total, fs)
    ch1 = 0.5 * ch0
    return EcgRecord(channels=[ch0, ch1], fs=fs, record_name=record_name, snr_db=None)


def _std(x, scratch) -> float:
    """``np.std(x)`` bit for bit, its squared deviations written to ``scratch``."""
    np.subtract(x, x.sum() / x.size, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    return math.sqrt(scratch.sum() / x.size)


def _colored_noise(n: int, fs: float, rng) -> np.ndarray:
    """Ambulatory-style noise: broadband muscle artifact plus baseline wander."""
    return _shape_noise(rng.normal(0.0, 1.0, n), fs, rng)


def _shape_noise(white, fs: float, rng) -> np.ndarray:
    """``_colored_noise`` from its white draws; overwrites ``white``, its scratch."""
    # crude 1-40 Hz shaping by differencing a smoothed walk; cheap and seeded
    kernel = np.hanning(max(3, int(fs / 40)))
    kernel /= kernel.sum()
    noise = np.convolve(white, kernel, mode="same")
    noise /= max(_std(noise, white), 1e-12)
    wander = _sample_times(white, fs)  # the white draws are spent
    wander *= 2 * np.pi * 0.33
    wander += rng.uniform(0, 2 * np.pi)
    np.sin(wander, out=wander)
    wander *= 0.8
    noise += wander
    noise /= max(_std(noise, wander), 1e-12)
    return noise


_WRITE_BLOCK = 1 << 15  # samples per ADU, format-212 and time-base pass


def _sample_times(out, fs: float) -> np.ndarray:
    """``np.arange(out.size) / fs`` bit for bit, written to ``out`` a block at a time."""
    for i in range(0, out.size, _WRITE_BLOCK):
        block = out[i : i + _WRITE_BLOCK]
        block[:] = np.arange(i, i + block.size)
    out /= fs
    return out


def _to_adu(ch_mv, gain: float, baseline_adu: int) -> np.ndarray:
    """Round mV samples to 12-bit ADU in one float buffer."""
    adu = np.multiply(ch_mv, gain)
    adu += baseline_adu
    np.rint(adu, out=adu)
    # the lowest 12-bit value is format 212's invalid-sample code, never written
    np.clip(adu, INVALID_ADU + 1, 2047, out=adu)
    return adu.astype(np.int64)


def write_wfdb212(
    out_dir,
    record_name: str,
    channels_mv,
    fs: float,
    gain: float = 200.0,
    baseline_adu: int = 1024,
) -> None:
    """Write a two-channel record as WFDB .hea plus format-212 .dat."""
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ch0, ch1 = channels_mv
    if len(ch0) != len(ch1):
        raise LengthMismatch("channels differ in length")
    # a block at a time, so the temporaries stay cache-sized and reuse their
    # pages, and the file's bytes are never held whole
    with open(out_dir / f"{record_name}.dat", "wb") as fh:
        for i in range(0, len(ch0), _WRITE_BLOCK):
            fh.write(encode_format212(*(_to_adu(ch[i : i + _WRITE_BLOCK], gain, baseline_adu) for ch in (ch0, ch1))))
    n = len(ch0)
    lines = [f"{record_name} 2 {fs:g} {n}"]
    for label in ("MLII", "V1"):
        lines.append(
            f"{record_name}.dat 212 {gain:g}({baseline_adu}) 11 {baseline_adu} 0 0 0 {label}"
        )
    (out_dir / f"{record_name}.hea").write_text("\n".join(lines) + "\n")


# regimes spanning the five label rows, level 1 first: (bpm, rr jitter ms, qt ms).
# qt is picked so QTc = qt / sqrt(60/bpm) lands inside each row's QTc bin.
_REGIMES = (
    (70.0, 58.0, 378.0),
    (85.0, 45.0, 361.0),
    (95.0, 35.0, 358.0),
    (105.0, 25.0, 355.0),
    (115.0, 11.0, 355.0),
)


@dataclass(frozen=True)
class Regime:
    """One regime of a ``make_synthetic_nst`` record, as it was generated."""

    start_s: float
    end_s: float
    level: int  # the label row its bpm, jitter and QT were picked for
    bpm: float
    rr_jitter_ms: float
    qt_ms: float


def regime_truth(segment_s: float) -> list:
    """The ``Regime``s that ``make_synthetic_nst(..., segment_s=segment_s)`` records cycle through, in order.

    The bounds are summed segment by segment, as ``synth_ecg_profile`` sums them.
    """
    regimes, start = [], 0.0
    for level, (bpm, jitter_ms, qt_ms) in enumerate(_REGIMES, start=1):
        end = start + segment_s
        regimes.append(Regime(start, end, level, bpm, jitter_ms, qt_ms))
        start = end
    return regimes


SYNTHETIC_CLEAN_RECORD = "S00"
SYNTHETIC_SNR_SUFFIXES = ("e_6", "e00", "e06", "e12", "e18", "e24")


def make_synthetic_nst(out_dir, seed: int = 2025, segment_s: float = 48.0, fs: float = 360.0):
    """Generate a miniature noise-stress-test set of WFDB-212 files.

    One clean record cycling through five physiological regimes
    (``regime_truth(segment_s)``) plus one noisy copy per SNR suffix.
    Returns the record names written. At most three full-length float
    buffers are alive at a time: the clean lead 0, the noisy record being
    written, and one scratch buffer for its white draws, time base and
    channel 1 in turn.
    """
    segments = [(segment_s, r.bpm, r.rr_jitter_ms, r.qt_ms) for r in regime_truth(segment_s)]
    clean = synth_ecg_profile(segments, fs=fs, seed=seed, record_name=SYNTHETIC_CLEAN_RECORD)
    write_wfdb212(out_dir, SYNTHETIC_CLEAN_RECORD, clean.channels, fs)
    ch0 = clean.channel(0)
    del clean

    names = [SYNTHETIC_CLEAN_RECORD]
    # besides ch0 and the noisy record being made, one full-length buffer:
    # scratch for the white draws, the time base and channel 1 in turn
    white = np.empty(ch0.size)
    sig_power = float(np.mean(np.square(ch0, out=white)))
    for k, suffix in enumerate(SYNTHETIC_SNR_SUFFIXES):
        name = SYNTHETIC_CLEAN_RECORD + suffix
        snr_db = snr_from_name(name)
        rng = np.random.default_rng(seed * 1000 + 100 + k)
        # rng.normal(0.0, 1.0, n) draws the same values, 0.0 + 1.0 * z, but for
        # the sign of a zero, which the smoothing sum drops
        rng.standard_normal(out=white)
        noisy = _shape_noise(white, fs, rng)
        noise_power = sig_power / (10.0 ** (snr_db / 10.0))
        noisy *= np.sqrt(noise_power)
        noisy += ch0
        # channel 1 is half of channel 0, noise included: halving is exact
        write_wfdb212(out_dir, name, (noisy, np.multiply(noisy, 0.5, out=white)), fs)
        white = noisy  # the record written is the next one's scratch; the old scratch is freed
        names.append(name)
    return names
