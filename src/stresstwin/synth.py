"""Synthetic ECG generation.

The generator places template beats (Q dip, R spike, S dip, T wave) at
exactly known onsets, so detected R-peak counts, RR statistics and the
tangent-measured QT all have construction-time ground truth. A Gaussian
T wave of width sigma centered at c has its tangent-method endpoint at
exactly c + 2*sigma, which is how ``qt_ms`` is honoured.
"""

import numpy as np

from .errors import InvalidParam
from .ingest import INVALID_ADU, EcgRecord, encode_format212, snr_from_name

# beat geometry relative to the beat onset (seconds)
_Q_CENTER, _Q_SIGMA, _Q_AMP = 0.010, 0.008, -0.15
_R_CENTER, _R_SIGMA, _R_AMP = 0.040, 0.010, 1.00
_S_CENTER, _S_SIGMA, _S_AMP = 0.070, 0.009, -0.25
_T_SIGMA, _T_AMP = 0.050, 0.35

R_OFFSET_S = _R_CENTER  # R peak sits this far after the beat onset
_START_OFFSET_S = 0.2   # first beat onset, keeps the first QRS off the edge


def _add_gauss(out, t, center, sigma, amp):
    lo = np.searchsorted(t, center - 5 * sigma)
    hi = np.searchsorted(t, center + 5 * sigma)
    seg = t[lo:hi]
    out[lo:hi] += amp * np.exp(-0.5 * ((seg - center) / sigma) ** 2)


def render_beats(onsets_s, qt_s, duration_s: float, fs: float) -> np.ndarray:
    """Render template beats at the given onsets; qt_s is scalar or per beat."""
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    out = np.zeros(n)
    qt = np.broadcast_to(np.asarray(qt_s, dtype=float), (len(onsets_s),))
    for onset, beat_qt in zip(onsets_s, qt):
        _add_gauss(out, t, onset + _Q_CENTER, _Q_SIGMA, _Q_AMP)
        _add_gauss(out, t, onset + _R_CENTER, _R_SIGMA, _R_AMP)
        _add_gauss(out, t, onset + _S_CENTER, _S_SIGMA, _S_AMP)
        # tangent endpoint of a Gaussian is center + 2*sigma
        t_center = onset + beat_qt - 2 * _T_SIGMA
        _add_gauss(out, t, t_center, _T_SIGMA, _T_AMP)
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
    rng = np.random.default_rng(seed)
    onsets, qts = [], []
    t = _START_OFFSET_S
    total = 0.0
    for duration_s, bpm, jitter_ms, qt_ms in segments:
        if not 30.0 <= bpm <= 220.0:
            raise InvalidParam(f"bpm {bpm} outside [30, 220]")
        base_rr = 60.0 / bpm
        seg_end = total + duration_s
        while t < seg_end - R_OFFSET_S - 0.02:
            onsets.append(t)
            qts.append(qt_ms / 1000.0)
            rr = base_rr + rng.normal(0.0, jitter_ms / 1000.0)
            rr = float(np.clip(rr, 0.62 * base_rr, 1.55 * base_rr))
            t += rr
        total = seg_end
    ch0 = render_beats(np.asarray(onsets), np.asarray(qts), total, fs)
    ch1 = 0.5 * ch0
    return EcgRecord(channels=[ch0, ch1], fs=fs, record_name=record_name, snr_db=None)


def _colored_noise(n: int, fs: float, rng) -> np.ndarray:
    """Ambulatory-style noise: broadband muscle artifact plus baseline wander."""
    white = rng.normal(0.0, 1.0, n)
    # crude 1-40 Hz shaping by differencing a smoothed walk; cheap and seeded
    kernel = np.hanning(max(3, int(fs / 40)))
    kernel /= kernel.sum()
    emg = np.convolve(white, kernel, mode="same")
    t = np.arange(n) / fs
    wander = 0.8 * np.sin(2 * np.pi * 0.33 * t + rng.uniform(0, 2 * np.pi))
    noise = emg / max(np.std(emg), 1e-12) + wander
    return noise / max(np.std(noise), 1e-12)


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
    # the lowest 12-bit value is format 212's invalid-sample code, never written
    adu = [np.clip(np.round(ch * gain + baseline_adu), INVALID_ADU + 1, 2047).astype(np.int64) for ch in (ch0, ch1)]
    data = encode_format212(adu[0], adu[1])
    (out_dir / f"{record_name}.dat").write_bytes(data)
    n = len(ch0)
    lines = [f"{record_name} 2 {fs:g} {n}"]
    for label in ("MLII", "V1"):
        lines.append(
            f"{record_name}.dat 212 {gain:g}({baseline_adu}) 11 {baseline_adu} 0 0 0 {label}"
        )
    (out_dir / f"{record_name}.hea").write_text("\n".join(lines) + "\n")


# regimes spanning the five label rows: (bpm, rr jitter ms, qt ms).
# qt is picked so QTc = qt / sqrt(60/bpm) lands inside each row's QTc bin.
_REGIMES = (
    (70.0, 58.0, 378.0),
    (85.0, 45.0, 361.0),
    (95.0, 35.0, 358.0),
    (105.0, 25.0, 355.0),
    (115.0, 11.0, 355.0),
)

SYNTHETIC_CLEAN_RECORD = "S00"
SYNTHETIC_SNR_SUFFIXES = ("e_6", "e00", "e06", "e12", "e18", "e24")


def make_synthetic_nst(out_dir, seed: int = 2025, segment_s: float = 48.0, fs: float = 360.0):
    """Generate a miniature noise-stress-test set of WFDB-212 files.

    One clean record cycling through five physiological regimes plus one
    noisy copy per SNR suffix. Returns the record names written.
    """
    segments = [(segment_s, bpm, jit, qt) for bpm, jit, qt in _REGIMES]
    clean = synth_ecg_profile(segments, fs=fs, seed=seed, record_name=SYNTHETIC_CLEAN_RECORD)
    write_wfdb212(out_dir, SYNTHETIC_CLEAN_RECORD, clean.channels, fs)

    names = [SYNTHETIC_CLEAN_RECORD]
    sig_power = float(np.mean(clean.channel(0) ** 2))
    for k, suffix in enumerate(SYNTHETIC_SNR_SUFFIXES):
        name = SYNTHETIC_CLEAN_RECORD + suffix
        snr_db = snr_from_name(name)
        rng = np.random.default_rng(seed * 1000 + 100 + k)
        shaped = _colored_noise(clean.channel(0).size, fs, rng)
        noise_power = sig_power / (10.0 ** (snr_db / 10.0))
        noise = shaped * np.sqrt(noise_power)
        noisy = [clean.channel(0) + noise, clean.channel(1) + 0.5 * noise]
        write_wfdb212(out_dir, name, noisy, fs)
        names.append(name)
    return names
