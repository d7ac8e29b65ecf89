"""WFDB header parsing and format-212 signal decoding for the NST records.

Only storage format 212 is supported (two 12-bit two's-complement samples
packed into three bytes); anything else is rejected loudly. Channel 0 is
the analysis channel throughout the pipeline.
"""

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidParam,
    LengthMismatch,
    MalformedHeader,
    TruncatedData,
    UnsupportedFormat,
)

# SNR suffixes of the noise stress test series, longest first so that
# "e06" wins over the bare "e6" spelling. "_" encodes a negative SNR.
SNR_SUFFIX_DB = {
    "e_6": -6,
    "e00": 0,
    "e06": 6,
    "e12": 12,
    "e18": 18,
    "e24": 24,
    "e6": 6,
}
_SUFFIXES_BY_LENGTH = sorted(SNR_SUFFIX_DB, key=len, reverse=True)

_FORMAT_RE = re.compile(r"^(\d+)")
_GAIN_RE = re.compile(r"^([-+0-9.eE]+)(?:\(([-+0-9]+)\))?(?:/(\S+))?$")


@dataclass(frozen=True)
class SignalSpec:
    """Per-signal line of a WFDB header."""

    file_name: str
    format_code: int
    gain: float
    baseline_adu: int
    units: str


@dataclass(frozen=True)
class RecordHeader:
    record_name: str
    n_signals: int
    sampling_rate: float
    n_samples: int
    signals: tuple

    @property
    def fs(self) -> float:
        return self.sampling_rate


@dataclass
class EcgRecord:
    """Multi-channel sampled ECG in millivolts."""

    channels: list
    fs: float
    record_name: str
    snr_db: int | None = None

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.fs

    def channel(self, idx: int = 0) -> np.ndarray:
        return self.channels[idx]


def snr_from_name(record_name: str) -> int | None:
    """SNR in dB encoded in an NST-style record suffix, or None."""
    for suffix in _SUFFIXES_BY_LENGTH:
        if record_name.endswith(suffix) and len(record_name) > len(suffix):
            return SNR_SUFFIX_DB[suffix]
    return None


def parse_header(header_text: str) -> RecordHeader:
    """Parse WFDB header text into a :class:`RecordHeader`.

    Raises MalformedHeader for grammar problems and UnsupportedFormat for
    any signal format other than 212.
    """
    lines = [
        ln.strip()
        for ln in header_text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise MalformedHeader("empty header")

    rec_tokens = lines[0].split()
    if len(rec_tokens) < 4:
        raise MalformedHeader(
            f"record line needs name/signals/rate/samples, got {len(rec_tokens)} tokens"
        )
    record_name = rec_tokens[0].split("/")[0]
    try:
        n_signals = int(rec_tokens[1])
        sampling_rate = float(rec_tokens[2].split("/")[0])
        n_samples = int(rec_tokens[3])
    except ValueError as exc:
        raise MalformedHeader(f"bad record line {lines[0]!r}") from exc
    if n_signals < 1:
        raise MalformedHeader(f"record declares {n_signals} signals")
    if not 0 < sampling_rate < math.inf:
        raise MalformedHeader(f"sampling rate {sampling_rate} must be positive and finite")
    if n_samples < 0:
        raise MalformedHeader(f"negative sample count {n_samples}")

    if len(lines) < 1 + n_signals:
        raise MalformedHeader(
            f"expected {n_signals} signal lines, found {len(lines) - 1}"
        )

    signals = []
    for ln in lines[1 : 1 + n_signals]:
        signals.append(_parse_signal_line(ln))
    return RecordHeader(
        record_name=record_name,
        n_signals=n_signals,
        sampling_rate=sampling_rate,
        n_samples=n_samples,
        signals=tuple(signals),
    )


def _parse_signal_line(line: str) -> SignalSpec:
    tokens = line.split()
    if len(tokens) < 2:
        raise MalformedHeader(f"signal line too short: {line!r}")
    m = _FORMAT_RE.match(tokens[1])
    if not m:
        raise MalformedHeader(f"bad format token {tokens[1]!r}")
    format_code = int(m.group(1))
    if format_code != 212:
        raise UnsupportedFormat(f"format {format_code} not supported (only 212)")

    gain, baseline, units = 200.0, None, "mV"
    if len(tokens) >= 3:
        gm = _GAIN_RE.match(tokens[2])
        if not gm:
            raise MalformedHeader(f"bad gain token {tokens[2]!r}")
        try:
            gain = float(gm.group(1))
            if gm.group(2) is not None:
                baseline = int(gm.group(2))
        except ValueError as exc:
            raise MalformedHeader(f"bad gain token {tokens[2]!r}") from exc
        if gm.group(3) is not None:
            units = gm.group(3)
    if gain == 0.0:
        gain = 200.0  # WFDB convention: 0 means the default gain
    if not 0 < gain < math.inf:
        raise MalformedHeader(f"gain {gain} must be positive and finite")
    if baseline is None:
        # adc zero (token 5) doubles as the baseline when none is given
        if len(tokens) >= 5:
            try:
                baseline = int(tokens[4])
            except ValueError as exc:
                raise MalformedHeader(f"bad adc-zero token {tokens[4]!r}") from exc
        else:
            baseline = 0
    # the farthest a 12-bit sample can sit from the baseline must map to finite mV
    try:
        finite = math.isfinite((2048 + abs(baseline)) / gain)
    except OverflowError:
        finite = False
    if not finite:
        raise MalformedHeader(f"gain {gain} and baseline {baseline} give non-finite millivolts")
    return SignalSpec(
        file_name=tokens[0],
        format_code=format_code,
        gain=gain,
        baseline_adu=baseline,
        units=units,
    )


# --- format-212 codec -----------------------------------------------------


def _decode212(raw, n_pairs):
    frames = raw[: 3 * n_pairs].reshape(n_pairs, 3).astype(np.int32)
    s0 = ((frames[:, 1] & 0x0F) << 8) | frames[:, 0]
    s1 = ((frames[:, 1] & 0xF0) << 4) | frames[:, 2]
    s0 = np.where(s0 >= 2048, s0 - 4096, s0)
    s1 = np.where(s1 >= 2048, s1 - 4096, s1)
    return s0, s1


def decode_format212(raw, n_samples_per_channel: int):
    """Unpack format-212 bytes into two int ADU sample streams.

    Each 3-byte frame holds one sample of each channel:
    sample0 = ((b1 & 0x0F) << 8) | b0, sample1 = ((b1 & 0xF0) << 4) | b2,
    both sign-extended from 12 bits.
    """
    raw = np.frombuffer(bytes(raw), dtype=np.uint8)
    if n_samples_per_channel < 0:
        raise InvalidParam("sample count must be non-negative")
    needed = 3 * n_samples_per_channel
    if raw.size < needed:
        raise TruncatedData(
            f"need {needed} bytes for {n_samples_per_channel} sample pairs, got {raw.size}"
        )
    return _decode212(raw, n_samples_per_channel)


def encode_format212(ch0, ch1) -> bytes:
    """Pack two ADU streams into format-212 bytes (inverse of decode)."""
    ch0 = np.asarray(ch0, dtype=np.int64)
    ch1 = np.asarray(ch1, dtype=np.int64)
    if ch0.shape != ch1.shape:
        raise LengthMismatch("channels differ in length")
    for ch in (ch0, ch1):
        if ch.size and (ch.min() < -2048 or ch.max() > 2047):
            raise InvalidParam("sample outside the 12-bit range [-2048, 2047]")
    u0 = np.where(ch0 < 0, ch0 + 4096, ch0).astype(np.uint16)
    u1 = np.where(ch1 < 0, ch1 + 4096, ch1).astype(np.uint16)
    frames = np.empty((ch0.size, 3), dtype=np.uint8)
    frames[:, 0] = u0 & 0xFF
    frames[:, 1] = ((u0 >> 8) & 0x0F) | (((u1 >> 8) & 0x0F) << 4)
    frames[:, 2] = u1 & 0xFF
    return frames.tobytes()


def _read_header(header_path) -> RecordHeader:
    header_path = Path(header_path)
    try:
        header_text = header_path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{header_path.name}: header is not UTF-8 text") from exc
    return parse_header(header_text)


def _data_path(header_path, header: RecordHeader) -> Path:
    return Path(header_path).parent / header.signals[0].file_name


def _frames(header: RecordHeader, n_bytes: int) -> int:
    """Format-212 frames (3 bytes each) that hold every declared sample.

    LengthMismatch when ``n_bytes`` hold fewer frames than that.
    """
    n = header.n_samples
    if header.n_signals == 2:
        if n_bytes // 3 < n:
            raise LengthMismatch(
                f"{header.record_name}: decoded {n_bytes // 3} samples per channel, header says {n}"
            )
        return n
    if header.n_signals == 1:
        pairs = (n + 1) // 2
        if n_bytes // 3 < pairs:
            raise LengthMismatch(f"{header.record_name}: byte stream too short for {n} samples")
        return pairs
    raise UnsupportedFormat(
        f"{header.n_signals}-signal format-212 records are not supported"
    )


def load_record(header_path, data_path=None) -> EcgRecord:
    """Load a WFDB record (.hea + format-212 .dat) and convert to mV."""
    header = _read_header(header_path)
    if data_path is None:
        data_path = _data_path(header_path, header)
    raw = Path(data_path).read_bytes()
    pairs = _frames(header, len(raw))
    adu0, adu1 = decode_format212(raw, pairs)
    if header.n_signals == 2:
        adu_channels = [adu0, adu1]
    else:
        interleaved = np.empty(2 * pairs, dtype=np.int32)
        interleaved[0::2] = adu0
        interleaved[1::2] = adu1
        adu_channels = [interleaved[: header.n_samples]]

    channels = []
    for spec, adu in zip(header.signals, adu_channels):
        mv = (adu.astype(np.float64) - spec.baseline_adu) / spec.gain
        channels.append(mv)
    return EcgRecord(
        channels=channels,
        fs=header.sampling_rate,
        record_name=header.record_name,
        snr_db=snr_from_name(header.record_name),
    )


def load_header(header_path) -> RecordHeader:
    """A record's header, after checking from its .dat file's size that every
    declared sample is there; no sample is read or decoded.

    Raises what ``load_record`` raises for the same header and file length.
    """
    header = _read_header(header_path)
    _frames(header, _data_path(header_path, header).stat().st_size)
    return header
