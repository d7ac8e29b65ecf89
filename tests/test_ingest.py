from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresstwin.errors import (
    InvalidParam,
    LengthMismatch,
    MalformedHeader,
    StressTwinError,
    TruncatedData,
    UnsupportedFormat,
)
from stresstwin.ingest import (
    decode_format212,
    encode_format212,
    load_header,
    load_record,
    parse_header,
    snr_from_name,
)
from stresstwin.synth import synth_ecg, write_wfdb212

HEADER_118E06 = """118e06 2 360 650000
118e06.dat 212 200 11 1024 22 17717 0 MLII
118e06.dat 212 200 11 1024 44 13971 0 V1
"""


class TestParseHeader:
    def test_nst_header(self):
        h = parse_header(HEADER_118E06)
        assert h.record_name == "118e06"
        assert h.n_signals == 2
        assert h.sampling_rate == 360
        assert h.n_samples == 650000
        assert all(s.format_code == 212 for s in h.signals)
        assert all(s.gain == 200 for s in h.signals)
        assert all(s.baseline_adu == 1024 for s in h.signals)

    def test_comment_lines_ignored(self):
        text = "# produced by a digitizer\n" + HEADER_118E06
        assert parse_header(text).record_name == "118e06"

    def test_zero_signals_rejected(self):
        with pytest.raises(MalformedHeader):
            parse_header("x 0 360 1000\n")

    def test_short_record_line_rejected(self):
        with pytest.raises(MalformedHeader):
            parse_header("x 2 360\n")

    def test_format16_rejected(self):
        text = "x 1 360 1000\nx.dat 16 200 11 1024 0 0 0 sig\n"
        with pytest.raises(UnsupportedFormat):
            parse_header(text)

    def test_missing_signal_lines_rejected(self):
        with pytest.raises(MalformedHeader):
            parse_header("x 2 360 1000\nx.dat 212 200 11 1024 0 0 0 a\n")

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "1e999", "0", "-360"])
    def test_non_finite_or_non_positive_rate_rejected(self, rate):
        with pytest.raises(MalformedHeader):
            parse_header(HEADER_118E06.replace(" 360 ", f" {rate} ", 1))

    @pytest.mark.parametrize(
        "gain",
        ["e", "1e999", "1e-320", "200(-)", "-5", f"200(1{'0' * 400})"],
        ids=["no_digits", "overflow", "tiny", "sign_only_baseline", "negative", "huge_baseline"],
    )
    def test_bad_gain_rejected(self, gain):
        with pytest.raises(MalformedHeader):
            parse_header(HEADER_118E06.replace(" 200 ", f" {gain} ", 1))

    def test_gain_with_explicit_baseline_and_units(self):
        text = "x 1 360 1000\nx.dat 212 200(512)/mV 11 1024 0 0 0 a\n"
        h = parse_header(text)
        assert h.signals[0].baseline_adu == 512
        assert h.signals[0].units == "mV"


class TestSnrSuffix:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("118", None),
            ("118e_6", -6),
            ("118e00", 0),
            ("118e06", 6),
            ("118e6", 6),
            ("118e12", 12),
            ("118e18", 18),
            ("118e24", 24),
            ("S00", None),
            ("S00e00", 0),
        ],
    )
    def test_suffix_map(self, name, expected):
        assert snr_from_name(name) == expected


class TestFormat212:
    def test_zero_word(self):
        c0, c1 = decode_format212(bytes([0x00, 0x00, 0x00]), 1)
        assert (c0[0], c1[0]) == (0, 0)

    def test_minus_one(self):
        c0, c1 = decode_format212(bytes([0xFF, 0x0F, 0x00]), 1)
        assert (c0[0], c1[0]) == (-1, 0)

    def test_extremes(self):
        data = encode_format212([-2048, 2047], [2047, -2048])
        c0, c1 = decode_format212(data, 2)
        assert c0.tolist() == [-2048, 2047]
        assert c1.tolist() == [2047, -2048]

    def test_roundtrip_random_pairs(self):
        rng = np.random.default_rng(1234)
        a = rng.integers(-2048, 2048, 10000)
        b = rng.integers(-2048, 2048, 10000)
        c0, c1 = decode_format212(encode_format212(a, b), 10000)
        assert np.array_equal(c0, a)
        assert np.array_equal(c1, b)

    def test_truncated(self):
        with pytest.raises(TruncatedData):
            decode_format212(bytes([0, 0, 0]), 2)

    def test_out_of_range_encode(self):
        with pytest.raises(InvalidParam):
            encode_format212([4096], [0])

    def test_every_12_bit_value_matches_reference(self):
        # the formulas of the int32-frame codec, which both sides must match
        a = np.arange(-2048, 2048)
        b = a[::-1].copy()
        u0, u1 = np.where(a < 0, a + 4096, a), np.where(b < 0, b + 4096, b)
        frames = np.stack([u0 & 0xFF, ((u0 >> 8) & 0x0F) | (((u1 >> 8) & 0x0F) << 4), u1 & 0xFF], axis=1)
        data = encode_format212(a, b)
        assert data == frames.astype(np.uint8).tobytes()
        c0, c1 = decode_format212(data, a.size)
        assert c0.dtype == c1.dtype == np.int32
        assert np.array_equal(c0, a) and np.array_equal(c1, b)

    def test_decode_random_bytes_matches_reference(self):
        raw = np.random.default_rng(5).integers(0, 256, 3 * 5000, dtype=np.uint8)
        frames = raw.reshape(-1, 3).astype(np.int32)
        s0 = ((frames[:, 1] & 0x0F) << 8) | frames[:, 0]
        s1 = ((frames[:, 1] & 0xF0) << 4) | frames[:, 2]
        c0, c1 = decode_format212(raw.tobytes(), 5000)
        assert np.array_equal(c0, np.where(s0 >= 2048, s0 - 4096, s0))
        assert np.array_equal(c1, np.where(s1 >= 2048, s1 - 4096, s1))


class TestLoadRecord:
    def test_roundtrip_via_files(self, tmp_path):
        rec = synth_ecg(80, 30.0, noise_std=0.02, seed=7)
        write_wfdb212(tmp_path, "T01", rec.channels, rec.fs)
        loaded = load_record(tmp_path / "T01.hea")
        assert loaded.fs == rec.fs
        assert loaded.snr_db is None
        # lead 0 alone is kept; the header's signal count is reported
        assert len(loaded.channels) == 1
        assert loaded.n_channels == 2
        # quantization error bounded by half an ADU step
        assert np.max(np.abs(loaded.channel(0) - rec.channel(0))) <= 0.5 / 200.0 + 1e-12

    def test_snr_parsed_from_file_name(self, tmp_path):
        rec = synth_ecg(80, 12.0)
        write_wfdb212(tmp_path, "T01e24", rec.channels, rec.fs)
        assert load_record(tmp_path / "T01e24.hea").snr_db == 24

    def test_baseline_adu_maps_to_zero(self, tmp_path):
        zeros = [np.zeros(3600), np.zeros(3600)]
        write_wfdb212(tmp_path, "Z00", zeros, 360.0)
        loaded = load_record(tmp_path / "Z00.hea")
        assert np.all(loaded.channel(0) == 0.0)

    def test_length_mismatch(self, tmp_path):
        rec = synth_ecg(80, 12.0)
        write_wfdb212(tmp_path, "T02", rec.channels, rec.fs)
        data = (tmp_path / "T02.dat").read_bytes()
        (tmp_path / "T02.dat").write_bytes(data[: len(data) // 2])
        with pytest.raises(LengthMismatch):
            load_record(tmp_path / "T02.hea")

    def test_mv_conversion_affine(self, tmp_path):
        ramp = np.linspace(-1.0, 1.0, 7200)
        write_wfdb212(tmp_path, "R00", [ramp, ramp], 360.0, gain=200.0, baseline_adu=1024)
        loaded = load_record(tmp_path / "R00.hea")
        adu = np.round(ramp * 200.0 + 1024)
        assert np.allclose(loaded.channel(0), (adu - 1024) / 200.0)


    def test_invalid_sample_code_is_nan(self, tmp_path):
        rec = synth_ecg(80, 12.0, seed=7)
        write_wfdb212(tmp_path, "T04", rec.channels, rec.fs)
        good = load_record(tmp_path / "T04.hea")
        dat = tmp_path / "T04.dat"
        c0, c1 = decode_format212(dat.read_bytes(), good.n_samples)
        c0[100:110] = -2048
        c1[200] = -2048
        dat.write_bytes(encode_format212(c0, c1))
        loaded = load_record(tmp_path / "T04.hea")
        nan0 = np.isnan(loaded.channel(0))
        # lead 0's invalid samples only: lead 1's code at 200 is not lead 0's
        assert np.flatnonzero(nan0).tolist() == list(range(100, 110))
        assert np.array_equal(loaded.channel(0)[~nan0], good.channel(0)[~nan0])
        # decoding still returns the raw code, in both channels
        c0, c1 = decode_format212(dat.read_bytes(), good.n_samples)
        assert c0[100] == c1[200] == -2048

    @pytest.mark.parametrize("gain, baseline_adu", [(200.0, 1024), (123.4, -7)])
    def test_lead0_equals_two_lead_conversion_bitwise(self, tmp_path, gain, baseline_adu):
        rec = synth_ecg(80, 12.0, noise_std=0.05, seed=11)
        write_wfdb212(tmp_path, "T05", rec.channels, rec.fs, gain=gain, baseline_adu=baseline_adu)
        dat = tmp_path / "T05.dat"
        c0, c1 = decode_format212(dat.read_bytes(), rec.channel(0).size)
        c0[[0, 17, 18, 4000]] = c1[[5, 17]] = -2048
        dat.write_bytes(encode_format212(c0, c1))
        loaded = load_record(tmp_path / "T05.hea")
        # the two-lead loader's conversion of channel 0, invalid codes to NaN
        (spec, _) = parse_header((tmp_path / "T05.hea").read_text()).signals
        want = (c0.astype(np.float64) - spec.baseline_adu) / spec.gain
        want[c0 == -2048] = np.nan
        assert loaded.channel(0).dtype == np.float64
        assert loaded.channel(0).tobytes() == want.tobytes()
        assert np.flatnonzero(np.isnan(loaded.channel(0))).tolist() == [0, 17, 18, 4000]

    def test_writer_never_writes_invalid_code(self, tmp_path):
        low = np.full(360, -100.0)  # far below the 12-bit range at gain 200
        write_wfdb212(tmp_path, "L00", [low, low], 360.0)
        c0, c1 = decode_format212((tmp_path / "L00.dat").read_bytes(), 360)
        assert c0.min() == c1.min() == -2047
        assert not np.isnan(load_record(tmp_path / "L00.hea").channel(0)).any()

    def test_header_not_utf8(self, tmp_path):
        rec = synth_ecg(80, 12.0)
        write_wfdb212(tmp_path, "T03", rec.channels, rec.fs)
        hea = tmp_path / "T03.hea"
        hea.write_bytes(b"\xff\xfe" + hea.read_bytes())
        with pytest.raises(MalformedHeader):
            load_record(hea)


class TestOneSignalRecord:
    """A one-signal format-212 file holds two consecutive samples in each 3-byte frame."""

    def _write(self, tmp_path, adu) -> Path:
        padded = np.zeros(adu.size + adu.size % 2, dtype=np.int64)  # an odd tail fills half a frame
        padded[: adu.size] = adu
        (tmp_path / "S01.dat").write_bytes(encode_format212(padded[0::2], padded[1::2]))
        hea = tmp_path / "S01.hea"
        hea.write_text(f"S01 1 360 {adu.size}\nS01.dat 212 200(-12) 11 0 0 0 0 MLII\n")
        return hea

    @pytest.mark.parametrize("n", [1, 7, 1001])
    def test_odd_length_samples(self, tmp_path, n):
        adu = np.random.default_rng(n).integers(-2047, 2048, n)  # -2048 is the invalid-sample code
        rec = load_record(self._write(tmp_path, adu))
        assert len(rec.channels) == 1
        assert rec.n_channels == 1
        assert np.array_equal(rec.channel(0), (adu - -12) / 200.0)

    @pytest.mark.parametrize("cut", [1, 3])
    def test_truncated_dat(self, tmp_path, cut):
        hea = self._write(tmp_path, np.arange(-3, 4))
        dat = tmp_path / "S01.dat"
        dat.write_bytes(dat.read_bytes()[:-cut])
        with pytest.raises(LengthMismatch):
            load_record(hea)
        with pytest.raises(LengthMismatch):
            load_header(hea)


# --- property: arbitrary bad input ends in a typed error ---------------------

HEADER_TOKENS = [line.split() for line in HEADER_118E06.splitlines()]
SPECIAL_TOKENS = ["nan", "inf", "-1", "0", "1e999", "1e-320", "e", "-", "200(-)", "16", ""]


@st.composite
def mutated_headers(draw):
    """The NST header with a few tokens replaced by arbitrary or edge-case text."""
    lines = [list(tokens) for tokens in HEADER_TOKENS]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i]) - 1))
        lines[i][j] = draw(st.sampled_from(SPECIAL_TOKENS) | st.text(max_size=10))
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corrupt")
    rec = synth_ecg(80, 5.0, seed=3)
    write_wfdb212(d, "P00", rec.channels, rec.fs)
    return d


def _load_or_typed_error(hea, dat):
    try:
        rec = load_record(hea, dat)
    except StressTwinError:
        return None
    assert all(np.isfinite(ch).all() for ch in rec.channels)
    return rec


class TestCorruptInputProperty:
    @settings(max_examples=150, deadline=None)
    @given(text=st.text(max_size=200) | mutated_headers())
    def test_header_text_parses_or_raises_typed(self, text):
        try:
            header = parse_header(text)
        except StressTwinError:
            return
        assert 0 < header.sampling_rate < float("inf")
        assert all(0 < s.gain < float("inf") for s in header.signals)

    @settings(max_examples=100, deadline=None)
    @given(header=st.binary(max_size=120) | mutated_headers().map(str.encode))
    def test_header_file_loads_or_raises_typed(self, record_dir, header):
        hea = record_dir / "H.hea"
        hea.write_bytes(header)
        _load_or_typed_error(hea, record_dir / "P00.dat")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_dat_bytes_load_or_raise_typed(self, record_dir, data):
        raw = bytearray((record_dir / "P00.dat").read_bytes())
        raw = raw[: data.draw(st.integers(1, len(raw)))]
        for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), max_size=8)):
            raw[bit // 8] ^= 1 << (bit % 8)
        dat = record_dir / "Q.dat"
        dat.write_bytes(bytes(raw))
        rec = _load_or_typed_error(record_dir / "P00.hea", dat)
        if rec is not None:
            assert len(raw) >= 3 * rec.channel(0).size


class TestSynthEcg:
    def test_determinism(self):
        a = synth_ecg(75, 20.0, noise_std=0.05, seed=42)
        b = synth_ecg(75, 20.0, noise_std=0.05, seed=42)
        assert np.array_equal(a.channel(0), b.channel(0))

    def test_param_validation(self):
        with pytest.raises(InvalidParam):
            synth_ecg(10, 10.0)
        with pytest.raises(InvalidParam):
            synth_ecg(60, -1.0)
        with pytest.raises(InvalidParam):
            synth_ecg(220, 10.0, qt_ms=380.0)  # QT does not fit at 220 bpm
