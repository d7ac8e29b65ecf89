"""Synthetic generator: pinned bytes, a traced-memory ratchet, and loop references.

``PINNED_SHA256`` holds the SHA-256 of every ``.hea`` and ``.dat`` that
``make_synthetic_nst`` writes at seed 2025 (48 s and 360 s segments) and at
seed 7 (360 s). They were recorded from the generator that rendered one
beat wave per Python call and drew one RR jitter per ``rng.normal`` call,
before it became array code (Python 3.11.7, numpy 2.4.6). Regenerating them
is a deliberate step, to be stated with its reason in CHANGES.md: every
workload's input changes with them.

``_render_reference`` and ``_onsets_reference`` are that generator's loops,
kept here only as references: the array code must match them bit for bit.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from stresstwin import synth
from stresstwin.errors import InvalidParam, LengthMismatch

PINNED_SHA256 = {
    "2025/48/S00.dat": "ca67bdf4c53d6db28459c679c36e96d43e3794615ab6ef127daae353a71c2a1b",
    "2025/48/S00.hea": "4066d4a386b864e0cae9d3e946156495e9d9f8f1e3669e0cac81d5b8a6ab71d3",
    "2025/48/S00e00.dat": "bc0bbba6b4d0ad2fed0bbbec4f6c5508e181bd91af185b88a1ec2e80fbac2ded",
    "2025/48/S00e00.hea": "c878f6bee6777b475fd3791240cadecde9dcf35895d5d51bb243f2269b8be3a6",
    "2025/48/S00e06.dat": "b9be77d536f0ca1fe84f872319d52df2514a3f4be77342a89dbc1ea33b90671c",
    "2025/48/S00e06.hea": "61309eb6a67e730ffb437d8d8410fb804a9aa12171cac5319eaeeca3cc648722",
    "2025/48/S00e12.dat": "7f22d2433c4c09ff44c09eef73353bdb29427f3ea8cca8b2d1ac189b107978da",
    "2025/48/S00e12.hea": "5f4be5b9c5bf774dfdfc6276a80c78ec1ba8c179ce8ed82ddb6dd0d13188c809",
    "2025/48/S00e18.dat": "1f2b78d10420cef0f93b69ee86c66cb2830b9caa478c2393cfa2acff1c34c9c1",
    "2025/48/S00e18.hea": "e596549706cfe32aeb58fe00dd227f56c8bff4751ea2e85b5a54db52a59f1960",
    "2025/48/S00e24.dat": "8624abeaa69cecdf341dd343a7f638fff5466982ab21827a0240083dfc93f72a",
    "2025/48/S00e24.hea": "e832700addc89e4f611e11589a98db5812859753b372d0e35e02ec4e6f6d0adc",
    "2025/48/S00e_6.dat": "2a839ce28574eaed48e6f77315a9ace1f759fe771d7e74685e0604147a395858",
    "2025/48/S00e_6.hea": "766370b638958deffa1a3ff9a328cdbed13c404bbda06ac1c26c668118947b58",
    "2025/360/S00.dat": "4e621c2f0ca1084fea4c92dd4de77c6d920984fccfb95326c49bce701044e732",
    "2025/360/S00.hea": "18f3048d7adb43ec3e514ae9aa05a11cbab21018c03b462c7ce9aec24a31e2b4",
    "2025/360/S00e00.dat": "a0803ca14c06e454bc3708baa16057ca0bcea5c847612477bb2482e19af20d71",
    "2025/360/S00e00.hea": "ba7b7e9c4cacae9d3fe5d464b903de2c957ba45cb3044a6b955985313d3f1da8",
    "2025/360/S00e06.dat": "eb63284b881f9c2b58ca62dd4c77fe9d4eb3ebe60301c1771cc8bd9752b15012",
    "2025/360/S00e06.hea": "efe1a988e13f7d3b5f8e197c5f355f37122b605869c3802bb0048cbc389c7e36",
    "2025/360/S00e12.dat": "cf81eb9d470e0d8f1644053562d5101f79c9c2a5d5850b955596e9a943a4a16d",
    "2025/360/S00e12.hea": "7804bcadf370a1d767e157dd0c2d6c430ce2e131b57c5550d948d01a5781c774",
    "2025/360/S00e18.dat": "f4d286755fc5909240d3f56855dc6df1eb76c12684c8bbc84625188aa4e8ffee",
    "2025/360/S00e18.hea": "5d092dac1e6d2751d1111fbd1e51cf8988e4744fe8a307d966153e50246b36c8",
    "2025/360/S00e24.dat": "0f3bc4d88d54072ce44c3b9a96085b0b9a286494925dbb8041ef822296b6379e",
    "2025/360/S00e24.hea": "f66cf9c57ef37d26066ae2407769e74a7cb66f854bc8fb401064f2a4d0ac8de1",
    "2025/360/S00e_6.dat": "895e539fafb88340f862b050674c35ed1088927813fa419209a04bec009e83f7",
    "2025/360/S00e_6.hea": "bbbeed9985358e4cf6c9e77227dfbb4ca321033c0e0ac1a46f65747d5acbd3f3",
    "7/360/S00.dat": "06bddb761448e6024bf0f22f1130b57205b3412409fc58d292a3d9b0946fa9ea",
    "7/360/S00.hea": "18f3048d7adb43ec3e514ae9aa05a11cbab21018c03b462c7ce9aec24a31e2b4",
    "7/360/S00e00.dat": "ab569d6541cc86ddb01d636eca88f44b2870b2da6a7bf5c2f895f402f0692e99",
    "7/360/S00e00.hea": "ba7b7e9c4cacae9d3fe5d464b903de2c957ba45cb3044a6b955985313d3f1da8",
    "7/360/S00e06.dat": "260fd02f5359a94daa65d6a6805f2fdb7ec4b5e4af8305417226f2b2a30ced12",
    "7/360/S00e06.hea": "efe1a988e13f7d3b5f8e197c5f355f37122b605869c3802bb0048cbc389c7e36",
    "7/360/S00e12.dat": "93efc16f6e5d441ddbb77e58f3366fe7a4bed7da2e98d823afc2c25d5ac001d4",
    "7/360/S00e12.hea": "7804bcadf370a1d767e157dd0c2d6c430ce2e131b57c5550d948d01a5781c774",
    "7/360/S00e18.dat": "3d08059e0273ebb6107cb4cdc627d540595a04956ccf54527c9d90d572f35234",
    "7/360/S00e18.hea": "5d092dac1e6d2751d1111fbd1e51cf8988e4744fe8a307d966153e50246b36c8",
    "7/360/S00e24.dat": "3654d3c728f54f196cdf5916e044e96f07941ef5e009c784fb13aac3071ac923",
    "7/360/S00e24.hea": "f66cf9c57ef37d26066ae2407769e74a7cb66f854bc8fb401064f2a4d0ac8de1",
    "7/360/S00e_6.dat": "a0e3d195b532aa3a04558936866daba641adf7794265bd346d12cfd6699e2419",
    "7/360/S00e_6.hea": "bbbeed9985358e4cf6c9e77227dfbb4ca321033c0e0ac1a46f65747d5acbd3f3",
}

# traced peak of the 360 s call: 31.9 MB for this code (the loop generator
# traced 63.0 MB); a rise past the bound means a full-length temporary came back
PEAK_TRACED_MB = 34.0


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """{"seed/segment/file": sha256} for the three pinned sets, and the traced peak (MB)."""
    digests, peak_mb = {}, None
    for seed, segment_s in ((2025, 48.0), (2025, 360.0), (7, 360.0)):
        out = tmp_path_factory.mktemp(f"nst_{seed}_{segment_s:g}")
        traced = (seed, segment_s) == (2025, 360.0)
        if traced:
            tracemalloc.start()
        try:
            synth.make_synthetic_nst(out, seed=seed, segment_s=segment_s)
            if traced:
                peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            if traced:
                tracemalloc.stop()
        for path in sorted(out.iterdir()):
            digests[f"{seed}/{segment_s:g}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests, peak_mb


def test_generator_writes_the_pinned_bytes(generated):
    digests, _ = generated
    assert sorted(digests) == sorted(PINNED_SHA256)
    changed = sorted(name for name in PINNED_SHA256 if digests[name] != PINNED_SHA256[name])
    assert not changed, f"generated files differ from the pinned bytes: {changed}"


def test_nst_length_call_traced_peak(generated):
    _, peak_mb = generated
    assert peak_mb <= PEAK_TRACED_MB, f"traced peak {peak_mb:.1f} MB"


def test_write_rejects_channels_of_unequal_length(tmp_path):
    with pytest.raises(LengthMismatch):
        synth.write_wfdb212(tmp_path, "X", (np.zeros(10), np.zeros(11)), 360.0)
    assert list(tmp_path.iterdir()) == []


def _add_gauss(out, t, center, sigma, amp):
    lo = np.searchsorted(t, center - 5 * sigma)
    hi = np.searchsorted(t, center + 5 * sigma)
    seg = t[lo:hi]
    out[lo:hi] += amp * np.exp(-0.5 * ((seg - center) / sigma) ** 2)


def _render_reference(onsets_s, qt_s, duration_s, fs):
    """One Gaussian per Python call, beat after beat: Q, R, S, then T."""
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    out = np.zeros(n)
    qt = np.broadcast_to(np.asarray(qt_s, dtype=float), (len(onsets_s),))
    for onset, beat_qt in zip(onsets_s, qt):
        _add_gauss(out, t, onset + synth._Q_CENTER, synth._Q_SIGMA, synth._Q_AMP)
        _add_gauss(out, t, onset + synth._R_CENTER, synth._R_SIGMA, synth._R_AMP)
        _add_gauss(out, t, onset + synth._S_CENTER, synth._S_SIGMA, synth._S_AMP)
        t_center = onset + beat_qt - 2 * synth._T_SIGMA
        _add_gauss(out, t, t_center, synth._T_SIGMA, synth._T_AMP)
    return out


def _onsets_reference(segments, seed):
    """Beat onsets and QTs with one ``rng.normal`` draw and one ``np.clip`` per beat."""
    rng = np.random.default_rng(seed)
    onsets, qts = [], []
    t = synth._START_OFFSET_S
    total = 0.0
    for duration_s, bpm, jitter_ms, qt_ms in segments:
        base_rr = 60.0 / bpm
        seg_end = total + duration_s
        while t < seg_end - synth.R_OFFSET_S - 0.02:
            onsets.append(t)
            qts.append(qt_ms / 1000.0)
            rr = base_rr + rng.normal(0.0, jitter_ms / 1000.0)
            rr = float(np.clip(rr, 0.62 * base_rr, 1.55 * base_rr))
            t += rr
        total = seg_end
    return np.asarray(onsets), np.asarray(qts), total


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# at 150 bpm (RR 400 ms) with a 300 ms QT the T wave, 5 sigma wide on each
# side, reaches past the next beat's Q (onset + 10 ms) and R (onset + 40 ms)
FAST_SEGMENTS = [(20.0, 70.0, 40.0, 380.0), (20.0, 150.0, 15.0, 300.0), (20.0, 95.0, 30.0, 358.0)]


class TestRenderBeats:
    FS = 360.0

    def test_scalar_qt_matches_loop(self):
        onsets = np.arange(0.2, 29.0, 0.8) + np.linspace(0.0, 0.013, 36)
        got = synth.render_beats(onsets, 0.38, 30.0, self.FS)
        assert _same_bits(got, _render_reference(onsets, 0.38, 30.0, self.FS))

    def test_per_beat_qt_matches_loop(self):
        rng = np.random.default_rng(3)
        onsets = np.cumsum(rng.uniform(0.55, 1.1, 40)) + 0.2
        qt = rng.uniform(0.30, 0.42, onsets.size)
        duration = float(onsets[-1]) + 1.0
        got = synth.render_beats(onsets, qt, duration, self.FS)
        assert _same_bits(got, _render_reference(onsets, qt, duration, self.FS))

    def test_t_wave_over_next_qrs_matches_loop(self):
        onsets, qts, total = _onsets_reference(FAST_SEGMENTS, seed=11)
        fast = qts == 0.3
        t_end = onsets[fast][:-1] + qts[fast][:-1] - 2 * synth._T_SIGMA + 5 * synth._T_SIGMA
        next_r_start = onsets[fast][1:] + synth._R_CENTER - 5 * synth._R_SIGMA
        assert (t_end > next_r_start).sum() > 20  # the overlap this test is about
        got = synth.render_beats(onsets, qts, total, self.FS)
        assert _same_bits(got, _render_reference(onsets, qts, total, self.FS))

    def test_more_beats_than_one_block(self):
        onsets = 0.2 + 0.45 * np.arange(3 * synth._RENDER_BLOCK + 7)
        duration = float(onsets[-1]) + 0.5
        got = synth.render_beats(onsets, 0.33, duration, self.FS)
        assert _same_bits(got, _render_reference(onsets, 0.33, duration, self.FS))

    def test_no_beats(self):
        assert _same_bits(synth.render_beats([], 0.38, 2.0, self.FS), np.zeros(720))


class TestProfileOnsets:
    def _rendered_args(self, monkeypatch, segments, seed):
        seen = []

        def capture(onsets_s, qt_s, duration_s, fs):
            seen.append((onsets_s, qt_s, duration_s))
            return np.zeros(int(round(duration_s * fs)))

        monkeypatch.setattr(synth, "render_beats", capture)
        synth.synth_ecg_profile(segments, seed=seed)
        return seen[0]

    @pytest.mark.parametrize("seed", [0, 7, 2025])
    def test_onsets_match_per_beat_draws(self, monkeypatch, seed):
        segments = [(120.0, bpm, jit, qt) for bpm, jit, qt in synth._REGIMES] + FAST_SEGMENTS
        onsets, qts, total = self._rendered_args(monkeypatch, segments, seed)
        ref_onsets, ref_qts, ref_total = _onsets_reference(segments, seed)
        assert _same_bits(onsets, ref_onsets)
        assert _same_bits(qts, ref_qts)
        assert total == ref_total

    def test_clipped_intervals_match(self, monkeypatch):
        # jitter far above the RR clips many intervals at both bounds
        segments = [(60.0, 80.0, 400.0, 360.0)]
        onsets, _, _ = self._rendered_args(monkeypatch, segments, 5)
        rr = np.diff(onsets)
        assert np.isclose(rr, 0.62 * 0.75).sum() > 5 and np.isclose(rr, 1.55 * 0.75).sum() > 5
        assert _same_bits(onsets, _onsets_reference(segments, 5)[0])

    @pytest.mark.parametrize("jitter_ms", [-1.0, float("nan")])
    def test_bad_jitter_is_invalid(self, jitter_ms):
        with pytest.raises(InvalidParam, match="jitter"):
            synth.synth_ecg_profile([(10.0, 70.0, jitter_ms, 380.0)])


def _colored_noise_reference(n, fs, rng):
    white = rng.normal(0.0, 1.0, n)
    kernel = np.hanning(max(3, int(fs / 40)))
    kernel /= kernel.sum()
    emg = np.convolve(white, kernel, mode="same")
    t = np.arange(n) / fs
    wander = 0.8 * np.sin(2 * np.pi * 0.33 * t + rng.uniform(0, 2 * np.pi))
    noise = emg / max(np.std(emg), 1e-12) + wander
    return noise / max(np.std(noise), 1e-12)


class TestNoise:
    @pytest.mark.parametrize(("n", "seed"), [(3600, 1), (21_600, 2), (100_001, 3)])
    def test_colored_noise_matches_reference(self, n, seed):
        got = synth._colored_noise(n, 360.0, np.random.default_rng(seed))
        ref = _colored_noise_reference(n, 360.0, np.random.default_rng(seed))
        assert _same_bits(got, ref)

    @pytest.mark.parametrize("n", [1, 2, 7, 128, 1000, 65_537, 300_000])
    def test_std_matches_numpy(self, n):
        x = np.random.default_rng(n).normal(3.0, 2.0, n) ** 3
        assert _same_bits(synth._std(x, np.empty(n)), np.std(x))
