"""Pinned per-window analysis: every 4th window of four 30-minute records.

``make_synthetic_nst(seed=2025, segment_s=360)`` gives records of NST length
(359 windows each). For every 4th window of ``S00e_6``, ``S00e00``,
``S00e12`` and ``S00e24`` two digests are taken:

- ``PINNED_SHA256`` covers the whole feature row and what ``detect_r_peaks``
  returned on the window's z-scored, bandpassed context;
- ``PINNED_SHA256_SANS_NOISE_SHAPE`` covers the same, less the two noise
  shape columns (``noise_skew``, ``noise_kurt``), so a change to how those
  two moments are rounded proves that nothing else moved.

A kernel rewrite that claims byte-identical output proves it here. The
second digest was recorded before the noise moments were taken from shared
squares, the first after it (Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
Regenerating either is a deliberate step, to be stated with its reason in
CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from stresstwin import hrv
from stresstwin.ingest import load_record
from stresstwin.synth import make_synthetic_nst

RECORDS = ("S00e_6", "S00e00", "S00e12", "S00e24")
EVERY = 4
PINNED_SHA256 = "31c30a67180fddd1514a7f1250979f2d166e730a823643707c39f38338c14506"
PINNED_SHA256_SANS_NOISE_SHAPE = "5579cbf53d9d44429834de1691341d571d69a3ae5f1a1c441dcc9e59d3231663"
SANS_NOISE_SHAPE = [i for i, c in enumerate(hrv.FEATURE_COLUMNS) if c not in ("noise_skew", "noise_kurt")]


@pytest.fixture(scope="module")
def window_digests(tmp_path_factory):
    """(full digest, digest without the noise shape columns, windows analysed)."""
    out = tmp_path_factory.mktemp("nst_2025")
    make_synthetic_nst(out, seed=2025, segment_s=360.0)
    records = {name: load_record(out / f"{name}.hea") for name in ("S00", *RECORDS)}

    peaks_seen = []
    detect = hrv.detect_r_peaks

    def recording_detector(x, fs):
        peaks = detect(x, fs)
        peaks_seen.append(peaks)
        return peaks

    baseline = hrv.BaselineProfile(sdnn=50.0, bpm=70.0, qtc=400.0, lfhf=1.0, source_record="S00")
    clean = records["S00"].channel(0)
    full, sans = hashlib.sha256(), hashlib.sha256()
    windows = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hrv, "detect_r_peaks", recording_detector)
        for name in RECORDS:
            rec = records[name]
            noisy = rec.channel(0)
            for start_s, seg in hrv.window_grid(rec)[::EVERY]:
                peaks_seen.clear()
                f = hrv.extract_window_features(noisy[seg], clean[seg], baseline, rec.fs, window_start=start_s)
                row = f.as_vector()
                tail = np.array([f.window_start, float(f.valid)]).tobytes()
                full.update(row.tobytes() + tail)
                sans.update(row[SANS_NOISE_SHAPE].tobytes() + tail)
                for peaks in peaks_seen:
                    detected = np.int64(peaks.size).tobytes() + peaks.astype(np.int64).tobytes()
                    full.update(detected)
                    sans.update(detected)
                windows += 1
    return full.hexdigest(), sans.hexdigest(), windows


def test_windows_match_pinned_digest(window_digests):
    full, _, windows = window_digests
    assert windows == 4 * 90
    assert full == PINNED_SHA256


def test_windows_without_noise_shape_match_pinned_digest(window_digests):
    _, sans, windows = window_digests
    assert windows == 4 * 90
    assert sans == PINNED_SHA256_SANS_NOISE_SHAPE
