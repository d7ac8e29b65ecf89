"""Pinned per-window analysis: every 4th window of four 30-minute records.

``make_synthetic_nst(seed=2025, segment_s=360)`` gives records of NST length
(359 windows each). For every 4th window of ``S00e_6``, ``S00e00``,
``S00e12`` and ``S00e24`` the digest covers the feature row and what
``detect_r_peaks`` returned on the window's z-scored, bandpassed context. A
kernel rewrite that claims byte-identical output proves it here; the digest
was recorded before the per-window kernels were stripped of their fixed
overhead (Python 3.11.7, numpy 2.4.6, scipy 1.17.1). Regenerating it is a
deliberate step, to be stated with its reason in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from stresstwin import hrv
from stresstwin.ingest import load_record
from stresstwin.synth import make_synthetic_nst

RECORDS = ("S00e_6", "S00e00", "S00e12", "S00e24")
EVERY = 4
PINNED_SHA256 = "6f8c67f9b61ebe5b9ae43cd5303f9cd3726c1c9eac0e04198b5532bbe40cefe2"


@pytest.fixture(scope="module")
def nst_2025(tmp_path_factory):
    out = tmp_path_factory.mktemp("nst_2025")
    make_synthetic_nst(out, seed=2025, segment_s=360.0)
    return {name: load_record(out / f"{name}.hea") for name in ("S00", *RECORDS)}


def test_windows_match_pinned_digest(nst_2025, monkeypatch):
    peaks_seen = []

    def recording_detector(x, fs):
        peaks = detect(x, fs)
        peaks_seen.append(peaks)
        return peaks

    detect = hrv.detect_r_peaks
    monkeypatch.setattr(hrv, "detect_r_peaks", recording_detector)
    baseline = hrv.BaselineProfile(sdnn=50.0, bpm=70.0, qtc=400.0, lfhf=1.0, source_record="S00")
    clean = nst_2025["S00"].channel(0)
    digest = hashlib.sha256()
    windows = 0
    for name in RECORDS:
        rec = nst_2025[name]
        noisy = rec.channel(0)
        for start_s, seg in hrv.iter_window_segments(rec)[::EVERY]:
            peaks_seen.clear()
            f = hrv.extract_window_features(noisy[seg], clean[seg], baseline, rec.fs, window_start=start_s)
            digest.update(f.as_vector().tobytes())
            digest.update(np.array([f.window_start, float(f.valid)]).tobytes())
            for peaks in peaks_seen:
                digest.update(np.int64(peaks.size).tobytes())
                digest.update(peaks.astype(np.int64).tobytes())
            windows += 1
    assert windows == 4 * 90
    assert digest.hexdigest() == PINNED_SHA256
