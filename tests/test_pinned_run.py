"""Pinned synthetic run: `run --synthetic` at seed 2025 must reproduce these bytes.

A refactor that claims to keep behaviour unchanged proves it here. The
first seven digests were recorded from the pipeline before the per-window
kernels were batched, the last five before the stages became in-memory
functions (Python 3.11.7, numpy 2.4.6, scipy 1.17.1). ``features.csv``,
``labeled.csv``, ``model.json`` and ``shap_beeswarm.csv`` were re-recorded
when the noise skewness and kurtosis came to be taken from shared squares,
which moved those two columns in their last bits. ``model.json``,
``report.csv``, ``shap_summary.csv`` and ``shap_beeswarm.csv`` were
re-recorded when the default forest became the first 50 of its 100 trees
(``tests/test_forest_size.py``). Regenerating them is a deliberate step, to
be stated with its reason in CHANGES.md: a changed digest means the
pipeline's output changed.
"""

import hashlib

from stresstwin.cli import EXIT_OK, main

PINNED_SHA256 = {
    "baseline.json": "141d58ec4ecf533f317cf20ea010dee56fc60b0af99f1973541466c8f85c779b",
    "features.csv": "51f79cef4609a16eb2cb675cbcbd89995870acaebe44e8b2185de605780d3f9b",
    "labeled.csv": "e8897dc7298816d13b121cc9ee6358e43bb9266ed7ebb58732882a6d521bb802",
    "model.json": "9cc690204781b90c07adb19f43f71db0b3010c97c0a95ee525f6dddf389b5dd7",
    "split.json": "33c15e5cba9aa0dc84916c1b058951a014605944a58213361a00c264ec7d6809",
    "report.csv": "4f51e6095cf52b8bcfa102b39cd3c7a6a2601b32ff9a92bcde5bad2ae4ba3c8a",
    "trace.jsonl": "374eb3289ef8102c7590281275363573d57fa2f85befe4d3a6767b5af30b5c62",
    "ingest_summary.json": "ab26e4898cebfd6012f6a59158abf52c266e5ebe63d4575df48eca2b1308cc78",
    "eval_report.json": "6f9811a0fd166d899e70a34aa292bb1511896ce4e0d47a4819349e3b67c609b6",
    "confusion_matrix.csv": "0fa448101af709485ebf086216e4efca70b892ebea5ca77599b4c6fe7309995e",
    "shap_summary.csv": "01508b260bf8f9b30b7a5555bc6e3d58d141dd3b2bfbb28a89277efe9f746626",
    "shap_beeswarm.csv": "82cc386403e06bac5ed1d75bc1b7062069b3b08331860144b79174e798e83b25",
}


def test_synthetic_run_matches_pinned_digests(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--synthetic", "--seed", "2025", "--out-dir", str(out)]) == EXIT_OK
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    changed = sorted(name for name in PINNED_SHA256 if got[name] != PINNED_SHA256[name])
    assert not changed, f"artifacts differ from the pinned run: {changed}"
