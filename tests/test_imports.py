import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FOOTPRINT = """
import sys
import stresstwin, stresstwin.cli
heavy = [m for m in ("scipy.signal", "scipy.ndimage", "scipy.stats") if m in sys.modules]
assert not heavy, heavy
kernel = stresstwin.dsp._sosfilt
import scipy.signal
from scipy.signal._sosfilt import _sosfilt
assert scipy.signal._sosfilt._sosfilt is kernel
assert sys.modules["scipy.signal._sosfilt"]._sosfilt is kernel
assert _sosfilt is kernel
assert scipy.signal._signaltools._sosfilt is kernel  # what scipy.signal.sosfilt calls
"""


def _run(code):
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_package_import_leaves_heavy_scipy_out_and_shares_the_kernel():
    proc = _run(FOOTPRINT)
    assert proc.returncode == 0, proc.stderr


def test_kernel_reused_when_scipy_signal_came_first():
    proc = _run(
        "import scipy.signal, stresstwin.dsp\n"
        "assert scipy.signal._sosfilt._sosfilt is stresstwin.dsp._sosfilt\n"
    )
    assert proc.returncode == 0, proc.stderr
