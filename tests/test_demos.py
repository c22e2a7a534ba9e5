"""Every demo script runs to completion without a traceback, and prints
exactly the bytes pinned here.

The stdout hashes were taken with numpy 2.4 and scipy 1.17, like the
golden CLI outputs; a change that moves a demo's output on purpose updates
its hash here and records the old and new hash in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_pilot_scaling_covertness.py":
        "ca161d4037f1ce8c98f62877034057b189c78db69ff80986f13a419866e3a4f3",
    "02_corrupted_channel_estimate.py":
        "73875526c0daf126725fb1ce5d4eef7067b47cbe623cd126236da26862536a8d",
    "03_detection_thresholds_and_regimes.py":
        "310382c5303bf12944a96f8157edfd04cf1f6f416824235f8fda387d7cab1d1f",
    "04_rate_region.py":
        "c547d583abed19c943bfeca1971901bf66d62d027ff3a8d16a5a51b36d283ce2",
    "05_sqrt_law_dichotomy.py":
        "050c92fc995b2ff4874522760f90368909cf601d3bb8ac9cd281bd507973568b",
}


def test_demos_found():
    assert len(DEMOS) == 5
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    stderr = proc.stderr.decode(errors="replace")
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
