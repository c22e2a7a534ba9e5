"""scipy loads only where a chi-square tail, gammainc or a root solve runs.

Importing scipy.special and scipy.optimize takes most of the package's
import time, so the analytic commands (`rate`, `sweep`) and the pilot
estimators must never load it.  Each case runs in a fresh interpreter,
since the test process itself has scipy loaded long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import covertpilot, covertpilot.cli
argv = json.loads(sys.argv[1])
code = covertpilot.cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "scipy" or m.startswith("scipy."))]),
      file=sys.stderr)
"""


def scipy_modules_after(argv):
    """Exit code of ``main(argv)`` in a fresh interpreter and the scipy
    modules loaded by then (``argv = []`` only imports the package)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize("argv", [
    [],
    ["rate"],
    ["sweep", "--eps-steps", "5", "--lt-steps", "7"],
    ["mc", "--target", "pilot-kl", "--trials", "100"],
    ["mc", "--target", "estimator", "--trials", "100"],
], ids=["import", "rate", "sweep", "mc-pilot-kl", "mc-estimator"])
def test_loads_no_scipy(argv):
    code, modules = scipy_modules_after(argv)
    assert code == 0
    assert modules == set()


def test_comm_detection_loads_special_only():
    # below and from GRID_MIN_TRIALS (512) trials on, where the radiometer
    # tally brackets the Gamma CDF on a grid; sqrtlaw takes an explicit --c,
    # since solving for the default c is a root solve
    for argv in (["mc", "--target", "comm-detection", "--trials", "10"],
                 ["mc", "--target", "comm-detection", "--trials", "1024"],
                 ["mc", "--target", "sqrtlaw", "--trials", "600",
                  "--c", "0.25"]):
        code, modules = scipy_modules_after(argv)
        assert code == 0, argv
        assert "scipy.special" in modules, argv
        assert not any(m == "scipy.optimize"
                       or m.startswith("scipy.optimize.")
                       for m in modules), argv
