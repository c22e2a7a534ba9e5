"""Which modules a process loads: each CLI command loads only what it runs.

``import covertpilot`` loads no submodule and ``import covertpilot.cli``
adds only ``channel``; each command imports its own modules when it runs,
so ``rate`` and ``sweep`` never load the Monte Carlo estimators or the
verification suites, and ``mc`` never loads the rate analysis.  scipy
loads only where a chi-square tail, gammainc, the Lambert W or a root
solve runs, so the analytic commands (``rate``, ``sweep``) and the pilot
estimators must never load it.  The benchmark reads package names after
importing only ``covertpilot`` and ``covertpilot.cli``, and its tracer
wraps functions in the modules that its first commands loaded; both
patterns are checked here.  Each case runs in a fresh interpreter, since the test process
itself has every module loaded long before.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_bench_names import traced_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"

PROBE = """
import json, sys
import covertpilot, covertpilot.cli
argv = json.loads(sys.argv[1])
code = covertpilot.cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0]
                               in ("scipy", "covertpilot"))]),
      file=sys.stderr)
"""

SIMULATION = {"covertpilot.montecarlo", "covertpilot.pilot",
              "covertpilot.verification"}
ANALYSIS = {"covertpilot.rates", "covertpilot.verification"}


def fresh(args, paths=(SRC,)):
    """The completed ``python *args`` process, with ``paths`` on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def last_json(proc):
    return json.loads(proc.stderr.splitlines()[-1])


@functools.cache
def modules_after(argv: tuple[str, ...]):
    """Exit code of ``main(argv)`` in a fresh interpreter, the scipy modules
    and the covertpilot modules loaded by then (``argv = ()`` only imports
    the package and its CLI)."""
    code, modules = last_json(fresh(["-c", PROBE, json.dumps(argv)]))
    return (code, {m for m in modules if m.startswith("scipy")},
            {m for m in modules if m.startswith("covertpilot")})


@pytest.mark.parametrize("argv", [
    [],
    ["rate"],
    ["sweep", "--eps-steps", "5", "--lt-steps", "7"],
    ["mc", "--target", "pilot-kl", "--trials", "100"],
    ["mc", "--target", "estimator", "--trials", "100"],
], ids=["import", "rate", "sweep", "mc-pilot-kl", "mc-estimator"])
def test_loads_no_scipy(argv):
    code, scipy, _ = modules_after(tuple(argv))
    assert code == 0
    assert scipy == set()


def test_comm_detection_loads_special_only():
    # with few and with many trials, both bracketing the Gamma CDF on its
    # grid; sqrtlaw with an explicit --c and with the default c solved
    for argv in (("mc", "--target", "comm-detection", "--trials", "10"),
                 ("mc", "--target", "comm-detection", "--trials", "1024"),
                 ("mc", "--target", "sqrtlaw", "--trials", "600",
                  "--c", "0.25"),
                 ("mc", "--target", "sqrtlaw", "--trials", "600")):
        code, scipy, _ = modules_after(argv)
        assert code == 0, argv
        assert "scipy.special" in scipy, argv
        assert not any(m == "scipy.optimize"
                       or m.startswith("scipy.optimize.")
                       for m in scipy), argv


def test_import_loads_channel_and_cli_only():
    _, _, package = modules_after(())
    assert package == {"covertpilot", "covertpilot.channel",
                       "covertpilot.cli"}


@pytest.mark.parametrize("argv", [
    ("rate",), ("sweep", "--eps-steps", "5", "--lt-steps", "7"),
], ids=["rate", "sweep"])
def test_analytic_commands_load_no_simulation(argv):
    code, _, package = modules_after(argv)
    assert code == 0
    assert {"covertpilot.rates", "covertpilot.detection"} <= package
    assert not package & SIMULATION


@pytest.mark.parametrize("argv", [
    ("mc", "--target", "pilot-kl", "--trials", "100"),
    ("mc", "--target", "comm-detection", "--trials", "10"),
], ids=["pilot-kl", "comm-detection"])
def test_monte_carlo_commands_load_no_rate_analysis(argv):
    code, _, package = modules_after(argv)
    assert code == 0
    assert "covertpilot.montecarlo" in package
    assert not package & ANALYSIS


def test_verify_loads_every_module():
    code, _, package = modules_after(("verify", "--suite", "kl"))
    assert code == 0
    assert package == {"covertpilot"} | {
        f"covertpilot.{p.stem}" for p in (SRC / "covertpilot").glob("*.py")
        if p.stem not in ("__init__", "__main__")}


def test_python_m_rate_exits_0():
    proc = fresh(["-m", "covertpilot", "rate"])
    assert proc.stdout.startswith("epsilon = 0.1\nlambda_t = 0.3\n")


# bench/workloads.py's McShortBlock reads pkg.montecarlo and pkg.McConfig
# after importing only covertpilot and covertpilot.cli
NAMESPACE_PROBE = """
import json, sys
import covertpilot, covertpilot.cli
from workloads import McShortBlock
short = McShortBlock(covertpilot, ".")
montecarlo = sys.modules["covertpilot.montecarlo"]
star = {}
exec("from covertpilot import *", star)
del star["__builtins__"]
try:
    covertpilot.make_pilot
    removed = None
except AttributeError as exc:
    removed = str(exc)
print(json.dumps({
    "bench": [short.montecarlo is montecarlo,
              short.McConfig is montecarlo.McConfig],
    "all": covertpilot.__all__,
    "star": sorted(star),
    "star_bound": all(star[k] is getattr(covertpilot, k) for k in star),
    "dir": dir(covertpilot),
    "removed": removed,
    "hasattr": [hasattr(covertpilot, "make_pilot"),
                hasattr(covertpilot, "Regime")],
}), file=sys.stderr)
"""


@pytest.fixture(scope="module")
def namespace():
    return last_json(fresh(["-c", NAMESPACE_PROBE], paths=(SRC, BENCH)))


def test_bench_access_pattern_resolves(namespace):
    assert namespace["bench"] == [True, True]


def test_star_import_binds_all(namespace):
    assert len(namespace["all"]) == 30
    assert namespace["star"] == sorted(namespace["all"])
    assert namespace["star_bound"]


def test_dir_lists_all(namespace):
    assert set(namespace["all"]) <= set(namespace["dir"])
    assert {"cli", "montecarlo", "verification"} <= set(namespace["dir"])


def test_removed_name_raises_attribute_error(namespace):
    assert namespace["removed"] == \
        "module 'covertpilot' has no attribute 'make_pilot'"
    assert namespace["hasattr"] == [False, True]


# The two calls of bench/run.py's thread_determinism, which run before the
# tracer's first install, then the same calls and a `rate` traced.
TRACER_PROBE = """
import json, os, sys
import covertpilot, covertpilot.cli
import tracer
cli = covertpilot.cli
calls = [["sweep", "--eps-steps", "12", "--lt-steps", "12"],
         ["mc", "--target", "comm-detection", "--block-len", "256",
          "--trials", "1100", "--seed", "1"]]
codes = [cli.main(argv + ["--out", os.devnull]) for argv in calls]
unloaded = [q for q in json.loads(sys.argv[1])
            if "covertpilot." + q.split(".")[0] not in sys.modules]
tr = tracer.Tracer()
tr.install()
codes += [cli.main(argv + ["--out", os.devnull])
          for argv in calls + [["rate"]]]
tr.uninstall()
print(json.dumps([codes, unloaded,
                  {k: n for k, (n, _) in tr.self_times().items()}]),
      file=sys.stderr)
"""


def test_tracer_modules_are_loaded_and_calls_counted():
    names = traced_names()
    codes, unloaded, calls = last_json(fresh(
        ["-c", TRACER_PROBE, json.dumps(names)], paths=(SRC, BENCH)))
    assert codes == [0] * 5
    assert unloaded == []
    # the functions that cli imports where its commands run are counted
    assert calls["cli.main"] == 3
    assert calls["cli.sweep_cell_line"] == 1
    assert calls["rates.attack_feasibility"] == 2
    assert calls["detection.classify_regime"] == 1
    assert calls["montecarlo.mc_comm_error_probs"] == 1
