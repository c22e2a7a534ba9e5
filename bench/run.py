#!/usr/bin/env python3
"""covertpilot benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the repository root; needs only the standard library plus the
package's own dependencies (numpy, scipy), and imports the package from
``src/`` of the same checkout::

    python3 bench/run.py --workload sweep_region --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10   # every workload, one table

Workloads (see ``workloads.py``): ``sweep_region``, ``mc_long_block`` and
``mc_short_block``.  Each run is one process and one client in a closed
loop: the next operation starts when the previous one returns, always with
``--threads 1`` and no worker pool.  Every operation's output is checked.

``--trace 0`` measures, in this order:

* the thread-determinism check: a small sweep and an ``mc`` call must give
  byte-identical output at ``--threads 1`` and ``--threads 2``;
* ``setup_s``: median over 9 fresh child interpreters of the wall time to
  import ``covertpilot`` (and its CLI) and build the workload's scenario,
  one at the start of each ninth of the run, each followed by one untimed
  operation, so that no timed operation follows a set-up directly;
* operations for ``--seconds`` seconds in all, giving ``op_ms_p75`` (the
  upper-quartile operation time), ``peak_rss_mb`` of this process, and, in
  the report only, ``cells_per_s`` or ``trials_per_s`` (work per second of
  operation time), ``op_ms_p50``, ``op_ms_tail`` (the 11th-slowest
  operation: the highest percentile with ten operations beyond it) and
  the other quantiles.

Only ``setup_s``, ``op_ms_p75`` and ``peak_rss_mb`` are end-to-end
metrics with a regression bound.  Every operation does the same work, so
the operation times and the throughput move together.  On a small shared
machine that alternates between a fast and a slow state every few
seconds, the median falls between the two and moved up to 26% (quartile
spread over median, ten seeds) from one 30-second run to the next, and
the tail up to 32% whenever a still slower state lasted a second or two;
the upper quartile sits in the slow state and moved at most 13%, except
in one very noisy period (30%).

``--trace 1`` runs a fixed number of operations (set by the workload and
``--seconds``, so counts repeat exactly for a seed) twice each, untraced
and with the functions listed in ``tracer.TRACED`` wrapped, back to back.
The per-layer metrics come from the traced calls;
``trace.overhead_ms_per_op`` is traced minus untraced operation time per
operation.  Import times come from child interpreters run with
``-X importtime``.  Spans are written once, at the end, to
``bench/out/spans_<workload>.csv.gz``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a report with the same metrics plus
throughput, quantiles, sample counts, ``fail_ratio``, the Monte Carlo
z-score against the analytic reference (a diagnostic, never gated) and
the environment.

Predicted effects, per layer metric: the end-to-end figure it should move,
and where ("throughput" is ``cells_per_s`` or ``trials_per_s``, which
moves with ``op_ms_p75``).  A change to a layer must leave the other
workloads flat.

* ``channel.complex_normal.*`` (samples, ns_per_sample, samples_per_trial,
  6n today): throughput on mc_long_block; mc_short_block barely.
* ``channel.derive_rng.*``: throughput and ``op_ms_*`` on mc_short_block;
  small on mc_long_block, zero on sweep_region.
* ``channel.gaussian_input.*``: throughput on both mc workloads.
* ``pilot.mmse_estimate.*``, ``detection.tau_dagger.*``: throughput on
  mc_short_block only.
* ``montecarlo.mc_comm_error_probs.*`` (self time is the in-loop
  radiometer statistic and tally): throughput on mc_long_block.
* ``detection.tau_eps.*`` (calls_per_cell 3 today, 1 is the minimum),
  ``detection.classify_regime.*``, ``rates.attack_feasibility.*``,
  ``cli.sweep_cell_line.self_ms``: throughput and ``op_ms_*`` on
  sweep_region only.
* ``cli.main.self_ms`` (argument parsing, scenario build, output
  formatting and writing): ``op_ms_*`` on sweep_region and mc_long_block.
* ``detection.analytic_error_probs.*``: one call per Monte Carlo call;
  negligible everywhere.
* ``import.*``: ``setup_s`` on every workload.

ROADMAP directions: an array-native analytic core (item 3) moves
sweep_region and leaves both mc workloads flat; a reduced-dimension
sampler (item 4) moves the mc workloads and leaves sweep_region flat; a
counter-based generator shows on mc_short_block first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Check
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9      # set-up children, one at the start of each slice of the run
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10       # operations beyond the reported tail percentile
TRACE_SHARE = 0.3      # share of --seconds the traced calls are sized for
PRINT_FAILURES = 3

SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import covertpilot, covertpilot.cli
from workloads import build_scenario
build_scenario(int(sys.argv[1]))
t1 = time.perf_counter()
print(json.dumps({"setup_s": t1 - t0, "file": covertpilot.__file__}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def _own_package(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"covertpilot was imported from {path}, not from {SRC}")


def _child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} failed:\n{proc.stderr[-2000:]}")
    return proc


def measure_setup(block_len: int) -> float:
    """Seconds to import the package and build the scenario in a fresh child."""
    out = json.loads(_child(["-c", SETUP_CHILD, str(block_len)]).stdout)
    _own_package(out["file"])
    return out["setup_s"]


def measure_imports() -> dict[str, float]:
    """Median cumulative import of covertpilot and self time of scipy modules, ms."""
    pkg, scipy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        err = _child(["-X", "importtime", "-c", "import covertpilot"]).stderr
        total = scipy_us = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = (f.strip() for f in line[12:].split("|"))
            if not self_us.isdigit():
                continue    # the column header
            if name == "covertpilot":
                total = int(cum_us)
            if name == "scipy" or name.startswith("scipy."):
                scipy_us += int(self_us)
        pkg.append(total / 1e3)
        scipy.append(scipy_us / 1e3)
    return {"import.covertpilot_ms": statistics.median(pkg),
            "import.scipy_ms": statistics.median(scipy)}


def import_package():
    if not (SRC / "covertpilot" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'covertpilot'}")
    sys.path.insert(0, str(SRC))
    import covertpilot
    import covertpilot.cli
    _own_package(covertpilot.__file__)
    return covertpilot


def thread_determinism(pkg, tmpdir: str, seed: int) -> list[str]:
    """Names of the CLI calls whose output differs between 1 and 2 threads."""
    calls = {
        "sweep": ["sweep", "--eps-steps", "12", "--lt-steps", "12"],
        "mc": ["mc", "--target", "comm-detection", "--block-len", "256",
               "--trials", "1100", "--seed", str(seed)],
    }
    differing = []
    for name, argv in calls.items():
        outputs = []
        for threads in ("1", "2"):
            path = os.path.join(tmpdir, f"threads{threads}.out")
            code = pkg.cli.main(argv + ["--threads", threads, "--out", path])
            outputs.append(Path(path).read_bytes() if code == 0 else None)
        if outputs[0] is None or outputs[0] != outputs[1]:
            differing.append(name)
    return differing


class Loop:
    """Closed loop over one workload's operations, with checks and tallies."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = self.failed = self.work = 0
        self.op_s: list[float] = []
        self.tallies: list[tuple] = []

    def one(self, op, timed: bool = True) -> None:
        w = self.workload
        self.attempted += 1
        elapsed = None
        t0 = time.perf_counter()
        try:
            result = w.run(op)
            elapsed = time.perf_counter() - t0
            check = w.check(op, result)
        except Exception:
            elapsed = elapsed or time.perf_counter() - t0
            check = Check(False, 0, traceback.format_exc())
        if timed:
            self.op_s.append(elapsed)
        if not check.ok:
            if self.failed < PRINT_FAILURES:
                print(f"operation failed: {check.detail}", file=sys.stderr)
            self.failed += 1
        elif timed:
            self.work += check.work
            if check.tally is not None:
                self.tallies.append(check.tally)

    def for_seconds(self, seconds: float) -> list[float]:
        """Timed operations for ``seconds``, in slices that each start with a
        set-up child and one untimed operation; returns the set-up times.

        The shared machine's speed changes every few seconds, so set-ups
        spread over the run give a steadier median than set-ups in a row.
        """
        ops = self.workload.ops(self.seed)
        setup = []
        for _ in range(SETUP_REPEATS):
            setup.append(measure_setup(self.workload.block_len))
            self.one(next(ops), timed=False)
            deadline = time.perf_counter() + seconds / SETUP_REPEATS
            while time.perf_counter() < deadline:
                self.one(next(ops))
        return setup


def tail(op_s: list[float]) -> tuple[float, float]:
    """(value, percentile) with TAIL_BEYOND operations beyond it, or the max."""
    ranked = sorted(op_s)
    k = max(0, len(ranked) - 1 - TAIL_BEYOND)
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def mc_zscore(tallies: list[tuple]) -> dict | None:
    """Pooled Monte Carlo P_F + P_M against the analytic reference, in standard errors."""
    if not tallies:
        return None
    trials = sum(t[2] for t in tallies)
    p_f = sum(t[0] for t in tallies) / trials
    p_m = sum(t[1] for t in tallies) / trials
    ref = tallies[0][3]
    se = (p_f * (1 - p_f) / trials + p_m * (1 - p_m) / trials) ** 0.5
    z = (p_f + p_m - ref) / se if se > 0 else float("inf")
    return {"trials": trials, "mc_sum": p_f + p_m, "analytic_sum": ref,
            "std_error": se, "z": z}


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "covertpilot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, seed: int, seconds: float, pkg, tmpdir: str,
               report: dict) -> tuple[Loop, dict]:
    report["threads_differ"] = thread_determinism(pkg, tmpdir, seed)
    loop = Loop(workload, seed)
    setup = loop.for_seconds(seconds)
    if not loop.op_s:
        raise BenchError("no operation completed")
    tail_s, tail_pct = tail(loop.op_s)
    quantiles = statistics.quantiles(loop.op_s, n=20)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p75": (1e3 * quantiles[14], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    report.update(
        setup_s_samples=setup,
        **{f"{workload.work_unit}_per_s": loop.work / sum(loop.op_s)},
        op_ms_p50=1e3 * statistics.median(loop.op_s),
        op_ms_tail=1e3 * tail_s,
        op_ms_quantiles={f"p{5 * (k + 1)}": 1e3 * q
                         for k, q in enumerate(quantiles)},
        op_ms_tail_percentile=tail_pct, timed_ops=len(loop.op_s),
        work_done=loop.work, work_unit=workload.work_unit)
    return loop, metrics


def per_layer(workload, seed: int, seconds: float, pkg, tmpdir: str,
              report: dict) -> tuple[Loop, dict]:
    imports = measure_imports()
    report["threads_differ"] = thread_determinism(pkg, tmpdir, seed)
    count = max(2, round(TRACE_SHARE * seconds * 1e3 / workload.nominal_op_ms))

    # Each operation runs untraced and traced back to back, in alternating
    # order, so that the machine's drift cancels from the overhead.
    plain, traced, tr = Loop(workload, seed), Loop(workload, seed), tracer.Tracer()

    def run_traced(op, i: int) -> None:
        tr.current_op = i
        tr.install()
        try:
            traced.one(op)
        finally:
            tr.uninstall()

    ops = workload.ops(seed)
    plain.one(next(ops), timed=False)
    for i in range(count):
        op = next(ops)
        if i % 2:
            plain.one(op)
            run_traced(op, i)
        else:
            run_traced(op, i)
            plain.one(op)
    untraced_s, traced_s = sum(plain.op_s), sum(traced.op_s)

    selfs = tr.self_times()
    spans_path = OUT / f"spans_{workload.name}.csv.gz"
    n_spans = tr.write(str(spans_path))

    cells = traced.work if workload.work_unit == "cells" else 0
    trials = traced.work if workload.work_unit == "trials" else 0

    def per(x: float, base: float) -> float:
        return x / base if base else 0.0

    metrics = {k: (v, "ms") for k, v in imports.items()}
    for name in tracer.TRACED:
        calls, self_s = selfs[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (1e3 * self_s, "ms")
    cn_self = selfs["channel.complex_normal"][1]
    rng_calls, rng_self = selfs["channel.derive_rng"]
    metrics.update({
        "channel.complex_normal.samples": (tr.samples, "count"),
        "channel.complex_normal.ns_per_sample": (per(1e9 * cn_self, tr.samples), "ns"),
        "channel.complex_normal.samples_per_trial": (per(tr.samples, trials), "count"),
        "channel.derive_rng.us_per_call": (per(1e6 * rng_self, rng_calls), "us"),
        "channel.derive_rng.per_trial": (per(rng_calls, trials), "count"),
        "detection.tau_eps.calls_per_cell":
            (per(selfs["detection.tau_eps"][0], cells), "count"),
        "montecarlo.mc_comm_error_probs.self_share":
            (per(selfs["montecarlo.mc_comm_error_probs"][1], traced_s), "ratio"),
        "trace.overhead_ms_per_op": (1e3 * (traced_s - untraced_s) / count, "ms"),
    })
    z = mc_zscore(traced.tallies)
    metrics["diag.mc_abs_zscore"] = (abs(z["z"]) if z else 0.0, "sigma")

    report.update(trace_ops=count, trace_cells=cells, trace_trials=trials,
                  untraced_s=untraced_s, traced_s=traced_s, spans=n_spans,
                  spans_file=str(spans_path.relative_to(ROOT)))
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return traced, metrics


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table of metrics."""
    rows, ok = [], True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        print(lines[-2])
        report = json.loads(lines[-2])["report"]
        ok = ok and json.loads(lines[-1])["correct"]
        extra = {"fail_ratio": (report["fail_ratio"], "ratio")}
        if not args.trace:
            unit = report["work_unit"]
            extra[f"{unit}_per_s"] = (report[f"{unit}_per_s"], f"{unit}/s")
            extra["op_ms_p50"] = (report["op_ms_p50"], "ms")
            extra["op_ms_tail"] = (report["op_ms_tail"], "ms")
            extra["op_ms_tail_percentile"] = (report["op_ms_tail_percentile"], "%")
            extra["timed_ops"] = (report["timed_ops"], "count")
        metrics = {k: (m["value"], m["unit"]) for k, m in report["metrics"].items()}
        rows += [(name, k, v, u) for k, (v, u) in {**metrics, **extra}.items()]
    for name, key, value, unit in rows:
        print(f"{name:16s} {key:44s} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn with a "
                             "table of every metric")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    load_start = os.getloadavg()
    try:
        pkg = import_package()
        workload_cls = WORKLOADS[args.workload]
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "env": environment()}
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
            workload = workload_cls(pkg, tmpdir)
            measure = per_layer if args.trace else end_to_end
            loop, metrics = measure(workload, args.seed, args.seconds, pkg,
                                    tmpdir, report)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    report["env"]["loadavg_start"] = load_start
    report["env"]["loadavg_end"] = os.getloadavg()
    report.update(attempted=loop.attempted, failed=loop.failed,
                  fail_ratio=loop.failed / loop.attempted,
                  mc_zscore=mc_zscore(loop.tallies))
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = loop.failed == 0 and not report["threads_differ"]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
