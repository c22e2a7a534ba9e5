"""The benchmark's three workloads: inputs from a seed, one operation, its check.

Every workload draws its inputs from ``random.Random(f"{name}:{seed}")``, so
one seed always gives the same operations, and runs against the package
as shipped.  An operation is timed by the caller; its check runs outside
the timed region.  All workloads sit at the reference operating point of
the package's tests: 0.1 losses and noise powers, unit gains,
``lambda_a = 20``, ``r_a`` at 80% of link capacity, ``delta_1 = 1/sqrt(10)``.

sweep_region
    One ``cli.main(["sweep", ...])`` call over a 60 x 100 cell band of the
    reference region (epsilon in [0, 0.2475], lambda_t in [0.01, 1]).  The
    seed places each band's epsilon range; every eighth band starts at
    epsilon = 0.1 so that it holds the reference cell (0.1, 0.3).  Over a
    run the bands cross blind-below, detectable and every infeasible
    condition.  All work is in ``detection``, ``rates`` and the CLI's CSV
    formatting; no random numbers are drawn.
mc_long_block
    One ``cli.main(["mc", "--target", "comm-detection", ...])`` call with
    96 trials at n = 10^4 and (epsilon, lambda_t) = (0.1, 0.3); the seed
    gives each call its base seed.  Normal draws and the length-n
    radiometer arithmetic dominate; stream derivation is a few percent.
mc_short_block
    One ``montecarlo.mc_comm_error_probs(..., two_phase_pilot_len=64)`` call
    with 768 trials at n = 256, the only entry into the two-phase mode.
    Each trial derives 4 streams of a few hundred samples and runs
    ``pilot.mmse_estimate`` and ``detection.tau_dagger``, so per-call
    overhead and stream set-up dominate.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

REF_EPS, REF_LT = 0.1, 0.3
REF_R_T_IC = math.log2(1.3)   # log2(1 + gain_e lambda_t / sigma_e^2) at the reference

EPS_MIN, EPS_MAX = 0.0, 0.2475
LT_MIN, LT_MAX, LT_STEPS = 0.01, 1.0, 100   # lambda_t step 0.01 holds 0.3
EPS_BAND_STEPS = 60                          # 60 rows of a 300-row region grid
EPS_BAND_WIDTH = (EPS_BAND_STEPS - 1) * (EPS_MAX - EPS_MIN) / 299
REF_BAND_EVERY = 8

LONG_N, LONG_TRIALS = 10_000, 96
SHORT_N, SHORT_TRIALS, SHORT_PILOT = 256, 768, 64


def build_scenario(block_len: int):
    """Channel, system configuration and attack of the reference point."""
    from covertpilot import (AttackParams, ChannelParams, SystemConfig,
                             link_capacity)
    channel = ChannelParams(alpha_w_sq=0.1, alpha_e_sq=0.1, sigma_w_sq=0.1,
                            sigma_e_sq=0.1, sigma_h_sq=1.0, h_w=1 + 0j,
                            h_e=1 + 0j)
    config = SystemConfig.create(
        channel, lambda_a=20.0, r_a=0.8 * link_capacity(channel, 20.0),
        delta_1=1 / math.sqrt(10), delta_2=0.1, pilot_len=SHORT_PILOT,
        block_len=block_len)
    return channel, config, AttackParams(epsilon=REF_EPS, lambda_t=REF_LT)


@dataclass
class Check:
    """Outcome of one operation's output check."""

    ok: bool
    work: int               # sweep cells or Monte Carlo trials completed
    detail: str = ""
    tally: tuple | None = None   # (false alarms, misses, trials, analytic P_F + P_M)


class SweepRegion:
    name = "sweep_region"
    work_unit = "cells"
    block_len = 10_000          # the CLI default, for the set-up scenario
    nominal_op_ms = 150.0

    def __init__(self, pkg, tmpdir: str) -> None:
        self.cli = pkg.cli
        self.out = os.path.join(tmpdir, "band.csv")

    def ops(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        i = 0
        while True:
            lo = REF_EPS if i % REF_BAND_EVERY == 0 else \
                rng.uniform(EPS_MIN, EPS_MAX - EPS_BAND_WIDTH)
            yield ["sweep", "--eps-min", repr(lo),
                   "--eps-max", repr(lo + EPS_BAND_WIDTH),
                   "--eps-steps", str(EPS_BAND_STEPS),
                   "--lt-min", repr(LT_MIN), "--lt-max", repr(LT_MAX),
                   "--lt-steps", str(LT_STEPS),
                   "--threads", "1", "--out", self.out]
            i += 1

    def run(self, argv):
        return self.cli.main(argv)

    def check(self, argv, code) -> Check:
        cells = EPS_BAND_STEPS * LT_STEPS
        if code != 0:
            return Check(False, 0, f"exit code {code}")
        with open(self.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != self.cli.CSV_HEADER:
            return Check(False, 0, "CSV header differs from cli.CSV_HEADER")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != cells or any(len(r) != 9 for r in rows):
            return Check(False, 0, f"{len(rows)} rows, expected {cells}")
        ref = [r for r in rows if abs(float(r[0]) - REF_EPS) < 1e-12
               and abs(float(r[1]) - REF_LT) < 1e-12]
        if float(argv[argv.index("--eps-min") + 1]) == REF_EPS and len(ref) != 1:
            return Check(False, 0, "reference band lacks the cell (0.1, 0.3)")
        for r in ref:
            if r[2] != "1" or abs(float(r[5]) - REF_R_T_IC) > 1e-9:
                return Check(False, 0, f"reference cell wrong: {','.join(r)}")
        return Check(True, cells)


class McLongBlock:
    name = "mc_long_block"
    work_unit = "trials"
    block_len = LONG_N
    nominal_op_ms = 170.0

    def __init__(self, pkg, tmpdir: str) -> None:
        self.cli = pkg.cli
        self.out = os.path.join(tmpdir, "mc.json")

    def ops(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield ["mc", "--target", "comm-detection",
                   "--block-len", str(LONG_N),
                   "--epsilon", repr(REF_EPS), "--lambda-t", repr(REF_LT),
                   "--trials", str(LONG_TRIALS),
                   "--seed", str(rng.randrange(2 ** 31)),
                   "--threads", "1", "--out", self.out]

    def run(self, argv):
        return self.cli.main(argv)

    def check(self, argv, code) -> Check:
        if code != 0:
            return Check(False, 0, f"exit code {code}")
        with open(self.out, encoding="utf-8") as fh:
            out = json.load(fh)
        p_f, p_m = out.get("p_f"), out.get("p_m")
        if out.get("target") != "comm-detection" or out.get("trials") != LONG_TRIALS:
            return Check(False, 0, "wrong target or trial count")
        if not (isinstance(p_f, float) and isinstance(p_m, float)
                and 0 <= p_f <= 1 and 0 <= p_m <= 1):
            return Check(False, 0, f"p_f = {p_f}, p_m = {p_m}")
        fa, md = round(p_f * LONG_TRIALS), round(p_m * LONG_TRIALS)
        return Check(True, LONG_TRIALS,
                     tally=(fa, md, LONG_TRIALS, out["analytic_reference"]))


class McShortBlock:
    name = "mc_short_block"
    work_unit = "trials"
    block_len = SHORT_N
    nominal_op_ms = 160.0

    def __init__(self, pkg, tmpdir: str) -> None:
        self.montecarlo = pkg.montecarlo
        self.McConfig = pkg.McConfig
        self.channel, self.config, self.attack = build_scenario(SHORT_N)

    def ops(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield rng.randrange(2 ** 31)

    def run(self, base_seed):
        mc = self.McConfig(trials=SHORT_TRIALS, base_seed=base_seed, n=SHORT_N)
        return self.montecarlo.mc_comm_error_probs(
            self.channel, self.attack, self.config, mc,
            two_phase_pilot_len=SHORT_PILOT)

    def check(self, base_seed, result) -> Check:
        probs, (rf, rm) = result
        if rf.trials_used != SHORT_TRIALS or rm.trials_used != SHORT_TRIALS:
            return Check(False, 0, "wrong trial count")
        if not (0 <= probs.p_f <= 1 and 0 <= probs.p_m <= 1):
            return Check(False, 0, f"p_f = {probs.p_f}, p_m = {probs.p_m}")
        fa, md = round(probs.p_f * SHORT_TRIALS), round(probs.p_m * SHORT_TRIALS)
        return Check(True, SHORT_TRIALS,
                     tally=(fa, md, SHORT_TRIALS,
                            rf.analytic_reference + rm.analytic_reference))


WORKLOADS = {w.name: w for w in (SweepRegion, McLongBlock, McShortBlock)}
