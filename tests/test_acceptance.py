"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.  Criterion 5's saturation clause is asserted
exactly as specified at block length 10^4; at that length the reference
operating point sits too close to the regime boundary for the error sum
to have converged (see the decisions log), so that single clause fails
with the measured values printed.
"""

import math
import time
from dataclasses import replace

import numpy as np

from covertpilot import (AttackParams, ChannelParams, McConfig,
                         analytic_error_probs, kl_pilot_exact,
                         kl_pilot_limit, mc_comm_error_probs,
                         mc_estimator_error, mc_sqrt_law,
                         solve_sqrt_law_coefficient, tau_dagger, tau_eps,
                         power_scaling_table)
from covertpilot import cli
from covertpilot.verification import random_detection_config
from reference import (exact_comm_error_probs, make_pilot, pilot_covariances,
                       pilot_estimate)

LOG2_1P3 = 0.37851162325372981
EDGE = 1 / math.sqrt(20)           # pilot covertness limit delta_1 / sqrt(2)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_rate_region_sweep(channel, config, tmp_path):
    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    code = cli.main([
        "sweep", "--eps-min", "0", "--eps-max", "0.2475", "--eps-steps", "100",
        "--lt-min", "0.01", "--lt-max", "1.0", "--lt-steps", "100",
        "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0

    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 10_000
    eps = np.array([float(r[0]) for r in rows])
    lt = np.array([float(r[1]) for r in rows])
    feasible = np.array([r[2] == "1" for r in rows])
    r_ic = np.array([float(r[5]) for r in rows])

    k = int(np.argmin(np.abs(eps - 0.1) + np.abs(lt - 0.3)))
    point_ok = (abs(eps[k] - 0.1) < 1e-12 and abs(lt[k] - 0.3) < 1e-12
                and feasible[k] and abs(r_ic[k] - LOG2_1P3) <= 1e-9)

    best_rate_per_eps = {}
    for e, f, r in zip(eps, feasible, r_ic):
        if f:
            best_rate_per_eps[e] = max(best_rate_per_eps.get(e, 0.0), r)
    eps_sorted = sorted(best_rate_per_eps)
    best_eps = max(eps_sorted, key=lambda e: best_rate_per_eps[e])
    interior = (0.0 < best_eps < EDGE
                and best_eps != eps_sorted[0] and best_eps != eps_sorted[-1])

    ok = (elapsed < 10.0 and feasible.any() and point_ok and interior)
    report(1, "rate region sweep", ok,
           f"{elapsed:.2f}s, {int(feasible.sum())} feasible cells, "
           f"point (0.1,0.3) r_t_ic err {abs(r_ic[k] - LOG2_1P3):.1e}, "
           f"best eps {best_eps:.4f} in (0, {EDGE:.4f})")
    assert elapsed < 10.0
    assert feasible.any()
    assert point_ok
    assert interior


def test_criterion_2_pilot_divergence_bound(channel):
    eps = np.linspace(0.0, 2.0, 1000)
    vals = np.array([kl_pilot_limit(e) for e in eps])
    bound_ok = bool(np.all(vals <= 2 * eps ** 2 + 1e-15)
                    and np.all(vals[1:] < 2 * eps[1:] ** 2))

    rng = np.random.default_rng(20)
    worst = 0.0
    for L in (1, 2, 4, 8, 16, 32, 64):
        ch = ChannelParams(rng.uniform(0.05, 1), 0.1, rng.uniform(0.05, 1),
                           0.1, rng.uniform(0.2, 2), 1 + 0j, 1 + 0j)
        attack = AttackParams(rng.uniform(0, 0.8), 0.3)
        pilot = math.sqrt(rng.uniform(0.5, 2)) * make_pilot(L)
        covs = pilot_covariances(ch, attack, pilot)
        _, ld0 = np.linalg.slogdet(covs.sigma0)
        _, ld1 = np.linalg.slogdet(covs.sigma1)
        dense = (ld1 - ld0) - L + np.trace(
            np.linalg.solve(covs.sigma1, covs.sigma0)).real
        worst = max(worst, abs(kl_pilot_exact(ch, attack,
                                              np.vdot(pilot, pilot).real)
                               - dense))

    ok = bound_ok and worst <= 1e-9
    report(2, "pilot divergence bound", ok,
           f"quadratic bound holds with equality only at 0; "
           f"max |closed form - dense oracle| = {worst:.2e}")
    assert bound_ok
    assert worst <= 1e-9


def test_criterion_3_estimator_consistency(channel):
    a = channel.alpha_w_sq * channel.sigma_h_sq / channel.sigma_w_sq
    a_w = math.sqrt(channel.alpha_w_sq)
    worst = 0.0
    for L in (4, 16, 64, 256):
        for eps in (0.0, 0.1, 0.25):
            pilot = make_pilot(L)
            y = a_w * channel.h_w * (1 + eps) * pilot
            h_hat = pilot_estimate(channel, pilot, y)
            expect = (1 + eps) * a * L / (1 + a * L) * channel.h_w
            worst = max(worst, abs(h_hat - expect) / abs(expect))
    bias_ok = worst <= 1e-12

    l_grid = [2 ** k for k in range(4, 13)]
    rows = mc_estimator_error(channel, AttackParams(0.1, 0.3), l_grid,
                              McConfig(trials=300, base_seed=21))
    logl = np.log(l_grid)
    slopes = [float(np.polyfit(logl,
                               np.log([getattr(r, k) for r in rows]), 1)[0])
              for k in ("mse_clean", "mse_scaled")]
    slope_ok = all(abs(s + 1.0) <= 0.15 for s in slopes)

    ok = bias_ok and slope_ok
    report(3, "estimator consistency", ok,
           f"max noiseless bias err {worst:.2e}; mse log-log slopes "
           f"{slopes[0]:.3f}/{slopes[1]:.3f}")
    assert bias_ok
    assert slope_ok


def test_criterion_4_threshold_optimality(config):
    rng = np.random.default_rng(22)
    worst_steps = 0.0
    for _ in range(50):
        ch, lam_t, n = random_detection_config(rng)
        t_star = tau_dagger(ch, ch.h_w, lam_t, n)
        grid = np.linspace(0.3 * t_star, 3.0 * t_star, 10_000)
        sums = analytic_error_probs(ch, AttackParams(0.0, lam_t),
                                    replace(config, block_len=n), grid).sum
        step = grid[1] - grid[0]
        worst_steps = max(worst_steps,
                          abs(grid[int(np.argmin(sums))] - t_star) / step)
    ok = worst_steps <= 1.0 + 1e-9
    report(4, "threshold optimality", ok,
           f"worst argmin offset = {worst_steps:.3f} grid steps "
           f"over 50 random configurations")
    assert ok


def test_criterion_5_blind_regime_saturation(channel, config):
    t0 = time.perf_counter()
    n = 10_000
    cfg = replace(config, block_len=n)

    attack = AttackParams(0.1, 0.3)
    analytic = analytic_error_probs(channel, attack, cfg,
                                    tau_eps(channel, attack)).sum
    mc = McConfig(trials=10_000, base_seed=23, n=n)
    probs, (rf, rm) = mc_comm_error_probs(channel, attack, cfg, mc)
    se3 = 3 * math.hypot(rf.std_error, rm.std_error)

    silent = AttackParams(0.0, 0.3)
    analytic0 = analytic_error_probs(channel, silent, cfg,
                                     tau_eps(channel, silent)).sum
    probs0, _ = mc_comm_error_probs(channel, silent, cfg,
                                    McConfig(trials=10_000, base_seed=24, n=n))
    elapsed = time.perf_counter() - t0
    exact = sum(exact_comm_error_probs(channel, attack, cfg, n,
                                       tau_eps(channel, attack)))

    saturated = analytic >= 0.99 and probs.sum >= 0.99
    agree = abs(analytic - probs.sum) <= se3
    vanish = analytic0 <= 0.01 and probs0.sum <= 0.01
    ok = saturated and agree and vanish and elapsed < 60.0
    report(5, "blind regime saturation", ok,
           f"blind point: noise-only {analytic:.4f}, exact law "
           f"{exact:.6f}, mc {probs.sum:.4f} "
           f"(3se {se3:.4f}); detectable point: analytic {analytic0:.2e}, "
           f"mc {probs0.sum:.2e}; {elapsed:.1f}s")
    assert elapsed < 60.0
    assert vanish
    assert saturated, (
        f"analytic {analytic:.4f} and mc {probs.sum:.4f} below 0.99 at "
        f"n=10^4: the operating point sits 0.0075 noise units from the "
        f"regime boundary, so saturation needs n of order 10^5")
    assert agree, (
        f"|analytic - mc| = {abs(analytic - probs.sum):.4f} > 3se = {se3:.4f}:"
        f" the chi-square model omits the input-noise cross term")


def test_criterion_6_sqrt_law_dichotomy(channel, config):
    n_grid = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    fast = power_scaling_table(channel, config, 0.25, 1.0, n_grid)
    sums = [r.p_sum for r in fast]
    detect_ok = sums[-1] < 0.5 and all(b < a for a, b in zip(sums, sums[1:]))

    c = solve_sqrt_law_coefficient(channel, 0.1)
    rows = mc_sqrt_law(channel, c, [10_000],
                       McConfig(trials=4000, base_seed=25))
    rows += mc_sqrt_law(channel, c, [100_000],
                        McConfig(trials=1500, base_seed=26))
    covert_ok = all(r.one_minus_sum <= 0.1 + 3 * r.std_error for r in rows)

    sched = power_scaling_table(channel, config, 0.5, c, n_grid)
    slope = float(np.polyfit(np.log([r.n for r in sched]),
                             np.log([r.r_t for r in sched]), 1)[0])
    slope_ok = abs(slope + 0.5) <= 0.05

    ok = detect_ok and covert_ok and slope_ok
    report(6, "square-root-law dichotomy", ok,
           f"n^-1/4 sums -> {sums[-1]:.1e}; c = {c:.4f} gives 1-sum "
           f"{[f'{r.one_minus_sum:.4f}<={0.1 + 3 * r.std_error:.4f}' for r in rows]}; "
           f"rate slope {slope:.4f}")
    assert detect_ok
    assert covert_ok
    assert slope_ok


def test_criterion_7_thread_determinism(tmp_path):
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    base = ["sweep", "--eps-steps", "25", "--lt-steps", "25", "--seed", "9"]
    for path, threads in zip(paths, ("1", "4", "7")):
        assert cli.main(base + ["--threads", threads, "--out", str(path)]) == 0
    sweep_ok = (paths[0].read_bytes() == paths[1].read_bytes()
                == paths[2].read_bytes())

    jsons = [tmp_path / f"{k}.json" for k in range(2)]
    base = ["mc", "--target", "comm-detection", "--trials", "600",
            "--block-len", "400", "--seed", "11"]
    for path, threads in zip(jsons, ("1", "5")):
        assert cli.main(base + ["--threads", threads, "--out", str(path)]) == 0
    mc_ok = jsons[0].read_bytes() == jsons[1].read_bytes()

    ok = sweep_ok and mc_ok
    report(7, "thread determinism", ok,
           f"sweep bytes identical: {sweep_ok}; mc bytes identical: {mc_ok}")
    assert sweep_ok
    assert mc_ok
