"""Monte Carlo estimation of every analytic quantity in the package.

Each estimator is the independent cross-check for the corresponding
closed form.  ``mc_pilot_kl`` and ``mc_estimator_error`` simulate actual
pilot observation vectors.  The radiometer estimators
(``mc_comm_error_probs``, ``mc_sqrt_law``) use an exact reduced-dimension
sampler instead of length-n vectors.

Reduced sampler
---------------
The radiometer statistics of one block depend on it only through a few
inner products.  The inputs meet their block power exactly
(``||x_a||^2 = n lambda_a``, ``||x_t||^2 = n lambda_t``) with independent
uniform directions, and the noise ``z ~ CN(0, s2 I)`` is isotropic.  A
unitary rotation taking ``x_a`` onto the first axis and ``x_t`` into the
span of the first two axes leaves the law of ``z`` unchanged, so with
``c = alpha_w (h - h_hat) sqrt(n lambda_a)`` and
``d = alpha_w h sqrt(n lambda_t)``::

    n t0 = |c + z1|^2 + |z2|^2 + R
    n t1 = |c + z1 + d rho|^2 + |z2 + d sqrt(1 - |rho|^2)|^2 + R

where ``z1, z2 ~ CN(0, s2)``, ``R = ||z_rest||^2 ~ Gamma(n - 2, scale s2)``
and ``rho``, the correlation of ``x_a`` and ``x_t``, has
``|rho|^2 ~ Beta(1, n - 1)`` and a uniform phase, all independent.  This
is the law of the full simulation, not an approximation, drawn with about
eight scalars per trial instead of ``6n`` normals.  In the two-phase mode
the pilot observation enters the estimate only through
``s^H z_p ~ CN(0, s2 ||s||^2)``.  The full-vector simulation is kept in
the test suite as the reference the reduced sampler is checked against.

Reproducibility contract
------------------------
* trial ``i`` of a run with ``base_seed`` draws all of its randomness
  from streams ``derive_rng(base_seed, i, STREAM_*)``; a reduced-sampler
  trial uses the single stream ``derive_rng(base_seed, i, STREAM_TRIAL)``
  and draws, in this order:

  1. ``standard_normal(4)``: real and imaginary parts of ``z1``, then of
     ``z2``, in units of ``sqrt(s2 / 2)`` (``mc_sqrt_law``:
     ``standard_normal(2)`` for ``z1`` only);
  2. ``gamma(n - 2, s2)``: ``R`` (``mc_sqrt_law``: ``gamma(n - 1, s2)``,
     its last draw);
  3. ``beta(1, n - 1)``: ``|rho|^2``;
  4. ``random()``: the phase of ``rho`` as a fraction of a turn;
  5. two-phase mode only, ``standard_normal(2)``: real and imaginary
     parts of ``s^H z_p`` in units of ``sqrt(s2 ||s||^2 / 2)``;

* trials are processed in fixed chunks of :data:`CHUNK` regardless of
  ``threads``, and per-chunk results are reduced in chunk order,

so results are bit-identical for any worker count and a run split across
workers merges to exactly the serial answer.  Binomial tallies report
``sqrt(p (1-p) / trials)`` standard errors; mean estimates report the
sample standard deviation over trials divided by ``sqrt(trials)``.
Standard errors are reported as NaN below 100 trials, where a normal
confidence interval is not meaningful.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .channel import (STREAM_FADING_W, STREAM_NOISE, STREAM_TRIAL,
                      AttackParams, ChannelParams, Phase, PilotHypothesis,
                      SignalBlock, SystemConfig, _require, complex_normal,
                      derive_rng, make_pilot)
from .detection import (Conditioning, ErrorProbabilities,
                        analytic_error_probs, sqrt_law_bound, tau_dagger,
                        tau_eps)
from .pilot import (DENSE_PILOT_MAX_LEN, _estimator_coefficient,
                    _pilot_energy, kl_pilot_exact, mmse_estimate, mmse_limit,
                    pilot_covariances)

CHUNK = 512


@dataclass(frozen=True)
class McConfig:
    """Trial budget and seeding for one Monte Carlo run.

    ``n`` overrides the block length where relevant; when None it comes
    from the system configuration.
    """

    trials: int
    base_seed: int
    n: int | None = None

    def __post_init__(self):
        _require(self.trials >= 1, "trials must be >= 1")


@dataclass(frozen=True)
class McResult:
    point_estimate: float
    std_error: float
    trials_used: int
    analytic_reference: float | None = None


@dataclass(frozen=True)
class EstimatorErrorRow:
    """Mean-squared estimator error against the long-pilot limit, per pilot length."""

    l: int
    mse_clean: float
    mse_scaled: float


@dataclass(frozen=True)
class SqrtLawRow:
    n: int
    lambda_t: float
    p_f: float
    p_m: float
    one_minus_sum: float
    std_error: float
    bound: float
    bound_limit: float


def _std_error_binomial(p: float, trials: int) -> float:
    if trials < 100:
        return float("nan")
    return math.sqrt(p * (1 - p) / trials)


def _chunks(trials: int) -> list[range]:
    return [range(lo, min(lo + CHUNK, trials)) for lo in range(0, trials, CHUNK)]


def _run_chunked(trials: int, threads: int, worker: Callable[[range], object]) -> list:
    """Apply worker to fixed trial chunks; results come back in chunk order."""
    chunks = _chunks(trials)
    if threads <= 1 or len(chunks) == 1:
        return [worker(ch) for ch in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, chunks))


def mc_comm_error_probs(channel: ChannelParams, attack: AttackParams,
                        config: SystemConfig, mc: McConfig,
                        tau: float | None = None, threads: int = 1,
                        two_phase_pilot_len: int | None = None,
                        ) -> tuple[ErrorProbabilities, tuple[McResult, McResult]]:
    """Empirical communication-phase error probabilities by exact simulation.

    Default conditioning is the attack's intended chain: the pilot attack
    went undetected, the receiver cancels with the corrupted estimate
    ``h_hat = (1+eps) h_w``, and the threshold is ``tau(eps)``.  Each trial
    draws the radiometer statistic under both communication hypotheses
    with the reduced sampler of this module (sharing draws across the two,
    which leaves each marginal untouched), and tallies false alarms and
    missed detections.

    ``two_phase_pilot_len`` switches to a two-phase simulation: the
    estimation phase is re-simulated per trial at that finite pilot
    length, and the receiver's estimate and its threshold
    ``tau_dagger(h_hat)`` come from its own noisy pilot observation
    instead of the injected limit (one ``tau_dagger`` call per chunk,
    over the estimates of the chunk's trials).  The ``analytic_reference``
    of both results stays the injected-limit value at ``tau_eps`` in either
    mode, so in the two-phase mode it is a landmark, not the expectation
    of the estimate.
    """
    n = mc.n if mc.n is not None else config.block_len
    _require(n >= 2, "block length n must be >= 2")
    a_w = math.sqrt(channel.alpha_w_sq)
    s2 = channel.sigma_w_sq
    h = channel.h_w
    h_hat_limit = (1 + attack.epsilon) * h
    tau_fixed = tau if tau is not None else tau_eps(channel, attack)
    root_a = a_w * math.sqrt(n * config.lambda_a)
    d = a_w * h * math.sqrt(n * attack.lambda_t)
    sd = math.sqrt(s2 / 2)
    if two_phase_pilot_len is not None:
        energy = _pilot_energy(make_pilot(two_phase_pilot_len))
        weight = _estimator_coefficient(channel, energy)
        pilot_mean = a_w * h * (1 + attack.epsilon) * energy
        pilot_sd = math.sqrt(s2 * energy / 2)

    def draw(i: int) -> tuple:
        rng = derive_rng(mc.base_seed, i, STREAM_TRIAL)
        g = rng.standard_normal(4) * sd
        rest = rng.gamma(n - 2, s2)
        rho_sq = rng.beta(1, n - 1)
        angle = 2 * math.pi * rng.random()
        if two_phase_pilot_len is None:
            return g, rest, rho_sq, angle, h_hat_limit
        gp = rng.standard_normal(2) * pilot_sd
        return g, rest, rho_sq, angle, weight * (pilot_mean
                                                 + complex(gp[0], gp[1]))

    def worker(chunk: range) -> tuple[int, int]:
        trials = [draw(i) for i in chunk]
        if two_phase_pilot_len is None or tau is not None:
            thresholds = [tau_fixed] * len(trials)
        else:
            thresholds = tau_dagger(channel, [t[-1] for t in trials],
                                    attack.lambda_t, n).tolist()
        fa = md = 0
        for (g, rest, rho_sq, angle, h_hat), thr in zip(trials, thresholds):
            u = root_a * (h - h_hat) + complex(g[0], g[1])
            w = complex(g[2], g[3])
            rho = math.sqrt(rho_sq) * complex(math.cos(angle), math.sin(angle))
            t0 = (abs(u) ** 2 + abs(w) ** 2 + rest) / n
            t1 = (abs(u + d * rho) ** 2
                  + abs(w + d * math.sqrt(1 - rho_sq)) ** 2 + rest) / n
            fa += t0 > thr
            md += t1 < thr
        return fa, md

    parts = _run_chunked(mc.trials, threads, worker)
    fa = sum(p[0] for p in parts)
    md = sum(p[1] for p in parts)
    p_f, p_m = fa / mc.trials, md / mc.trials

    ref = analytic_error_probs(channel, attack, _with_block_len(config, n),
                               tau_fixed, Conditioning.H1_TRUE)
    probs = ErrorProbabilities(p_f, p_m)
    results = (McResult(p_f, _std_error_binomial(p_f, mc.trials), mc.trials, ref.p_f),
               McResult(p_m, _std_error_binomial(p_m, mc.trials), mc.trials, ref.p_m))
    return probs, results


def _with_block_len(config: SystemConfig, n: int) -> SystemConfig:
    return config if config.block_len == n else replace(config, block_len=n)


def mc_pilot_kl(channel: ChannelParams, attack: AttackParams, l: int,
                mc: McConfig, pilot_power: float = 1.0,
                threads: int = 1) -> McResult:
    """Estimate the pilot-phase divergence as an average log-likelihood ratio.

    The closed form :func:`~covertpilot.pilot.kl_pilot_exact` is the
    expectation of ``log(p_clean / p_scaled)`` under the clean-pilot
    observation law, so each trial draws a fading gain and noise, forms
    ``y = alpha_w h s + z``, and evaluates both Gaussian densities through
    dense Cholesky factorizations (pilot length capped at 256); no
    rank-one algebra is shared with the closed-form path.
    """
    _require(l <= DENSE_PILOT_MAX_LEN,
             f"dense density evaluation is limited to length {DENSE_PILOT_MAX_LEN}")
    pilot = make_pilot(l, pilot_power)
    covs = pilot_covariances(channel, attack, pilot)
    c0 = cho_factor(covs.sigma0, lower=True)
    c1 = cho_factor(covs.sigma1, lower=True)
    logdet0 = 2 * float(np.sum(np.log(np.diag(c0[0]).real)))
    logdet1 = 2 * float(np.sum(np.log(np.diag(c1[0]).real)))
    a_w = math.sqrt(channel.alpha_w_sq)

    def worker(chunk: range) -> np.ndarray:
        rows = np.empty((len(chunk), l), dtype=np.complex128)
        for k, i in enumerate(chunk):
            h = complex_normal(derive_rng(mc.base_seed, i, STREAM_FADING_W),
                               1, channel.sigma_h_sq)[0]
            z = complex_normal(derive_rng(mc.base_seed, i, STREAM_NOISE),
                               l, channel.sigma_w_sq)
            rows[k] = a_w * h * pilot.samples + z
        q0 = np.einsum("ij,ji->i", rows.conj(), cho_solve(c0, rows.T)).real
        q1 = np.einsum("ij,ji->i", rows.conj(), cho_solve(c1, rows.T)).real
        return (logdet1 - logdet0) + (q1 - q0)

    llr = np.concatenate(_run_chunked(mc.trials, threads, worker))
    point = float(np.mean(llr))
    se = float(np.std(llr, ddof=1) / math.sqrt(mc.trials)) if mc.trials >= 100 \
        else float("nan")
    return McResult(point, se, mc.trials,
                    kl_pilot_exact(channel, attack, pilot))


def mc_estimator_error(channel: ChannelParams, attack: AttackParams,
                       l_grid: Sequence[int], mc: McConfig,
                       pilot_power: float = 1.0) -> list[EstimatorErrorRow]:
    """Mean-squared distance of the finite-length estimate to its limit.

    For each pilot length, trials draw fresh noise and run the estimator
    on clean and scaled pilot observations (same noise for both), then
    average ``|h_hat(L) - h_hat_inf|^2`` against the respective limits.
    The noise term of the estimate has variance proportional to
    ``S / (1 + a S)^2 ~ 1/S``, so the MSE halves when the pilot energy
    doubles (log-log slope -1).
    """
    a_w = math.sqrt(channel.alpha_w_sq)
    lim0 = mmse_limit(channel, attack, PilotHypothesis.H0)
    lim1 = mmse_limit(channel, attack, PilotHypothesis.H1)
    rows = []
    for l in l_grid:
        pilot = make_pilot(int(l), pilot_power)
        err0 = np.empty(mc.trials)
        err1 = np.empty(mc.trials)
        for i in range(mc.trials):
            z = complex_normal(derive_rng(mc.base_seed, i, STREAM_NOISE),
                               int(l), channel.sigma_w_sq)
            y0 = a_w * channel.h_w * pilot.samples + z
            y1 = a_w * channel.h_w * (1 + attack.epsilon) * pilot.samples + z
            rec0 = SignalBlock(y0, Phase.ESTIMATION,
                               pilot_hypothesis=PilotHypothesis.H0)
            rec1 = SignalBlock(y1, Phase.ESTIMATION,
                               pilot_hypothesis=PilotHypothesis.H1)
            err0[i] = abs(mmse_estimate(channel, pilot, rec0).h_hat - lim0) ** 2
            err1[i] = abs(mmse_estimate(channel, pilot, rec1, attack).h_hat
                          - lim1) ** 2
        rows.append(EstimatorErrorRow(int(l), float(np.mean(err0)),
                                      float(np.mean(err1))))
    return rows


def mc_sqrt_law(channel: ChannelParams, config: SystemConfig, c: float,
                n_grid: Sequence[int], mc: McConfig,
                threads: int = 1) -> list[SqrtLawRow]:
    """Empirical detectability of a silent pilot attack at power c/sqrt(n).

    Per blocklength: simulate the optimal test with a perfect channel
    estimate (epsilon 0) by the reduced sampler, which needs only the
    noise component along ``x_t`` and the remainder's energy, and tally
    the error probabilities; the row also
    carries the square-root-law bound the empirical ``1 - P_F - P_M`` must
    stay under.  A power schedule decaying slower than 1/sqrt(n) sends the
    error sum to 0, faster sends it to 1, and exactly 1/sqrt(n) pins
    ``1 - P_F - P_M`` near a constant controlled by c.
    """
    _require(c > 0, "c must be > 0")
    a_w = math.sqrt(channel.alpha_w_sq)
    s2 = channel.sigma_w_sq
    sd = math.sqrt(s2 / 2)
    h = channel.h_w
    rows = []
    for n in n_grid:
        n = int(n)
        lt = c / math.sqrt(n)
        tau = tau_dagger(channel, h, lt, n)
        d = a_w * h * math.sqrt(n * lt)

        def worker(chunk: range) -> tuple[int, int]:
            # reduced sampler with x_t on the first axis: z1, then R
            fa = md = 0
            for i in chunk:
                rng = derive_rng(mc.base_seed, i, STREAM_TRIAL)
                g = rng.standard_normal(2) * sd
                rest = rng.gamma(n - 1, s2)
                z1 = complex(g[0], g[1])
                t0 = (abs(z1) ** 2 + rest) / n
                t1 = (abs(d + z1) ** 2 + rest) / n
                fa += t0 > tau
                md += t1 < tau
            return fa, md

        parts = _run_chunked(mc.trials, threads, worker)
        fa = sum(p[0] for p in parts)
        md = sum(p[1] for p in parts)
        p_f, p_m = fa / mc.trials, md / mc.trials
        se = math.hypot(_std_error_binomial(p_f, mc.trials),
                        _std_error_binomial(p_m, mc.trials))
        bound = sqrt_law_bound(channel, c, n)
        rows.append(SqrtLawRow(n=n, lambda_t=lt, p_f=p_f, p_m=p_m,
                               one_minus_sum=1 - p_f - p_m, std_error=se,
                               bound=bound.finite_n, bound_limit=bound.limit))
    return rows
