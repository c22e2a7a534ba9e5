"""Monte Carlo estimation of every analytic quantity in the package.

Each estimator is the cross-check for the corresponding closed form.
None simulates length-n vectors: each draws the few scalars its statistic
depends on, which gives the law of the full simulation exactly.  The pilot
estimators (``mc_pilot_kl``, ``mc_estimator_error``) need only ``s^H y``:
the two received-pilot covariances differ along the pilot alone, so both
the log-likelihood ratio and the MMSE estimate see ``y`` through that one
inner product, whose law depends on the unit-amplitude pilot of length
``L`` only through its energy ``S = L``.  No pilot vector is built, so
any pilot length costs the same.  The radiometer estimators
(``mc_comm_error_probs``, ``mc_sqrt_law``) use the reduced sampler below.

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
is the law of the full simulation, not an approximation, drawn from at most
nine uniforms per trial instead of ``6n`` normals.  In the two-phase mode
the pilot observation enters the estimate only through
``s^H z_p ~ CN(0, s2 ||s||^2)``.  The full-vector and dense-matrix
simulations are kept in the test suite as the references every estimator
is checked against.

Reproducibility contract
------------------------
* Every estimator draws from one counter-based stream per run:
  numpy's ``Philox`` seeded with ``SeedSequence(base_seed,
  spawn_key=(STREAM_TRIAL,))``, whose key is the two words that sequence's
  ``generate_state(2, np.uint64)`` gives.  Trial ``i`` owns the counter
  blocks ``[3i, 3i + 3)``, i.e. the twelve 64-bit words ``[12i, 12i + 12)``
  of that stream.  A run builds one generator and reads the stream once,
  in trial order, taking each chunk's words in one ``random_raw`` call.
* Each word ``w`` becomes the uniform ``((w >> 12) + 0.5) 2^-52``, which
  lies strictly inside (0, 1) and for which ``1 - u`` is exact.  Trial
  ``i``'s uniforms ``u[0..11]`` are mapped by inversion, as array code:

  - ``u[0], u[1]``: ``z1 = sqrt(-s2 log u[0]) exp(2 pi i u[1])``
    (Box-Muller);
  - ``u[2], u[3]``: ``z2``, the same way;
  - ``u[4]``: the remainder ``R ~ Gamma(k, scale s2)``, ``k = n - 2``:
    compared against the Gamma(k) CDF ``P(k, .)`` at each decision's
    boundary, the same event as inverting it; ``k = 0`` is ``R = 0``.  A run
    brackets ``P(k, .)`` between exact values on a grid of about
    ``sqrt(2 trials)`` points and evaluates it only for the decisions its
    bracket leaves open;
  - ``u[5]``: ``|rho|^2 = -expm1(log1p(-u[5]) / (n - 1))``, the inverse of
    the Beta(1, n - 1) distribution function;
  - ``u[6]``: the phase of ``rho`` as a fraction of a turn;
  - ``u[7], u[8]``: two-phase mode only, ``s^H z_p`` by Box-Muller with
    variance ``s2 ||s||^2``;
  - ``u[9..11]``: unused, held back so that the layout stays fixed.

  ``mc_sqrt_law``, the case ``c = 0``, restarts the stream at trial 0 for
  every block length.  The pilot estimators use the first words only:

  - ``mc_pilot_kl``: ``u[0]``, the modulus ``|s^H y|^2 = -v log u[0]`` of
    a Box-Muller draw of ``s^H y`` with ``v = (kappa_0 S + s2) S`` (its
    phase does not enter the likelihood ratio);
  - ``mc_estimator_error``: ``u[0], u[1]``, ``s^H z`` by Box-Muller with
    variance ``s2 S``, shared by both hypotheses; the stream restarts at
    trial 0 for every pilot length.
* The two-phase thresholds ``tau_dagger(h_hat)`` of each chunk take the
  terms of :func:`~covertpilot.detection.tau_dagger` and numpy's ``expm1``
  like the rest of the sampler; each agrees with a scalar ``tau_dagger``
  call to a few ulp, not bit for bit, and is the same for a trial whatever
  chunk it falls in.
* Trials run serially in chunks of at most :data:`CHUNK`, which bound the
  memory of a run and nothing else: tallies are integer sums and means are
  taken over the concatenated per-trial values, so the chunk size never
  changes a result,

so results depend only on the parameters and seed, trial ``i`` depends
only on ``(base_seed, i)``, and runs over disjoint trial ranges merge to
exactly the full run's answer.  Binomial tallies
report ``sqrt(p (1-p) / trials)`` standard errors; mean estimates report the
sample standard deviation over trials divided by ``sqrt(trials)``.
Standard errors are reported as NaN below 100 trials, where a normal
confidence interval is not meaningful.

Per-operating-point work
------------------------
Two parts of a radiometer run depend on its parameters alone, and each is
kept in a bounded ``functools.lru_cache`` of this module:

* the injected-limit reference, ``tau_eps`` and the noise-only
  ``analytic_error_probs`` at it, keyed on ``(channel, float(epsilon),
  float(lambda_t), config)`` with ``config.block_len = n``; at most 256
  operating points;
* the Gamma-CDF grid of every tally with a Gamma remainder, keyed on
  ``(shape, trials)``; at most 32 grids, whose arrays are read-only.

Value-equal keys give bit-identical values and an exception is never
cached, so no result depends on what the caches hold.  A module cache is
used because the same operating point recurs across calls that share no
object: seed batches and split-merge runs repeat it with other seeds or
trial ranges, and the test suite repeats the reference point.  Uncached,
the two take about 70 us, against 0.4-0.6 ms for a whole warm two-phase
call at ``n = 256`` (768 trials, pilot length 64) on a 2-core host.
An exact finite-n reference (0.17-0.5 ms per call, over the per-call
budget of a short run) belongs in the same cache.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .channel import (AttackParams, ChannelParams, SystemConfig, _abs2,
                      _require)
from .detection import (ErrorProbabilities, _dagger_terms, _threshold,
                        analytic_error_probs, sqrt_law_bound, tau_dagger,
                        tau_eps)
from .pilot import kl_pilot_exact, mmse_estimate, mmse_limit

# SeedSequence spawn key of every run's trial stream; fixed so that results
# are reproducible across versions.  Labels 0-3 and 5 belong to the
# full-vector reference simulation of the test suite.
STREAM_TRIAL = 6

CHUNK = 4096                              # trials per chunk: bounds memory only
BLOCKS_PER_TRIAL = 3                      # Philox counter blocks of one trial
WORDS_PER_TRIAL = 4 * BLOCKS_PER_TRIAL    # four 64-bit words per block


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
        _require(isinstance(self.trials, numbers.Integral) and self.trials >= 1,
                 "trials must be an integer >= 1")
        _require(isinstance(self.base_seed, numbers.Integral)
                 and self.base_seed >= 0, "base_seed must be an integer >= 0")
        _require(self.n is None or (isinstance(self.n, numbers.Integral)
                                    and self.n >= 2),
                 "n must be None or an integer >= 2")


@dataclass(frozen=True)
class McResult:
    point_estimate: float
    std_error: float
    trials_used: int
    analytic_reference: float


@dataclass(frozen=True)
class EstimatorErrorRow:
    """Mean-squared estimator error against the long-pilot limit, per pilot length."""

    l: int
    mse_clean: float
    mse_scaled: float


@dataclass(frozen=True)
class SqrtLawRow:
    """A row of :func:`mc_sqrt_law`, simulated under the exact law; ``bound``
    and ``bound_limit`` bound the paper's noise-only model only."""

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


def _uniforms(words: np.ndarray) -> np.ndarray:
    """``((w >> 12) + 0.5) 2^-52``: strictly inside (0, 1), with exact ``1 - u``."""
    return ((words >> np.uint64(12)) + 0.5) * 2.0 ** -52


def _complex_normal(u_mod: np.ndarray, u_arg: np.ndarray,
                    var: float) -> np.ndarray:
    """CN(0, var) by Box-Muller: ``|z|^2 = -var log u_mod``, phase ``2 pi u_arg``."""
    return np.sqrt(-var * np.log(u_mod)) * np.exp(2j * np.pi * u_arg)


def _unit_pilot_energy(pilot_len: int) -> float:
    """``S = ||s||^2 = L`` of the unit-amplitude pilot of length ``L``."""
    _require(isinstance(pilot_len, numbers.Integral) and pilot_len >= 1,
             "pilot_len must be an integer >= 1")
    _require(pilot_len <= sys.float_info.max,
             "pilot_len must be at most the largest double")
    return float(pilot_len)


def _per_chunk(base_seed: int, trials: int,
               fn: Callable[[np.ndarray], object]) -> list:
    """``fn`` of each chunk's uniforms, one row of WORDS_PER_TRIAL per trial.

    One generator reads the run's stream once, in trial order, so the rows
    handed to ``fn`` are the trials' own words whatever :data:`CHUNK` is.
    """
    bits = np.random.Philox(
        np.random.SeedSequence(base_seed, spawn_key=(STREAM_TRIAL,)))
    return [fn(_uniforms(bits.random_raw((min(CHUNK, trials - lo),
                                          WORDS_PER_TRIAL))))
            for lo in range(0, trials, CHUNK)]


@functools.lru_cache(maxsize=32)
def _gamma_cdf_grid(shape: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted abscissae for a run of ``trials`` and ``P(shape, .)`` on them.

    The ``m = math.isqrt(2 trials)`` abscissae are the Gamma(shape)
    quantiles ``P^-1(shape, i / (m + 1))``; the exact values come with 0
    and 1 appended at the ends, so that ``searchsorted`` index ``j`` of a
    point brackets its ``P`` between values ``j`` and ``j + 1``.  Both
    arrays are cached per ``(shape, trials)`` and read-only.
    """
    from scipy.special import gammainc, gammaincinv

    m = math.isqrt(2 * trials)
    grid = gammaincinv(shape, np.arange(1, m + 1) / (m + 1))
    cdf = np.concatenate([[0.0], gammainc(shape, grid), [1.0]])
    grid.flags.writeable = cdf.flags.writeable = False
    return grid, cdf


@functools.lru_cache(maxsize=256)
def _injected_limit_reference(channel: ChannelParams, epsilon: float,
                              lambda_t: float, config: SystemConfig
                              ) -> tuple[float, ErrorProbabilities]:
    """``tau_eps`` and the noise-only error probabilities at it, for ``n = config.block_len``.

    Cached per operating point; the attack enters as two floats, so that
    0-d arrays key as their values, while the channel and the configuration
    key as themselves, their fields stored as Python scalars.  Raises the
    named :class:`ParameterError` for a non-finite ``n tau / sigma_w^2``
    before any chi-square tail is evaluated.
    """
    attack = AttackParams(epsilon, lambda_t)
    tau = tau_eps(channel, attack)
    _require(math.isfinite(config.block_len * float(tau) / channel.sigma_w_sq),
             "the scaled threshold n tau / sigma_w^2 must be finite")
    return tau, analytic_error_probs(channel, attack, config, tau)


def _reduced_statistics(u: np.ndarray, c: complex | np.ndarray, d: complex,
                        n: int, s2: float) -> tuple[np.ndarray, np.ndarray]:
    """``n t0 - R`` and ``n t1 - R`` of a chunk from ``u[0..3], u[5], u[6]``,
    for the residual ``c`` (a scalar or one per trial) and the trojan ``d``."""
    z1 = _complex_normal(u[:, 0], u[:, 1], s2)
    z2 = _complex_normal(u[:, 2], u[:, 3], s2)
    log_q = np.log1p(-u[:, 5]) / (n - 1)          # log(1 - |rho|^2)
    rho = np.sqrt(-np.expm1(log_q)) * np.exp(2j * np.pi * u[:, 6])
    a = c + z1
    return (np.abs(a) ** 2 + np.abs(z2) ** 2,
            np.abs(a + d * rho) ** 2 + np.abs(z2 + d * np.exp(log_q / 2)) ** 2)


def _radiometer_tally(base_seed: int, trials: int, shape: int, s2: float,
                      statistics: Callable[[np.ndarray], tuple]
                      ) -> tuple[int, int]:
    """False alarms and misses of a radiometer run, reduced in chunk order.

    ``statistics`` maps one chunk's uniforms to ``(e0, e1, level)``: n times
    the statistic without and with the trojan, less ``R ~ Gamma(shape, scale
    s2)``, and n times the threshold(s).  The alarm ``e0 + R > level`` is
    ``u[4] > P(shape, max(level - e0, 0) / s2)``; the miss
    ``e1 + R < level`` is ``u[4] < P(shape, max(level - e1, 0) / s2)``.

    For ``shape >= 1``, ``P`` is bracketed on the cached
    :func:`_gamma_cdf_grid` of about ``sqrt(2 trials)`` points.  A decision
    whose ``u[4]`` lies outside its bracket by more than ``guard`` is settled
    by the bracket alone; the rest, about one in ``sqrt(2 trials)``, and
    every NaN boundary get the exact ``P``.  So each decision is the one the
    exact ``P`` gives, and the grid sets only how many decisions need it.
    """
    # lazy: the pilot estimators must not pay for importing scipy.special
    from scipy.special import gammainc

    # a hundred times the largest step down of gammainc(k, .) seen on dense
    # grids for k from 1 to 10^7: P stays within guard of its bracket even
    # where the computed CDF is not monotone in its last bits
    guard = 1e-13
    grid, cdf = _gamma_cdf_grid(shape, trials) if shape > 0 else (None, None)

    def tally(u: np.ndarray) -> tuple[int, int]:
        e0, e1, level = statistics(u)
        x0, x1 = level - e0, level - e1
        if shape == 0:                  # R = 0: a tie is neither
            return int(np.count_nonzero(x0 < 0)), int(np.count_nonzero(x1 > 0))
        u4 = u[:, 4]
        with np.errstate(over="ignore"):        # P(shape, inf) = 1 exactly
            y = np.maximum([x0, x1], 0) / s2
            # P(shape, y) lies in [cdf[j], cdf[j + 1]]; a settled decision
            # compares u[4] with the bracket's lower end
            j = np.searchsorted(grid, y)
            p = cdf[j]
            near = (u4 >= p - guard) & (u4 <= cdf[j + 1] + guard) | np.isnan(y)
            p[near] = gammainc(shape, y[near])
        return int(np.count_nonzero(u4 > p[0])), int(np.count_nonzero(u4 < p[1]))

    return tuple(map(sum, zip(*_per_chunk(base_seed, trials, tally))))


def mc_comm_error_probs(channel: ChannelParams, attack: AttackParams,
                        config: SystemConfig, mc: McConfig,
                        two_phase_pilot_len: int | None = None,
                        ) -> tuple[ErrorProbabilities, tuple[McResult, McResult]]:
    """Empirical communication-phase error probabilities by exact simulation.

    By default the run follows the attack's intended chain at its
    injected limit: the pilot attack went undetected, the receiver cancels
    with the corrupted estimate ``h_hat = (1+eps) h_w``, and the threshold
    is ``tau(eps)`` (``epsilon = 0`` is the clean pilot).  Each trial
    draws the radiometer statistic under both communication hypotheses
    with the reduced sampler of this module (sharing draws across the two,
    which leaves each marginal untouched), and tallies false alarms and
    missed detections.

    ``two_phase_pilot_len`` switches to a two-phase simulation: the
    estimation phase is re-simulated per trial at that finite pilot
    length, and the receiver's estimate and its threshold
    ``tau_dagger(h_hat)`` come from its own noisy pilot observation
    instead of the injected limit (``tau_dagger``'s terms over each
    chunk's estimates with numpy's ``expm1``, so within a few ulp of a
    scalar call); a pilot not shorter than the block draws a warning.
    The ``analytic_reference`` of both results stays the injected-limit
    value at ``tau_eps`` in either mode, so in the two-phase mode it is a
    landmark, not the expectation of the estimate.
    """
    n = mc.n if mc.n is not None else config.block_len
    _require(math.isfinite(n * channel.gain_w * attack.lambda_t
                           / channel.sigma_w_sq),
             "the scaled trojan energy n alpha_w^2 |h_w|^2 lambda_t / "
             "sigma_w^2 must be finite")
    if config.block_len != n:
        config = replace(config, block_len=n)
    tau_limit, ref = _injected_limit_reference(
        channel, float(attack.epsilon), float(attack.lambda_t), config)
    a_w = math.sqrt(channel.alpha_w_sq)
    s2 = channel.sigma_w_sq
    h = channel.h_w
    h_hat_limit = mmse_limit(channel, attack)
    root_a = a_w * math.sqrt(n * config.lambda_a)
    d = a_w * h * math.sqrt(n * attack.lambda_t)
    if two_phase_pilot_len is not None:
        energy = _unit_pilot_energy(two_phase_pilot_len)
        pilot_mean = a_w * h * (1 + attack.epsilon) * energy  # noiseless s^H y
        if two_phase_pilot_len >= n:
            warnings.warn("two_phase_pilot_len >= n: the pilot is supposed "
                          "to be short relative to the data block",
                          stacklevel=2)

    def statistics(u: np.ndarray) -> tuple:
        if two_phase_pilot_len is None:
            h_hat, thr = h_hat_limit, tau_limit
        else:
            h_hat = mmse_estimate(
                channel, energy, pilot_mean
                + _complex_normal(u[:, 7], u[:, 8], s2 * energy))
            thr = _threshold(*_dagger_terms(channel, h_hat, attack.lambda_t,
                                            n), np.expm1)
        return (*_reduced_statistics(u, root_a * (h - h_hat), d, n, s2),
                n * thr)

    fa, md = _radiometer_tally(mc.base_seed, mc.trials, n - 2, s2, statistics)
    p_f, p_m = fa / mc.trials, md / mc.trials
    probs = ErrorProbabilities(p_f, p_m)
    results = (McResult(p_f, _std_error_binomial(p_f, mc.trials), mc.trials, ref.p_f),
               McResult(p_m, _std_error_binomial(p_m, mc.trials), mc.trials, ref.p_m))
    return probs, results


def mc_pilot_kl(channel: ChannelParams, attack: AttackParams, l: int,
                mc: McConfig) -> McResult:
    """Estimate the pilot-phase divergence as an average log-likelihood ratio.

    The closed form :func:`~covertpilot.pilot.kl_pilot_exact` is the
    expectation of ``log(p_clean / p_scaled)`` under the clean-pilot
    observation law.  The two covariances differ only along the pilot, so
    the ratio depends on ``y`` only through ``s^H y``, which under a clean
    pilot is ``CN(0, (kappa_0 S + s2) S)`` with
    ``kappa_k = alpha_w^2 sigma_h^2 (1+eps)^{2k}``.  Drawing it by
    Box-Muller from ``u[0]`` gives, per trial,

        LLR = log1p(S (kappa_1 - kappa_0) / (s2 + kappa_0 S)) + q log u[0],
        q = S (kappa_1 - kappa_0) / (s2 + kappa_1 S).

    This shares the rank-one algebra of the closed form, so its independent
    check is the dense-matrix likelihood ratio of full pilot vectors in the
    test suite.
    """
    S = _unit_pilot_energy(l)
    reference = kl_pilot_exact(channel, attack, S)  # rejects huge eps
    s2 = channel.sigma_w_sq
    kappa0 = channel.alpha_w_sq * channel.sigma_h_sq
    kappa1 = kappa0 * ((1 + attack.epsilon) * (1 + attack.epsilon))
    gap = S * kappa0 * attack.epsilon * (2 + attack.epsilon)  # S (kappa1 - kappa0)
    logdet = math.log1p(gap / (s2 + kappa0 * S))
    den = s2 + kappa1 * S
    _require(math.isfinite(den), "mc_pilot_kl needs a finite alpha_w^2 "
             "sigma_h^2 (1+eps)^2 S + sigma_w^2; epsilon is too large")
    q = gap / den

    llr = np.concatenate(_per_chunk(mc.base_seed, mc.trials,
                                    lambda u: logdet + q * np.log(u[:, 0])))
    point = float(np.mean(llr))
    se = float(np.std(llr, ddof=1) / math.sqrt(mc.trials)) if mc.trials >= 100 \
        else float("nan")
    return McResult(point, se, mc.trials, reference)


def mc_estimator_error(channel: ChannelParams, attack: AttackParams,
                       l_grid: Sequence[int], mc: McConfig,
                       ) -> list[EstimatorErrorRow]:
    """Mean-squared distance of the finite-length estimate to its limit.

    For each pilot length, trials draw fresh noise and run the estimator
    on clean and scaled pilot observations (same noise for both), then
    average ``|h_hat(L) - h_hat_inf|^2`` against the respective limits.
    The estimate ``c s^H y`` sees the noise only through
    ``s^H z ~ CN(0, s2 S)``, drawn by Box-Muller from ``u[0], u[1]``; every
    pilot length restarts the stream at trial 0.  The noise term of the
    estimate has variance proportional to ``S / (1 + a S)^2 ~ 1/S``, so the
    MSE halves when the pilot energy doubles (log-log slope -1).
    """
    a_w = math.sqrt(channel.alpha_w_sq)
    lim0 = channel.h_w
    lim1 = mmse_limit(channel, attack)
    _require(math.isfinite(_abs2(lim1)),
             "|(1+eps) h_w|^2 must be finite; epsilon is too large")
    rows = []
    for l in l_grid:
        energy = _unit_pilot_energy(l)

        def errors(u: np.ndarray) -> np.ndarray:
            noise = _complex_normal(u[:, 0], u[:, 1],
                                    channel.sigma_w_sq * energy)
            return np.stack([
                np.abs(mmse_estimate(channel, energy,
                                     a_w * channel.h_w * scale * energy + noise)
                       - lim) ** 2
                for scale, lim in ((1.0, lim0), (1 + attack.epsilon, lim1))])

        err = np.concatenate(_per_chunk(mc.base_seed, mc.trials, errors),
                             axis=1)
        rows.append(EstimatorErrorRow(int(l), float(np.mean(err[0])),
                                      float(np.mean(err[1]))))
    return rows


def mc_sqrt_law(channel: ChannelParams, c: float, n_grid: Sequence[int],
                mc: McConfig) -> list[SqrtLawRow]:
    """Empirical detectability of a silent pilot attack at power c/sqrt(n).

    Per blocklength: simulate the optimal test with a perfect channel
    estimate (epsilon 0), the reduced sampler of :func:`mc_comm_error_probs`
    with no residual (``c = 0``) at the threshold ``tau_dagger(h_w)``, and
    tally the error probabilities.  A power schedule decaying slower than
    1/sqrt(n) sends the error sum to 0, faster sends it to 1, and exactly
    1/sqrt(n) pins ``1 - P_F - P_M`` near a constant controlled by c.
    Each row also carries the square-root-law bound of the noise-only
    model, which the exact law simulated here breaks at a large trojan
    SNR: ``mc --target sqrtlaw --trials 2000 --sigma-w-sq=1e-20 --c=0.25``
    reads ``one_minus_sum`` 0.4755 against ``bound`` 0.0.
    """
    _require(c > 0, "c must be > 0")
    a_w = math.sqrt(channel.alpha_w_sq)
    s2 = channel.sigma_w_sq
    h = channel.h_w
    rows = []
    for n in n_grid:
        _require(isinstance(n, numbers.Integral),
                 f"block lengths must be integers, got n = {n!r}")
        n = int(n)
        bound = sqrt_law_bound(channel, c, n)    # rejects c and n before drawing
        lt = c / math.sqrt(n)
        level = n * float(tau_dagger(channel, h, lt, n))
        d = a_w * h * math.sqrt(n * lt)
        # the spread of n t1 about its mean: below the resolution of n tau
        # every miss decision is a rounding tie
        spread = math.hypot(abs(d) * math.sqrt(2 * s2), math.sqrt(n) * s2)
        _require(level + spread > level, "mc_sqrt_law needs the noise "
                 "spread sqrt(2 |d|^2 sigma_w^2 + n sigma_w^4) of n t1 above "
                 "the double-precision resolution of n tau")
        fa, md = _radiometer_tally(
            mc.base_seed, mc.trials, n - 2, s2,
            lambda u: (*_reduced_statistics(u, 0.0, d, n, s2), level))
        p_f, p_m = fa / mc.trials, md / mc.trials
        se = math.hypot(_std_error_binomial(p_f, mc.trials),
                        _std_error_binomial(p_m, mc.trials))
        rows.append(SqrtLawRow(n=n, lambda_t=lt, p_f=p_f, p_m=p_m, std_error=se,
                               one_minus_sum=(mc.trials - fa - md) / mc.trials,
                               bound=bound.finite_n, bound_limit=bound.limit))
    return rows
