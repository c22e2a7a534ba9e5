"""Communication-phase detection: radiometer, optimal threshold, error probabilities.

After decoding and cancelling the legitimate signal with its channel
estimate ``h_hat``, the monitoring receiver applies an energy test to the
residual,

    T(y) = (1/n) ||y - alpha_w h_hat x_a||^2   >< tau,

deciding "trojan transmitting" above the threshold.  The threshold
minimizing false-alarm plus missed-detection is

    tau_dagger = b * e^x / (e^x - 1),  x = (n/(n-1)) * b / sigma_w^2,
    b = alpha_w^2 |h_hat|^2 lambda_t,

whose large-n limit ``tau(eps)`` (with ``h_hat = (1+eps) h_w``) drives the
regime classification: if ``tau(eps)`` falls below the residual-plus-noise
floor (or above the floor plus the trojan's received power) the test
saturates and performs no better than a blind test; strictly between the
two levels it becomes perfect.

The error probabilities follow the paper's noise-only approximation: the
residual and trojan terms enter as deterministic per-block powers and
only the noise power is random, ``(2n/sigma_w^2) * (1/n)||z||^2 ~
chi2(2n)``.  It is an approximation, not the exact law: it leaves out the
cross terms of the noise with the inputs, which the Monte Carlo module's
exact reduced-dimension sampler keeps.  At the reference point
``(eps, lambda_t) = (0.1, 0.3)``, ``n = 10^4`` the model gives
``P_F + P_M = 0.7742`` where the simulation measures 0.7387.

Inputs may broadcast (array ``epsilon``/``lambda_t``, ``h_hat``, ``tau``);
a scalar call is the 0-d case of the same code and returns a float.
The analytic core's byte contract is that a grid cell equals the scalar
call at its point, bit for bit.  So ``expm1`` and ``log2`` run through
Python's ``math`` per element, since numpy's SIMD ``expm1`` and ``log2``
differ in the last bit; every square is a product, ``|h|^2`` being
``Re^2 + Im^2``, which rounds alike in Python and numpy.  The Monte Carlo
sampler, which has no such contract, thresholds with numpy's ``expm1``
instead.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .channel import (AttackParams, ChannelParams, ParameterError,
                      SystemConfig, _abs2, _require)


def _per_element(fn):
    """``fn`` of each element: a float for a scalar or 0-d array, else a float array."""

    def apply(x):
        if not isinstance(x, np.ndarray) or x.ndim == 0:
            return fn(x)
        return np.fromiter(map(fn, x.ravel().tolist()), float,
                           x.size).reshape(x.shape)

    return apply


_expm1 = _per_element(math.expm1)
_log2 = _per_element(math.log2)
_TINY = sys.float_info.min      # the smallest normal double


class Regime(Enum):
    BLIND_BELOW = "blind_below"      # threshold under both statistic levels
    BLIND_ABOVE = "blind_above"      # threshold above both statistic levels
    DETECTABLE = "detectable"        # threshold strictly between the levels


@dataclass(frozen=True)
class ErrorProbabilities:
    p_f: float | np.ndarray
    p_m: float | np.ndarray

    def __post_init__(self):
        _require(np.all((0 <= self.p_f) & (self.p_f <= 1)
                        & (0 <= self.p_m) & (self.p_m <= 1)),
                 "probabilities must lie in [0, 1]")

    @property
    def sum(self) -> float | np.ndarray:
        return self.p_f + self.p_m


class SqrtLawBound(NamedTuple):
    """Stirling-form bound on 1 - (P_F + P_M) and its large-n limit."""

    finite_n: float
    limit: float


def _threshold(b, x, at_zero, expm1=_expm1):
    """``b e^x / (e^x - 1) = b / (1 - e^-x)``, extended to ``at_zero`` where ``b = 0``.

    ``at_zero`` is ``b / x``, the limit as ``b -> 0+``.  Where ``b`` or
    ``x`` is subnormal or 0, ``x`` has lost the precision that ``b / x``
    needs, so there the threshold is ``at_zero * x / (1 - e^-x)``, whose
    factor ``x / (1 - e^-x)`` is 1 for every ``x`` below about 1e-16 (and
    is taken as 1 where ``x = 0`` makes it 0/0).  ``b`` and ``x`` are taken
    as float arrays, so a scalar ``b = 0`` divides as numpy does.
    ``expm1`` is the only difference between the analytic threshold and
    the sampler's: it defaults to the per-element ``math.expm1``, and the
    two-phase Monte Carlo run passes ``np.expm1``.
    """
    b, x = np.asarray(b, float), np.asarray(x, float)
    den = -expm1(-x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.minimum(b, x) < _TINY,
                        at_zero * np.fmax(x / den, 1.0), b / den)[()]


def _dagger_terms(channel: ChannelParams, h_hat: complex | np.ndarray,
                  lambda_t: float, n: int) -> tuple:
    """``(b, x, at_zero)`` of :func:`_threshold` for :func:`tau_dagger`.

    ``b = alpha_w^2 |h_hat|^2 lambda_t``, ``x = (n/(n-1)) b / sigma_w^2``
    and ``at_zero = (n-1)/n sigma_w^2``.  Raises :class:`ParameterError`
    when ``b`` is not a finite float.
    """
    _require(n >= 2, "n must be >= 2")
    _require(lambda_t >= 0, "lambda_t must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        b = channel.alpha_w_sq * _abs2(h_hat) * lambda_t
    _require(np.all(np.isfinite(b)), "tau_dagger needs a finite scaled "
             "trojan power alpha_w^2 |h_hat|^2 lambda_t")
    return (b, (n / (n - 1)) * b / channel.sigma_w_sq,
            (n - 1) / n * channel.sigma_w_sq)


def tau_dagger(channel: ChannelParams, h_hat: complex | np.ndarray,
               lambda_t: float, n: int) -> float | np.ndarray:
    """Optimal finite-n radiometer threshold for an assumed trojan power.

    ``b = alpha_w^2 |h_hat|^2 lambda_t = 0`` returns ``(n-1)/n sigma_w^2``,
    the limit as ``b -> 0+``, and so does every ``b`` small enough.
    Raises :class:`ParameterError` when ``b`` is not a finite float.
    """
    return _threshold(*_dagger_terms(channel, h_hat, lambda_t, n))


def tau_eps(channel: ChannelParams, attack: AttackParams) -> float | np.ndarray:
    """Large-n threshold when the estimate was corrupted to (1+eps) h_w.

    ``b = (1+eps)^2 alpha_w^2 |h_w|^2 lambda_t`` and
    ``tau = b e^{b/s2} / (e^{b/s2} - 1)``; continuously extended to
    ``sigma_w^2`` at ``lambda_t = 0``.  Strictly increasing in both eps
    and lambda_t.  Raises :class:`ParameterError` when ``b`` or
    ``b / sigma_w^2`` is not a finite float.
    """
    scale = 1 + attack.epsilon
    with np.errstate(over="ignore", invalid="ignore"):
        b = scale * scale * channel.gain_w * attack.lambda_t
        snr = b / channel.sigma_w_sq
    _require(np.all(np.isfinite(b)), "tau_eps needs a finite scaled trojan "
             "power (1+eps)^2 alpha_w^2 |h_w|^2 lambda_t")
    _require(np.all(np.isfinite(snr)), "tau_eps needs a finite trojan SNR "
             "(1+eps)^2 alpha_w^2 |h_w|^2 lambda_t / sigma_w^2")
    return _threshold(b, snr, channel.sigma_w_sq)


def residual_power(channel: ChannelParams, attack: AttackParams,
                   config: SystemConfig) -> float | np.ndarray:
    """Leakage power from imperfect cancellation: eps^2 alpha_w^2 |h_w|^2 lambda_a."""
    return attack.epsilon * attack.epsilon * channel.gain_w * config.lambda_a


def statistic_levels(channel: ChannelParams, attack: AttackParams,
                     config: SystemConfig) -> tuple:
    """(lower, upper): ``residual + sigma_w^2`` and ``residual + trojan
    power + sigma_w^2``, the statistic's limits with the trojan silent or
    transmitting after cancelling with the corrupted estimate."""
    res = residual_power(channel, attack, config)
    return (res + channel.sigma_w_sq,
            res + channel.gain_w * attack.lambda_t + channel.sigma_w_sq)


def regime_gaps(channel: ChannelParams, attack: AttackParams,
                config: SystemConfig) -> tuple:
    """(tau(eps), d1, d2): ``d1 = (lower - tau) / sigma_w^2`` > 0 iff blind
    below, ``d2 = (tau - upper) / sigma_w^2`` > 0 iff blind above."""
    s2 = channel.sigma_w_sq
    tau = tau_eps(channel, attack)
    lower, upper = statistic_levels(channel, attack, config)
    return tau, (lower - tau) / s2, (tau - upper) / s2


def analytic_error_probs(channel: ChannelParams, attack: AttackParams,
                         config: SystemConfig,
                         tau: float | np.ndarray) -> ErrorProbabilities:
    """Radiometer error probabilities at threshold tau, noise-only model.

    The paper's approximation treats the statistic as
    ``residual (+ trojan power) + Lz`` with ``(2n/s2) Lz ~ chi2(2n)``, so

        P_F = Pr(Lz > tau - residual)
        P_M = Pr(Lz < tau - residual - alpha_w^2 |h_w|^2 lambda_t)

    with the cancellation residual ``eps^2 alpha_w^2 |h_w|^2 lambda_a``
    (exactly 0 for a clean pilot, eps = 0).  Thresholds at or below the
    residual floor give P_F = 1 / P_M = 0 exactly.  The value holds for
    this noise-only model, not for the exact law: the model leaves out
    the cross terms of the noise with the residual and with the trojan's
    signal, so only P_F at eps = 0 is exact; the simulation of
    :mod:`~covertpilot.montecarlo` keeps those terms.
    """
    # lazy: `rate` and `sweep` must not pay for importing scipy.special
    from scipy.special import gammainc, gammaincc

    _require(np.all(tau > 0), "tau must be > 0")
    n = config.block_len
    s2 = channel.sigma_w_sq
    res = residual_power(channel, attack, config)
    gap_f = np.maximum(tau - res, 0.0)
    gap_m = np.maximum(tau - res - channel.gain_w * attack.lambda_t, 0.0)
    # P(chi2(2n) > 2n gap / s2) is the regularized upper gamma at n gap / s2
    return ErrorProbabilities(gammaincc(n, n * gap_f / s2),
                              gammainc(n, n * gap_m / s2))


def classify_regime(channel: ChannelParams, attack: AttackParams,
                    config: SystemConfig) -> Regime:
    """Place tau(eps) at one point relative to the two limiting statistic levels.

    A threshold below the lower level or above the upper one (see
    :func:`statistic_levels`) saturates the test (P_F + P_M -> 1);
    strictly in between the test becomes perfect (P_F + P_M -> 0).  Exact
    boundary hits are classified DETECTABLE with a warning, since the
    regime statements are strict.  :func:`regime_gaps` gives the two gaps.
    """
    _, d1, d2 = regime_gaps(channel, attack, config)
    if d1 > 0:
        return Regime.BLIND_BELOW
    if d2 > 0:
        return Regime.BLIND_ABOVE
    if d1 == 0 or d2 == 0:
        warnings.warn("threshold sits exactly on a regime boundary; "
                      "classified detectable with zero gap", stacklevel=2)
    return Regime.DETECTABLE


def tail_bound_sum(channel: ChannelParams, attack: AttackParams,
                   config: SystemConfig) -> float:
    """Chi-square concentration bound on 1 - (P_F + P_M) in a blind regime.

    Below the lower level: ``exp(-n d1^2 / 2)``; above the upper level:
    ``exp(-n (1 + d2 - sqrt(1 + 2 d2)))``, with the gaps of
    :func:`regime_gaps`.  The bound holds for the paper's noise-only model
    (see :func:`analytic_error_probs`), not for the exact law.  A zero gap
    returns the vacuous bound 1.  Raises :class:`ParameterError` strictly
    between the levels, where the sum tends to 0 and no such bound applies.
    """
    n = config.block_len
    _, d1, d2 = regime_gaps(channel, attack, config)
    if d1 >= 0:
        return math.exp(-0.5 * n * (d1 * d1))
    if d2 >= 0:
        return math.exp(-n * (1 + d2 - math.sqrt(1 + 2 * d2)))
    raise ParameterError("tail bound applies only in the blind-test regimes")


def sqrt_law_bound(channel: ChannelParams, c: float, n: int) -> SqrtLawBound:
    """Bound on 1 - (P_F + P_M) for a silent pilot attack at power c/sqrt(n).

    With ``b = alpha_w^2 |h_w|^2 c / sqrt(n)`` the finite-n Stirling form is

        sqrt(n) b / (sqrt(2 pi) s2) * (1 + b/(2 s2))^n * exp(-n b / (2 s2))

    and its limit along fixed c, with ``u = alpha_w^2 |h_w|^2 c / (2 s2)``, is

        sqrt(2/pi) u exp(-u^2/2).

    The limit vanishes both as c -> 0 and c -> infinity; choosing c with
    limit <= delta_2 keeps the trojan covert at power Theta(1/sqrt(n)).
    Both values bound the noise-only model of :func:`analytic_error_probs`,
    not the exact law simulated by :func:`~covertpilot.montecarlo.mc_sqrt_law`.
    """
    _require(c > 0, "c must be > 0")
    _require(n >= 2, "n must be >= 2")
    s2 = channel.sigma_w_sq
    b = channel.gain_w * c / math.sqrt(n)
    u = b / (2 * s2)
    finite = math.sqrt(n) * b / (math.sqrt(2 * math.pi) * s2) \
        * math.exp(n * (math.log1p(u) - u))
    return SqrtLawBound(finite, _sqrt_law_limit(channel, c))


def _sqrt_law_limit(channel: ChannelParams, c: float) -> float:
    u = channel.gain_w * c / (2 * channel.sigma_w_sq)
    _require(math.isfinite(u), "the square-root-law limit needs a finite "
             "u = alpha_w^2 |h_w|^2 c / (2 sigma_w^2); c is too large")
    return math.sqrt(2 / math.pi) * u * math.exp(-u * u / 2)


def solve_sqrt_law_coefficient(channel: ChannelParams, target: float) -> float:
    """Smallest c > 0 whose limiting square-root-law bound equals target.

    With ``u = alpha_w^2 |h_w|^2 c / (2 sigma_w^2)`` the limit is
    ``sqrt(2/pi) u exp(-u^2/2)``, which rises to the channel-free peak
    ``sqrt(2/(pi e))`` at ``u = 1``; targets at or above it raise.  Below
    it the rising branch is met in closed form by the principal Lambert W,

        c = sqrt(2 pi) sigma_w^2 target / (alpha_w^2 |h_w|^2)
            * exp(-W0(-pi target^2 / 2) / 2),

    which squares no c, and whose factor after ``target`` tends to 1 as
    the target tends to 0, where ``target^2`` may underflow harmlessly.
    """
    # lazy: `rate` and `sweep` must not pay for importing scipy.special
    from scipy.special import lambertw

    _require(0 < target < 1, "target must lie in (0, 1)")
    _require(channel.gain_w > 0, "needs a nonzero link gain")
    peak = math.sqrt(2 / (math.pi * math.e))
    # near the peak -pi target^2 / 2 may round onto -1/e (W0 NaN) or past it
    w = lambertw(-math.pi * (target * target) / 2)
    if not (target < peak and w.imag == 0):
        raise ParameterError(f"target {target} is not below the peak bound {peak:.6g}")
    c = math.sqrt(2 * math.pi) * channel.sigma_w_sq * target / channel.gain_w \
        * math.exp(-w.real / 2)
    _require(0 < c < math.inf, f"target {target} needs a finite c > 0")
    return c
