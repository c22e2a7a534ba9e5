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
two levels it becomes perfect.  Exact error probabilities follow from
``(2n/sigma_w^2) * (1/n)||z||^2 ~ chi2(2n)``.

All probabilities here are exact under the noise-only randomness model
(the residual and trojan terms enter as deterministic per-block powers);
the Monte Carlo module provides the independent simulation, whose exact
reduced-dimension sampler keeps the input-noise cross terms this model
leaves out.

Inputs may broadcast (array ``epsilon``/``lambda_t``, ``h_hat``, ``tau``);
a scalar call is the 0-d case of the same code and returns a float.
``expm1``, ``log2`` and ``|h|`` run through Python's ``math``/``abs`` per
element and squares through ``np.float_power`` (C ``pow``, as ``**``):
numpy's SIMD versions differ in the last bit, which would make a grid
cell's bytes differ from the scalar call's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc, gammaincc
from scipy.optimize import brentq

from .channel import (AttackParams, ChannelParams, ParameterError, SignalBlock,
                      SystemConfig, _require)


def _per_element(fn):
    """``fn`` applied to each element of a float, complex or array argument."""
    ufunc = np.frompyfunc(fn, 1, 1)

    def apply(x):
        y = ufunc(x)
        return y.astype(float) if isinstance(y, np.ndarray) else y

    return apply


_expm1 = _per_element(math.expm1)
_abs = _per_element(abs)
_log2 = _per_element(math.log2)


class RegimeError(ValueError):
    """Raised when a bound is requested outside the regime it applies to."""


class Conditioning(Enum):
    """Which estimation-phase outcome the communication-phase test is run under.

    ``H0_TRUE``: the pilot was clean, cancellation is perfect (residual 0).
    ``H1_TRUE``: the pilot was scaled but went undetected, so the receiver
    cancels with ``h_hat = (1+eps) h_w`` and a residual of power
    ``eps^2 alpha_w^2 |h_w|^2 lambda_a`` leaks into the statistic.
    """

    H0_TRUE = "h0_true"
    H1_TRUE = "h1_true"


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


@dataclass(frozen=True)
class RegimeClassification:
    regime: Regime
    delta_1_gap: float   # (lower level - tau) / sigma_w^2; > 0 iff BLIND_BELOW
    delta_2_gap: float   # (tau - upper level) / sigma_w^2; > 0 iff BLIND_ABOVE


class SqrtLawBound(NamedTuple):
    """Stirling-form bound on 1 - (P_F + P_M) and its large-n limit."""

    finite_n: float
    limit: float


def radiometer_statistic(received: SignalBlock | np.ndarray,
                         x_a: SignalBlock | np.ndarray,
                         h_hat: complex, channel: ChannelParams) -> float:
    """Residual power after cancelling the legitimate signal with h_hat."""
    y = received.samples if isinstance(received, SignalBlock) else np.asarray(received)
    x = x_a.samples if isinstance(x_a, SignalBlock) else np.asarray(x_a)
    _require(y.shape == x.shape and y.ndim == 1 and y.size >= 1,
             "received and x_a must be equal-length vectors")
    v = y - math.sqrt(channel.alpha_w_sq) * h_hat * x
    return float(np.mean(np.abs(v) ** 2))


def _threshold(b, x, s2):
    """``b e^x / (e^x - 1) = b / (1 - e^-x)``, extended to ``s2`` where ``b = 0``."""
    with np.errstate(invalid="ignore"):
        tau = np.divide(b, -_expm1(-x))
    return np.where(b > 0, tau, s2)[()]


def tau_dagger(channel: ChannelParams, h_hat: complex | np.ndarray,
               lambda_t: float, n: int) -> float | np.ndarray:
    """Optimal finite-n radiometer threshold for an assumed trojan power.

    ``lambda_t = 0`` returns ``sigma_w^2`` (continuous extension of the
    vanishing-power limit; the exact finite-n limit differs by a factor
    (n-1)/n, an O(1/n) distinction the asymptotic analysis ignores).
    """
    _require(n >= 2, "n must be >= 2")
    _require(lambda_t >= 0, "lambda_t must be >= 0")
    b = channel.alpha_w_sq * np.float_power(_abs(h_hat), 2) * lambda_t
    return _threshold(b, (n / (n - 1)) * b / channel.sigma_w_sq,
                      channel.sigma_w_sq)


def tau_eps(channel: ChannelParams, attack: AttackParams) -> float | np.ndarray:
    """Large-n threshold when the estimate was corrupted to (1+eps) h_w.

    ``b = (1+eps)^2 alpha_w^2 |h_w|^2 lambda_t`` and
    ``tau = b e^{b/s2} / (e^{b/s2} - 1)``; continuously extended to
    ``sigma_w^2`` at ``lambda_t = 0``.  Strictly increasing in both eps
    and lambda_t.  Raises :class:`ParameterError` when ``b`` is not a
    finite float.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.float_power(1 + attack.epsilon, 2) * channel.gain_w \
            * attack.lambda_t
    if not np.all(np.isfinite(b)):
        raise ParameterError("tau_eps needs a finite scaled trojan power "
                             "(1+eps)^2 alpha_w^2 |h_w|^2 lambda_t")
    return _threshold(b, b / channel.sigma_w_sq, channel.sigma_w_sq)


def residual_power(channel: ChannelParams, attack: AttackParams,
                   config: SystemConfig) -> float | np.ndarray:
    """Leakage power from imperfect cancellation: eps^2 alpha_w^2 |h_w|^2 lambda_a."""
    return np.float_power(attack.epsilon, 2) * channel.gain_w * config.lambda_a


def statistic_levels(channel: ChannelParams, attack: AttackParams,
                     config: SystemConfig) -> tuple:
    """(lower, upper): ``residual + sigma_w^2`` and ``residual + trojan
    power + sigma_w^2``, the statistic's limits with the trojan silent or
    transmitting under ``H1_TRUE`` conditioning."""
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
                         config: SystemConfig, tau: float | np.ndarray,
                         conditioning: Conditioning) -> ErrorProbabilities:
    """Exact radiometer error probabilities at threshold tau.

    Under the noise-only randomness model the statistic is
    ``residual (+ trojan power) + Lz`` with ``(2n/s2) Lz ~ chi2(2n)``, so

        P_F = Pr(Lz > tau - residual)
        P_M = Pr(Lz < tau - residual - alpha_w^2 |h_w|^2 lambda_t)

    where the residual is 0 under ``H0_TRUE`` conditioning and
    ``eps^2 alpha_w^2 |h_w|^2 lambda_a`` under ``H1_TRUE``.  Thresholds at
    or below the residual floor give P_F = 1 / P_M = 0 exactly.
    """
    _require(np.all(tau > 0), "tau must be > 0")
    n = config.block_len
    s2 = channel.sigma_w_sq
    res = residual_power(channel, attack, config) \
        if conditioning is Conditioning.H1_TRUE else 0.0
    gap_f = np.maximum(tau - res, 0.0)
    gap_m = np.maximum(tau - res - channel.gain_w * attack.lambda_t, 0.0)
    # P(chi2(2n) > 2n gap / s2) is the regularized upper gamma at n gap / s2
    return ErrorProbabilities(gammaincc(n, n * gap_f / s2),
                              gammainc(n, n * gap_m / s2))


def classify_regime(channel: ChannelParams, attack: AttackParams,
                    config: SystemConfig) -> RegimeClassification:
    """Place tau(eps) at one point relative to the two limiting statistic levels.

    A threshold below the lower level or above the upper one (see
    :func:`statistic_levels`) saturates the test (P_F + P_M -> 1);
    strictly in between the test becomes perfect (P_F + P_M -> 0).  Exact
    boundary hits are classified DETECTABLE with a zero gap and a warning,
    since the regime statements are strict.
    """
    _, d1, d2 = regime_gaps(channel, attack, config)
    if d1 > 0:
        regime = Regime.BLIND_BELOW
    elif d2 > 0:
        regime = Regime.BLIND_ABOVE
    else:
        regime = Regime.DETECTABLE
        if d1 == 0 or d2 == 0:
            warnings.warn("threshold sits exactly on a regime boundary; "
                          "classified detectable with zero gap", stacklevel=2)
    return RegimeClassification(regime, d1, d2)


def tail_bound_sum(channel: ChannelParams, attack: AttackParams,
                   config: SystemConfig) -> float:
    """Chi-square concentration bound on 1 - (P_F + P_M) in a blind regime.

    Below the lower level: ``exp(-n d1^2 / 2)``; above the upper level:
    ``exp(-n (1 + d2 - sqrt(1 + 2 d2)))``.  A zero gap returns the vacuous
    bound 1.  Raises :class:`RegimeError` strictly between the levels,
    where the sum tends to 0 and no such bound applies.
    """
    n = config.block_len
    cls = classify_regime(channel, attack, config)
    d1, d2 = cls.delta_1_gap, cls.delta_2_gap
    if d1 >= 0:
        return math.exp(-0.5 * n * d1 ** 2)
    if d2 >= 0:
        return math.exp(-n * (1 + d2 - math.sqrt(1 + 2 * d2)))
    raise RegimeError("tail bound applies only in the blind-test regimes")


def sqrt_law_bound(channel: ChannelParams, c: float, n: int) -> SqrtLawBound:
    """Bound on 1 - (P_F + P_M) for a silent pilot attack at power c/sqrt(n).

    With ``b = alpha_w^2 |h_w|^2 c / sqrt(n)`` the finite-n Stirling form is

        sqrt(n) b / (sqrt(2 pi) s2) * (1 + b/(2 s2))^n * exp(-n b / (2 s2))

    and its limit along fixed c is

        alpha_w^2 |h_w|^2 c / (sqrt(2 pi) s2)
            * exp(-alpha_w^4 |h_w|^4 c^2 / (8 s2^2)).

    The limit vanishes both as c -> 0 and c -> infinity; choosing c with
    limit <= delta_2 keeps the trojan covert at power Theta(1/sqrt(n)).
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
    s2 = channel.sigma_w_sq
    return channel.gain_w * c / (math.sqrt(2 * math.pi) * s2) \
        * math.exp(-(channel.gain_w * c) ** 2 / (8 * s2 ** 2))


def solve_sqrt_law_coefficient(channel: ChannelParams, target: float) -> float:
    """Smallest c > 0 whose limiting square-root-law bound equals target.

    The limit ``K c exp(-m c^2)`` peaks at ``c* = 1/sqrt(2m)``; targets at
    or above the peak value have no root on the rising branch and raise.
    """
    _require(0 < target < 1, "target must lie in (0, 1)")
    _require(channel.gain_w > 0, "needs a nonzero link gain")
    m = channel.gain_w ** 2 / (8 * channel.sigma_w_sq ** 2)
    c_peak = 1 / math.sqrt(2 * m)
    peak = _sqrt_law_limit(channel, c_peak)
    if target >= peak:
        raise ParameterError(f"target {target} is not below the peak bound {peak:.6g}")
    f = lambda c: _sqrt_law_limit(channel, c) - target
    return float(brentq(f, 1e-12 * c_peak, c_peak, rtol=8.9e-16))
