"""Estimation-phase analysis: pilot-scaling covertness and the corrupted MMSE estimate.

With the fading gain marginalized, the received pilot vector is a
zero-mean complex Gaussian whose covariance is a rank-one update of the
identity,

    Sigma_0 = alpha_w^2 sigma_h^2 s s^H + sigma_w^2 I          (clean pilot)
    Sigma_1 = alpha_w^2 sigma_h^2 (1+eps)^2 s s^H + sigma_w^2 I (scaled pilot)

so the divergence between the two hypotheses and the linear-MMSE channel
estimate both reduce to scalar closed forms in ``||s||^2``, exact for any
pilot length.  The dense L x L covariances exist only in the test suite,
as the oracle these closed forms and the Monte Carlo estimators are
checked against.

Pilots and received pilot blocks are 1-d complex arrays.  Whether a block
was scaled is not tagged on it: the attack parameters passed along say so,
and :func:`mmse_estimate` without them (or with ``epsilon = 0``) treats the
pilot as clean.

Units: divergences are in nats; rates elsewhere in the package are in
bits/channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (AttackParams, ChannelParams, ParameterError,
                      PilotHypothesis, _require)


@dataclass(frozen=True)
class EstimateReport:
    """MMSE channel estimate and its noise-free decomposition.

    ``bias_factor`` is the real multiplier of the true gain in the
    noiseless part of the estimate; it tends to 1 under the clean-pilot
    hypothesis and to ``1 + eps`` under the scaled one as ``||s||^2``
    grows.
    """

    h_hat: complex
    bias_factor: float


@dataclass(frozen=True)
class CovertnessMargin:
    covert: bool
    kl_bound: float


def _square(x: float) -> float:
    """``x ** 2`` by libm ``pow`` (as ``**``), but inf on overflow."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _pilot_energy(pilot: np.ndarray) -> float:
    _require(np.ndim(pilot) == 1 and np.size(pilot) >= 1,
             "pilot must be a nonempty 1-d vector")
    return float(np.vdot(pilot, pilot).real)


def kl_pilot_exact(channel: ChannelParams, attack: AttackParams,
                   pilot: np.ndarray) -> float:
    """Divergence (nats) between the two pilot hypotheses at finite length.

    Evaluates ``-log|Sigma_1^{-1} Sigma_0| - L + tr(Sigma_1^{-1} Sigma_0)``
    through the rank-one closed forms: with ``a = alpha_w^2 sigma_h^2 /
    sigma_w^2`` and ``S = ||s||^2``, both the log-determinant and trace
    corrections equal

        q = a * eps * (2 + eps) * S / (1 + a * (1+eps)^2 * S)

    so the divergence is ``-log(1 - q) - q``.  No L x L matrix is ever
    built; exact for any pilot length.  Where ``1 - q`` drowns in the
    rounding of ``q`` (eps from about 1e5 on the reference channel) the
    log-determinant is taken directly, ``log1p(a (1+eps)^2 S) - log1p(a S)
    - q``; only an eps for which ``a (1+eps)^2 S`` overflows raises
    :class:`ParameterError`.
    """
    _require(attack.epsilon >= 0, "epsilon must be >= 0")
    S = _pilot_energy(pilot)
    a = channel.alpha_w_sq * channel.sigma_h_sq / channel.sigma_w_sq
    eps = attack.epsilon
    scaled = a * _square(1 + eps) * S
    den = 1 + scaled
    q = a * eps * (2 + eps) * S / den
    if math.isclose(1 - q, (1 + a * S) / den, rel_tol=1e-6):
        return -math.log1p(-q) - q
    kl = math.log1p(scaled) - math.log1p(a * S) - q
    _require(math.isfinite(kl),
             "kl_pilot_exact needs a finite a (1+eps)^2 S to resolve "
             "1 - q = (1 + a S) / (1 + a (1+eps)^2 S); epsilon is too large")
    return kl


def kl_pilot_limit(epsilon: float) -> float:
    """Long-pilot limit of :func:`kl_pilot_exact`, in nats.

    Equals ``2 log(1+eps) - 1 + (1+eps)^{-2}`` and is at most ``2 eps^2``
    for all eps >= 0 (the covertness bound).  ``1 - (1+eps)^{-2}`` is
    evaluated as ``eps (2+eps) / (1+eps)^2``, which does not cancel near 0;
    where ``(1+eps)^2`` overflows that fraction is 1 to double precision.
    """
    if epsilon < 0:
        raise ParameterError("epsilon must be >= 0")
    den = _square(1 + epsilon)
    frac = epsilon * (2 + epsilon) / den if math.isfinite(den) else 1.0
    return 2 * math.log1p(epsilon) - frac


def covertness_margin(epsilon: float, delta_1: float) -> CovertnessMargin:
    """Estimation-phase covertness test: eps <= delta_1 / sqrt(2).

    ``kl_bound = 2 eps^2`` dominates the limiting divergence, so the
    condition keeps the detector within ``delta_1`` of a blind test.
    With ``delta_1 = 0`` only ``epsilon = 0`` is covert.
    """
    _require(0 <= delta_1 < 1, "delta_1 must lie in [0, 1)")
    _require(epsilon >= 0, "epsilon must be >= 0")
    kl_bound = 2 * _square(epsilon)
    _require(math.isfinite(kl_bound), "kl_bound = 2 eps^2 must be finite")
    if kl_pilot_limit(epsilon) > kl_bound + 1e-15:
        raise ArithmeticError(f"kl_pilot_limit({epsilon!r}) exceeds 2 eps^2")
    return CovertnessMargin(covert=epsilon <= delta_1 / math.sqrt(2),
                            kl_bound=kl_bound)


def _estimator_coefficient(channel: ChannelParams, pilot_energy: float) -> float:
    """Scalar c with h_hat = c * s^H y (the linear-MMSE weight)."""
    num = math.sqrt(channel.alpha_w_sq) * channel.sigma_h_sq
    den = channel.sigma_w_sq + channel.alpha_w_sq * channel.sigma_h_sq * pilot_energy
    return num / den


def mmse_estimate(channel: ChannelParams, pilot: np.ndarray,
                  received: np.ndarray,
                  attack: AttackParams | None = None) -> EstimateReport:
    """MMSE estimate of the fading gain from a received pilot block.

    The estimator is built under the clean-pilot model (the receiver is
    unaware of any scaling), so when the received block was actually
    scaled the estimate is biased toward ``(1+eps) h_w``:

        h_hat = c s^H y,   noiseless part = (1 + eps) g h_w,
        g = a S / (1 + a S),  a = alpha_w^2 sigma_h^2 / sigma_w^2.

    ``pilot`` and ``received`` are 1-d arrays of equal length.  ``attack``
    supplies the eps of a scaled pilot for the bias decomposition;
    ``None`` means the pilot was clean (eps = 0).
    """
    S = _pilot_energy(pilot)
    received = np.asarray(received)
    _require(received.ndim == 1 and received.size == len(pilot),
             "received must be a 1-d block of the pilot's length")
    c = _estimator_coefficient(channel, S)
    h_hat = complex(c * np.vdot(pilot, received))
    eps = 0.0 if attack is None else attack.epsilon
    a = channel.alpha_w_sq * channel.sigma_h_sq / channel.sigma_w_sq
    g = a * S / (1 + a * S)
    return EstimateReport(h_hat=h_hat, bias_factor=(1 + eps) * g)


def mmse_limit(channel: ChannelParams, attack: AttackParams,
               hypothesis: PilotHypothesis) -> complex:
    """Long-pilot limit of the estimate: h_w, or (1+eps) h_w when scaled."""
    if hypothesis is PilotHypothesis.H1:
        return (1 + attack.epsilon) * channel.h_w
    return channel.h_w
