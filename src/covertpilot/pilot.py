"""Estimation-phase analysis: pilot-scaling covertness and the corrupted MMSE estimate.

With the fading gain marginalized, the received pilot vector is a
zero-mean complex Gaussian whose covariance is a rank-one update of the
identity,

    Sigma_0 = alpha_w^2 sigma_h^2 s s^H + sigma_w^2 I          (clean pilot)
    Sigma_1 = alpha_w^2 sigma_h^2 (1+eps)^2 s s^H + sigma_w^2 I (scaled pilot)

so the divergence between the two hypotheses and the linear-MMSE channel
estimate both reduce to scalar closed forms in the pilot energy
``S = ||s||^2``, exact for any pilot length.  The dense L x L covariances
exist only in the test suite, as the oracle these closed forms and the
Monte Carlo estimators are checked against.

Every function here takes the pilot through ``S`` alone; no pilot vector
enters the package.  :func:`mmse_estimate` also takes the projection
``s^H y`` of the received pilot block on the pilot, the only other thing
the estimate reads.  Whether a block was scaled is not tagged on it:
``epsilon`` alone says so, ``epsilon = 0`` being the clean pilot.
:func:`mmse_estimate` needs no attack parameters at all, since the
monitor builds its estimate for a clean pilot whatever was sent;
:func:`mmse_limit` says where that estimate goes.

Units: divergences are in nats; rates elsewhere in the package are in
bits/channel use.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .channel import AttackParams, ChannelParams, ParameterError, _require


def kl_pilot_exact(channel: ChannelParams, attack: AttackParams,
                   pilot_energy: float) -> float:
    """Divergence (nats) between the two pilot hypotheses at finite length.

    Evaluates ``-log|Sigma_1^{-1} Sigma_0| - L + tr(Sigma_1^{-1} Sigma_0)``
    through the rank-one closed forms, which see the pilot only through its
    energy ``S = ||s||^2 = pilot_energy`` (``L`` for the unit-amplitude
    pilot of length ``L``): with ``a = alpha_w^2 sigma_h^2 / sigma_w^2``,
    both the log-determinant and trace corrections equal

        q = a * eps * (2 + eps) * S / (1 + a * (1+eps)^2 * S)

    so the divergence is ``-log(1 - q) - q``.  No L x L matrix is ever
    built; exact for any pilot length.  Where ``1 - q`` drowns in the
    rounding of ``q`` (eps from about 1e5 on the reference channel) the
    log-determinant is taken directly, ``log1p(a (1+eps)^2 S) - log1p(a S)
    - q``.  A negative or non-finite ``S``, or an eps and ``S`` for which
    ``a (1+eps)^2 S`` overflows, raise :class:`ParameterError`.
    """
    _require(attack.epsilon >= 0, "epsilon must be >= 0")
    S = pilot_energy
    _require(0 <= S <= sys.float_info.max,
             "pilot_energy S = ||s||^2 must be finite and >= 0")
    a = channel.alpha_w_sq * channel.sigma_h_sq / channel.sigma_w_sq
    eps = attack.epsilon
    scaled = a * ((1 + eps) * (1 + eps)) * S
    den = 1 + scaled
    q = a * eps * (2 + eps) * S / den
    if math.isclose(1 - q, (1 + a * S) / den, rel_tol=1e-6):
        return -math.log1p(-q) - q
    kl = math.log1p(scaled) - math.log1p(a * S) - q
    _require(math.isfinite(kl),
             "kl_pilot_exact needs a finite a (1+eps)^2 S to resolve "
             "1 - q = (1 + a S) / (1 + a (1+eps)^2 S); epsilon or S is too "
             "large")
    return kl


def kl_pilot_limit(epsilon: float) -> float:
    """Long-pilot limit of :func:`kl_pilot_exact`, in nats.

    Equals ``2 log(1+eps) - 1 + (1+eps)^{-2}`` and is at most ``2 eps^2``
    for all eps >= 0 (the covertness bound).  Below eps = 1e-3 its two
    terms cancel to within a few ulps of ``2 eps``, so there it is the
    series ``2 eps^2 - 10 eps^3/3 + 9 eps^4/2 - 28 eps^5/5 + 20 eps^6/3
    - 54 eps^7/7``, whose first omitted term is below rounding; its factor
    of ``eps * eps`` never exceeds 2, so the value never exceeds
    ``2 * (eps * eps)`` as evaluated.  Above it ``1 - (1+eps)^{-2}`` is
    evaluated as ``eps (2+eps) / (1+eps)^2``; where ``(1+eps)^2`` overflows
    that fraction is 1 to double precision.
    """
    if epsilon < 0:
        raise ParameterError("epsilon must be >= 0")
    if epsilon < 1e-3:
        e = epsilon
        return e * e * (2 - e * (10 / 3 - e * (9 / 2 - e * (
            28 / 5 - e * (20 / 3 - e * (54 / 7))))))
    den = (1 + epsilon) * (1 + epsilon)
    frac = epsilon * (2 + epsilon) / den if math.isfinite(den) else 1.0
    return 2 * math.log1p(epsilon) - frac


def covertness_margin(epsilon: float, delta_1: float) -> bool:
    """Estimation-phase covertness test: eps <= delta_1 / sqrt(2).

    ``2 eps^2`` dominates the limiting divergence, so the condition keeps
    the detector within ``delta_1`` of a blind test.  With ``delta_1 = 0``
    only ``epsilon = 0`` is covert.
    """
    _require(0 <= delta_1 < 1, "delta_1 must lie in [0, 1)")
    _require(epsilon >= 0, "epsilon must be >= 0")
    kl_bound = 2 * (epsilon * epsilon)
    _require(math.isfinite(kl_bound), "kl_bound = 2 eps^2 must be finite")
    if kl_pilot_limit(epsilon) > kl_bound:
        raise ArithmeticError(f"kl_pilot_limit({epsilon!r}) exceeds 2 eps^2")
    return epsilon <= delta_1 / math.sqrt(2)


def mmse_estimate(channel: ChannelParams, pilot_energy: float,
                  projection: complex | np.ndarray) -> complex | np.ndarray:
    """MMSE estimate ``h_hat = c s^H y`` of the fading gain from a pilot block.

    ``pilot_energy`` is ``S = ||s||^2`` and ``projection`` is ``s^H y``,
    the received pilot block projected on the pilot; an array of
    projections gives the array of their estimates.  The linear-MMSE
    weight is

        c = alpha_w sigma_h^2 / (sigma_w^2 + alpha_w^2 sigma_h^2 S).

    The estimator is built under the clean-pilot model (the receiver is
    unaware of any scaling), so when the received block was actually
    scaled the estimate is biased toward ``(1+eps) h_w``; its noiseless
    part is

        (1 + eps) g h_w,   g = a S / (1 + a S),
        a = alpha_w^2 sigma_h^2 / sigma_w^2.

    A negative or non-finite ``S`` raises :class:`ParameterError`.
    """
    S = pilot_energy
    _require(0 <= S <= sys.float_info.max,
             "pilot_energy S = ||s||^2 must be finite and >= 0")
    num = math.sqrt(channel.alpha_w_sq) * channel.sigma_h_sq
    den = channel.sigma_w_sq + channel.alpha_w_sq * channel.sigma_h_sq * S
    return num / den * projection


def mmse_limit(channel: ChannelParams, attack: AttackParams) -> complex:
    """Long-pilot limit of the estimate, ``(1+eps) h_w`` (clean: ``h_w``)."""
    return (1 + attack.epsilon) * channel.h_w
