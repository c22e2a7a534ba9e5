"""Full-vector and dense-matrix reference simulations for the test suite.

The package's Monte Carlo estimators draw only the few scalars each
statistic depends on.  The references here do it the long way: every
trial synthesizes whole blocks (the length-n inputs and noise, or a
length-L pilot observation) from its own ``SeedSequence`` streams and
evaluates the statistic on the vectors, with dense L x L matrices for the
pilot likelihoods.  They share no sampling code with the package, so
agreement within standard errors checks the reduced laws.

The sweep CSV has a cell-by-cell reference too: one ``FeasibilityReport``
and nine formatted fields per cell, with no value shared between cells.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve
from scipy.special import beta, chndtr

from covertpilot import (AttackParams, ChannelParams, SystemConfig,
                         attack_feasibility, mmse_estimate, mmse_limit,
                         tau_dagger, tau_eps)
from covertpilot.channel import (_require, complex_normal, derive_rng,
                                 gaussian_input)
from covertpilot.rates import FeasibilityReport

# Stream labels of the reference simulation; the values are fixed so that
# every fixed-seed reference tally stays reproducible.
STREAM_NOISE = 0
STREAM_ALICE = 1
STREAM_TROJAN = 2
STREAM_FADING_W = 3
STREAM_PILOT_NOISE = 5


class CommHypothesis(Enum):
    """Communication-phase hypotheses: trojan silent (H0) or transmitting (H1)."""

    H0 = "h0"
    H1 = "h1"


def make_pilot(pilot_len: int) -> np.ndarray:
    """Unit-amplitude real pilot of length ``pilot_len``, as a 1-d complex array.

    Its energy ``||s||^2 = pilot_len`` grows without bound in the pilot
    length, which is all the estimation-phase analysis requires.
    """
    _require(pilot_len >= 1, "pilot_len must be >= 1")
    return np.ones(pilot_len, dtype=np.complex128)


def pilot_estimate(channel: ChannelParams, pilot: np.ndarray,
                   received: np.ndarray) -> complex:
    """``mmse_estimate`` of a received pilot block, given the pilot vector."""
    energy = float(np.vdot(pilot, pilot).real)
    return complex(mmse_estimate(channel, energy, np.vdot(pilot, received)))


def alice_input(config: SystemConfig, seed: int) -> np.ndarray:
    """Legitimate data block of exact power lambda_a (stream STREAM_ALICE)."""
    return gaussian_input(config.block_len, config.lambda_a,
                          derive_rng(seed, STREAM_ALICE))


def trojan_input(config: SystemConfig, attack: AttackParams,
                 seed: int) -> np.ndarray:
    """Trojan data block of exact power lambda_t (stream STREAM_TROJAN)."""
    return gaussian_input(config.block_len, attack.lambda_t,
                          derive_rng(seed, STREAM_TROJAN))


def synthesize_received(config: SystemConfig, channel: ChannelParams,
                        attack: AttackParams,
                        comm_hypothesis: CommHypothesis | None = None,
                        seed: int = 0,
                        pilot: np.ndarray | None = None) -> np.ndarray:
    """Synthesize the monitoring receiver's observation for one block.

    ``comm_hypothesis`` picks the phase.  Without it, the estimation
    phase, whose pilot is scaled by ``1 + eps`` (a clean pilot is an
    ``eps = 0`` attack)::

        y = alpha_w * h_w * (1 + eps) * s  +  z

    With it, the communication phase::

        y = alpha_w * h_w * x_a  (+ alpha_w * h_w * x_t under H1)  +  z

    with ``z`` i.i.d. CN(0, sigma_w_sq) from stream ``STREAM_NOISE`` and
    ``x_a``/``x_t`` exact-power Gaussian inputs from ``STREAM_ALICE`` /
    ``STREAM_TROJAN``.  Pure function of its arguments: identical inputs
    give bit-identical blocks.
    """
    a_w = math.sqrt(channel.alpha_w_sq)
    if comm_hypothesis is None:
        s = pilot if pilot is not None else make_pilot(config.pilot_len)
        z = complex_normal(derive_rng(seed, STREAM_NOISE), len(s),
                           channel.sigma_w_sq)
        return a_w * channel.h_w * (1.0 + attack.epsilon) * s + z

    _require(pilot is None, "the communication phase takes no pilot")
    n = config.block_len
    x_a = alice_input(config, seed)
    z = complex_normal(derive_rng(seed, STREAM_NOISE), n, channel.sigma_w_sq)
    y = a_w * channel.h_w * x_a + z
    if comm_hypothesis is CommHypothesis.H1:
        y = y + a_w * channel.h_w * trojan_input(config, attack, seed)
    return y


def radiometer_statistic(received: np.ndarray, x_a: np.ndarray,
                         h_hat: complex, channel: ChannelParams) -> float:
    """Residual power after cancelling the legitimate signal with h_hat."""
    y, x = np.asarray(received), np.asarray(x_a)
    _require(y.shape == x.shape and y.ndim == 1 and y.size >= 1,
             "received and x_a must be equal-length vectors")
    v = y - math.sqrt(channel.alpha_w_sq) * h_hat * x
    return float(np.mean(np.abs(v) ** 2))


@dataclass(frozen=True)
class PilotCovariances:
    """Dense received-pilot covariances under the clean and scaled hypotheses."""

    sigma0: np.ndarray
    sigma1: np.ndarray

    def __post_init__(self):
        for name in ("sigma0", "sigma1"):
            m = np.asarray(getattr(self, name), dtype=np.complex128)
            m.setflags(write=False)
            object.__setattr__(self, name, m)


def pilot_covariances(channel: ChannelParams, attack: AttackParams,
                      pilot: np.ndarray) -> PilotCovariances:
    """Materialize Sigma_0 and Sigma_1 as dense L x L matrices."""
    outer = np.outer(pilot, pilot.conj())
    kappa = channel.alpha_w_sq * channel.sigma_h_sq
    eye = channel.sigma_w_sq * np.eye(len(pilot))
    scale = kappa * ((1 + attack.epsilon) * (1 + attack.epsilon))
    _require(math.isfinite(scale),
             "alpha_w^2 sigma_h^2 (1+eps)^2 must be finite")
    return PilotCovariances(kappa * outer + eye, scale * outer + eye)


def dense_pilot_llr(channel, attack, l, trials, seed):
    """``log(p_clean / p_scaled)`` of clean pilot observations, by dense algebra.

    Trial ``i`` draws a fading gain (stream ``(i, STREAM_FADING_W)``) and
    pilot noise (stream ``(i, STREAM_NOISE)``), forms ``y = alpha_w h s + z``
    and evaluates both Gaussian densities through Cholesky factorizations.
    """
    pilot = make_pilot(l)
    covs = pilot_covariances(channel, attack, pilot)
    c0 = cho_factor(covs.sigma0, lower=True)
    c1 = cho_factor(covs.sigma1, lower=True)
    logdet0 = 2 * float(np.sum(np.log(np.diag(c0[0]).real)))
    logdet1 = 2 * float(np.sum(np.log(np.diag(c1[0]).real)))
    a_w = math.sqrt(channel.alpha_w_sq)
    rows = np.empty((trials, l), dtype=np.complex128)
    for i in range(trials):
        h = complex_normal(derive_rng(seed, i, STREAM_FADING_W), 1,
                           channel.sigma_h_sq)[0]
        z = complex_normal(derive_rng(seed, i, STREAM_NOISE), l,
                           channel.sigma_w_sq)
        rows[i] = a_w * h * pilot + z
    q0 = np.einsum("ij,ji->i", rows.conj(), cho_solve(c0, rows.T)).real
    q1 = np.einsum("ij,ji->i", rows.conj(), cho_solve(c1, rows.T)).real
    return (logdet1 - logdet0) + (q1 - q0)


def full_vector_estimator_errors(channel, attack, l, trials, seed):
    """Squared errors ``|h_hat(L) - h_hat_inf|^2`` (clean, scaled), by full vectors.

    Trial ``i`` draws the pilot noise from stream ``(i, STREAM_NOISE)``,
    adds it to the clean and the scaled pilot, and runs ``pilot_estimate``
    on both blocks.
    """
    a_w = math.sqrt(channel.alpha_w_sq)
    lim0 = channel.h_w
    lim1 = mmse_limit(channel, attack)
    pilot = make_pilot(l)
    err = np.empty((2, trials))
    for i in range(trials):
        z = complex_normal(derive_rng(seed, i, STREAM_NOISE), l,
                           channel.sigma_w_sq)
        y0 = a_w * channel.h_w * pilot + z
        y1 = a_w * channel.h_w * (1 + attack.epsilon) * pilot + z
        err[0, i] = abs(pilot_estimate(channel, pilot, y0) - lim0) ** 2
        err[1, i] = abs(pilot_estimate(channel, pilot, y1) - lim1) ** 2
    return err


def full_vector_comm_tally(channel, attack, config, n, trials, seed,
                           pilot_len=None):
    """(false alarms, misses) of the communication-phase test, by full vectors.

    Every trial synthesizes the length-n blocks x_a, x_t and z (6n
    normals) and applies the radiometer to them.  Without ``pilot_len``
    the receiver cancels with the injected limit ``(1+eps) h_w`` and
    thresholds at ``tau_eps``; with it, each trial re-simulates the scaled
    pilot, estimates ``h_hat`` with ``pilot_estimate`` and thresholds at
    ``tau_dagger(h_hat)``.
    """
    a_w = math.sqrt(channel.alpha_w_sq)
    h = channel.h_w
    pilot = make_pilot(pilot_len) if pilot_len is not None else None
    fa = md = 0
    for i in range(trials):
        x_a = gaussian_input(n, config.lambda_a,
                             derive_rng(seed, i, STREAM_ALICE))
        x_t = gaussian_input(n, attack.lambda_t,
                             derive_rng(seed, i, STREAM_TROJAN))
        z = complex_normal(derive_rng(seed, i, STREAM_NOISE), n,
                           channel.sigma_w_sq)
        if pilot is None:
            h_hat, thr = (1 + attack.epsilon) * h, tau_eps(channel, attack)
        else:
            zp = complex_normal(derive_rng(seed, i, STREAM_PILOT_NOISE),
                                len(pilot), channel.sigma_w_sq)
            y_p = a_w * h * (1 + attack.epsilon) * pilot + zp
            h_hat = pilot_estimate(channel, pilot, y_p)
            thr = tau_dagger(channel, h_hat, attack.lambda_t, n)
        y0 = a_w * h * x_a + z
        fa += radiometer_statistic(y0, x_a, h_hat, channel) > thr
        md += radiometer_statistic(y0 + a_w * h * x_t, x_a, h_hat,
                                   channel) < thr
    return fa, md


def full_vector_sqrt_law_tally(channel, c, n, trials, seed):
    """(false alarms, misses) of the silent-pilot test at power c/sqrt(n)."""
    a_w = math.sqrt(channel.alpha_w_sq)
    lt = c / math.sqrt(n)
    tau = tau_dagger(channel, channel.h_w, lt, n)
    fa = md = 0
    for i in range(trials):
        z = complex_normal(derive_rng(seed, i, STREAM_NOISE), n,
                           channel.sigma_w_sq)
        x_t = gaussian_input(n, lt, derive_rng(seed, i, STREAM_TROJAN))
        fa += np.mean(np.abs(z) ** 2) > tau
        md += np.mean(np.abs(a_w * channel.h_w * x_t + z) ** 2) < tau
    return fa, md


def exact_comm_error_probs(channel, attack, config, n, tau):
    """Exact (P_F, P_M) of the injected-limit radiometer test at block length n.

    ``(2/s2) n t0`` is noncentral chi2(2n, 2|c|^2/s2).  Given rho, ``(2/s2)
    n t1`` is noncentral chi2(2n, lambda(u)) with
    ``lambda(u) = 2(|c|^2 + |d|^2 + 2|c||d| u) / s2``, where
    ``u = Re(rho e^{i phi})`` has density proportional to
    ``(1 - u^2)^(n - 3/2)`` on [-1, 1]; P_M integrates over u.  That
    density has width about 1/sqrt(n), so the integral is split at 0,
    +-1, +-2, +-4, +-8 and +-40 widths: over [-1, 1] in one piece the
    adaptive rule misses the peak at large n.
    """
    s2 = channel.sigma_w_sq
    a_w = math.sqrt(channel.alpha_w_sq)
    h = channel.h_w
    c = abs(a_w * (h - (1 + attack.epsilon) * h)) \
        * math.sqrt(n * config.lambda_a)
    d = abs(a_w * h) * math.sqrt(n * attack.lambda_t)
    x = 2 * n * tau / s2
    p_f = 1 - chndtr(x, 2 * n, 2 * c ** 2 / s2)

    def miss_given_u(u):
        lam = 2 * (c ** 2 + d ** 2 + 2 * c * d * u) / s2
        return chndtr(x, 2 * n, lam) * (1 - u * u) ** (n - 1.5)

    knots = sorted({max(-1.0, min(1.0, k / math.sqrt(n)))
                    for k in (-40, -8, -4, -2, -1, 0, 1, 2, 4, 8, 40)}
                   | {-1.0, 1.0})
    p_m = sum(quad(miss_given_u, lo, hi)[0]
              for lo, hi in zip(knots, knots[1:])) / beta(0.5, n - 0.5)
    return p_f, p_m


def _first_failing(report) -> str:
    """The first failed condition of an infeasible cell."""
    if not report.cond_pilot_covert:
        return "pilot_covert"
    if not report.cond_blind_comm:
        return "blind_comm"
    return "no_disruption"


def _fmt(x) -> str:
    return repr(float(x))


def sweep_cell_line(eps: float, lt: float, rep: FeasibilityReport) -> str:
    """The CSV row of the point (eps, lt), whose report is ``rep``."""
    failing = "" if rep.feasible else _first_failing(rep)
    tin, ic = (rep.r_t_tin, rep.r_t_ic) if rep.feasible else (0.0, 0.0)
    return ",".join([
        _fmt(eps), _fmt(lt), "1" if rep.feasible else "0", failing,
        _fmt(tin), _fmt(ic), _fmt(rep.gamma_w), _fmt(rep.tau_eps),
        _fmt(rep.delta_1_gap),
    ])


def sweep_lines(channel: ChannelParams, config: SystemConfig, spec) -> list[str]:
    """The rows of ``cli.run_sweep``'s CSV for ``spec``, cell by cell."""
    eps = np.linspace(spec.eps_min, spec.eps_max, spec.eps_steps)[:, None]
    lt = np.linspace(spec.lt_min, spec.lt_max, spec.lt_steps)
    grid = attack_feasibility(channel, AttackParams(eps, lt), config)
    shape = np.broadcast_shapes(eps.shape, lt.shape)
    cells = zip(*(np.broadcast_to(c, shape).ravel().tolist()
                  for c in (eps, lt, *grid)))
    return [sweep_cell_line(e, l, FeasibilityReport(*rep))
            for e, l, *rep in cells]
