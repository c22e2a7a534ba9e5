"""Block-fading channel model: parameter containers and signal synthesis.

The link runs in two phases.  In the estimation phase the transmitter
sends a known constant-amplitude pilot so the receiver can estimate the
fading gain; an embedded trojan may covertly scale that pilot by
``1 + epsilon``.  In the communication phase the transmitter sends a
Gaussian data block of power ``lambda_a`` and the trojan may add its own
Gaussian block of power ``lambda_t``.

Conventions
-----------
* ``CN(0, s2)`` denotes the circularly-symmetric complex Gaussian whose
  real and imaginary parts are independent ``N(0, s2/2)``, so that
  ``E|z|^2 = s2``.
* Synthesized data blocks satisfy the short-term power constraint
  exactly: ``(1/n) * ||x||^2 == power`` per block, not just on average.
* All randomness flows through :func:`derive_rng`.  A draw depends only
  on ``(seed, path)``, never on call order, thread count, or scheduling,
  so parallel sweeps are reproducible.  Stream ids used by the synthesis
  functions are the module constants ``STREAM_NOISE``, ``STREAM_ALICE``,
  ``STREAM_TROJAN``, ``STREAM_FADING_W``, ``STREAM_FADING_E``; callers
  can re-derive any component of a synthesized block from the same seed.
  ``STREAM_TRIAL`` is the one stream of a reduced-sampler Monte Carlo
  trial (see :mod:`covertpilot.montecarlo`).
* Powers and variances are linear (watts), never dB.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ParameterError(ValueError):
    """A parameter is outside the domain an operation is defined on."""


# Sub-stream labels for derive_rng; fixed so that results are reproducible
# across versions and so callers can reconstruct individual components.
STREAM_NOISE = 0
STREAM_ALICE = 1
STREAM_TROJAN = 2
STREAM_FADING_W = 3
STREAM_FADING_E = 4
STREAM_PILOT_NOISE = 5
STREAM_TRIAL = 6


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for stream ``path`` of root ``seed``.

    Splittable seeding: the stream is a pure function of ``(seed, path)``
    (implemented with ``SeedSequence(seed, spawn_key=path)``), so distinct
    paths give statistically independent streams and identical paths give
    bit-identical draws regardless of which worker or call site asks.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


class Phase(Enum):
    ESTIMATION = "estimation"
    COMMUNICATION = "communication"


class PilotHypothesis(Enum):
    """Estimation-phase hypotheses: pilot unmodified (H0) or scaled by 1+eps (H1)."""

    H0 = "h0"
    H1 = "h1"


class CommHypothesis(Enum):
    """Communication-phase hypotheses: trojan silent (H0) or transmitting (H1)."""

    H0 = "h0"
    H1 = "h1"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


@dataclass(frozen=True)
class ChannelParams:
    """Propagation losses, noise powers, and realized fading gains.

    ``alpha_w_sq``/``alpha_e_sq`` are power propagation losses toward the
    monitoring receiver and the rogue receiver, ``sigma_w_sq``/``sigma_e_sq``
    the corresponding noise powers, ``sigma_h_sq`` the fading variance, and
    ``h_w``/``h_e`` the realized block-fading gains (either user-supplied or
    drawn via :meth:`sample`).
    """

    alpha_w_sq: float
    alpha_e_sq: float
    sigma_w_sq: float
    sigma_e_sq: float
    sigma_h_sq: float
    h_w: complex
    h_e: complex

    def __post_init__(self):
        _require(self.alpha_w_sq >= 0 and self.alpha_e_sq >= 0,
                 "propagation losses must be >= 0")
        _require(self.sigma_w_sq > 0 and self.sigma_e_sq > 0,
                 "noise powers must be > 0")
        _require(self.sigma_h_sq > 0, "fading variance must be > 0")
        for name in ("alpha_w_sq", "alpha_e_sq", "sigma_w_sq", "sigma_e_sq",
                     "sigma_h_sq"):
            _require(math.isfinite(getattr(self, name)), f"{name} must be finite")
        for name, gain, alpha in (("h_w", "gain_w", "alpha_w_sq"),
                                  ("h_e", "gain_e", "alpha_e_sq")):
            h = complex(getattr(self, name))
            _require(math.isfinite(h.real) and math.isfinite(h.imag),
                     f"{name} must be finite")
            try:
                finite = math.isfinite(getattr(self, gain))
            except OverflowError:   # |h|^2 itself overflows
                finite = False
            _require(finite, f"{gain} = {alpha} * |{name}|^2 must be finite")

    @classmethod
    def sample(cls, alpha_w_sq: float, alpha_e_sq: float, sigma_w_sq: float,
               sigma_e_sq: float, sigma_h_sq: float, seed: int) -> "ChannelParams":
        """Draw both fading gains from CN(0, sigma_h_sq) and freeze them."""
        h_w = sample_fading(sigma_h_sq, seed, _stream=STREAM_FADING_W)
        h_e = sample_fading(sigma_h_sq, seed, _stream=STREAM_FADING_E)
        return cls(alpha_w_sq, alpha_e_sq, sigma_w_sq, sigma_e_sq, sigma_h_sq,
                   h_w, h_e)

    @property
    def gain_w(self) -> float:
        """alpha_w^2 * |h_w|^2, the received power per unit transmit power."""
        return self.alpha_w_sq * abs(self.h_w) ** 2

    @property
    def gain_e(self) -> float:
        return self.alpha_e_sq * abs(self.h_e) ** 2


@dataclass(frozen=True)
class SystemConfig:
    """Legitimate-link operating point and covertness budgets.

    ``lambda_a`` and ``r_a`` are the legitimate transmit power (watts) and
    rate (bits/channel use); ``delta_1``/``delta_2`` the estimation- and
    communication-phase detection budgets; ``pilot_len``/``block_len`` the
    pilot and data block lengths.  Use :meth:`create` to also enforce the
    link margin ``r_a < log2(1 + gain_w * lambda_a / sigma_w_sq)`` against
    a concrete channel.
    """

    lambda_a: float
    r_a: float
    delta_1: float
    delta_2: float
    pilot_len: int
    block_len: int

    def __post_init__(self):
        _require(self.lambda_a > 0, "lambda_a must be > 0")
        _require(self.r_a > 0, "r_a must be > 0")
        _require(0 <= self.delta_1 < 1, "delta_1 must lie in [0, 1)")
        _require(0 < self.delta_2 < 1, "delta_2 must lie in (0, 1)")
        _require(self.pilot_len >= 1, "pilot_len must be >= 1")
        _require(self.block_len >= 2, "block_len must be >= 2")
        if self.pilot_len >= self.block_len:
            warnings.warn(
                "pilot_len >= block_len: the pilot is supposed to be short "
                "relative to the data block", stacklevel=3)

    @classmethod
    def create(cls, channel: ChannelParams, lambda_a: float, r_a: float,
               delta_1: float, delta_2: float, pilot_len: int,
               block_len: int) -> "SystemConfig":
        """Validating constructor: rejects rates at or above link capacity."""
        cfg = cls(lambda_a, r_a, delta_1, delta_2, pilot_len, block_len)
        check_link_margin(channel, cfg)
        return cfg


def link_capacity(channel: ChannelParams, lambda_a: float) -> float:
    """Delay-limited capacity of the legitimate link, bits/channel use."""
    return math.log2(1 + channel.gain_w * lambda_a / channel.sigma_w_sq)


def check_link_margin(channel: ChannelParams, config: SystemConfig) -> None:
    """Raise unless r_a is strictly below the legitimate link capacity."""
    cap = link_capacity(channel, config.lambda_a)
    if not config.r_a < cap:
        raise ParameterError(
            f"r_a = {config.r_a:.6g} bpcu is not below the link capacity "
            f"{cap:.6g} bpcu; the link margin assumption fails")


@dataclass(frozen=True)
class AttackParams:
    """Trojan knobs: pilot scaling ``epsilon`` and transmit power ``lambda_t``.

    ``epsilon = 0`` with ``lambda_t > 0`` is the legal no-pilot-attack
    configuration (square-root-law regime).  Either knob may be an array;
    the two broadcast to a grid, and every element is checked.
    """

    epsilon: float | np.ndarray
    lambda_t: float | np.ndarray

    def __post_init__(self):
        for name in ("epsilon", "lambda_t"):
            value = getattr(self, name)
            _require(np.all(np.isfinite(value) & (value >= 0)),
                     f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class SignalBlock:
    """A complex sample vector tagged with its phase and hypothesis labels.

    Pilot-phase blocks carry ``pilot_hypothesis``; communication-phase
    blocks carry ``comm_hypothesis``.  Synthesized inputs are immutable.
    """

    samples: np.ndarray
    phase: Phase
    pilot_hypothesis: PilotHypothesis | None = None
    comm_hypothesis: CommHypothesis | None = None

    def __post_init__(self):
        # own copy so freezing never flips write flags on a caller's buffer
        arr = np.array(self.samples, dtype=np.complex128, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        _require(arr.ndim == 1 and arr.size >= 1,
                 "samples must be a nonempty 1-d vector")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def block_power(self) -> float:
        """(1/n) * ||samples||^2."""
        return float(np.mean(np.abs(self.samples) ** 2))


def sample_fading(sigma_h_sq: float, seed: int, size: int | None = None,
                  _stream: int | None = None) -> complex | np.ndarray:
    """Draw CN(0, sigma_h_sq) fading gains, reproducibly.

    Returns a scalar when ``size`` is None, else an array of ``size``
    independent draws.  Real and imaginary parts each have variance
    ``sigma_h_sq / 2``.
    """
    _require(sigma_h_sq > 0, "sigma_h_sq must be > 0")
    path = () if _stream is None else (_stream,)
    rng = derive_rng(seed, *path)
    n = 1 if size is None else int(size)
    h = complex_normal(rng, n, sigma_h_sq)
    return complex(h[0]) if size is None else h


def complex_normal(rng: np.random.Generator, size: int, var: float) -> np.ndarray:
    """i.i.d. CN(0, var) vector; real parts are drawn before imaginary parts."""
    scale = math.sqrt(var / 2)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def gaussian_input(n: int, power: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. complex Gaussian block rescaled to exact per-block power.

    Draws CN(0, 1) samples and scales them so ``(1/n)||x||^2 == power``
    exactly (deterministic short-term constraint), preserving the Gaussian
    direction of the block.
    """
    _require(n >= 1, "block length must be >= 1")
    _require(power >= 0, "power must be >= 0")
    g = complex_normal(rng, n, 1.0)
    if power == 0:
        return np.zeros(n, dtype=np.complex128)
    return g * math.sqrt(n * power / np.vdot(g, g).real)


def make_pilot(pilot_len: int, pilot_power: float = 1.0) -> SignalBlock:
    """Constant-amplitude real pilot: every sample equals sqrt(pilot_power).

    ``||s||^2 = pilot_len * pilot_power`` grows without bound in the pilot
    length, which is all the estimation-phase analysis requires; the
    per-symbol power is a free design choice (default 1).
    """
    _require(pilot_len >= 1, "pilot_len must be >= 1")
    _require(pilot_power > 0, "pilot_power must be > 0")
    s = np.full(pilot_len, math.sqrt(pilot_power), dtype=np.complex128)
    return SignalBlock(s, Phase.ESTIMATION)


def alice_input(config: SystemConfig, seed: int) -> SignalBlock:
    """Legitimate data block of exact power lambda_a (stream STREAM_ALICE)."""
    x = gaussian_input(config.block_len, config.lambda_a,
                       derive_rng(seed, STREAM_ALICE))
    return SignalBlock(x, Phase.COMMUNICATION)


def trojan_input(config: SystemConfig, attack: AttackParams,
                 seed: int) -> SignalBlock:
    """Trojan data block of exact power lambda_t (stream STREAM_TROJAN)."""
    x = gaussian_input(config.block_len, attack.lambda_t,
                       derive_rng(seed, STREAM_TROJAN))
    return SignalBlock(x, Phase.COMMUNICATION)


def synthesize_received(config: SystemConfig, channel: ChannelParams,
                        attack: AttackParams, phase: Phase,
                        pilot_hypothesis: PilotHypothesis | None = None,
                        comm_hypothesis: CommHypothesis | None = None,
                        seed: int = 0,
                        pilot: SignalBlock | None = None) -> SignalBlock:
    """Synthesize the monitoring receiver's observation for one block.

    Estimation phase (``pilot_hypothesis`` required)::

        y = alpha_w * h_w * (1 + eps * 1{H1}) * s  +  z

    Communication phase (``comm_hypothesis`` required)::

        y = alpha_w * h_w * x_a  (+ alpha_w * h_w * x_t under H1)  +  z

    with ``z`` i.i.d. CN(0, sigma_w_sq) from stream ``STREAM_NOISE`` and
    ``x_a``/``x_t`` exact-power Gaussian inputs from ``STREAM_ALICE`` /
    ``STREAM_TROJAN``.  Pure function of its arguments: identical inputs
    give bit-identical blocks.
    """
    a_w = math.sqrt(channel.alpha_w_sq)
    if phase is Phase.ESTIMATION:
        _require(pilot_hypothesis is not None,
                 "estimation phase needs a pilot hypothesis")
        _require(comm_hypothesis is None,
                 "estimation phase carries no communication hypothesis")
        s = pilot if pilot is not None else make_pilot(config.pilot_len)
        _require(s.phase is Phase.ESTIMATION, "pilot block must be estimation phase")
        scale = 1.0 + (attack.epsilon if pilot_hypothesis is PilotHypothesis.H1
                       else 0.0)
        z = complex_normal(derive_rng(seed, STREAM_NOISE), len(s),
                           channel.sigma_w_sq)
        y = a_w * channel.h_w * scale * s.samples + z
        return SignalBlock(y, Phase.ESTIMATION, pilot_hypothesis=pilot_hypothesis)

    _require(comm_hypothesis is not None,
             "communication phase needs a communication hypothesis")
    _require(pilot is None, "communication phase takes no pilot")
    n = config.block_len
    x_a = alice_input(config, seed)
    z = complex_normal(derive_rng(seed, STREAM_NOISE), n, channel.sigma_w_sq)
    y = a_w * channel.h_w * x_a.samples + z
    if comm_hypothesis is CommHypothesis.H1:
        x_t = trojan_input(config, attack, seed)
        y = y + a_w * channel.h_w * x_t.samples
    return SignalBlock(y, Phase.COMMUNICATION,
                       pilot_hypothesis=pilot_hypothesis,
                       comm_hypothesis=comm_hypothesis)
