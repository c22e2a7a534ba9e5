"""Block-fading channel model: parameter containers and signal synthesis.

The link runs in two phases.  In the estimation phase the transmitter
sends a known constant-amplitude pilot so the receiver can estimate the
fading gain; an embedded trojan may covertly scale that pilot by
``1 + epsilon``.  In the communication phase the transmitter sends a
Gaussian data block of power ``lambda_a`` and the trojan may add its own
Gaussian block of power ``lambda_t``.

Signals are plain 1-d complex arrays.  No phase or hypothesis tag
travels with them, in either phase: the attack parameters alone decide
what a block is.  The estimation phase sends ``(1 + epsilon)`` times the
pilot, a clean pilot being ``epsilon = 0``; the analysis sees the pilot
only through its energy ``S = ||s||^2``.

:data:`REFERENCE` is the paper's operating point, and :func:`build_scenario`
builds the channel, configuration and attack of it, with any overrides.

Conventions
-----------
* ``CN(0, s2)`` denotes the circularly-symmetric complex Gaussian whose
  real and imaginary parts are independent ``N(0, s2/2)``, so that
  ``E|z|^2 = s2``.
* Synthesized data blocks satisfy the short-term power constraint
  exactly: ``(1/n) * ||x||^2 == power`` per block, not just on average.
* All randomness derives from ``SeedSequence(seed, spawn_key=path)``,
  so a draw depends only on the seed and its path, never on call order,
  thread count, or scheduling.
* :func:`derive_rng` (a path's generator), :func:`complex_normal` and
  :func:`gaussian_input` serve the test suite's full-vector reference
  simulation and demo 02's one noisy pilot, and the benchmark's tracer
  wraps them by name.  The package's estimators draw from one
  counter-based stream instead (see :mod:`~covertpilot.montecarlo`), and
  the package namespace does not export these three.
* Powers and variances are linear (watts), never dB.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np


class ParameterError(ValueError):
    """A parameter is outside the domain an operation is defined on."""


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for stream ``path`` of root ``seed``.

    Splittable seeding: the stream is a pure function of ``(seed, path)``
    (implemented with ``SeedSequence(seed, spawn_key=path)``), so distinct
    paths give statistically independent streams and identical paths give
    bit-identical draws regardless of which worker or call site asks.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


def _abs2(z):
    """``|z|^2`` as ``Re^2 + Im^2``, two products and a sum.

    IEEE products and sums round alike in Python and numpy and overflow to
    inf without raising, so an array call equals the per-element scalar
    calls bit for bit.
    """
    return z.real * z.real + z.imag * z.imag


def _store_scalars(obj, kind: type, *names: str) -> None:
    """Store the fields ``names`` as Python ``kind`` values, which hash."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not kind:
            _require(isinstance(value, (numbers.Number, np.ndarray))
                     and np.ndim(value) == 0, f"{name} must be a scalar number")
            object.__setattr__(obj, name, kind(value))


@dataclass(frozen=True)
class ChannelParams:
    """Propagation losses, noise powers, and realized fading gains.

    ``alpha_w_sq``/``alpha_e_sq`` are power propagation losses toward the
    monitoring receiver and the rogue receiver, ``sigma_w_sq``/``sigma_e_sq``
    the corresponding noise powers, ``sigma_h_sq`` the fading variance, and
    ``h_w``/``h_e`` the realized block-fading gains.
    """

    alpha_w_sq: float
    alpha_e_sq: float
    sigma_w_sq: float
    sigma_e_sq: float
    sigma_h_sq: float
    h_w: complex
    h_e: complex

    def __post_init__(self):
        _store_scalars(self, float, "alpha_w_sq", "alpha_e_sq", "sigma_w_sq",
                       "sigma_e_sq", "sigma_h_sq")
        _store_scalars(self, complex, "h_w", "h_e")
        _require(self.alpha_w_sq >= 0 and self.alpha_e_sq >= 0,
                 "propagation losses must be >= 0")
        _require(self.sigma_w_sq > 0 and self.sigma_e_sq > 0,
                 "noise powers must be > 0")
        _require(self.sigma_h_sq > 0, "fading variance must be > 0")
        for f in fields(self):
            _require(cmath.isfinite(getattr(self, f.name)),
                     f"{f.name} must be finite")
        for name, gain, alpha in (("h_w", "gain_w", "alpha_w_sq"),
                                  ("h_e", "gain_e", "alpha_e_sq")):
            _require(math.isfinite(getattr(self, gain)),
                     f"{gain} = {alpha} * |{name}|^2 must be finite")

    @property
    def gain_w(self) -> float:
        """alpha_w^2 * |h_w|^2, the received power per unit transmit power."""
        return self.alpha_w_sq * _abs2(self.h_w)

    @property
    def gain_e(self) -> float:
        return self.alpha_e_sq * _abs2(self.h_e)


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
        _store_scalars(self, float, "lambda_a", "r_a", "delta_1", "delta_2")
        _require(self.lambda_a > 0, "lambda_a must be > 0")
        _require(self.r_a > 0, "r_a must be > 0")
        _require(0 <= self.delta_1 < 1, "delta_1 must lie in [0, 1)")
        _require(0 < self.delta_2 < 1, "delta_2 must lie in (0, 1)")
        _require(isinstance(self.pilot_len, numbers.Integral)
                 and self.pilot_len >= 1, "pilot_len must be an integer >= 1")
        _require(isinstance(self.block_len, numbers.Integral)
                 and self.block_len >= 2, "block_len must be an integer >= 2")

    @classmethod
    def create(cls, channel: ChannelParams, lambda_a: float, r_a: float,
               delta_1: float, delta_2: float, pilot_len: int,
               block_len: int) -> "SystemConfig":
        """Validating constructor: rejects rates at or above link capacity."""
        cfg = cls(lambda_a, r_a, delta_1, delta_2, pilot_len, block_len)
        cap = link_capacity(channel, cfg.lambda_a)
        if not cfg.r_a < cap:
            raise ParameterError(
                f"r_a = {cfg.r_a:.6g} bpcu is not below the link capacity "
                f"{cap:.6g} bpcu; the link margin assumption fails")
        return cfg


def link_capacity(channel: ChannelParams, lambda_a: float) -> float:
    """Delay-limited capacity of the legitimate link, bits/channel use.

    Needs a finite ``lambda_a > 0`` and a finite link SNR.
    """
    _require(lambda_a > 0, "lambda_a must be > 0")
    _require(math.isfinite(lambda_a), "lambda_a must be finite")
    snr = channel.gain_w * lambda_a / channel.sigma_w_sq
    _require(math.isfinite(snr), "the link SNR alpha_w^2 |h_w|^2 lambda_a "
             "/ sigma_w^2 must be finite")
    return math.log1p(snr) / math.log(2)


@dataclass(frozen=True)
class AttackParams:
    """Trojan knobs: pilot scaling ``epsilon`` and transmit power ``lambda_t``.

    ``epsilon = 0`` with ``lambda_t > 0`` is the legal no-pilot-attack
    configuration (square-root-law regime).  Either knob may be a Python
    ``float``/``int`` or a real numpy array or scalar; arrays broadcast to a
    grid, and every element is checked.  Any other knob (a string, a complex
    value, ``None``) raises a :class:`ParameterError` naming it.
    """

    epsilon: float | np.ndarray
    lambda_t: float | np.ndarray

    def __post_init__(self):
        for name in ("epsilon", "lambda_t"):
            value = getattr(self, name)
            if isinstance(value, (float, int)):
                try:
                    ok = math.isfinite(value) and value >= 0
                except OverflowError:   # an int beyond the float range
                    ok = False
            elif isinstance(value, (np.ndarray, np.generic)) and \
                    value.dtype.kind in "biuf":
                ok = np.all(np.isfinite(value) & (value >= 0))
            else:
                got = type(value).__name__ + (
                    f" of dtype {value.dtype}"
                    if isinstance(value, np.ndarray) else "")
                raise ParameterError(f"{name} must be a real number or a real "
                                     f"array, not {got}")
            _require(ok, f"{name} must be finite and >= 0")


# The paper's operating point: the fields of ChannelParams, SystemConfig and
# AttackParams in order, as CLI keys; r_a None is 80% of the link capacity.
REFERENCE = {
    "alpha_w_sq": 0.1, "alpha_e_sq": 0.1, "sigma_w_sq": 0.1,
    "sigma_e_sq": 0.1, "sigma_h_sq": 1.0, "h_w": 1 + 0j, "h_e": 1 + 0j,
    "lambda_a": 20.0, "r_a": None, "delta_1": 1 / math.sqrt(10),
    "delta_2": 0.1, "pilot_len": 64, "block_len": 10_000,
    "epsilon": 0.1, "lambda_t": 0.3}


def build_scenario(**overrides) -> tuple[ChannelParams, SystemConfig,
                                          AttackParams]:
    """(channel, config, attack) of :data:`REFERENCE` with ``overrides``.

    An unknown key raises a :class:`ParameterError` naming it.  ``r_a``
    unset (or ``None``) is 80% of the link capacity, which must be > 0.
    """
    unknown = [key for key in overrides if key not in REFERENCE]
    _require(not unknown, f"unknown scenario key(s): {', '.join(unknown)}")
    values = {**REFERENCE, **overrides}
    channel = ChannelParams(*(values[f.name] for f in fields(ChannelParams)))
    if values["r_a"] is None:
        values["r_a"] = 0.8 * link_capacity(channel, values["lambda_a"])
        if not values["r_a"] > 0:
            snr = channel.gain_w * values["lambda_a"] / channel.sigma_w_sq
            raise ParameterError(
                "r_a defaults to 80% of the link capacity, which is 0 at the "
                f"link SNR alpha_w^2 |h_w|^2 lambda_a / sigma_w^2 = {snr:.3g} "
                "(zero link gain or too small); set r_a or a larger SNR")
    config = SystemConfig.create(
        channel, *(values[f.name] for f in fields(SystemConfig)))
    return channel, config, AttackParams(
        *(values[f.name] for f in fields(AttackParams)))


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
