"""Command-line front end: rate-region sweeps, verification suites, Monte Carlo runs.

Subcommands
-----------
``sweep``   evaluate the feasibility/rate region on an (epsilon, lambda_t)
            grid and write one CSV row per cell (row-major: epsilon outer,
            lambda_t inner).
``rate``    evaluate a single (epsilon, lambda_t) point and print the
            feasibility report as ``key = value`` lines.
``mc``      run one Monte Carlo estimator and emit a single JSON object.
``verify``  run the analytic-versus-oracle check suites and report
            pass/fail per invariant.

Exit codes: 0 success, 1 configuration error (a flag value argparse
rejects, such as ``--block-len=1e3``, included), 2 I/O error,
3 verification failure.  An unknown flag or a missing subcommand may end in
argparse's usage error, exit 2.  ``--out`` is overwritten in place and
ends with exactly the bytes stdout would get; a write that raises an
error or an interrupt in the process leaves a regular file empty (an
error exits 2).  A FIFO or a device named by ``--out`` is written but
never truncated.  A process killed mid-write (SIGKILL, power loss) can
leave the new bytes followed by the old file's tail.

Configuration files
-------------------
Flat ``key = value`` text; ``#`` starts a comment; keys mirror the
parameter field names below and flags override file values.  Example::

    # channel (linear power units)
    alpha_w_sq = 0.1
    sigma_w_sq = 0.1
    h_w = 1+0j          # realized fading gain, python complex literal
    # operating point
    lambda_a = 20.0
    r_a = 3.51          # bits/channel use; must stay below link capacity
    delta_1 = 0.3162
    epsilon = 0.1
    lambda_t = 0.3

Unset values fall back to a representative operating point (0.1 losses,
0.1 noise powers, unit gains, lambda_a = 20) with ``r_a`` defaulting to
80% of the link capacity.

CSV schema (``sweep``)
----------------------
Fixed column order; rates in bits/channel use, powers/thresholds in
linear (watt) units::

    epsilon,lambda_t,feasible,failing_condition,r_t_tin_bpcu,r_t_ic_bpcu,
    gamma_w,tau_eps_w,delta_1_gap

``feasible`` is 1/0; ``failing_condition`` is empty for feasible cells
and otherwise the first failing condition in the order pilot_covert,
blind_comm, no_disruption.  ``cond_eve_ic`` never makes a cell
infeasible: it only selects the rate ``r_t_ic`` reports.  Infeasible cells
report zero rates so plots can distinguish "zero rate" from
"infeasible".  Floats are written as their shortest round-trip ``repr``.
One broadcast call evaluates the whole grid; then one formatting pass per
axis and per epsilon row writes it: ``lambda_t`` and both rates depend on
lambda_t alone and are formatted once per column, ``epsilon`` once per
row, and the per-cell fields with one ``map`` of ``repr`` per row.  Every
subcommand runs serially, so output bytes depend only on the parameters
and seed; ``--threads`` has no effect.

Module loading
--------------
Importing this module loads only ``channel`` and numpy, which argument
parsing and scenario building need.  Each subcommand imports its own
modules when it runs: ``rate`` and ``sweep`` load ``rates`` and
``detection``, ``mc`` loads ``montecarlo`` (with ``detection`` and
``pilot``), and ``verify`` loads ``verification``, which loads them all.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import (AttackParams, ChannelParams, ParameterError,
                      SystemConfig, _require, link_capacity)

if TYPE_CHECKING:
    from .rates import FeasibilityReport

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3

CSV_HEADER = ("epsilon,lambda_t,feasible,failing_condition,"
              "r_t_tin_bpcu,r_t_ic_bpcu,gamma_w,tau_eps_w,delta_1_gap")

# flag/config key -> (parser, default); h_* are python complex literals
_PARAMS = {
    "alpha_w_sq": (float, 0.1), "alpha_e_sq": (float, 0.1),
    "sigma_w_sq": (float, 0.1), "sigma_e_sq": (float, 0.1),
    "sigma_h_sq": (float, 1.0),
    "h_w": (complex, 1 + 0j), "h_e": (complex, 1 + 0j),
    "lambda_a": (float, 20.0),
    "r_a": (float, None),            # None -> 80% of link capacity
    "delta_1": (float, 1 / math.sqrt(10)), "delta_2": (float, 0.1),
    "pilot_len": (int, 64), "block_len": (int, 10_000),
    "epsilon": (float, 0.1), "lambda_t": (float, 0.3),
}


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for the rate-region sweep."""

    eps_min: float
    eps_max: float
    eps_steps: int
    lt_min: float
    lt_max: float
    lt_steps: int

    def __post_init__(self):
        bounds = {"eps_min": self.eps_min, "eps_max": self.eps_max,
                  "lt_min": self.lt_min, "lt_max": self.lt_max}
        bad = [f"{k} = {v!r}" for k, v in bounds.items()
               if not math.isfinite(v)]
        if bad:
            raise ParameterError("grid bounds must be finite: "
                                 + ", ".join(bad))
        if self.eps_steps < 2 or self.lt_steps < 2:
            raise ParameterError("grids need at least 2 steps")
        if not (self.eps_min < self.eps_max and self.lt_min < self.lt_max):
            raise ParameterError("grid min must be below max")
        if self.eps_min < 0 or self.lt_min <= 0:
            raise ParameterError("epsilon may start at 0; lambda_t must be > 0")


def _fmt(x: float) -> str:
    """Shortest exact decimal for a float (round-trip stable)."""
    return repr(float(x))


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file (UTF-8) into parsed parameter values."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text: byte "
                             f"0x{data[exc.start]:02x} at offset {exc.start} "
                             f"({exc.reason})") from None
    values = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARAMS:
            raise ParameterError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            values[key] = _PARAMS[key][0](val)
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad value for "
                                 f"'{key}': {exc}") from None
    return values


def resolve_params(args: argparse.Namespace) -> dict:
    """Defaults, overridden by config file, overridden by explicit flags."""
    values = {key: default for key, (_, default) in _PARAMS.items()}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in _PARAMS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def build_scenario(values: dict) -> tuple[ChannelParams, SystemConfig, AttackParams]:
    channel = ChannelParams(
        alpha_w_sq=values["alpha_w_sq"], alpha_e_sq=values["alpha_e_sq"],
        sigma_w_sq=values["sigma_w_sq"], sigma_e_sq=values["sigma_e_sq"],
        sigma_h_sq=values["sigma_h_sq"], h_w=values["h_w"], h_e=values["h_e"])
    r_a = values["r_a"]
    if r_a is None:
        r_a = 0.8 * link_capacity(channel, values["lambda_a"])
        if not r_a > 0:
            snr = channel.gain_w * values["lambda_a"] / channel.sigma_w_sq
            raise ParameterError(
                "r_a defaults to 80% of the link capacity, which is 0 at the "
                f"link SNR alpha_w^2 |h_w|^2 lambda_a / sigma_w^2 = {snr:.3g} "
                "(zero link gain or too small); set r_a or a larger SNR")
    config = SystemConfig.create(
        channel, lambda_a=values["lambda_a"], r_a=r_a,
        delta_1=values["delta_1"], delta_2=values["delta_2"],
        pilot_len=values["pilot_len"], block_len=values["block_len"])
    attack = AttackParams(epsilon=values["epsilon"], lambda_t=values["lambda_t"])
    return channel, config, attack


# failing_condition in its order of precedence
_CONDITIONS = ("pilot_covert", "blind_comm", "no_disruption")


def _fmt_row(a) -> list[str]:
    """``_fmt`` of every element of a 1-d float array, in one C-level ``map``."""
    return list(map(repr, a.tolist()))


def sweep_cell_line(eps: np.ndarray, lt: np.ndarray,
                    rep: FeasibilityReport) -> list[str]:
    """The CSV rows of the grid ``eps`` (a column) x ``lt`` (a row), row-major.

    ``rep`` is the grid's report.  ``lambda_t`` and both rates depend on
    lambda_t alone and are formatted once per column, ``epsilon`` once per
    row; ``gamma_w``, ``tau_eps_w`` and ``delta_1_gap`` take one ``map``
    of ``repr`` per row.  The feasibility masks pick each cell's middle
    fields.
    """
    shape = np.broadcast_shapes(eps.shape, lt.shape)
    tin = _fmt_row(np.broadcast_to(rep.r_t_tin, lt.shape))
    ic = _fmt_row(np.broadcast_to(rep.r_t_ic, lt.shape))
    lts = _fmt_row(lt)
    # the fields between epsilon and gamma_w: row 0 for a feasible cell,
    # row k for one whose k-th condition is the first to fail
    middle = np.array(
        [[f"{l},1,,{t},{i}" for l, t, i in zip(lts, tin, ic)]]
        + [[f"{l},0,{name},0.0,0.0" for l in lts] for name in _CONDITIONS],
        dtype=object)
    cols = np.arange(shape[1])
    fields = (rep.feasible, rep.cond_pilot_covert, rep.cond_blind_comm,
              rep.gamma_w, rep.tau_eps, rep.delta_1_gap)
    lines = []
    for e, feasible, c1, c2, *cells in zip(
            _fmt_row(eps[:, 0]), *(np.broadcast_to(f, shape) for f in fields)):
        which = np.where(feasible, 0, np.where(c1, np.where(c2, 3, 2), 1))
        lines += [f"{e},{m},{g},{t},{d}" for m, g, t, d in
                  zip(middle[which, cols].tolist(), *map(_fmt_row, cells))]
    return lines


def run_sweep(channel: ChannelParams, config: SystemConfig,
              spec: SweepSpec) -> list[str]:
    """All CSV lines in row-major order, from one call over the whole grid."""
    from .rates import attack_feasibility

    eps = np.linspace(spec.eps_min, spec.eps_max, spec.eps_steps)[:, None]
    lt = np.linspace(spec.lt_min, spec.lt_max, spec.lt_steps)
    grid = attack_feasibility(channel, AttackParams(eps, lt), config)
    return [CSV_HEADER] + sweep_cell_line(eps, lt, grid)


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to stdout, or as UTF-8 to ``path`` overwritten in place.

    The file is opened without ``O_TRUNC``: where truncation frees the
    old blocks (ext4 mounted with ``discard``), truncating and writing into
    fresh blocks took 0.1 ms for an ``mc`` JSON and 0.7 ms for a 600 KB
    sweep band, overwriting and then cutting the tail 10 and 70 us.  A
    regular file ends with exactly ``text``, or is cut to 0 bytes when the
    write raises; a FIFO or a device is written, never truncated.  A
    process killed mid-write can leave new bytes before the old tail.
    """
    if path is None:
        sys.stdout.write(text)
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            with open(fd, "wb", closefd=False) as fh:
                fh.write(text.encode("utf-8"))
                if regular:
                    fh.truncate()
        except BaseException:   # an error or an interrupt raised mid-write
            # cut only after the close: its retried flush of buffered bytes
            # would otherwise land past the cut
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def cmd_sweep(args: argparse.Namespace) -> int:
    values = resolve_params(args)
    channel, config, _ = build_scenario(values)
    spec = SweepSpec(args.eps_min, args.eps_max, args.eps_steps,
                     args.lt_min, args.lt_max, args.lt_steps)
    lines = run_sweep(channel, config, spec)
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_rate(args: argparse.Namespace) -> int:
    from .detection import classify_regime
    from .rates import attack_feasibility

    values = resolve_params(args)
    channel, config, attack = build_scenario(values)
    rep = attack_feasibility(channel, attack, config)
    regime = classify_regime(channel, attack, config)
    lines = [
        f"epsilon = {_fmt(attack.epsilon)}",
        f"lambda_t = {_fmt(attack.lambda_t)}",
        f"feasible = {'true' if rep.feasible else 'false'}",
        f"cond_pilot_covert = {'true' if rep.cond_pilot_covert else 'false'}",
        f"cond_blind_comm = {'true' if rep.cond_blind_comm else 'false'}",
        f"cond_no_disruption = {'true' if rep.cond_no_disruption else 'false'}",
        f"cond_eve_ic = {'true' if rep.cond_eve_ic else 'false'}",
        f"gamma_w = {_fmt(rep.gamma_w)}",
        f"r_t_tin_bpcu = {_fmt(rep.r_t_tin)}",
        f"r_t_ic_bpcu = {_fmt(rep.r_t_ic)}",
        f"tau_eps_w = {_fmt(rep.tau_eps)}",
        f"regime = {regime.value}",
        f"delta_1_gap = {_fmt(rep.delta_1_gap)}",
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _mc_payload(args: argparse.Namespace) -> dict:
    from .detection import solve_sqrt_law_coefficient
    from .montecarlo import (McConfig, mc_comm_error_probs,
                             mc_estimator_error, mc_pilot_kl, mc_sqrt_law)

    channel, config, attack = build_scenario(resolve_params(args))
    mc = McConfig(trials=args.trials, base_seed=args.seed)
    params = {"epsilon": attack.epsilon, "lambda_t": attack.lambda_t,
              "n": config.block_len, "l": config.pilot_len}
    out = {"target": args.target, "trials": args.trials, "seed": args.seed,
           "params": params}

    if args.target == "pilot-kl":
        res = mc_pilot_kl(channel, attack, config.pilot_len, mc)
        out.update(point_estimate=res.point_estimate, std_error=res.std_error,
                   analytic_reference=res.analytic_reference)
    elif args.target == "comm-detection":
        probs, (rf, rm) = mc_comm_error_probs(channel, attack, config, mc)
        out.update(point_estimate=probs.sum, p_f=probs.p_f, p_m=probs.p_m,
                   std_error=math.hypot(rf.std_error, rm.std_error),
                   analytic_reference=(rf.analytic_reference
                                       + rm.analytic_reference))
    elif args.target == "estimator":
        l_grid = [2 ** k for k in range(4, 13)]
        rows = mc_estimator_error(channel, attack, l_grid, mc)
        mse = [r.mse_scaled for r in rows]
        # the log-log slope needs every MSE finite and > 0; a noiseless link
        # gives 0.0 at every pilot length
        _require(all(0 < m < math.inf for m in mse),
                 f"the estimator slope needs a finite, nonzero scaled-pilot "
                 f"MSE at every pilot length; got {mse!r}")
        slope = float(np.polyfit(np.log([r.l for r in rows]), np.log(mse), 1)[0])
        out.update(point_estimate=slope, std_error=float("nan"),
                   analytic_reference=-1.0,
                   table=[{"l": r.l, "mse_clean": r.mse_clean,
                           "mse_scaled": r.mse_scaled} for r in rows])
    else:   # sqrtlaw; argparse restricts the choices
        c = args.c if args.c is not None \
            else solve_sqrt_law_coefficient(channel, config.delta_2)
        n_grid = [10_000, 100_000]
        rows = mc_sqrt_law(channel, c, n_grid, mc)
        last = rows[-1]
        out["params"]["c"] = c
        out.update(point_estimate=last.one_minus_sum, std_error=last.std_error,
                   analytic_reference=last.bound_limit,
                   table=[{"n": r.n, "lambda_t": r.lambda_t,
                           "one_minus_sum": r.one_minus_sum,
                           "std_error": r.std_error, "bound": r.bound,
                           "bound_limit": r.bound_limit} for r in rows])
    return out


def cmd_mc(args: argparse.Namespace) -> int:
    payload = _mc_payload(args)
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verification

    suites = (list(verification.SUITES) if args.suite == "all"
              else [args.suite])
    first_failure = None
    for name in suites:
        for check in verification.SUITES[name](seed=args.seed):
            status = "ok  " if check.passed else "FAIL"
            print(f"[{status}] {name}/{check.name}: {check.detail}")
            if not check.passed and first_failure is None:
                first_failure = f"{name}/{check.name}"
    if first_failure is not None:
        print(f"verification failed: first failing invariant {first_failure}")
        return EXIT_VERIFY
    print("all invariants hold")
    return EXIT_OK


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    for key, (parser, _) in _PARAMS.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=parser,
                       default=None, help=f"override {key}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key = value parameter file")
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect "
                        "(every run is serial)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing never mutates it)."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="covertpilot",
        description="covert pilot-scaling attack analysis",
        epilog="see module docstring / README for the config-file grammar "
               "and the CSV schema", exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="feasibility/rate region CSV over an "
                                     "(epsilon, lambda_t) grid",
                       description=f"CSV columns: {CSV_HEADER}",
                       exit_on_error=False)
    _add_common(p)
    _add_param_flags(p)
    p.add_argument("--eps-min", type=float, default=0.0)
    p.add_argument("--eps-max", type=float, default=0.2475)
    p.add_argument("--eps-steps", type=int, default=100)
    p.add_argument("--lt-min", type=float, default=0.01)
    p.add_argument("--lt-max", type=float, default=1.0)
    p.add_argument("--lt-steps", type=int, default=100)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rate", help="feasibility report for one point",
                       exit_on_error=False)
    _add_common(p)
    _add_param_flags(p)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("mc", help="Monte Carlo estimate as a JSON object",
                       exit_on_error=False)
    _add_common(p)
    _add_param_flags(p)
    p.add_argument("--target", required=True,
                   choices=["pilot-kl", "comm-detection", "estimator",
                            "sqrtlaw"])
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--c", type=float, default=None,
                   help="sqrt-law coefficient (default: the smallest c whose "
                        "bound limit is delta_2)")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("verify", help="analytic-vs-oracle invariant suites",
                       exit_on_error=False)
    # a literal, since loading verification.SUITES here would load every
    # module; a test holds it equal to [*verification.SUITES, "all"]
    p.add_argument("--suite", default="all",
                   choices=["kl", "mmse", "threshold", "regimes", "sqrtlaw",
                            "all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser, sub.choices


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, reading a subcommand's tokens once.

    When ``argv[0]`` names a subcommand, only that subcommand's parser reads
    the rest; left-over tokens end in the top-level parser's
    ``unrecognized arguments`` error, as ``parse_args`` reports them.
    """
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    try:
        args = _parse_args(argv)
        _require(args.seed >= 0, "seed must be >= 0")
        return args.func(args)
    except (ParameterError, argparse.ArgumentError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    run()
