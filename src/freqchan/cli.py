"""Command-line front end.

Four subcommands: ``exponents`` and ``rates`` sweep the analytic
curves into CSV files, ``simulate`` runs the Monte Carlo channel, and
``verify`` executes the built-in self-check suites.  Every file output
gets a flat key=value manifest beside it from which the exact command
can be replayed byte-for-byte.

The CLI checks only what is its own (the shape and size of a range, and
which curve ``--gnuplot`` takes).  The library raises ``ValueError``
only for input outside its documented domain, so ``main`` reports every
``ValueError`` as ``usage error: ...`` with exit 64, before any output
file is written.  Other exit codes: 0 success, 1 verification failure,
2 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import __version__
from ._record import frozen
from .baselines import FirQuery, converse_rate, fir_rate
from .ex_bounds import ExSettings, ex_exponent
from .rc_bounds import BoundQuery, rc_exponent, rate_lower_bound

__all__ = ["RunManifest", "main", "console",
           "cmd_exponents", "cmd_rates", "cmd_simulate", "cmd_verify"]

_SEED_ENV = "FREQCHAN_SEED"
_CSV_HEADER = "R,E_rc,E_ex,argmax_alpha,argmax_xi,argmax_rho,rho_capped"
# Steps a lo:hi:step grid may span; checked before the grid is built.
_MAX_GRID_POINTS = 1 << 20

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_IO = 2
EXIT_USAGE = 64


class UsageError(ValueError):
    """Bad command line; like every ``ValueError``, exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


@frozen
class RunManifest:
    """Everything needed to reproduce one output file.

    ``parameters`` maps CLI option names (without dashes) to their
    string values (a fresh empty dict when omitted); replaying the
    reconstructed argv writes the same bytes again.  ``wall_time_s`` is
    informational and excluded from replay.
    """

    command: str
    parameters: dict[str, str] | None = None
    seed: int | None = None
    tool_version: str = __version__
    wall_time_s: float = 0.0
    note: str = ""

    def __post_init__(self) -> None:
        if self.parameters is None:
            object.__setattr__(self, "parameters", {})

    def write(self, path: str) -> None:
        lines = [
            f"command={self.command}",
            f"tool_version={self.tool_version}",
            f"seed={'' if self.seed is None else self.seed}",
            f"wall_time_s={self.wall_time_s:.6f}",
        ]
        if self.note:
            lines.append(f"note={self.note}")
        for key in sorted(self.parameters):
            lines.append(f"param.{key}={self.parameters[key]}")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path: str) -> "RunManifest":
        fields: dict[str, str] = {}
        params: dict[str, str] = {}
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                key, _, value = line.partition("=")
                if key.startswith("param."):
                    params[key[len("param."):]] = value
                else:
                    fields[key] = value
        seed = int(fields["seed"]) if fields.get("seed") else None
        return cls(command=fields["command"], parameters=params, seed=seed,
                   tool_version=fields.get("tool_version", ""),
                   wall_time_s=float(fields.get("wall_time_s", "0") or 0.0),
                   note=fields.get("note", ""))

    def replay_argv(self) -> list[str]:
        argv = [self.command]
        for key in sorted(self.parameters):
            value = self.parameters[key]
            if value == "true":
                argv.append(f"--{key}")
            elif value == "false":
                continue
            else:
                argv.extend([f"--{key}", value])
        return argv


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_range(text: str) -> list[float]:
    """Parse ``lo:hi:step`` into an inclusive grid.

    Endpoints are included within half a step.  An empty range (hi <= lo
    or step <= 0) or one of _MAX_GRID_POINTS steps or more is rejected.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"non-numeric range {text!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError(f"range endpoints must be finite, got {text!r}")
    if step <= 0.0 or hi <= lo:
        raise UsageError(f"empty range {text!r}")
    span = (hi - lo) / step
    if not span < _MAX_GRID_POINTS:
        raise UsageError(f"range {text!r} has {_MAX_GRID_POINTS}+ steps")
    count = int(math.floor(span + 0.5)) + 1
    return [lo + i * step for i in range(count)]


def _default_seed() -> int:
    raw = os.environ.get(_SEED_ENV, "")
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"{_SEED_ENV} must be an integer, got {raw!r}") from exc


def _write_outputs(args: argparse.Namespace, started: float, rows: list[str],
                   plot_rows=(), note: str = "") -> None:
    """Write ``--out``, the ``--gnuplot`` file if asked for, and the
    manifest, whose ``param.*`` lines are the parsed options themselves."""
    for path, lines in ((args.out, rows),
                        (getattr(args, "gnuplot", None), plot_rows)):
        if path:
            with open(path, "w", newline="") as fh:
                fh.write("\n".join(lines) + "\n")
    params = {}
    for dest, value in vars(args).items():
        if dest in ("command", "func") or value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = _fmt(value)
        params[dest.replace("_", "-")] = str(value)
    RunManifest(command=args.command, parameters=params,
                seed=getattr(args, "seed", None),
                wall_time_s=time.monotonic() - started,
                note=note).write(args.out + ".manifest")


def cmd_exponents(args: argparse.Namespace) -> int:
    started = time.monotonic()
    rates = parse_range(args.rate)
    if args.gnuplot and args.which == "both":
        raise UsageError("--gnuplot needs --which rc or ex to pick a curve")
    ex_settings = ExSettings(rho_max=args.rho_max)

    lines = [_CSV_HEADER]
    gnuplot_lines = []
    for rate in rates:
        cells = [_fmt(rate), "", "", "", "", "", ""]
        if args.which in ("rc", "both"):
            pt = rc_exponent(BoundQuery(R=rate, r=args.r))
            cells[1] = _fmt(pt.E)
            cells[3] = _fmt(pt.argmax.alpha)
            cells[4] = _fmt(pt.argmax.xi)
            if args.which == "rc":
                gnuplot_lines.append(f"{_fmt(rate)} {_fmt(pt.E)}")
        if args.which in ("ex", "both"):
            ept = ex_exponent(BoundQuery(R=rate, r=args.r), ex_settings)
            cells[2] = _fmt(ept.E)
            cells[5] = _fmt(ept.argmax.rho)
            cells[6] = "1" if ept.rho_capped else "0"
            if args.which == "ex":
                gnuplot_lines.append(f"{_fmt(rate)} {_fmt(ept.E)}")
        lines.append(",".join(cells))

    _write_outputs(args, started, lines, gnuplot_lines)
    print(f"wrote {len(rates)} rows to {args.out}")
    return EXIT_OK


def cmd_rates(args: argparse.Namespace) -> int:
    started = time.monotonic()
    r_values = parse_range(args.r)
    budgets = [float(g) for g in args.g.split(",") if g]

    header = ["r", "R_LB", "converse"] + [f"fir_g{g:g}" for g in budgets]
    lines = [",".join(header)]
    gnuplot_lines = []
    for r in r_values:
        row = [_fmt(r), _fmt(rate_lower_bound(r)),
               _fmt(converse_rate(r))]
        row += [_fmt(fir_rate(FirQuery(g=g, r=r))) for g in budgets]
        lines.append(",".join(row))
        gnuplot_lines.append(f"{row[0]} {row[1]}")

    # The finite-budget columns extrapolate away from their derivation's
    # regime (per-type budget tracking the sampling ratio); the caveat
    # travels in the manifest rather than polluting the CSV.
    note = ""
    if budgets:
        note = ("fir columns assume the per-type budget tracks r; "
                "values far from the peak are extrapolations")
    _write_outputs(args, started, lines, gnuplot_lines, note=note)
    print(f"wrote {len(r_values)} rows to {args.out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .channel import SimConfig, estimate_error_probability

    started = time.monotonic()
    if args.seed is None:
        args.seed = _default_seed()
    config = SimConfig(
        n=args.n, r=args.r, alpha=args.alpha, trials=args.trials,
        seed=args.seed, M=args.M, R=args.R, parallelism=args.parallelism,
        fresh_codebook=not args.fixed_codebook)
    report = estimate_error_probability(config)

    header = ("n,r,alpha,M,R,trials,seed,errors,eps_hat,"
              "wilson_lo,wilson_hi,thm1_bound")
    row = ",".join([
        str(config.n), _fmt(config.r), _fmt(config.alpha),
        str(config.resolved_m), _fmt(config.resolved_rate),
        str(config.trials), str(config.seed), str(report.errors),
        _fmt(report.eps_hat), _fmt(report.wilson_ci[0]),
        _fmt(report.wilson_ci[1]), _fmt(report.thm1_bound),
    ])
    _write_outputs(args, started, [header, row])

    lo, hi = report.wilson_ci
    print(f"errors {report.errors}/{report.trials}  "
          f"eps_hat {report.eps_hat:.6g}  wilson95 [{lo:.6g}, {hi:.6g}]  "
          f"thm1_bound {report.thm1_bound:.6g}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    seed = args.seed if args.seed is not None else _default_seed()
    results = run_suites(args.suite, seed)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    failed = sum(not ok for _, ok, _ in results)
    print(f"verify: suite={args.suite} checks={len(results)} failed={failed}")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="freqchan",
                     description="Bounds and simulation for the frequency "
                                 "sampling channel (all rates in nats)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="sweep error exponents over rates")
    p.add_argument("--r", type=float, required=True,
                   help="sampling ratio (reads per type)")
    p.add_argument("--rate", required=True, metavar="LO:HI:STEP",
                   help="rate grid in nats")
    p.add_argument("--which", choices=("rc", "ex", "both"), default="both")
    p.add_argument("--rho-max", type=float, default=ExSettings.rho_max,
                   help="cap on the expurgation power rho")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--gnuplot", help="also write a two-column plot file")
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("rates", help="sweep achievable-rate curves over r")
    p.add_argument("--r", required=True, metavar="LO:HI:STEP",
                   help="sampling-ratio grid")
    p.add_argument("--g", default="",
                   help="comma-separated resolution budgets for the "
                        "finite-budget baseline")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--gnuplot", help="also write a two-column plot file")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("simulate", help="Monte Carlo error probability")
    p.add_argument("--n", type=int, required=True, help="number of types")
    p.add_argument("--r", type=float, required=True,
                   help="reads per type (n*r must be integral)")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="Dirichlet codebook parameter")
    p.add_argument("--M", type=int, help="codebook size")
    p.add_argument("--R", type=float, help="rate in nats (M = round(e^{nR}))")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default ${_SEED_ENV} or 0)")
    p.add_argument("--parallelism", type=int, default=os.cpu_count() or 1,
                   help="worker processes; results do not depend on it")
    p.add_argument("--fixed-codebook", action="store_true",
                   help="share one codebook across trials")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run built-in self checks")
    p.add_argument("--suite", choices=("special", "rc", "ex", "channel", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def replay_manifest(path: str) -> int:
    """Re-run the command recorded in a manifest file."""
    return main(RunManifest.read(path).replay_argv())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def console() -> None:
    # numpy's OpenBLAS starts worker threads at import that spin for ~0.1 s
    # of CPU, and freqchan calls no threaded BLAS.  A caller's setting wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
