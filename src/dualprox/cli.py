"""Command-line front end: validate instances, run solves, market demo.

Exit codes are a stable contract: 0 success/converged, 1 non-converged,
2 validation failure (an instance, step size or option that the solver
rejects before round 0), 3 I/O or parse failure.  Trace files are plain comma-separated text with one header row;
the default output directory comes from DUALPROX_TRACE_DIR when set.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .problems import ParseError, build_market, load_instance, validate
from .solver import SetupError, SolveResult, SolverConfig, solve
# unused here; bench/tracer.py wraps this name in this module's namespace
from .topology import laplacian_spectral_radius  # noqa: F401

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

TRACE_DIR_ENV = "DUALPROX_TRACE_DIR"


def _trace_path(arg: str | None, default_name: str) -> Path:
    return Path(arg) if arg else Path(os.environ.get(TRACE_DIR_ENV, ".")) / default_name


# the SolverConfig fields that the solver flags set, each from its own flag
# (``--workers`` sets ``n_workers``)
_CONFIG_FIELDS = ("c", "gamma", "max_iter", "tol_consensus", "tol_primal", "tol_step",
                  "trace_every", "n_workers", "seed")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    default = SolverConfig()
    p.add_argument("--c", type=float, default=default.c,
                   help="dual step size (default: suggested from the step rule)")
    p.add_argument("--gamma", type=float, default=default.gamma,
                   help="multiplier/stabilization step size")
    for name, kind in (("max_iter", int), ("tol_consensus", float), ("tol_primal", float),
                       ("tol_step", float), ("trace_every", int)):
        p.add_argument("--" + name.replace("_", "-"), type=kind, default=getattr(default, name))
    p.add_argument("--trace-out", type=str, default=None,
                   help=f"trace file path (default: ${TRACE_DIR_ENV} or cwd)")
    p.add_argument("--seed", type=int, default=default.seed,
                   help="accepted for compatibility; has no effect (tau is "
                   "a closed-form bound)")
    p.add_argument("--workers", dest="n_workers", metavar="WORKERS", type=int,
                   default=default.n_workers,
                   help="accepted for compatibility; has no effect (rounds "
                   "run on one thread)")


def _load(path: str):
    """The instance in ``path``; ``None`` after reporting why it cannot be read."""
    try:
        return load_instance(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def _unwritable(path: Path) -> OSError | None:
    """The error that opening ``path`` for writing would raise, "No such
    file or directory" or "Is a directory", when its parent is not a
    directory or it is one; ``None`` otherwise.  It is found by ``stat``
    alone, so nothing is created."""
    if path.is_dir() or not path.parent.is_dir():
        code = errno.EISDIR if path.is_dir() else errno.ENOENT
        return OSError(code, os.strerror(code), str(path))
    return None


def _solve(
    instance, args, default_trace: str, trace_state: bool = False
) -> SolveResult | int:
    """Solve and write the trace; an exit code after a trace path that
    cannot be written, checked before round 0 and again when written, or a
    set-up rejection, each reported on stderr.  Errors raised during the
    rounds propagate."""
    config = SolverConfig(trace_state=trace_state,
                          **{name: getattr(args, name) for name in _CONFIG_FIELDS})
    trace_path = _trace_path(args.trace_out, default_trace)
    error = _unwritable(trace_path)
    if error is None:
        try:
            result = solve(instance, config)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            result.trace.write_csv(trace_path)
        except OSError as exc:
            error = exc
        else:
            print(f"trace: {trace_path}")
            return result
    print(f"error: cannot write {trace_path}: {error}", file=sys.stderr)
    return EXIT_IO


def _fmt_row(v) -> str:
    return " ".join(f"{float(x):.6f}" for x in np.atleast_1d(v))


def _print_result(result: SolveResult) -> int:
    """Print the result and return its exit code."""
    final = result.trace.rows[-1]
    print(f"converged: {str(result.converged).lower()} ({result.reason})")
    print(f"iterations: {result.iterations}")
    print(f"step_sizes: c={result.steps.c!r} gamma={result.steps.gamma!r}")
    print(f"phi: {final[1]!r}")
    print(f"consensus_residual: {final[2]!r}")
    print(f"primal_residual: {final[3]!r}")
    for row in result.agent_report():
        print(
            f"agent {row['agent']}: theta={_fmt_row(row['theta'])} "
            f"mu={_fmt_row(row['mu'])} x={_fmt_row(row['x'])}"
        )
    print(f"theta_out: {_fmt_row(result.theta.ravel())}")
    print(f"mu_out: {_fmt_row(result.mu.ravel())}")
    print(f"xi_out: {_fmt_row(result.xi.ravel())}")
    print(f"x_out: {_fmt_row(result.x.ravel())}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_validate(args) -> int:
    instance = _load(args.instance)
    if instance is None:
        return EXIT_IO
    report = validate(instance)
    print(report)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_solve(args) -> int:
    instance = _load(args.instance)
    if instance is None:
        return EXIT_IO
    result = _solve(instance, args, "trace.csv")
    if isinstance(result, int):
        return result
    return _print_result(result)


def cmd_market_demo(args) -> int:
    # trace_state adds the theta/mu/xi trajectory columns to the trace
    result = _solve(build_market(), args, "market_trace.csv", trace_state=True)
    if isinstance(result, int):
        return result
    print(f"h: {result.h!r}")
    print(f"laplacian_spectral_radius: {result.tau!r}")
    return _print_result(result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualprox",
        description="Distributed dual proximal gradient solver for coupled "
        "convex programs over agent networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check an instance file against the assumptions")
    p_val.add_argument("--instance", required=True)
    p_val.set_defaults(fn=cmd_validate)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--instance", required=True)
    _add_solver_flags(p_solve)
    p_solve.set_defaults(fn=cmd_solve)

    p_market = sub.add_parser(
        "market-demo",
        help="run the built-in electricity-market benchmark",
    )
    _add_solver_flags(p_market)
    p_market.set_defaults(fn=cmd_market_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
