"""Command-line front end: validate instances, run solves, market demo.

Exit codes are a stable contract: 0 success/converged, 1 non-converged,
2 validation failure (an instance, step size or option that the solver
rejects before round 0), 3 I/O or parse failure.  Trace files are plain comma-separated text with one header row;
the default output directory comes from DUALPROX_TRACE_DIR when set.
"""

from __future__ import annotations

import argparse
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
    if arg:
        return Path(arg)
    base = os.environ.get(TRACE_DIR_ENV, ".")
    return Path(base) / default_name


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=float, default=None,
                   help="dual step size (default: suggested from the step rule)")
    p.add_argument("--gamma", type=float, default=1.0,
                   help="multiplier/stabilization step size")
    p.add_argument("--max-iter", type=int, default=1_000_000)
    p.add_argument("--tol-consensus", type=float, default=1e-6)
    p.add_argument("--tol-primal", type=float, default=1e-6)
    p.add_argument("--tol-step", type=float, default=1e-8)
    p.add_argument("--trace-every", type=int, default=100)
    p.add_argument("--trace-out", type=str, default=None,
                   help=f"trace file path (default: ${TRACE_DIR_ENV} or cwd)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the spectral-radius start vector")
    p.add_argument("--workers", type=int, default=1,
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


def _solve(
    instance, args, default_trace: str, trace_state: bool = False
) -> SolveResult | None:
    """Solve and write the trace; ``None`` after a set-up rejection, which is
    reported on stderr.  Errors raised during the rounds propagate."""
    config = SolverConfig(
        c=args.c,
        gamma=args.gamma,
        max_iter=args.max_iter,
        tol_consensus=args.tol_consensus,
        tol_primal=args.tol_primal,
        tol_step=args.tol_step,
        trace_every=args.trace_every,
        trace_state=trace_state,
        n_workers=args.workers,
        seed=args.seed,
    )
    try:
        result = solve(instance, config)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    trace_path = _trace_path(args.trace_out, default_trace)
    result.trace.write_csv(trace_path)
    print(f"trace: {trace_path}")
    return result


def _fmt_row(v) -> str:
    return " ".join(f"{float(x):.6f}" for x in np.atleast_1d(v))


def _print_result(result: SolveResult) -> None:
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
    if result is None:
        return EXIT_VALIDATION
    _print_result(result)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_market_demo(args) -> int:
    # trace_state adds the theta/mu/xi trajectory columns to the trace
    result = _solve(build_market(), args, "market_trace.csv", trace_state=True)
    if result is None:
        return EXIT_VALIDATION
    print(f"h: {result.h!r}")
    print(f"laplacian_spectral_radius: {result.tau!r}")
    _print_result(result)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


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
