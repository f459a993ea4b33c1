"""Child process of the cli workload: runs the dualprox command line.

    python cli_child.py RESULT_JSON TRACE DUALPROX_ARGS...

Calls ``dualprox.cli.main`` with DUALPROX_ARGS, exactly as the
``dualprox`` console script does, and exits with its code.  The only
addition is a wrapper around the ``solve`` the command line calls, which
notes when its round 0 started (``first_round.FirstRound``), so the parent
can split set-up from solving, and the wall time of its rounds (the
solver's own ``wall_time`` column) for the per-layer report.  With TRACE=1
the per-layer tracer is installed as well.  Timestamps are
``time.monotonic``, which the parent reads on the same clock.
"""

import json
import sys
import time

import dualprox.cli as cli
from first_round import FirstRound

imported = time.monotonic()


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    record = {"imported": imported}
    solve = cli.solve

    def timed_solve(instance, config=None):
        with FirstRound(time.monotonic) as first:
            result = solve(instance, config)
        record["first_round"] = first.time
        record["rounds_wall"] = result.trace.rows[-1][5]
        record["iterations"] = result.iterations
        record["n_agents"] = instance.n_agents
        return result

    cli.solve = timed_solve
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on --version
        code = exc.code or 0
    sys.stdout.flush()
    if tracer is not None:
        record["trace"] = tracer.snapshot()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
