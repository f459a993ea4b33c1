"""Benchmark of dualprox: end-to-end timings and per-layer counters.

    python3 bench/run.py --workload market --seed 1 --seconds 35 --trace 0

Workloads (see README.md): ``market`` solves the paper's five-agent market,
``market-scaled`` a seeded 3000-agent market for a fixed round budget, and
``cli`` runs the command line in child processes on a seeded vector
instance and on the built-in market.  One operation is one ``solve`` call
or one CLI invocation; the run repeats whole rounds of operations until
``--seconds`` have passed, checks every output, and prints as its last
line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` installs the per-layer tracer and reports
the per-layer metrics instead.  Everything runs on one thread.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60.0


def load_program():
    """Import dualprox from this checkout's ``src``, and nowhere else."""
    package = SRC / "dualprox"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import dualprox

    if Path(dualprox.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported dualprox from {dualprox.__file__}, not from {package}")
    return dualprox


median = statistics.median
clock = time.perf_counter

# Timings are reported at a reference machine speed: the speed at which
# one pass of the calibration kernel takes CAL_REFERENCE_S.  The virtual
# CPUs this benchmark was built on change speed by a third or more within
# minutes, and process CPU time changes with them, so a raw wall time
# cannot repeat; the kernel, timed between operations, changes in step.
CAL_REFERENCE_S = 0.010
CAL_LOOPS = 1500
CAL_PASSES = 3


def calibration_kernel() -> float:
    """Fixed work in the program's mix: tiny numpy ops, dicts, floats."""
    a, b = np.zeros(2), np.ones(2)
    table = {}
    total = 0.0
    for i in range(CAL_LOOPS):
        a = a + 0.5 * b
        c = np.clip(a, 0.0, 1.0)
        table[i & 63] = float(c[0]) + total
        total += table[i & 63] * 1e-9
    return total


class Machine:
    """This machine's current speed, from timed passes of the kernel."""

    def __init__(self):
        self.samples: list[float] = []

    def measure(self) -> float:
        passes = []
        for _ in range(CAL_PASSES):
            start = clock()
            calibration_kernel()
            passes.append(clock() - start)
        self.samples.append(median(passes))
        return self.samples[-1]

    def since_last(self) -> float:
        """Scale for an operation that ran since the last measurement:
        reference over the mean of the kernel's time before and after."""
        before = self.samples[-1]
        return CAL_REFERENCE_S / (0.5 * (before + self.measure()))

    def overall(self) -> float:
        """Scale for timings taken anywhere in the run."""
        return CAL_REFERENCE_S / median(self.samples)


class Run:
    """Counts of one run's operations and the problems its checks found."""

    def __init__(self, args):
        self.args = args
        self.machine = Machine()
        self.deadline = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def start(self) -> None:
        self.machine.measure()
        self.deadline = clock() + self.args.seconds

    def more(self) -> bool:
        return clock() < self.deadline

    def invalid(self, problems: list[str]) -> None:
        """Problems found outside any operation, in the benchmark's own data."""
        self.wrong += len(problems)
        self.problems += problems

    def outcome(self, what: str, problems: list[str]) -> bool:
        """Count one finished operation; True when it passed its checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: raised\n{traceback.format_exc()}")


# --- the per-layer report ---------------------------------------------------------


def layer_metrics(stats, power_iterations, solves, rounds, rounds_wall, extras):
    """Per-layer metrics from summed tracer counters of the solve operations.

    ``stats`` maps a layer name to [calls, seconds]; ``rounds`` and
    ``rounds_wall`` are summed over the traced solves; ``extras`` holds
    the layers measured apart from the operations.
    """

    def calls(name):
        return stats.get(name, [0, 0.0])[0]

    def secs(name):
        return stats.get(name, [0, 0.0])[1]

    def per_call(name, scale):
        return scale * secs(name) / calls(name)

    loop = ("solver.iterate", "solver.residuals", "solver.trace_record")
    metrics = {
        "problems.build_ms": per_call("problems.build_market", 1e3),
        "problems.validate_ms": per_call("problems.validate", 1e3),
        "problems.validate_calls": calls("problems.validate") / solves,
        "topology.graph_ms": per_call("topology.graph", 1e3),
        "topology.spectral_radius_ms": per_call("topology.spectral_radius", 1e3),
        "topology.spectral_radius_calls": calls("topology.spectral_radius") / solves,
        "topology.power_iterations": power_iterations / calls("topology.spectral_radius"),
        "solver.iterate_ms": 1e3 * secs("solver.iterate") / rounds,
        "solver.residuals_ms": 1e3 * secs("solver.residuals") / rounds,
        "solver.residuals_per_round": calls("solver.residuals") / rounds,
        "solver.trace_record_ms": 1e3 * secs("solver.trace_record") / rounds,
        "solver.loop_other_ms": 1e3 * (rounds_wall - sum(secs(n) for n in loop)) / rounds,
        "functions.conjugate_gradient_per_round": calls("functions.conjugate_gradient") / rounds,
        "functions.conjugate_gradient_us": per_call("functions.conjugate_gradient", 1e6),
        "functions.conjugate_prox_per_round": calls("functions.conjugate_prox") / rounds,
        "functions.conjugate_prox_us": per_call("functions.conjugate_prox", 1e6),
        "functions.support_value_per_round": calls("functions.support_value") / rounds,
    }
    metrics.update(extras)
    return metrics


def add_stats(total, stats):
    for name, (n, s) in stats.items():
        acc = total.setdefault(name, [0, 0.0])
        acc[0] += n
        acc[1] += s


def engine_layer(dp, instance, steps, rounds):
    """Time per round of the message-passing engine, and its message cost."""
    with dp.Engine(instance, steps) as engine:
        start = clock()
        engine.run(rounds)
        round_ms = 1e3 * (clock() - start) / rounds
    with dp.Engine(instance, steps, log_events=True) as engine:
        engine.run(1)
        events = engine.transport.events
    return {
        "netsim.round_ms": round_ms,
        "netsim.messages_per_round": float(len(events)),
        "netsim.scalars_per_round": float(sum(e[4] for e in events)),
    }


def file_layers(dp, instance, result):
    """Loading the instance from its file and writing the trace CSV."""
    path = OUT / "instance.txt"
    dp.save_instance(instance, path)
    load_s, csv_s = [], []
    for _ in range(LAYER_REPEATS):
        start = clock()
        dp.load_instance(path)
        load_s.append(clock() - start)
        start = clock()
        result.trace.write_csv(OUT / "trace.csv")
        csv_s.append(clock() - start)
    return {
        "problems.load_instance_ms": 1e3 * median(load_s),
        "solver.write_csv_ms": 1e3 * median(csv_s),
    }


# --- child processes ----------------------------------------------------------------


def run_child(argv, tag, trace):
    """Run the command line in a child; returns its timings and outputs."""
    result_path = OUT / f"{tag}.json"
    stdout_path = OUT / f"{tag}.out"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH / "cli_child.py"), str(result_path), str(int(trace)), *argv]
    with open(stdout_path, "wb") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=OUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(result_path.read_text()) if result_path.is_file() else {}
    result_path.unlink(missing_ok=True)
    return {
        "code": proc.returncode,
        "stdout": stdout_path.read_text(),
        "spawned": spawned,
        "exited": exited,
        "rss_mb": usage.ru_maxrss / 1024.0,
        **record,
    }


def startup_layer():
    """Interpreter start plus ``import dualprox.cli``, from ``--version`` runs."""
    times = []
    for k in range(LAYER_REPEATS):
        child = run_child(["--version"], f"startup{k}", trace=False)
        times.append(child["imported"] - child["spawned"])
    return {"cli.startup_s": median(times)}


# --- workloads ----------------------------------------------------------------------


def own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def solve_loop(run, dp, build, config, check, n_agents, trace):
    """Repeat build-then-solve until the deadline; one operation per solve.

    Set-up runs from the start of the build to round 0 of ``solve``, and
    solving from round 0 to the return, primal recovery included.  The
    solver's own ``wall_time`` of its rounds is kept for the per-layer
    report.
    """
    from first_round import FirstRound

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    setup, solve, walls, scales, rounds = [], [], [], [], []
    last = None
    run.start()
    while True:
        try:
            with FirstRound(clock) as first:
                start = clock()
                instance = build()
                result = dp.solver.solve(instance, config)
                done = clock()
        except Exception:
            run.crashed("solve")
        else:
            scale = run.machine.since_last()
            if run.outcome("solve", check(result)):
                setup.append(first.time - start)
                solve.append(done - first.time)
                walls.append(result.trace.rows[-1][5])
                scales.append(scale)
                rounds.append(result.iterations)
                last = (instance, result)
        if not run.more():
            break
    if tracer is not None:
        tracer.restore()
    if not solve:
        return None
    if tracer is None:
        return {
            "setup_s": median(k * t for k, t in zip(scales, setup)),
            "solve_s": median(k * t for k, t in zip(scales, solve)),
            "rounds": float(median(rounds)),
            "agent_rounds_per_s": median(
                n_agents * r / (k * t) for k, r, t in zip(scales, rounds, solve)
            ),
            "peak_rss_mb": own_rss_mb(),
        }
    # per-layer: the tracer's counters over every solve, then the layers
    # that the solve does not reach, measured untraced on the last instance
    instance, result = last
    extras = {"traced.setup_s": median(setup), "traced.solve_s": median(solve)}
    extras.update(engine_layer(dp, instance, result.steps, ENGINE_ROUNDS[run.args.workload]))
    extras.update(file_layers(dp, instance, result))
    extras.update(startup_layer())
    return layer_metrics(
        tracer.stats, tracer.power_iterations, len(solve), sum(rounds), sum(walls), extras
    )


def workload_market(run, dp, trace):
    p, q, a, lo, hi = checks.paper_market_rows(inputs.PAPER_COMPANIES, inputs.PAPER_USERS)
    x_star, eta_star = checks.scalar_market_optimum(p, q, a, lo, hi)
    run.invalid(checks.check_paper_active_set(x_star, hi))

    def check(result):
        problems = [] if result.converged else [f"not converged: {result.reason}"]
        return problems + checks.check_market_solution(result.x, result.theta, x_star, eta_star)

    config = dp.SolverConfig(seed=run.args.seed)
    return solve_loop(run, dp, lambda: dp.problems.build_market(), config, check, len(p), trace)


def workload_market_scaled(run, dp, trace):
    market = inputs.scaled_market(run.args.seed)
    n = market.n_agents
    rows = checks.paper_market_rows(market.companies, market.users)
    references = {}

    def build():
        graph = dp.topology.Graph(n, market.edges)
        params = dp.MarketParams(
            uc=tuple(dp.UCParams(d, s, 0.0, x) for d, s, x in market.companies),
            users=tuple(dp.UserParams(chi, pi, x) for chi, pi, x in market.users),
        )
        return dp.problems.build_market(params, graph)

    def check(result):
        problems = []
        if result.iterations != inputs.SCALED_ROUNDS:
            problems.append(f"ran {result.iterations} rounds, budget {inputs.SCALED_ROUNDS}")
        key = (result.steps.c, result.steps.gamma, result.iterations)
        if key not in references:
            references[key] = checks.reference_iteration(
                *rows, 1.0 / n, 0.0, market.edges, *key
            )
        got = (result.theta, result.mu, result.xi, result.x)
        return problems + checks.check_against_reference(got, references[key])

    config = dp.SolverConfig(max_iter=inputs.SCALED_ROUNDS, seed=run.args.seed)
    return solve_loop(run, dp, build, config, check, n, trace)


def cli_commands(seed, instance_path):
    """The two invocations of one round of the cli workload."""
    common = ["--trace-every", "1", "--seed", str(seed)]
    return {
        "solve": ["solve", "--instance", str(instance_path), "--trace-out",
                  str(OUT / "solve_trace.csv"), *common],
        "market-demo": ["market-demo", "--trace-out", str(OUT / "market_trace.csv"), *common],
    }


def workload_cli(run, dp, trace):
    vector = inputs.vector_instance(run.args.seed)
    instance_path = OUT / "vector.txt"
    instance_path.write_text(inputs.instance_text(vector))

    # independent optima: the centralized oracle and the design of the
    # vector instance, and the market in closed form
    oracle_x = checks.oracle_optimum(vector)
    design_gap = float(abs(oracle_x - vector.x_star).max())
    if not design_gap <= checks.X_TOL:
        run.invalid([f"oracle is {design_gap:.3e} from the designed optimum"])
    market_x, _ = checks.scalar_market_optimum(
        *checks.paper_market_rows(inputs.PAPER_COMPANIES, inputs.PAPER_USERS)
    )
    optima = {"solve": [oracle_x, vector.x_star], "market-demo": [market_x.reshape(-1, 1)]}
    traces = {"solve": OUT / "solve_trace.csv", "market-demo": OUT / "market_trace.csv"}
    commands = cli_commands(run.args.seed, instance_path)

    samples = {name: {"setup": [], "solve": [], "scale": [], "rounds": [], "wall": []}
               for name in commands}
    agents_of = {}
    digests = {}
    rss, startup = [], []
    stats, power_iterations, step_sizes = {}, 0, None
    run.start()
    while True:
        round_rss = []
        for name, argv in commands.items():
            try:
                traces[name].unlink(missing_ok=True)
                child = run_child(argv, name, trace)
                trace_bytes = traces[name].read_bytes() if child["code"] == 0 else b""
                problems, report = checks.check_cli_output(
                    child["code"], child["stdout"], trace_bytes, optima[name],
                    digests.setdefault(name, checks.digest(trace_bytes)),
                )
            except Exception:
                run.crashed(name)
                continue
            scale = run.machine.since_last()
            if not run.outcome(name, problems):
                continue
            s = samples[name]
            s["setup"].append(child["first_round"] - child["spawned"])
            s["solve"].append(child["exited"] - child["first_round"])
            s["scale"].append(scale)
            s["rounds"].append(child["iterations"])
            s["wall"].append(child["rounds_wall"])
            agents_of[name] = child["n_agents"]
            round_rss.append(child["rss_mb"])
            startup.append(child["imported"] - child["spawned"])
            if trace:
                add_stats(stats, child["trace"]["stats"])
                power_iterations += child["trace"]["power_iterations"]
                if name == "solve":
                    step_sizes = report["step_sizes"]
        if round_rss:
            rss.append(max(round_rss))
        if not run.more():
            break
    if any(not s["solve"] for s in samples.values()):
        return None
    # a round's figure is the sum of its two invocations' medians
    def total(key, scaled):
        return sum(
            median(k * t for k, t in zip(s["scale"], s[key])) if scaled else median(s[key])
            for s in samples.values()
        )

    rounds = sum(median(s["rounds"]) for s in samples.values())
    work = sum(agents_of[name] * median(s["rounds"]) for name, s in samples.items())
    if not trace:
        solve_s = total("solve", scaled=True)
        return {
            "setup_s": total("setup", scaled=True),
            "solve_s": solve_s,
            "rounds": float(rounds),
            "agent_rounds_per_s": work / solve_s,
            "peak_rss_mb": median(rss),
        }
    # per-layer: counters summed over every child; the engine runs here,
    # untraced, on the vector instance with the steps the CLI reported
    c = float(step_sizes.split()[0].partition("=")[2])
    extras = {
        "traced.setup_s": total("setup", scaled=False),
        "traced.solve_s": total("solve", scaled=False),
        "cli.startup_s": median(startup),
    }
    extras.update(engine_layer(dp, dp.load_instance(instance_path), dp.StepSizes(c, 1.0),
                               ENGINE_ROUNDS["cli"]))
    for metric, layer in (("problems.load_instance_ms", "problems.load_instance"),
                          ("solver.write_csv_ms", "solver.write_csv")):
        extras[metric] = 1e3 * stats[layer][1] / stats[layer][0]
    invocations = sum(len(s["solve"]) for s in samples.values())
    total_rounds = sum(sum(s["rounds"]) for s in samples.values())
    total_wall = sum(sum(s["wall"]) for s in samples.values())
    return layer_metrics(stats, power_iterations, invocations, total_rounds, total_wall, extras)


WORKLOADS = {
    "market": workload_market,
    "market-scaled": workload_market_scaled,
    "cli": workload_cli,
}
# rounds of the message-passing engine timed in a traced run
ENGINE_ROUNDS = {"market": 500, "market-scaled": 2, "cli": 200}
# timings of a layer off the solve path, of which the median is reported
LAYER_REPEATS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the whole run, children included: the calibration kernel
    # then runs on the CPU that does the work it scales.  Left free, a new
    # child is placed on an idle CPU, whose speed can differ by a tenth.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    dp = load_program()
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()

    run = Run(args)
    values = WORKLOADS[args.workload](run, dp, bool(args.trace))
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if values is None:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    if args.trace:
        # per-layer times were taken raw; bring them to the reference speed
        scale = run.machine.overall()
        for m in declared:
            if m["unit"] in ("s", "ms", "us") and m["name"] in values:
                values[m["name"]] *= scale
        values["machine.calibration_ms"] = 1e3 * median(run.machine.samples)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"calibration kernel: median {1e3 * median(run.machine.samples):.3f} ms "
          f"over {len(run.machine.samples)} measurements, reference {1e3 * CAL_REFERENCE_S} ms")
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
