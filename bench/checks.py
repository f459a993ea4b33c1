"""Independent checks of the program's outputs.

Nothing here calls the solver's iteration, its prox maps or its step-size
code.  The market optimum comes from an exact breakpoint search on the
piecewise-linear supply-demand balance; the scaled market is re-run by a
vectorized transcription of the paper's iteration that applies the prox of
each box's support function directly instead of through the Moreau
decomposition; CLI outputs are checked against known optima, the residual
tolerances and the byte identity of repeated traces.  Each check returns a
list of problems, empty when the output is right.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Tolerances of the checks.  The solver stops at residuals of 1e-6, which
# puts its primal point within about 2e-6 of the optimum; the CLI prints
# six decimals.  Every tolerance stays below the 1e-3 error the tests use.
X_TOL = 1e-4
ETA_TOL = 1e-4
REF_RTOL = 1e-9
TOL_CONSENSUS = 1e-6
TOL_PRIMAL = 1e-6
TOL_STEP = 1e-8


# --- scalar markets in closed form -------------------------------------------


def scalar_market_optimum(p, q, a, lo, hi, b: float = 0.0):
    """Optimum of sum p x^2 + q x over boxes subject to sum a x = b.

    Each agent's minimizer of p x^2 + q x + eta a x over [lo, hi] is a
    clipped line in eta, so the balance sum a x(eta) - b is piecewise
    linear and non-increasing.  The root lies between two adjacent
    breakpoints, where the balance is linear and is solved exactly.
    Returns (x, eta).
    """
    p, q, a, lo, hi = (np.asarray(v, dtype=float) for v in (p, q, a, lo, hi))

    def x_of(eta):
        return np.clip((-q - a * eta) / (2.0 * p), lo, hi)

    def balance(eta):
        return float(a @ x_of(eta)) - b

    points = np.unique(np.concatenate([(-q - 2.0 * p * lo) / a, (-q - 2.0 * p * hi) / a]))
    values = np.array([balance(e) for e in points])
    if values[0] < 0.0 or values[-1] > 0.0:
        raise ValueError("the balance has no root: the market is infeasible")
    k = int(np.searchsorted(-values, 0.0))  # first breakpoint with balance <= 0
    if values[k] == 0.0:
        eta = float(points[k])
    else:
        e0, e1, v0, v1 = points[k - 1], points[k], values[k - 1], values[k]
        eta = float(e0 + (e1 - e0) * v0 / (v0 - v1))
    return x_of(eta), eta


def paper_market_rows(companies, users):
    """(p, q, a, lo, hi) arrays of a market given as company and user rows,
    in the program's agent order: companies, then users."""
    p = [d for d, _, _ in companies] + [pi for _, pi, _ in users]
    q = [s for _, s, _ in companies] + [-chi for chi, _, _ in users]
    a = [1.0] * len(companies) + [-1.0] * len(users)
    hi = [x for _, _, x in companies] + [x for _, _, x in users]
    return np.array(p), np.array(q), np.array(a), np.zeros(len(p)), np.array(hi)


def check_paper_active_set(x, hi) -> list[str]:
    """The paper's market: company 1 idle, company 2 at its cap, users inside."""
    problems = []
    if x[0] != 0.0:
        problems.append(f"closed form puts company 1 at {x[0]}, expected 0")
    if x[1] != hi[1]:
        problems.append(f"closed form puts company 2 at {x[1]}, expected its cap {hi[1]}")
    if not np.all((x[2:] > 0.0) & (x[2:] < hi[2:])):
        problems.append(f"closed form puts a user on a bound: {x[2:]}")
    return problems


def check_market_solution(x, theta, x_star, eta_star) -> list[str]:
    """Primal point and every agent's coupling estimate against the optimum."""
    problems = []
    err_x = float(np.max(np.abs(np.ravel(x) - np.ravel(x_star))))
    if not err_x <= X_TOL:
        problems.append(f"x is {err_x:.3e} from the closed-form optimum (tolerance {X_TOL})")
    err_eta = float(np.max(np.abs(np.ravel(theta) - eta_star)))
    if not err_eta <= ETA_TOL:
        problems.append(
            f"coupling multiplier is {err_eta:.3e} from the closed form (tolerance {ETA_TOL})"
        )
    return problems


# --- the paper's iteration, vectorized ----------------------------------------


def support_prox(w, c, lo, hi):
    """Prox of c times the support function of [lo, hi], componentwise.

    The support function is hi*mu for mu > 0 and lo*mu for mu < 0, so its
    prox shifts w by c*hi above c*hi, by c*lo below c*lo, and maps the
    rest of the line to zero.
    """
    return np.where(w > c * hi, w - c * hi, np.where(w < c * lo, w - c * lo, 0.0))


def reference_iteration(p, q, a, lo, hi, kappa, b, edges, c, gamma, rounds):
    """The paper's dual iteration for scalar quadratic-plus-box agents.

    Returns (theta, mu, xi, x) after ``rounds`` rounds from zero duals,
    with x the primal point recovered at the final duals.  The smaller
    endpoint of an edge owns its multiplier, and xi lists the edges sorted
    by smaller then larger endpoint.
    """
    p, q, a, lo, hi, kappa = (np.asarray(v, dtype=float) for v in (p, q, a, lo, hi, kappa))
    e = np.array(sorted((min(i, j), max(i, j)) for i, j in edges), dtype=np.intp) - 1
    own, peer = e[:, 0], e[:, 1]
    n = p.size
    degree = np.bincount(own, minlength=n) + np.bincount(peer, minlength=n)
    theta = np.zeros(n)
    mu = np.zeros(n)
    xi = np.zeros(len(e))
    for _ in range(rounds):
        x_hat = (-a * theta - mu - q) / (2.0 * p)
        edge_sum = np.bincount(own, xi, n) - np.bincount(peer, xi, n)
        neighbor_sum = np.bincount(own, theta[peer], n) + np.bincount(peer, theta[own], n)
        pressure = -a * x_hat + kappa * b + edge_sum + gamma * (degree * theta - neighbor_sum)
        theta_next = theta - c * pressure
        mu = support_prox(mu + c * x_hat, c, lo, hi)
        theta = theta_next
        xi = xi + gamma * (theta[own] - theta[peer])
    x = (-a * theta - mu - q) / (2.0 * p)
    return theta, mu, xi, x


def check_against_reference(got, ref) -> list[str]:
    """Solver (theta, mu, xi, x) against the reference, to REF_RTOL."""
    problems = []
    for name, g, r in zip(("theta", "mu", "xi", "x"), got, ref):
        g = np.ravel(g)
        r = np.ravel(r)
        scale = max(1.0, float(np.max(np.abs(r))))
        err = float(np.max(np.abs(g - r))) if g.shape == r.shape else np.inf
        if not err <= REF_RTOL * scale:
            problems.append(f"{name} is {err:.3e} from the reference iteration")
    return problems


def oracle_optimum(vector) -> np.ndarray:
    """Primal optimum of a vector instance from the centralized oracle,
    which solves the coupled problem directly from the raw coefficients."""
    import dualprox as dp

    agents = [
        dp.AgentProblem(dp.Quadratic(vector.p[k], vector.q[k]), dp.Box([0.0, 0.0], vector.hi[k]),
                        vector.a[k], 1.0 / vector.n_agents)
        for k in range(vector.n_agents)
    ]
    graph = dp.Graph(vector.n_agents, vector.edges)
    return dp.centralized_oracle(dp.ProblemInstance(agents, vector.b, graph)).x


# --- CLI outputs ----------------------------------------------------------------


def parse_report(stdout: str) -> dict[str, str]:
    """``key: value`` lines of the CLI's report."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_final_trace_row(trace: bytes, iterations: int) -> list[str]:
    """One row per round, and the last row meets the residual tolerances."""
    lines = trace.decode().splitlines()
    header = lines[0].split(",")
    if header[:5] != ["iter", "phi", "consensus_residual", "primal_residual", "step_norm"]:
        return [f"unexpected trace header {header[:5]}"]
    problems = []
    if len(lines) - 1 != iterations + 1:
        problems.append(f"trace has {len(lines) - 1} rows for {iterations} rounds")
    last = lines[-1].split(",")
    if int(last[0]) != iterations:
        problems.append(f"last trace row is round {last[0]}, expected {iterations}")
    consensus, primal, step = (float(v) for v in last[2:5])
    if not consensus <= TOL_CONSENSUS:
        problems.append(f"final consensus residual {consensus} above {TOL_CONSENSUS}")
    if not primal <= TOL_PRIMAL:
        problems.append(f"final primal residual {primal} above {TOL_PRIMAL}")
    if not step <= TOL_STEP:
        problems.append(f"final step norm {step} above {TOL_STEP}")
    return problems


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_same_trace(first_digest: str, trace: bytes) -> list[str]:
    """Repeated invocations must write byte-identical traces."""
    if digest(trace) != first_digest:
        return ["trace differs from the first invocation's"]
    return []


def check_cli_output(code, stdout, trace, optima, first_digest):
    """One invocation: exit code, report, trace file and primal point.

    ``optima`` are independent optima that ``x_out`` must match; the trace
    must match ``first_digest``, the digest of the first invocation's
    trace.  Returns (problems, report).
    """
    if code != 0:
        return [f"exit code {code}:\n{stdout}"], None
    report = parse_report(stdout)
    if not report.get("converged", "").startswith("true"):
        return [f"not converged: {report.get('converged')!r}"], report
    if "x_out" not in report or "iterations" not in report:
        return ["report lacks x_out or iterations"], report
    problems = check_final_trace_row(trace, int(report["iterations"]))
    problems += check_same_trace(first_digest, trace)
    x = np.array([float(v) for v in report["x_out"].split()])
    for optimum in optima:
        err = float(np.max(np.abs(x - np.ravel(optimum)))) if x.size == np.size(optimum) else np.inf
        if not err <= X_TOL:
            problems.append(f"x_out is {err:.3e} from the optimum (tolerance {X_TOL})")
    return problems, report
