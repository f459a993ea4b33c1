"""Independent reference computations used by the test suite.

Everything here is deliberately decoupled from the library's code paths:
dense matrices instead of matrix-free operators, golden-section search
instead of closed-form prox maps, finite differences instead of analytic
gradients, and a hand-derived closed form for the market optimum.  The
exceptions are the one-at-a-time set-up references (edge order, graph
structures, the market's agents and the solvability checks), which the
library now builds from arrays, the row-by-row trace writer, the per-agent
round and dual sweep, which loop over agents with the library's per-node
update, the catalog methods, norms, step norm and running average as they
were written with NumPy's function wrappers, the 1x1 products through
matmul, and the solve loop at the end, which calls the library's public
round and residuals on fresh states; the library is checked against all of
them bit for bit (or byte for byte).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from dualprox.functions import Box, ConjugateUnavailable, L1, NormPenalty, Quadratic, Zero
from dualprox.problems import (
    AgentProblem,
    MarketParams,
    ProblemInstance,
    ValidationCheck,
    ValidationReport,
)
from dualprox.solver import (
    RunningAverage,
    SolveResult,
    SolverConfig,
    SolverState,
    StepSizes,
    Trace,
    init_state,
    iterate,
    lambda_update,
    max_lipschitz,
    primal_recovery,
    residuals,
    suggest_step_sizes,
    xi_update,
)
from dualprox.topology import (
    Graph,
    NeighborSets,
    check_connected,
    laplacian_spectral_radius,
)


# --- dense linear-algebra oracles ------------------------------------------


def dense_q(graph: Graph) -> np.ndarray:
    """Vertex-by-edge incidence matrix, built densely from the edge list."""
    q = np.zeros((graph.n_vertices, graph.n_edges))
    for k, (i, j) in enumerate(graph.edges):
        q[i - 1, k] = 1.0
        q[j - 1, k] = -1.0
    return q


def dense_lambda_max(graph: Graph) -> float:
    """Largest eigenvalue of the graph Laplacian ``Q Q^T``, by a dense solver."""
    q = dense_q(graph)
    return float(np.linalg.eigvalsh(q @ q.T)[-1])


def dense_k(b_dim: int, m: int) -> np.ndarray:
    """Coupling-block selector [I_B, 0_{B x M}]."""
    return np.hstack([np.eye(b_dim), np.zeros((b_dim, m))])


def dense_m(graph: Graph, b_dim: int, m: int) -> np.ndarray:
    """Dense consensus operator via the Kronecker product."""
    return np.kron(dense_q(graph).T, dense_k(b_dim, m))


def q_entries(graph: Graph) -> list[tuple[int, int, int]]:
    """Signed incidence entries of a graph's consensus operator as (vertex,
    edge index, sign) triples, read from its ``edge_owner`` and
    ``edge_peer`` rows."""
    out = []
    for k in range(graph.n_edges):
        out.append((int(graph.edge_owner[k]) + 1, k, +1))
        out.append((int(graph.edge_peer[k]) + 1, k, -1))
    return out


def apply_m_transpose(graph: Graph, xi: np.ndarray, m_dim: int) -> np.ndarray:
    """The consensus operator's transpose: scatter per-edge vectors onto
    stacked dual space.

    ``xi`` is an (|E|, B) array.  Returns an (N, B + m_dim) array whose
    coupling block accumulates +xi_k at the smaller endpoint of edge k
    and -xi_k at the larger; the remaining ``m_dim`` columns are zero.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[0] != graph.n_edges:
        raise ValueError(f"expected {graph.n_edges} edge vectors, got shape {xi.shape}")
    b_dim = xi.shape[1]
    out = np.zeros((graph.n_vertices, b_dim + m_dim))
    np.add.at(out[:, :b_dim], graph.edge_owner, xi)
    np.subtract.at(out[:, :b_dim], graph.edge_peer, xi)
    return out


def spectral_norm_svd(mat: np.ndarray) -> float:
    return float(np.linalg.svd(np.atleast_2d(mat), compute_uv=False)[0])


# --- scalar optimization oracles --------------------------------------------


def golden_min(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Golden-section minimizer of a unimodal function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def golden_max(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    return golden_min(lambda x: -fn(x), lo, hi, tol)


def grid_max_value(fn, lo: float, hi: float, n: int = 200_001) -> float:
    """Maximum value of a scalar function on a fine grid over [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    return float(max(fn(x) for x in xs))


def central_diff(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = eps
        g[k] = (fn(x + e) - fn(x - e)) / (2.0 * eps)
    return g


# --- market closed form ------------------------------------------------------


def market_closed_form():
    """Hand-derived optimum of the five-agent market benchmark.

    At the optimum the cheap company saturates its cap, the expensive one
    stays at zero, and the three users split the supply on the interior of
    their boxes, which pins the coupling multiplier through the balance
    equation.  The boundary assumptions are asserted before returning.

    Returns
    -------
    (x_star, eta_star, mu_star): ndarray (5,), float, ndarray (5,)
    """
    delta = np.array([0.0031, 0.0074])
    varsigma = np.array([8.71, 3.53])
    uc_max = np.array([150.0, 150.0])
    chi = np.array([17.17, 12.28, 18.42])
    pi = np.array([0.0935, 0.0417, 0.1007])

    supply = uc_max[1]  # company 2 at its cap, company 1 at zero
    eta = (supply - np.sum(chi / (2.0 * pi))) / np.sum(1.0 / (2.0 * pi))
    users = (chi + eta) / (2.0 * pi)

    # verify the assumed active set
    assert varsigma[0] + eta >= 0.0  # company 1 pinned at its lower bound
    assert 2.0 * delta[1] * supply + varsigma[1] + eta <= 0.0  # company 2 at cap
    assert np.all(users > 0.0) and np.all(users < np.array([91.79, 147.29, 91.41]))
    assert abs(np.sum(users) - supply) < 1e-9

    x_star = np.array([0.0, supply, *users])
    grad_f = np.concatenate(
        [2.0 * delta * x_star[:2] + varsigma, 2.0 * pi * users - chi]
    )
    a_row = np.array([1.0, 1.0, -1.0, -1.0, -1.0])
    mu_star = -grad_f - a_row * eta
    return x_star, float(eta), mu_star


# --- random instance generator ----------------------------------------------


def random_connected_graph(rng: np.random.Generator, n: int) -> Graph:
    """Random spanning tree plus a few extra edges."""
    edges = set()
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.add((u, v))
    extras = int(rng.integers(0, n))
    for _ in range(extras):
        u, v = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        pair = (int(min(u, v)), int(max(u, v)))
        edges.add(pair)
    return Graph(n, sorted(edges))


def random_instance(
    rng: np.random.Generator,
    n: int,
    m: int = 1,
    b_dim: int = 1,
) -> ProblemInstance:
    """Feasible-by-construction instance: quadratic costs, box sets.

    Boxes contain a strictly interior point whose image defines b, so the
    coupling constraint always has a strictly feasible point.
    """
    graph = random_connected_graph(rng, n)
    agents = []
    b = np.zeros(b_dim)
    for _ in range(n):
        diag = rng.uniform(0.5, 3.0, size=m)
        p = np.diag(diag)
        if m > 1:
            # small symmetric off-diagonal perturbation, kept diagonally dominant
            off = rng.uniform(-0.2, 0.2, size=(m, m))
            p = p + off + off.T
            p += np.eye(m) * max(0.0, 0.5 - float(np.linalg.eigvalsh(p)[0]))
        q = rng.uniform(-5.0, 5.0, size=m)
        interior = rng.uniform(-2.0, 2.0, size=m)
        lo = interior - rng.uniform(0.5, 3.0, size=m)
        hi = interior + rng.uniform(0.5, 3.0, size=m)
        a_block = rng.uniform(0.5, 2.0, size=(b_dim, m)) * rng.choice(
            [-1.0, 1.0], size=(b_dim, m)
        )
        b += a_block @ interior
        agents.append(
            AgentProblem(Quadratic(p, q), Box(lo, hi), a_block, 1.0 / n)
        )
    return ProblemInstance(agents, b, graph)


# --- one-at-a-time set-up ---------------------------------------------------


def reference_edge_order(n_vertices: int, edges) -> list[tuple[int, int]]:
    """Canonical edge order, checked and normalized one pair at a time."""
    if n_vertices < 1:
        raise ValueError(f"need at least one vertex, got {n_vertices}")
    normalized = []
    seen = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) is not allowed")
        if not (1 <= i <= n_vertices and 1 <= j <= n_vertices):
            raise ValueError(
                f"edge ({i}, {j}) has endpoints outside 1..{n_vertices}"
            )
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add(pair)
        normalized.append(pair)
    return sorted(normalized)


def eager_graph_structures(n_vertices: int, edges) -> dict:
    """Neighbor sets, degrees and connectivity of a graph, built eagerly
    from its canonical edge list with sets and a breadth-first search."""
    edges = reference_edge_order(n_vertices, edges)
    nbrs = {i: set() for i in range(1, n_vertices + 1)}
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    neighbors = {
        i: NeighborSets(
            all=tuple(sorted(s)),
            owned=tuple(sorted(j for j in s if j > i)),
            incoming=tuple(sorted(j for j in s if j < i)),
        )
        for i, s in nbrs.items()
    }
    reached, frontier = {1}, [1]
    while frontier:
        frontier = [j for i in frontier for j in sorted(nbrs[i]) if j not in reached]
        reached.update(frontier)
    return {
        "neighbors": neighbors,
        "degree": {i: len(s) for i, s in nbrs.items()},
        "max_degree": max(len(s) for s in nbrs.values()),
        "connected": len(reached) == n_vertices,
    }


def per_agent_market(params: MarketParams, topology: Graph) -> ProblemInstance:
    """The market instance with every agent's cost and cap constructed, and
    checked, on its own."""
    n = len(params.uc) + len(params.users)
    kappa = 1.0 / n
    agents = []
    for row in params.uc:
        agents.append(
            AgentProblem(
                f=Quadratic(row.delta, row.varsigma, row.beta),
                g=Box(0.0, row.x_max),
                a_block=[[1.0]],
                kappa=kappa,
            )
        )
    for row in params.users:
        agents.append(
            AgentProblem(
                f=Quadratic(row.pi, -row.chi, 0.0),
                g=Box(0.0, row.x_max),
                a_block=[[-1.0]],
                kappa=kappa,
            )
        )
    return ProblemInstance(agents, [0.0], topology)


def reference_validate(instance: ProblemInstance) -> ValidationReport:
    """The solvability checks of ``validate``, agent by agent."""
    checks: list[ValidationCheck] = []

    connected = check_connected(instance.graph)
    checks.append(
        ValidationCheck(
            "graph_connected",
            connected,
            f"{instance.graph.n_vertices} vertices, {instance.graph.n_edges} edges",
        )
    )

    bad_sigma = [
        idx
        for idx, a in enumerate(instance.agents, start=1)
        if not (getattr(a.f, "sigma", 0.0) > 0.0)
    ]
    checks.append(
        ValidationCheck(
            "strong_convexity",
            not bad_sigma,
            "all agents have sigma > 0"
            if not bad_sigma
            else f"agents {bad_sigma} have nonpositive modulus",
        )
    )

    bad_finite = [
        idx
        for idx, a in enumerate(instance.agents, start=1)
        if isinstance(a.f, Quadratic)
        and not (np.isfinite(a.f.p).all() and np.isfinite(a.f.q).all() and math.isfinite(a.f.r))
    ]
    checks.append(
        ValidationCheck(
            "finite_smooth_parts",
            not bad_finite,
            "all quadratic parts are finite"
            if not bad_finite
            else f"agents {bad_finite} have a non-finite P, q or r",
        )
    )

    n, m, b_dim = instance.dims
    checks.append(ValidationCheck("dimensions", True, f"N={n}, M={m}, B={b_dim}"))

    ksum = float(np.sum(np.array([a.kappa for a in instance.agents])))
    checks.append(
        ValidationCheck("kappa_sum", abs(ksum - 1.0) <= 1e-12, f"sum of kappa = {ksum!r}")
    )

    all_box = all(isinstance(a.g, Box) for a in instance.agents)
    if all_box and m == 1 and b_dim == 1:
        lo_sum = 0.0
        hi_sum = 0.0
        for a in instance.agents:
            coeff = float(a.a_block[0, 0])
            lo, hi = float(a.g.lo[0]), float(a.g.hi[0])
            lo_sum += min(coeff * lo, coeff * hi)
            hi_sum += max(coeff * lo, coeff * hi)
        b0 = float(instance.b[0])
        checks.append(
            ValidationCheck(
                "interior_feasibility",
                lo_sum < b0 < hi_sum,
                f"coupling range [{lo_sum}, {hi_sum}] vs b = {b0}",
            )
        )
    else:
        checks.append(
            ValidationCheck(
                "interior_feasibility", None, "only checked for scalar all-box instances"
            )
        )

    return ValidationReport(tuple(checks))


# --- row-by-row trace writer --------------------------------------------------


def reference_write_csv(trace: Trace, path) -> None:
    """``Trace.write_csv``, one named column and one state entry at a time."""
    cols = list(trace.columns)
    cols.remove("wall_time")
    header = list(cols)
    if trace.with_state and trace.state_rows:
        theta, mu, xi = trace.state_rows[0]
        n, b_dim = theta.shape
        m = mu.shape[1]
        header += [f"theta_{i}_{k}" for i in range(1, n + 1) for k in range(b_dim)]
        header += [f"mu_{i}_{k}" for i in range(1, n + 1) for k in range(m)]
        header += [f"xi_{e}_{k}" for e in range(1, xi.shape[0] + 1) for k in range(b_dim)]
    lines = [",".join(header)]
    for ridx, row in enumerate(trace.rows):
        named = dict(zip(trace.columns, row))
        vals = [str(v) if isinstance(v, int) else repr(float(v)) for v in map(named.get, cols)]
        if trace.with_state and trace.state_rows:
            theta, mu, xi = trace.state_rows[ridx]
            vals += [repr(float(v)) for v in theta.ravel()]
            vals += [repr(float(v)) for v in mu.ravel()]
            vals += [repr(float(v)) for v in xi.ravel()]
        lines.append(",".join(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --- per-agent round and dual sweep -------------------------------------------


def reference_iterate(
    instance: ProblemInstance,
    state: SolverState,
    steps: StepSizes,
    agent_order: Sequence[int] | None = None,
) -> SolverState:
    """One round as a loop of per-agent ``lambda_update`` calls, then a loop
    of per-edge ``xi_update`` calls."""
    n, m, b_dim = instance.dims
    graph = instance.graph
    order = list(agent_order) if agent_order is not None else list(range(1, n + 1))
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"agent order must be a permutation of 1..{n}, got {order}")

    edge_index = {e: k for k, e in enumerate(graph.edges)}
    theta_new = np.empty_like(state.theta)
    mu_new = np.empty_like(state.mu)
    for i in order:
        nbrs = graph.neighbors(i)
        theta_new[i - 1], mu_new[i - 1], _ = lambda_update(
            instance.agents[i - 1],
            instance.b,
            state.theta[i - 1],
            state.mu[i - 1],
            {j: state.theta[j - 1] for j in nbrs.all},
            {j: state.xi[edge_index[(i, j)]] for j in nbrs.owned},
            {j: state.xi[edge_index[(j, i)]] for j in nbrs.incoming},
            steps.c,
            steps.gamma,
        )

    xi_new = np.empty_like(state.xi)
    for k, (i, j) in enumerate(graph.edges):
        xi_new[k] = xi_update(state.xi[k], theta_new[i - 1], theta_new[j - 1], steps.gamma)

    return SolverState(theta_new, mu_new, xi_new, state.t + 1)


def smooth_dual_parts(
    agent: AgentProblem, b: np.ndarray, theta: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, float]:
    """Primal maximizer and smooth dual value, from one conjugate-gradient call."""
    v = -(agent.a_block.T @ theta) - mu
    x_hat = agent.f.conjugate_gradient(v)
    value = float(v @ x_hat) - agent.f.value(x_hat) + agent.kappa * float(b @ theta)
    return x_hat, value


def smooth_dual_value(agent: AgentProblem, b, theta, mu) -> float:
    """Value of the agent's smooth dual term at (theta, mu)."""
    b, theta, mu = (np.asarray(a, dtype=float) for a in (b, theta, mu))
    return smooth_dual_parts(agent, b, theta, mu)[1]


def reference_dual_sweep(
    instance: ProblemInstance, theta: np.ndarray, mu: np.ndarray
) -> tuple[float, np.ndarray]:
    """Dual objective and ``sum_i A_i x_hat_i``, one agent at a time."""
    ax = np.zeros(instance.b_dim)
    phi = 0.0
    for idx, agent in enumerate(instance.agents):
        x_hat, smooth = smooth_dual_parts(agent, instance.b, theta[idx], mu[idx])
        ax += agent.a_block @ x_hat
        try:
            sup = agent.g.support_value(mu[idx])
        except ConjugateUnavailable:
            sup = math.nan
        phi += smooth + sup
    return phi, ax


# --- the round's formulas through NumPy's function wrappers ------------------------
#
# The library's round, bookkeeping and residual sweep call ufuncs and ndarray
# methods, and multiply instead of calling matmul for 1x1 products; these are
# the forms they replaced, which must give the same bits.


def reference_stacked_matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return np.matmul(mats, vecs[:, :, None])[:, :, 0]


def reference_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def reference_as_vector(v, dim: int | None = None, rows: tuple = ()) -> np.ndarray:
    out = np.atleast_1d(np.asarray(v, dtype=float))
    if out.shape[:-1] != rows:
        raise ValueError(f"expected a vector, got shape {out.shape}")
    if dim is not None and out.shape[-1] != dim:
        raise ValueError(f"expected a vector of size {dim}, got {out.shape[-1]}")
    return out


def reference_points(f: Quadratic, x) -> np.ndarray:
    """One point of ``f``, or (..., G, M) points of G stacked rows."""
    x = np.asarray(x, dtype=float)
    rows = f.p.shape[:-2]
    if rows and x.ndim > 2:
        rows = x.shape[:-2] + rows
    return reference_as_vector(x, f.dim, rows)


def reference_quadratic_value(f: Quadratic, x):
    x = reference_points(f, x)
    xpx = (x[..., None, :] @ f.p @ x[..., :, None])[..., 0, 0]
    out = xpx + (f.q[..., None, :] @ x[..., :, None])[..., 0, 0] + f.r
    return out if f.p.ndim == 3 else float(out)


def reference_quadratic_gradient(f: Quadratic, x) -> np.ndarray:
    return (f._two_p @ reference_points(f, x)[..., None])[..., 0] + f.q


def reference_conjugate_gradient(f: Quadratic, v) -> np.ndarray:
    shifted = reference_points(f, v) - f.q
    if f.dim == 1:
        return shifted / f._two_p[..., 0]
    return np.linalg.solve(f._two_p, shifted[..., None])[..., 0]


def reference_box_conjugate_prox(box: Box, alpha: float, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v - alpha * np.clip(v / alpha, box.lo, box.hi)


def reference_box_support_value(box: Box, mu):
    mu = np.asarray(mu, dtype=float)
    with np.errstate(invalid="ignore"):
        terms = np.where(mu > 0, mu * box.hi, np.where(mu < 0, mu * box.lo, 0.0))
    total = np.sum(terms, axis=-1)
    return total if box.lo.ndim == 2 else float(total)


def reference_ball_conjugate_prox(g, v) -> np.ndarray:
    """``conjugate_prox`` of ``L1`` and ``NormPenalty``: the projection onto
    the dual-norm ball."""
    v = np.asarray(v, dtype=float)
    if isinstance(g, L1):
        return np.clip(v, -g.weight, g.weight)
    if g.e == 1:
        return np.clip(v, -1.0, 1.0)
    norm = float(np.linalg.norm(v))
    return v if norm <= 1.0 else v / norm


def reference_ball_support_value(g, mu) -> float:
    """``support_value`` of ``Zero``, ``L1`` and ``NormPenalty``."""
    mu = np.asarray(mu, dtype=float)
    if isinstance(g, Zero):
        return 0.0 if np.all(mu == 0.0) else math.inf
    radius = g.weight if isinstance(g, L1) else 1.0
    if isinstance(g, NormPenalty) and g.e == 2:
        dual = float(np.linalg.norm(mu))
    else:
        dual = float(np.max(np.abs(mu), initial=0.0))
    return 0.0 if dual <= radius * (1.0 + 4.0 * float(np.finfo(float).eps)) else math.inf


def reference_norm(x) -> float:
    return float(np.linalg.norm(x))


def reference_step_norm(new: SolverState, old: SolverState) -> float:
    return math.sqrt(
        float(np.sum((new.theta - old.theta) ** 2))
        + float(np.sum((new.mu - old.mu) ** 2))
    )


class ReferenceRunningAverage(RunningAverage):
    def update(self, theta, mu) -> None:
        self.count += 1
        self.theta += (theta - self.theta) / self.count
        self.mu += (mu - self.mu) / self.count


# --- the solve loop -------------------------------------------------------------


def reference_solve(instance: ProblemInstance, config: SolverConfig) -> SolveResult:
    """``solve``'s rounds as a loop over the public ``iterate``, ``residuals``
    and ``primal_recovery``, on a valid instance and step.

    Every state is a fresh, writeable copy, so no call can reuse a by-product
    of an earlier sweep: each state is swept once by ``residuals`` (when
    evaluated) and once more by ``iterate``, and ``x`` is recovered agent by
    agent.  Wall times are recorded as 0.0.
    """
    h = max_lipschitz(instance)
    tau = laplacian_spectral_radius(instance.graph).value
    c = suggest_step_sizes(h, tau, config.gamma).c if config.c is None else config.c
    steps = StepSizes(c, config.gamma)
    n, m, b_dim = instance.dims
    trace = Trace(with_state=config.trace_state)
    avg = ReferenceRunningAverage(n, b_dim, m)

    state = init_state(instance)
    res = residuals(instance, state)
    trace.record(0, res.dual_value, res.consensus, res.primal, math.nan, 0.0, state)
    converged, reason = False, "max_iter exhausted"
    while state.t < config.max_iter:
        new_state = iterate(instance, state, steps).copy()
        step_norm = reference_step_norm(new_state, state)
        state = new_state
        avg.update(state.theta, state.mu)
        due = state.t % config.trace_every == 0 or state.t == config.max_iter
        if not (due or step_norm <= config.tol_step):
            continue
        res = residuals(instance, state)
        done = (
            res.consensus <= config.tol_consensus
            and res.primal <= config.tol_primal
            and step_norm <= config.tol_step
        )
        if done or due:
            trace.record(state.t, res.dual_value, res.consensus, res.primal,
                         step_norm, 0.0, state)
        if done:
            converged, reason = True, "residual tolerances met"
            break

    x = np.vstack([
        primal_recovery(agent, state.theta[i], state.mu[i])
        for i, agent in enumerate(instance.agents)
    ])
    return SolveResult(
        theta=state.theta, mu=state.mu, xi=state.xi, x=x, trace=trace,
        converged=converged, reason=reason, iterations=state.t,
        ergodic_theta=avg.theta, ergodic_mu=avg.mu, steps=steps, h=h, tau=tau,
    )
