"""Centralized reference solver, independent of the dual iteration.

Solves the coupled problem directly by ascent on the single coupling
multiplier with exact per-agent minimizations, from raw quadratic
coefficients and box bounds.  None of the conjugate/prox machinery is
used, so results from this module are a genuinely independent check on
the distributed solver.  Also builds a full saddle point (including edge
multipliers) from the oracle solution for convergence-theory tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import Box, Quadratic, Zero
from .problems import ProblemInstance

__all__ = [
    "OracleError",
    "OracleResult",
    "centralized_oracle",
    "primal_objective",
    "saddle_point",
]


class OracleError(RuntimeError):
    """Reference solve failed (often an infeasible instance)."""


@dataclass(frozen=True)
class OracleResult:
    x: np.ndarray  # (N, M)
    eta: np.ndarray  # (B,)
    mu: np.ndarray  # (N, M)
    objective: float
    kkt_residual: float
    iterations: int


@dataclass(frozen=True)
class _AgentData:
    """Raw coefficients extracted once per agent."""

    p: np.ndarray
    q: np.ndarray
    a: np.ndarray  # (B, M)
    lo: np.ndarray | None  # None = unconstrained
    hi: np.ndarray | None
    lmax: float  # 2 * largest eigenvalue of p
    sigma: float


def _extract(instance: ProblemInstance) -> list[_AgentData]:
    data = []
    for idx, agent in enumerate(instance.agents, start=1):
        if not isinstance(agent.f, Quadratic):
            raise OracleError(
                f"agent {idx}: the reference solver handles quadratic smooth parts only"
            )
        if isinstance(agent.g, Box):
            lo, hi = agent.g.lo, agent.g.hi
        elif isinstance(agent.g, Zero):
            lo = hi = None
        else:
            raise OracleError(
                f"agent {idx}: the reference solver handles box or zero nonsmooth parts only"
            )
        eigs = np.linalg.eigvalsh(agent.f.p)
        data.append(
            _AgentData(
                p=agent.f.p,
                q=agent.f.q,
                a=agent.a_block,
                lo=lo,
                hi=hi,
                lmax=2.0 * float(eigs[-1]),
                sigma=2.0 * float(eigs[0]),
            )
        )
    return data


def _agent_argmin(d: _AgentData, eta: np.ndarray) -> np.ndarray:
    """Exact minimizer of f(x) + (A^T eta) @ x over the agent's set."""
    lin = d.q + d.a.T @ eta
    if d.lo is None:
        if d.p.shape[0] == 1:
            return -lin / (2.0 * d.p[0])
        return np.linalg.solve(2.0 * d.p, -lin)
    if d.p.shape[0] == 1:
        return np.clip(-lin / (2.0 * d.p[0]), d.lo, d.hi)
    # projected gradient with the exact smoothness step; linear rate since
    # p is positive definite
    x = np.clip(np.zeros_like(lin), d.lo, d.hi)
    step = 1.0 / d.lmax
    for _ in range(200_000):
        grad = 2.0 * (d.p @ x) + lin
        x_next = np.clip(x - step * grad, d.lo, d.hi)
        if np.max(np.abs(x_next - x)) <= 1e-14 * max(1.0, float(np.max(np.abs(x)))):
            return x_next
        x = x_next
    raise OracleError("inner box-constrained minimization did not converge")


def _imbalance(data: list[_AgentData], eta: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = -b.astype(float).copy()
    for d in data:
        out += d.a @ _agent_argmin(d, eta)
    return out


def _solve_eta_scalar(
    data: list[_AgentData], b: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    """Bisection on the scalar coupling multiplier.

    The imbalance is continuous and non-increasing in eta, so a sign
    bracket plus bisection is exact and robust even across box kinks.
    """
    used = 0

    def phi(eta: float) -> float:
        return float(_imbalance(data, np.array([eta]), b)[0])

    lo, hi = 0.0, 0.0
    f_lo = f_hi = phi(0.0)
    span = 1.0
    while f_lo < 0.0:  # need phi(lo) >= 0: move left
        lo -= span
        span *= 2.0
        f_lo = phi(lo)
        used += 1
        if used > 200:
            raise OracleError("could not bracket the coupling multiplier (infeasible?)")
    span = 1.0
    while f_hi > 0.0:
        hi += span
        span *= 2.0
        f_hi = phi(hi)
        used += 1
        if used > 400:
            raise OracleError("could not bracket the coupling multiplier (infeasible?)")
    for _ in range(max_iter):
        used += 1
        mid = 0.5 * (lo + hi)
        f_mid = phi(mid)
        if abs(f_mid) <= tol or (hi - lo) <= 1e-16 * max(1.0, abs(mid)):
            return np.array([mid]), used
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    raise OracleError(f"bisection did not reach tolerance {tol}")


def _solve_eta_ascent(
    data: list[_AgentData], b: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    """Gradient ascent on the concave dual of the coupling constraint."""
    lips = sum(float(np.linalg.norm(d.a, 2)) ** 2 / d.sigma for d in data)
    step = 1.0 / lips
    eta = np.zeros_like(b, dtype=float)
    for it in range(max_iter):
        g = _imbalance(data, eta, b)
        if float(np.linalg.norm(g)) <= tol:
            return eta, it
        eta = eta + step * g
    raise OracleError(f"dual ascent did not reach feasibility tolerance {tol}")


def centralized_oracle(
    instance: ProblemInstance, tol: float = 1e-10, max_iter: int = 500_000
) -> OracleResult:
    """Reference solution of the coupled problem.

    Runs bisection (scalar coupling) or dual gradient ascent (vector
    coupling) on the coupling multiplier, with each agent minimized
    exactly at every query.  The returned point is verified against the
    stationarity and feasibility conditions; failure raises
    :class:`OracleError`.
    """
    data = _extract(instance)
    b = instance.b
    if instance.b_dim == 1:
        eta, used = _solve_eta_scalar(data, b, tol, max_iter)
    else:
        eta, used = _solve_eta_ascent(data, b, tol, max_iter)

    x = np.vstack([_agent_argmin(d, eta) for d in data])
    mu = np.vstack(
        [-(2.0 * (d.p @ x[i]) + d.q) - d.a.T @ eta for i, d in enumerate(data)]
    )

    feas = float(np.linalg.norm(sum(d.a @ x[i] for i, d in enumerate(data)) - b))
    stat = 0.0
    for i, d in enumerate(data):
        grad = 2.0 * (d.p @ x[i]) + d.q + d.a.T @ eta
        if d.lo is None:
            r = grad
        else:
            r = x[i] - np.clip(x[i] - grad, d.lo, d.hi)
        stat = max(stat, float(np.max(np.abs(r))))
    kkt = max(feas, stat)
    if kkt > max(tol * 10.0, 1e-8):
        raise OracleError(f"reference point failed the optimality check: residual {kkt:.3e}")

    objective = 0.0
    for i, (d, agent) in enumerate(zip(data, instance.agents)):
        objective += float(x[i] @ d.p @ x[i] + d.q @ x[i]) + agent.f.r
    return OracleResult(
        x=x, eta=eta, mu=mu, objective=objective, kkt_residual=kkt, iterations=used
    )


def primal_objective(instance: ProblemInstance, x: np.ndarray) -> float:
    """Total cost of a stacked primal point, including nonsmooth parts."""
    total = 0.0
    for i, agent in enumerate(instance.agents):
        total += agent.f.value(x[i]) + agent.g.value(x[i])
    return total


def saddle_point(
    instance: ProblemInstance, result: OracleResult
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full dual saddle point built from a reference solution.

    All coupling estimates equal the oracle multiplier; edge multipliers
    solve the incidence system that makes the coupling-block stationarity
    hold, via least squares on the (tests-only) dense incidence matrix.

    Returns
    -------
    (theta_star, mu_star, xi_star)
        Arrays of shapes (N, B), (N, M), (|E|, B).
    """
    n, _, b_dim = instance.dims
    graph = instance.graph
    theta_star = np.tile(result.eta, (n, 1))
    d = np.vstack(
        [
            instance.agents[i].a_block @ result.x[i] - instance.agents[i].kappa * instance.b
            for i in range(n)
        ]
    )
    q = np.zeros((n, graph.n_edges))
    q[graph.edge_array - 1, np.arange(graph.n_edges)[:, None]] = (1.0, -1.0)
    xi_star, *_ = np.linalg.lstsq(q, d, rcond=None)
    gap = float(np.max(np.abs(q @ xi_star - d)))
    if gap > 1e-8:
        raise OracleError(
            f"edge-multiplier system is inconsistent (residual {gap:.3e}); "
            "the reference solution may be inaccurate"
        )
    return theta_star, result.mu.copy(), xi_star.reshape(graph.n_edges, b_dim)
