"""Centralized reference solver, independent of the dual iteration.

Builds the coupled problem once as one dense quadratic program from the
raw quadratic coefficients and box bounds,

    minimize  sum_i x_i' P_i x_i + q_i' x_i
    s.t.      sum_i A_i x_i = b,   lo <= x <= hi,

and solves it with a primal-dual interior-point method (Mehrotra
predictor-corrector) on its KKT system.  Every iterate also guesses the
active bounds, fixes them and solves the equality-constrained KKT system
that remains directly; the first such point that passes the KKT test is
the answer.  None of the conjugate/prox machinery is used, so results
from this module are a genuinely independent check on the distributed
solver.  Also builds a full saddle point (including edge multipliers)
from the oracle solution for convergence-theory tests.
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
    iterations: int  # interior-point iterations before the accepted point


def _coupled_qp(instance: ProblemInstance):
    """Hessian, linear term, coupling matrix, bounds and constant of the
    stacked problem ``x' H x / 2 + c' x + r`` over x = (x_1, ..., x_N)."""
    n, m, b_dim = instance.dims
    p, q, a = np.empty((n, m, m)), np.empty((n, m)), np.empty((n, b_dim, m))
    lo, hi = np.full((n, m), -np.inf), np.full((n, m), np.inf)
    for idx, agent in enumerate(instance.agents):
        if not isinstance(agent.f, Quadratic):
            raise OracleError(
                f"agent {idx + 1}: the reference solver handles quadratic smooth parts only"
            )
        if isinstance(agent.g, Box):
            lo[idx], hi[idx] = agent.g.lo, agent.g.hi  # one-entry bounds broadcast
        elif not isinstance(agent.g, Zero):
            raise OracleError(
                f"agent {idx + 1}: the reference solver handles box or zero nonsmooth parts only"
            )
        p[idx], q[idx], a[idx] = agent.f.p, agent.f.q, agent.a_block
    hess = np.zeros((n, m, n, m))
    hess[np.arange(n), :, np.arange(n)] = 2.0 * p  # block-diag(2 P_i)
    constant = sum(agent.f.r for agent in instance.agents)
    return (
        hess.reshape(n * m, n * m),
        q.ravel(),
        a.transpose(1, 0, 2).reshape(b_dim, n * m),
        lo.ravel(),
        hi.ravel(),
        constant,
    )


def _kkt_solve(h: np.ndarray, a: np.ndarray, top: np.ndarray, bottom: np.ndarray):
    """Least-squares solution of ``[[h, a'], [a, 0]] (u, v) = (top, bottom)``.

    With dependent rows of ``a`` the multiplier part ``v`` is not unique;
    the minimum-norm solution keeps it in the range of ``a``.
    """
    n = h.shape[0]
    kkt = np.block([[h, a.T], [a, np.zeros((a.shape[0], a.shape[0]))]])
    sol = np.linalg.lstsq(kkt, np.concatenate([top, bottom]), rcond=None)[0]
    return sol[:n], sol[n:]


_EPS2 = np.finfo(float).eps ** 2


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in [0, 1] that keeps ``v + step * dv`` nonnegative.

    Only entries that a full step would take below zero are divided, so
    every ratio lies in [0, 1) and none can overflow.
    """
    blocking = dv < -v
    return float(np.min(-v[blocking] / dv[blocking])) if blocking.any() else 1.0


def centralized_oracle(
    instance: ProblemInstance, tol: float = 1e-10, max_iter: int = 100
) -> OracleResult:
    """Reference solution of the coupled problem.

    Runs at most ``max_iter`` primal-dual interior-point iterations
    (Mehrotra predictor-corrector) on the stacked quadratic program.  They
    start, as CVXOPT's ``coneqp`` does, from the minimizer of the objective
    plus half the squared bound slacks subject to the coupling, with the
    slacks, and the multipliers set to minus the slacks, each shifted to
    at least 1 when one of them is not positive; a start at x = 0 with
    unit slacks and multipliers stalled on badly scaled instances.  Before
    each one, the bounds whose multiplier exceeds their slack are
    fixed and the equality-constrained KKT system that remains is solved
    by least squares, which gives the minimum-norm coupling multiplier
    when the coupling rows are dependent.  That point is returned, with
    the number of iterations taken, once its stationarity and feasibility
    residual is at most ``tol``.  Iteration ends earlier when the bounds'
    complementarity has vanished to roundoff (an infeasible instance gets
    there in a few dozen iterations); the last point is then returned only
    if its residual is at most ``max(10 * tol, 1e-8)``, and otherwise
    :class:`OracleError` is raised.
    """
    hess, c, a, lo, hi, constant = _coupled_qp(instance)
    b = instance.b
    n = c.size
    # each finite bound is a constraint sign * x[idx] - bnd >= 0, with slack s and multiplier z
    lower, upper = np.flatnonzero(np.isfinite(lo)), np.flatnonzero(np.isfinite(hi))
    idx = np.concatenate([lower, upper])
    sign = np.concatenate([np.ones(lower.size), -np.ones(upper.size)])
    bnd = np.concatenate([lo[lower], -hi[upper]])
    x, eta = _kkt_solve(
        hess + np.diag(np.bincount(idx, minlength=n).astype(float)), a,
        -c + np.bincount(idx, sign * bnd, n), b,
    )
    s = sign * x[idx] - bnd
    z = -s
    for v in (s, z):
        if v.size and v.min() <= 0.0:
            v += 1.0 - v.min()

    for it in range(max_iter + 1):
        active = z > s
        x_hat = np.zeros(n)
        x_hat[idx[active]] = sign[active] * bnd[active]
        free = np.ones(n, dtype=bool)
        free[idx[active]] = False
        x_hat[free], eta_hat = _kkt_solve(
            hess[np.ix_(free, free)], a[:, free], -c[free] - hess[free] @ x_hat, b - a @ x_hat
        )
        grad = hess @ x_hat + c + a.T @ eta_hat
        kkt = max(
            float(np.linalg.norm(a @ x_hat - b)),
            float(np.max(np.abs(x_hat - np.clip(x_hat - grad, lo, hi)))),
        )
        # Stop also once the mean complementarity s'z / size is below eps**2
        # (at once when there are no bounds, where the solve above is exact):
        # no later step changes which bounds are guessed active, and ever
        # smaller slacks would make z / s overflow.  Each step stops short of
        # the boundary, so s and z stay positive.
        if kkt <= tol or it == max_iter or not s @ z > _EPS2 * idx.size:
            break

        r_dual = hess @ x + c + a.T @ eta - np.bincount(idx, sign * z, n)
        r_slack = sign * x[idx] - bnd - s
        k = hess + np.diag(np.bincount(idx, z / s, n))

        def direction(r_comp):
            top = np.bincount(idx, sign * (r_comp - z * r_slack) / s, n) - r_dual
            dx, deta = _kkt_solve(k, a, top, b - a @ x)
            ds = sign * dx[idx] + r_slack
            return dx, deta, ds, (r_comp - z * ds) / s

        gap = s @ z / idx.size
        dx, deta, ds, dz = direction(-s * z)  # predictor
        step = min(_max_step(s, ds), _max_step(z, dz))
        sigma = ((s + step * ds) @ (z + step * dz) / idx.size / gap) ** 3
        dx, deta, ds, dz = direction(sigma * gap - s * z - ds * dz)  # corrector
        step = 0.99 * min(_max_step(s, ds), _max_step(z, dz))
        x, eta, s, z = x + step * dx, eta + step * deta, s + step * ds, z + step * dz

    if not kkt <= max(tol * 10.0, 1e-8):  # also rejects NaN
        raise OracleError(f"reference point failed the optimality check: residual {kkt:.3e}")
    objective = float(0.5 * x_hat @ hess @ x_hat + c @ x_hat) + constant
    return OracleResult(
        x=x_hat.reshape(instance.n_agents, instance.m),
        eta=eta_hat,
        mu=-grad.reshape(instance.n_agents, instance.m),
        objective=objective,
        kkt_residual=kkt,
        iterations=it,
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
