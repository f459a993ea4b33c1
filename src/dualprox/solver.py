"""Dual proximal gradient iteration with neighbor-local updates.

Each agent keeps a dual pair (theta, mu): theta estimates the network-wide
multiplier of the coupling constraint, mu is the multiplier tying the
agent's primal variable to its feasible-set copy.  Owned edges carry an
extra multiplier xi enforcing agreement of neighboring theta estimates.
One round is a two-phase barrier computation: every agent takes a
prox-gradient step on its dual pair from time-t data, then every edge
owner integrates the new theta difference into xi.  All updates read only
time-t data within a phase, so results are independent of agent processing
order.

:func:`lambda_update` and :func:`xi_update` are the per-agent and per-edge
updates, which the message-passing engine runs node by node.  The solver
runs a round, the dual sweep behind :func:`residuals` and
:func:`eval_dual_objective`, and the primal recovery at the end of
:func:`solve` as one batched kernel instead.  Each instance is compiled
once, in :func:`solve`'s set-up or on first use, into a plan of slot-major
neighbour tables, stacked coupling blocks and groups of catalog functions:
all Quadratic smooth parts form one stacked ``Quadratic`` and all Box parts
one stacked ``Box``, and any other kind is called on its agent's row.  A
round gathers every agent's neighbour terms in one call per kind (edge
multipliers, neighbour estimates) and adds them one slot at a time, in
:func:`lambda_update`'s order; a padded slot holds ``-0.0``, which leaves
every sum as it is.  So the kernel is bit-identical to the per-agent
updates, and it sums over agents in agent order.  A batched round has no
processing order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .functions import Box, ConjugateUnavailable, Quadratic
from .problems import AgentProblem, ProblemInstance, validate
from .topology import Graph, laplacian_spectral_radius

__all__ = [
    "EdgeMultiplier",
    "Residuals",
    "edge_multipliers",
    "RunningAverage",
    "SetupError",
    "SolveResult",
    "SolverConfig",
    "SolverState",
    "StepSizeError",
    "StepSizes",
    "Trace",
    "ergodic_gap_bound",
    "eval_dual_objective",
    "gap_bound_constant",
    "grad_p",
    "init_state",
    "iterate",
    "lambda_update",
    "lipschitz_h",
    "lyapunov_value",
    "max_lipschitz",
    "primal_recovery",
    "residuals",
    "smooth_dual_value",
    "solve",
    "suggest_step_sizes",
    "validate_step_sizes",
    "xi_update",
]

Array = np.ndarray


@dataclass(frozen=True)
class EdgeMultiplier:
    """Multiplier for one edge's agreement constraint, held by the owner."""

    owner: int
    peer: int
    xi: Array

    def __post_init__(self):
        if not self.owner < self.peer:
            raise ValueError(
                f"edge multiplier must be owned by the smaller endpoint, "
                f"got owner {self.owner}, peer {self.peer}"
            )


class SetupError(ValueError):
    """:func:`solve` rejected its instance or configuration before round 0."""


class StepSizeError(SetupError):
    """Step sizes are not positive or violate the convergence condition."""


@dataclass(frozen=True)
class StepSizes:
    """Primal-side dual step c and multiplier/stabilization step gamma."""

    c: float
    gamma: float

    def __post_init__(self):
        if self.c <= 0 or self.gamma <= 0:
            raise ValueError(f"step sizes must be positive, got {self}")


def lipschitz_h(a_block, sigma: float) -> float:
    """Gradient Lipschitz constant of an agent's smooth dual term.

    Equals (spectral norm of the agent's dual-to-primal map)^2 / sigma,
    which reduces to (||A_i||_2^2 + 1) / sigma because the map stacks the
    negated coupling block on a negated identity.
    """
    if sigma <= 0:
        raise ValueError(f"strong convexity modulus must be positive, got {sigma}")
    a = np.atleast_2d(np.asarray(a_block, dtype=float))
    spec = float(np.linalg.norm(a, 2)) if a.size else 0.0
    return (spec * spec + 1.0) / sigma


def max_lipschitz(instance: ProblemInstance) -> float:
    """Network-wide constant h, the max over agents of :func:`lipschitz_h`.

    One batched spectral norm of the stacked coupling blocks makes the same
    LAPACK call per block as :func:`lipschitz_h`, so ``h`` is bit-identical
    to the per-agent maximum.
    """
    sigma = np.array([agent.f.sigma for agent in instance.agents], dtype=float)
    if np.any(sigma <= 0):
        raise ValueError(f"strong convexity modulus must be positive, got {sigma.min()}")
    spec = np.linalg.norm(
        np.array([agent.a_block for agent in instance.agents]), 2, axis=(1, 2)
    )
    return float(np.max((spec * spec + 1.0) / sigma))


def validate_step_sizes(h: float, tau_bar: float, c: float, gamma: float) -> None:
    """Accept step sizes iff 1/c >= h + gamma * tau_bar (boundary included).

    A 1e-12 slack absorbs roundoff when c was produced by the suggestion
    formula.  Raises :class:`StepSizeError` on rejection and ValueError on
    nonpositive inputs.
    """
    if h <= 0:
        raise ValueError(f"h must be positive (sigma finite implies h > 0), got {h}")
    if tau_bar < 0 or c <= 0 or gamma <= 0:
        raise StepSizeError(
            f"step-size inputs must be positive (tau_bar may be zero for an "
            f"edgeless network), got tau_bar={tau_bar}, c={c}, gamma={gamma}"
        )
    required = h + gamma * tau_bar
    if 1.0 / c < required - 1e-12:
        raise StepSizeError(
            f"1/c = {1.0 / c:.6g} is below the required h + gamma*tau = {required:.6g}"
        )


def suggest_step_sizes(h: float, tau_bar: float, gamma: float = 1.0) -> StepSizes:
    """Step sizes exactly at the acceptance boundary: c = 1/(h + gamma*tau)."""
    if h <= 0 or tau_bar < 0 or gamma <= 0:
        raise StepSizeError(
            f"step-size inputs must be positive (tau_bar may be zero for an "
            f"edgeless network), got h={h}, tau_bar={tau_bar}, gamma={gamma}"
        )
    return StepSizes(c=1.0 / (h + gamma * tau_bar), gamma=gamma)


# --- per-agent kernels ----------------------------------------------------


def _h_apply(agent: AgentProblem, theta: Array, mu: Array) -> Array:
    """The agent's dual-to-primal map: -A_i^T theta - mu."""
    return -(agent.a_block.T @ theta) - mu


def _grad_p_parts(
    agent: AgentProblem, b: Array, theta: Array, mu: Array
) -> tuple[Array, Array, Array]:
    """Gradient blocks of the smooth dual term, plus the primal maximizer."""
    x_hat = agent.f.conjugate_gradient(_h_apply(agent, theta, mu))
    grad_theta = -(agent.a_block @ x_hat) + agent.kappa * b
    grad_mu = -x_hat
    return grad_theta, grad_mu, x_hat


def grad_p(agent: AgentProblem, b, theta, mu) -> Array:
    """Gradient of the agent's smooth dual term, stacked (theta then mu)."""
    b, theta, mu = (np.asarray(a, dtype=float) for a in (b, theta, mu))
    gt, gm, _ = _grad_p_parts(agent, b, theta, mu)
    return np.concatenate([gt, gm])


def _smooth_dual_parts(
    agent: AgentProblem, b: Array, theta: Array, mu: Array
) -> tuple[Array, float]:
    """Primal maximizer and smooth dual value, from one conjugate-gradient call."""
    v = _h_apply(agent, theta, mu)
    x_hat = agent.f.conjugate_gradient(v)
    value = float(v @ x_hat) - agent.f.value(x_hat) + agent.kappa * float(b @ theta)
    return x_hat, value


def smooth_dual_value(agent: AgentProblem, b, theta, mu) -> float:
    """Value of the agent's smooth dual term at (theta, mu)."""
    b, theta, mu = (np.asarray(a, dtype=float) for a in (b, theta, mu))
    return _smooth_dual_parts(agent, b, theta, mu)[1]


def lambda_update(
    agent: AgentProblem,
    b: Array,
    theta: Array,
    mu: Array,
    neighbor_thetas: Mapping[int, Array],
    owned_xi: Mapping[int, Array],
    incoming_xi: Mapping[int, Array],
    c: float,
    gamma: float,
) -> tuple[Array, Array, Array]:
    """One agent's dual update from time-t data.

    The coupling estimate takes a plain gradient step (the nonsmooth dual
    term does not depend on it); the slack multiplier takes a prox step on
    the conjugate of the agent's nonsmooth part, computed through the
    Moreau decomposition so the conjugate is never evaluated.

    Parameters
    ----------
    agent : AgentProblem
        The agent's problem data.
    b : ndarray
        Coupling constraint offset (shared constant).
    theta, mu : ndarray
        The agent's dual pair at time t.
    neighbor_thetas : mapping int -> ndarray
        Coupling estimates of all neighbors at time t.
    owned_xi : mapping int -> ndarray
        Multipliers of edges this agent owns, keyed by peer.
    incoming_xi : mapping int -> ndarray
        Multipliers owned by smaller-indexed neighbors, keyed by owner.
    c, gamma : float
        Validated step sizes.

    Returns
    -------
    (theta_new, mu_new, x_hat)
        Updated dual pair and the primal maximizer at the *old* duals
        (a by-product of the gradient computation).

    Sums over neighbors run in ascending index order so results are
    reproducible bit-for-bit regardless of message arrival order.
    """
    grad_theta, grad_mu, x_hat = _grad_p_parts(agent, b, theta, mu)
    pressure = grad_theta.copy()
    for j in sorted(owned_xi):
        pressure += owned_xi[j]
    for j in sorted(incoming_xi):
        pressure -= incoming_xi[j]
    for j in sorted(neighbor_thetas):
        pressure += gamma * (theta - neighbor_thetas[j])
    theta_new = theta - c * pressure
    w = mu - c * grad_mu
    mu_new = agent.g.conjugate_prox(c, w)
    return theta_new, mu_new, x_hat


def xi_update(xi: Array, theta_owner: Array, theta_peer: Array, gamma: float) -> Array:
    """Edge multiplier ascent on the time-(t+1) theta difference."""
    return xi + gamma * (theta_owner - theta_peer)


# --- the compiled round plan -------------------------------------------------


def _stacked_matvec(mats: Array, vecs: Array) -> Array:
    """Row i is ``mats[i] @ vecs[i]``, bit-identical to that product.

    Stacked ``np.matmul`` makes the same BLAS call per row as a single
    matrix-vector ``@``; ``np.einsum`` and explicit sums round differently.
    """
    return np.matmul(mats, vecs[:, :, None])[:, :, 0]


def _rowdot(a: Array, b: Array) -> Array:
    """Entry i is ``a[i] @ b[i]``, bit-identical to that dot product."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _slot_table(rows: Array, values: Array, n: int, pad: int) -> Array:
    """``values`` grouped by the sorted ``rows`` into a slot-major
    (width, n) table: entry (k, i) is row i's k-th value, or ``pad`` past
    its last."""
    counts = np.bincount(rows, minlength=n)
    slots = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    table = np.full((int(counts.max(initial=0)), n), pad, dtype=np.intp)
    table[slots, rows] = values
    return table


def _groups(parts: list, kind: type) -> list[tuple]:
    """``(rows, function)`` pairs covering ``parts``: every part that is
    exactly ``kind`` in one stacked function, and any other part on its own
    row.  The stacked group's rows are an index array, or ``slice(None)``
    when it covers every part, so that indexing by them copies nothing."""
    exact = [type(part) is kind for part in parts]
    members = [part for part, is_kind in zip(parts, exact) if is_kind]
    rows = slice(None) if all(exact) else np.flatnonzero(exact)
    stacked = [(rows, kind.stack(members))] if members else []
    return stacked + [(i, part) for i, part in enumerate(parts) if not exact[i]]


class _RoundPlan:
    """An instance compiled into stacked arrays for the batched round kernel.

    The neighbour tables are slot-major: column i lists agent i's terms of
    :func:`lambda_update`'s pressure sum in its order, one row per slot.
    ``xi_slots`` indexes ``[xi; -xi; -0.0]``: first the edges agent i owns
    (``xi``, by ascending peer), then those its smaller neighbours own
    (``-xi``, by ascending owner), padded with the ``-0.0`` row.
    ``nbr_slots`` holds agent i's neighbours in ascending order, padded with
    row 0, and ``nbr_pad`` marks the padded (slot, agent, component)
    entries.  ``f_groups`` and ``g_groups`` hold the agents' smooth and
    nonsmooth parts as the ``(rows, function)`` pairs of :func:`_groups`.
    """

    def __init__(self, instance: ProblemInstance):
        n = instance.n_agents
        agents = instance.agents
        edges = np.asarray(instance.graph.edges, dtype=np.intp).reshape(-1, 2) - 1
        n_edges = len(edges)
        self.edge_owner, self.edge_peer = edges[:, 0], edges[:, 1]
        by_peer = np.argsort(self.edge_peer, kind="stable")
        self.xi_slots = np.vstack([
            _slot_table(self.edge_owner, np.arange(n_edges), n, 2 * n_edges),
            _slot_table(self.edge_peer[by_peer], n_edges + by_peer, n, 2 * n_edges),
        ])
        ends = np.concatenate([self.edge_owner, self.edge_peer])
        others = np.concatenate([self.edge_peer, self.edge_owner])
        by_end = np.lexsort((others, ends))
        self.nbr_slots = _slot_table(ends[by_end], others[by_end], n, 0)
        degree = np.bincount(ends, minlength=n)
        pad = np.arange(len(self.nbr_slots))[:, None] >= degree
        self.nbr_pad = np.repeat(pad[:, :, None], instance.b_dim, axis=2)

        self.a = np.array([agent.a_block for agent in agents])
        self.a_t = self.a.transpose(0, 2, 1)
        self.kappa = instance.kappa_vector()
        self.kappa_b = self.kappa[:, None] * instance.b
        self.f_groups = _groups([agent.f for agent in agents], Quadratic)
        self.g_groups = _groups([agent.g for agent in agents], Box)

    def maximizers(self, theta: Array, mu: Array) -> tuple[Array, Array]:
        """Every agent's ``v_i = -A_i^T theta_i - mu_i`` and primal maximizer
        ``x_hat_i``, the gradient of the conjugate of ``f_i`` at ``v_i``."""
        v = -_stacked_matvec(self.a_t, theta) - mu
        x_hat = np.empty_like(v)
        for rows, f in self.f_groups:
            x_hat[rows] = f.conjugate_gradient(v[rows])
        return v, x_hat

    def coupling_terms(self, x: Array) -> Array:
        """Row i is ``A_i @ x_i``."""
        return _stacked_matvec(self.a, x)

    def conjugate_prox(self, c: float, w: Array) -> Array:
        """Every agent's prox step on the conjugate of its nonsmooth part."""
        out = np.empty_like(w)
        for rows, g in self.g_groups:
            out[rows] = g.conjugate_prox(c, w[rows])
        return out

    def f_values(self, x: Array) -> Array:
        """Entry i is ``f_i(x_i)``."""
        out = np.empty(len(x))
        for rows, f in self.f_groups:
            out[rows] = f.value(x[rows])
        return out

    def support_values(self, mu: Array) -> Array:
        """Entry i is the conjugate of ``g_i`` at ``mu_i``, NaN where it is
        unavailable."""
        out = np.empty(len(mu))
        for rows, g in self.g_groups:
            try:
                out[rows] = g.support_value(mu[rows])
            except ConjugateUnavailable:
                out[rows] = math.nan
        return out


def _round_plan(instance: ProblemInstance) -> _RoundPlan:
    """The instance's plan, compiled on first use and kept on the instance,
    which is immutable once built."""
    plan = getattr(instance, "_round_plan", None)
    if plan is None:
        plan = instance._round_plan = _RoundPlan(instance)
    return plan


# --- network state and rounds ----------------------------------------------


@dataclass
class SolverState:
    """Stacked dual state: one row per agent, one xi row per canonical edge."""

    theta: Array  # (N, B)
    mu: Array  # (N, M)
    xi: Array  # (|E|, B)
    t: int = 0

    def copy(self) -> "SolverState":
        return SolverState(self.theta.copy(), self.mu.copy(), self.xi.copy(), self.t)


def init_state(instance: ProblemInstance) -> SolverState:
    """All-zero initialization of duals and edge multipliers."""
    n, m, b_dim = instance.dims
    return SolverState(
        theta=np.zeros((n, b_dim)),
        mu=np.zeros((n, m)),
        xi=np.zeros((instance.graph.n_edges, b_dim)),
        t=0,
    )


def edge_multipliers(graph: Graph, xi: Array) -> list[EdgeMultiplier]:
    """Per-edge multipliers labelled with their owner and peer."""
    return [
        EdgeMultiplier(owner=i, peer=j, xi=xi[k].copy())
        for k, (i, j) in enumerate(graph.edges)
    ]


def iterate(
    instance: ProblemInstance,
    state: SolverState,
    steps: StepSizes,
) -> SolverState:
    """One synchronous round: all dual pairs, then all edge multipliers.

    Every agent update reads only time-t data; every edge update reads the
    freshly computed coupling estimates.  The round runs as one batched
    kernel over the instance's compiled plan, bit-identical to calling
    :func:`lambda_update` per agent and :func:`xi_update` per edge.
    """
    plan = _round_plan(instance)
    c, gamma = steps.c, steps.gamma
    theta, mu, xi = state.theta, state.mu, state.xi

    _, x_hat = plan.maximizers(theta, mu)
    # lambda_update's pressure, one neighbour slot at a time in its order.
    # A padded slot adds -0.0, which leaves every double as it is (adding
    # +0.0 would turn a -0.0 into +0.0), and subtracting xi is adding -xi
    # by the definition of IEEE subtraction.
    pressure = -plan.coupling_terms(x_hat) + plan.kappa_b
    signed_xi = np.concatenate([xi, -xi, np.full((1, xi.shape[1]), -0.0)])
    for term in signed_xi.take(plan.xi_slots, axis=0):
        pressure += term
    nbr_terms = theta.take(plan.nbr_slots, axis=0)
    np.subtract(theta, nbr_terms, out=nbr_terms)
    nbr_terms *= gamma
    np.copyto(nbr_terms, -0.0, where=plan.nbr_pad)
    for term in nbr_terms:
        pressure += term
    theta_new = theta - c * pressure
    grad_mu = -x_hat
    mu_new = plan.conjugate_prox(c, mu - c * grad_mu)
    xi_new = xi + gamma * (
        theta_new.take(plan.edge_owner, axis=0) - theta_new.take(plan.edge_peer, axis=0)
    )
    return SolverState(theta_new, mu_new, xi_new, state.t + 1)


# --- recovery, objective, diagnostics --------------------------------------


def primal_recovery(agent: AgentProblem, theta, mu) -> Array:
    """Unique minimizer of the agent's Lagrangian slice at its duals."""
    return agent.f.conjugate_gradient(
        _h_apply(agent, np.asarray(theta, dtype=float), np.asarray(mu, dtype=float))
    )


def _dual_sweep(instance: ProblemInstance, theta: Array, mu: Array) -> tuple[float, Array]:
    """Dual objective and the coupling term ``sum_i A_i x_hat_i`` at stacked duals.

    The objective sums each agent's smooth dual term and the conjugate of
    its nonsmooth part at mu: ``math.inf`` marks a dual point outside the
    conjugate's domain, NaN a part that has no conjugate value.  Both sums
    run in agent order, so they round as an agent-by-agent loop would.
    """
    plan = _round_plan(instance)
    theta = np.asarray(theta, dtype=float)
    mu = np.asarray(mu, dtype=float)
    v, x_hat = plan.maximizers(theta, mu)
    b_theta = _rowdot(np.broadcast_to(instance.b, theta.shape), theta)
    smooth = _rowdot(v, x_hat) - plan.f_values(x_hat) + plan.kappa * b_theta
    terms = smooth + plan.support_values(mu)
    phi = np.add.accumulate(np.concatenate(([0.0], terms)))[-1]
    ax_terms = np.vstack([np.zeros(instance.b_dim), plan.coupling_terms(x_hat)])
    return float(phi), np.add.accumulate(ax_terms)[-1]


def eval_dual_objective(instance: ProblemInstance, theta: Array, mu: Array) -> float:
    """Dual objective at stacked duals; ``math.inf`` marks an infeasible point
    and NaN a part without a conjugate value."""
    return _dual_sweep(instance, theta, mu)[0]


@dataclass(frozen=True)
class Residuals:
    """Consensus and primal infeasibility plus the dual objective."""

    consensus: float
    primal: float
    dual_value: float


def residuals(instance: ProblemInstance, state: SolverState, inc=None) -> Residuals:
    """Residual triple at the state's duals.

    Consensus is the norm of all per-edge theta differences; primal is the
    coupling-constraint violation of the recovered primal point.  The dual
    objective is evaluated from the same primal maximizers, so each agent
    costs a single conjugate-gradient solve.
    """
    inc = inc or instance.graph.incidence(instance.b_dim)
    consensus = float(np.linalg.norm(inc.apply_m(state.theta)))
    phi, ax = _dual_sweep(instance, state.theta, state.mu)
    primal = float(np.linalg.norm(ax - instance.b))
    return Residuals(consensus, primal, phi)


class RunningAverage:
    """Incremental mean of the dual trajectory (no history storage)."""

    def __init__(self, n: int, b_dim: int, m: int):
        self.theta = np.zeros((n, b_dim))
        self.mu = np.zeros((n, m))
        self.count = 0

    def update(self, theta: Array, mu: Array) -> None:
        self.count += 1
        self.theta += (theta - self.theta) / self.count
        self.mu += (mu - self.mu) / self.count


def _weighted_sq_distance(
    graph: Graph, b_dim: int, c: float, gamma: float, dtheta: Array, dmu: Array
) -> float:
    """||dlambda||^2 in the norm weighted by (1/2c) I - (gamma/2) M^T M."""
    inc = graph.incidence(b_dim)
    plain = float(np.sum(dtheta * dtheta) + np.sum(dmu * dmu))
    edge = inc.apply_m(dtheta)
    return (0.5 / c) * plain - (0.5 * gamma) * float(np.sum(edge * edge))


def gap_bound_constant(
    graph: Graph,
    c: float,
    gamma: float,
    theta0: Array,
    mu0: Array,
    xi0: Array,
    theta_star: Array,
    mu_star: Array,
    xi_star: Array,
) -> float:
    """Constant bounding (T+1) times the ergodic optimality gap.

    Combines the weighted squared distance from the initialization to the
    saddle duals with scaled squared norms of the saddle and initial edge
    multipliers.  Requires the weighting matrix to be positive
    semidefinite, which holds whenever the step-size rule does; violated
    steps raise :class:`StepSizeError`.
    """
    b_dim = theta0.shape[1]
    tau = laplacian_spectral_radius(graph).value
    if 1.0 / c < gamma * tau - 1e-12:
        raise StepSizeError(
            f"1/c = {1.0 / c:.6g} < gamma*tau = {gamma * tau:.6g}: "
            "the distance weighting is not positive semidefinite"
        )
    dist = _weighted_sq_distance(
        graph, b_dim, c, gamma, theta_star - theta0, mu_star - mu0
    )
    return (
        dist
        + (4.0 / gamma) * float(np.sum(xi_star * xi_star))
        + (1.0 / gamma) * float(np.sum(xi0 * xi0))
    )


def ergodic_gap_bound(
    graph: Graph,
    c: float,
    gamma: float,
    theta0: Array,
    mu0: Array,
    xi0: Array,
    theta_star: Array,
    mu_star: Array,
    xi_star: Array,
    T: int,
) -> float:
    """Right-hand side of the O(1/T) ergodic guarantees after T+1 rounds."""
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    const = gap_bound_constant(
        graph, c, gamma, theta0, mu0, xi0, theta_star, mu_star, xi_star
    )
    return const / (T + 1)


def lyapunov_value(
    graph: Graph,
    c: float,
    gamma: float,
    state: SolverState,
    theta_star: Array,
    mu_star: Array,
    xi_star: Array,
) -> float:
    """Weighted squared distance to a saddle point; non-increasing per round."""
    b_dim = state.theta.shape[1]
    dist = _weighted_sq_distance(
        graph, b_dim, c, gamma, theta_star - state.theta, mu_star - state.mu
    )
    dxi = xi_star - state.xi
    return dist + (0.5 / gamma) * float(np.sum(dxi * dxi))


# --- the full solve ---------------------------------------------------------


@dataclass
class SolverConfig:
    """Knobs for :func:`solve`.

    Leaving ``c`` unset picks the boundary step from the network constants;
    an explicit value is validated before the first round.  ``trace_state``
    additionally snapshots theta/mu/xi into each trace row.  ``n_workers``
    and ``seed`` are accepted for compatibility and have no effect: a round
    runs on one thread, as one batched kernel over all agents, and ``tau``
    is a closed-form bound that needs no random start.
    """

    c: float | None = None
    gamma: float = 1.0
    max_iter: int = 1_000_000
    tol_consensus: float = 1e-6
    tol_primal: float = 1e-6
    tol_step: float = 1e-8
    trace_every: int = 100
    trace_state: bool = False
    n_workers: int = 1
    seed: int = 0


class Trace:
    """Per-round diagnostics log with optional state snapshots."""

    columns = ("iter", "phi", "consensus_residual", "primal_residual",
               "step_norm", "wall_time")

    def __init__(self, with_state: bool = False):
        self.rows: list[tuple] = []
        self.with_state = with_state
        self.state_rows: list[tuple] = []  # (theta, mu, xi) snapshots

    def record(
        self,
        iteration: int,
        phi: float,
        consensus: float,
        primal: float,
        step_norm: float,
        wall_time: float,
        state: SolverState | None = None,
    ) -> None:
        self.rows.append((iteration, phi, consensus, primal, step_norm, wall_time))
        if self.with_state:
            assert state is not None
            self.state_rows.append(
                (state.theta.copy(), state.mu.copy(), state.xi.copy())
            )

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    def write_csv(self, path, include_wall_time: bool = False) -> None:
        """Write the trace as comma-separated text with one header row.

        Wall time is reproducible-run poison, so it stays out of the file
        unless explicitly requested; all other columns are deterministic
        for a given configuration.
        """
        cols = list(self.columns)
        if not include_wall_time:
            cols.remove("wall_time")
        header = list(cols)
        if self.with_state and self.state_rows:
            theta, mu, xi = self.state_rows[0]
            n, b_dim = theta.shape
            m = mu.shape[1]
            header += [f"theta_{i}_{k}" for i in range(1, n + 1) for k in range(b_dim)]
            header += [f"mu_{i}_{k}" for i in range(1, n + 1) for k in range(m)]
            header += [f"xi_{e}_{k}" for e in range(1, xi.shape[0] + 1) for k in range(b_dim)]
        lines = [",".join(header)]
        for ridx, row in enumerate(self.rows):
            named = dict(zip(self.columns, row))
            vals = [self._fmt(named[c]) for c in cols]
            if self.with_state and self.state_rows:
                theta, mu, xi = self.state_rows[ridx]
                vals += [repr(float(v)) for v in theta.ravel()]
                vals += [repr(float(v)) for v in mu.ravel()]
                vals += [repr(float(v)) for v in xi.ravel()]
            lines.append(",".join(vals))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @staticmethod
    def _fmt(v) -> str:
        if isinstance(v, int):
            return str(v)
        return repr(float(v))


@dataclass
class SolveResult:
    """Final duals, recovered primal, and the run's diagnostics."""

    theta: Array
    mu: Array
    xi: Array
    x: Array
    trace: Trace
    converged: bool
    reason: str
    iterations: int
    ergodic_theta: Array
    ergodic_mu: Array
    steps: StepSizes
    h: float
    tau: float

    def agent_report(self) -> list[dict]:
        return [
            {"agent": i + 1, "theta": theta.tolist(), "mu": mu.tolist(), "x": x.tolist()}
            for i, (theta, mu, x) in enumerate(zip(self.theta, self.mu, self.x))
        ]


def solve(instance: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Run the distributed dual iteration until the residual rule fires.

    Convergence requires all three of: consensus residual and primal
    residual at the current duals below their tolerances, and the last
    dual step norm below ``tol_step``.  Exhausting ``max_iter`` returns a
    non-converged result with the full trace rather than raising.

    Set-up validates the instance, computes ``h`` and ``tau``, picks the
    steps and compiles the round plan; a rejection raises
    :class:`SetupError` before round 0.
    """
    config = config or SolverConfig()
    report = validate(instance)
    if not report.ok:
        raise SetupError(f"instance failed validation:\n{report}")
    if config.trace_every < 1:
        raise SetupError(f"trace_every must be at least 1, got {config.trace_every}")

    h = max_lipschitz(instance)
    tau = laplacian_spectral_radius(instance.graph).value
    c = suggest_step_sizes(h, tau, config.gamma).c if config.c is None else config.c
    validate_step_sizes(h, tau, c, config.gamma)
    steps = StepSizes(c, config.gamma)

    state = init_state(instance)
    trace = Trace(with_state=config.trace_state)
    n, m, b_dim = instance.dims
    avg = RunningAverage(n, b_dim, m)
    inc = instance.graph.incidence(instance.b_dim)
    plan = _round_plan(instance)
    t0 = time.perf_counter()

    res = residuals(instance, state, inc)
    trace.record(0, res.dual_value, res.consensus, res.primal, math.nan,
                 time.perf_counter() - t0, state)

    converged = False
    reason = "max_iter exhausted"
    while state.t < config.max_iter:
        new_state = iterate(instance, state, steps)
        step_norm = math.sqrt(
            float(np.sum((new_state.theta - state.theta) ** 2))
            + float(np.sum((new_state.mu - state.mu) ** 2))
        )
        state = new_state
        avg.update(state.theta, state.mu)
        due = state.t % config.trace_every == 0 or state.t == config.max_iter
        # the stop rule needs all three tolerances, so the residuals matter
        # only when a trace row is due or the step is already small enough
        if not (due or step_norm <= config.tol_step):
            continue
        res = residuals(instance, state, inc)
        done = (
            res.consensus <= config.tol_consensus
            and res.primal <= config.tol_primal
            and step_norm <= config.tol_step
        )
        if done or due:
            trace.record(state.t, res.dual_value, res.consensus, res.primal,
                         step_norm, time.perf_counter() - t0, state)
        if done:
            converged = True
            reason = "residual tolerances met"
            break

    return SolveResult(
        theta=state.theta,
        mu=state.mu,
        xi=state.xi,
        x=plan.maximizers(state.theta, state.mu)[1],
        trace=trace,
        converged=converged,
        reason=reason,
        iterations=state.t,
        ergodic_theta=avg.theta,
        ergodic_mu=avg.mu,
        steps=steps,
        h=h,
        tau=tau,
    )
