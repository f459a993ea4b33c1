"""Dual proximal gradient iteration with neighbor-local updates.

Each agent keeps a dual pair (theta, mu): theta estimates the network-wide
multiplier of the coupling constraint, mu is the multiplier tying the
agent's primal variable to its feasible-set copy.  Owned edges carry an
extra multiplier xi enforcing agreement of neighboring theta estimates.
One round is a barrier computation: every agent takes a prox-gradient
step on its dual pair from time-t data, then each edge's xi integrates the
difference of the two new theta at its ends.  Every update reads only the
data of its own step, so results are independent of agent processing
order.

:func:`lambda_update` and :func:`xi_update` are the per-agent and per-edge
updates, which the message-passing engine runs node by node.  The solver
runs a round, the dual sweep behind :func:`residuals` and
:func:`eval_dual_objective`, and the primal recovery at the end of
:func:`solve` as one batched kernel instead.  Each instance is compiled
once, in :func:`solve`'s set-up or on first use, into a plan of flat
edge-end index arrays and stacked coupling blocks.  The catalog calls go
through the instance's stacked view,
:class:`~dualprox.problems.StackedAgents`, the one reader of the catalog
groups.  Both neighbour terms of the pressure are ``M^T`` of the
extrapolated multiplier ``xi_bar = gamma * M theta + xi``, as
``L = M^T M``: a round gathers ``xi_bar`` in one call, one entry per edge
end and component, and scatters it with one ``np.add.at``, which is
unbuffered and adds a repeated target's entries in index order.  Each
agent's ends come in :func:`lambda_update`'s order, so each sum is
bit-identical to the per-agent update, and a round costs O(N + E) whatever
the degrees.  Sums over agents run in agent order.  A batched round has no
processing order.  The plan binds its two block products once, to a
column product when every coupling block is 1x1.  :func:`solve` sweeps the
primal maximizers of a state once and hands them to the state's evaluation
and to its round, and computes a round's exact step norm only where a
certified bound cannot settle its stop test.  The graph's consensus
operator, :meth:`~dualprox.topology.Graph.edge_diff`, serves ``xi_bar``,
the xi update, the consensus residual and the weighted distance behind
:func:`lyapunov_value` and :func:`gap_bound_constant`; in :func:`solve`
each round hands its ``gamma * M theta`` to the next, so a round takes
one edge difference.  The dual sweep also takes a leading axis of states:
:func:`solve` queues every row after round 0 that is due or can stop its
run, evaluates the queue in one sweep, bit-identical to each row's own
sweep, and records each row by :meth:`Trace.record`.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from .functions import _norm
from .problems import AgentProblem, ProblemInstance, validate
from .topology import Graph, laplacian_spectral_radius

__all__ = [
    "Residuals",
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
    "solve",
    "suggest_step_sizes",
    "validate_step_sizes",
    "xi_update",
]

Array = np.ndarray


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
        if not (0 < self.c < math.inf and 0 < self.gamma < math.inf):
            raise StepSizeError(f"step sizes must be finite and positive, got {self}")


def lipschitz_h(a_block, sigma: float) -> float:
    """Gradient Lipschitz constant of an agent's smooth dual term.

    Equals (spectral norm of the agent's dual-to-primal map)^2 / sigma,
    which reduces to (||A_i||_2^2 + 1) / sigma because the map stacks the
    negated coupling block on a negated identity.
    """
    if not sigma > 0:  # NaN too
        raise ValueError(f"strong convexity modulus must be positive, got {sigma}")
    a = np.atleast_2d(np.asarray(a_block, dtype=float))
    spec = float(_spectral_norms(a[None])[0]) if a.size else 0.0
    return (spec * spec + 1.0) / sigma


def max_lipschitz(instance: ProblemInstance) -> float:
    """Network-wide constant h, the max over agents of :func:`lipschitz_h`.

    It reads the instance's stacked view.  It and :func:`lipschitz_h` take
    their norms from :func:`_spectral_norms`, so ``h`` is bit-identical to
    the per-agent maximum.
    """
    stacked = instance.stacked
    sigma = stacked.sigma()
    if not np.all(sigma > 0):  # NaN too
        raise ValueError(f"strong convexity modulus must be positive, got {sigma.min()}")
    spec = _spectral_norms(stacked.a)
    # a tiny modulus or a huge block makes h inf, as in lipschitz_h, and the
    # step check rejects it
    with np.errstate(over="ignore"):
        return float(np.max((spec * spec + 1.0) / sigma))


def _spectral_norms(a: Array) -> Array:
    """Entry i is the spectral norm of ``a[i]``: ``|a|`` exactly for 1x1
    blocks, and one batched LAPACK SVD for the rest."""
    if a.shape[1:] == (1, 1):
        return np.abs(a[:, 0, 0])
    return np.linalg.norm(a, 2, axis=(1, 2))


# Relative slack of the step rule: 1/c of the suggested c = 1/required is
# within an ulp or two of required, either side.
_STEP_RULE_SLACK = 4.0 * float(np.finfo(float).eps)


def _short_of(c: float, required: float) -> bool:
    """1/c is below ``required`` by more than the step rule's slack; always for inf."""
    return not 1.0 / c >= required - max(1e-12, _STEP_RULE_SLACK * required)


def _check_step_inputs(**inputs: float) -> None:
    """Raise :class:`StepSizeError` unless every input is finite and positive,
    or zero for ``tau_bar``; NaN is rejected too."""
    if not all(0 <= x < math.inf and (x > 0 or k == "tau_bar") for k, x in inputs.items()):
        got = ", ".join(f"{k}={x}" for k, x in inputs.items())
        raise StepSizeError("step-size inputs must be finite and positive (tau_bar may be "
                            f"zero for an edgeless network), got {got}")


def validate_step_sizes(h: float, tau_bar: float, c: float, gamma: float) -> None:
    """Accept step sizes iff 1/c >= h + gamma * tau_bar (boundary included).

    A slack of a few ulps of ``h + gamma * tau_bar``, and at least 1e-12,
    absorbs the roundoff of the suggestion formula, so that every step
    :func:`suggest_step_sizes` gives passes.  Raises :class:`StepSizeError`
    on rejection, also of a step or ``tau_bar`` that is not finite, and
    ValueError on a nonpositive ``h``.
    """
    if not h > 0:  # NaN too
        raise ValueError(f"h must be positive (sigma finite implies h > 0), got {h}")
    _check_step_inputs(tau_bar=tau_bar, c=c, gamma=gamma)
    required = h + gamma * tau_bar
    if _short_of(c, required):
        raise StepSizeError(
            f"1/c = {1.0 / c:.6g} is below the required h + gamma*tau = {required:.6g}"
        )


def suggest_step_sizes(h: float, tau_bar: float, gamma: float = 1.0) -> StepSizes:
    """Step sizes exactly at the acceptance boundary: c = 1/(h + gamma*tau)."""
    _check_step_inputs(h=h, tau_bar=tau_bar, gamma=gamma)
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
    Moreau decomposition so the conjugate is never evaluated.  Edge (i, j)
    adds ``(theta_i - theta_j) * gamma + xi_ij`` at i and subtracts it at j.

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

    The pressure sums the owned edges by ascending peer, then the incoming
    ones by ascending owner, so results are reproducible bit-for-bit
    regardless of message arrival order.
    """
    grad_theta, grad_mu, x_hat = _grad_p_parts(agent, b, theta, mu)
    pressure = grad_theta.copy()
    for j in sorted(owned_xi):
        pressure += (theta - neighbor_thetas[j]) * gamma + owned_xi[j]
    for j in sorted(incoming_xi):
        pressure -= (neighbor_thetas[j] - theta) * gamma + incoming_xi[j]
    theta_new = theta - c * pressure
    w = mu - c * grad_mu
    mu_new = agent.g.conjugate_prox(c, w)
    return theta_new, mu_new, x_hat


def xi_update(xi: Array, theta_owner: Array, theta_peer: Array, gamma: float) -> Array:
    """Edge multiplier ascent on the time-(t+1) theta difference.

    Both ends of an edge hold a copy of its multiplier and compute this
    update with the same operands in this order, owner's theta first, so
    their copies stay the same bits.
    """
    return xi + gamma * (theta_owner - theta_peer)


# --- the compiled round plan -------------------------------------------------


def _stacked_matvec(mats: Array, vecs: Array) -> Array:
    """Row i is ``mats[i] @ vecs[..., i, :]``, bit-identical to that product;
    ``vecs`` may carry leading axes.

    Stacked ``np.matmul`` makes the same BLAS call per row as a single
    matrix-vector ``@``; ``np.einsum`` and explicit sums round differently.
    """
    return np.matmul(mats, vecs[..., None])[..., 0]


def _column_product(column: Array, vecs: Array) -> Array:
    """Row i is ``[[column[i, 0]]] @ vecs[..., i, :]``, the product of a 1x1
    block, bit-identical to that product; ``vecs`` may carry leading axes.

    A 1x1 matrix product is ``0 + a*x``, so this takes ``a * x + 0.0``,
    which gives the same double (a ``-0.0`` product becomes ``+0.0``).
    """
    out = column * vecs
    out += 0.0
    return out


def _rowdot(a: Array, b: Array) -> Array:
    """Entry ``[..., i]`` is ``a[..., i, :] @ b[..., i, :]``, bit-identical to
    that dot product, with leading axes broadcast; rows of one entry take
    ``a * b + 0.0``, as a 1x1 block's product does."""
    if a.shape[-1] == 1:
        return _column_product(a[..., 0], b[..., 0])
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


class _RoundPlan:
    """An instance compiled into stacked arrays for the batched round kernel.

    The edge terms of :func:`lambda_update`'s pressure sum are indexed by
    edge end and component, in flat arrays of 2E*B entries laid out from
    the canonical edge order: every edge's owner end, then every edge's
    peer end.  In each half, entry ``e*B + k`` takes entry ``xi_source =
    e*B + k`` of a flattened per-edge array, times ``xi_sign`` (``+1.0`` at
    the owner end, ``-1.0`` at the peer end), and adds it to the flattened
    pressure at ``end_target``, which is ``agent*B + k``.  The canonical
    edges come by owner, then by peer, so an agent's entries come in the
    order that :func:`lambda_update` sums them: the edges it owns by
    ascending peer, then those its smaller neighbours own by ascending
    owner.  ``edge_diff`` is the graph's consensus operator,
    :meth:`~dualprox.topology.Graph.edge_diff`.  The coupling blocks ``a``
    and the shares ``kappa`` are those of the instance's stacked view,
    ``stacked``, which makes every catalog call of the round and the sweep;
    ``b_rows`` is ``b`` broadcast to one row per agent.

    ``a_x`` and ``a_t_theta`` are the two block products, bound once: row i
    is ``A_i @ x_i`` and ``A_i^T @ theta_i``.  When every block is 1x1 both
    multiply the (N, 1) column ``a[:, :, 0]`` into the rows, as a 1x1 block
    is its own transpose; otherwise they are stacked products on the blocks
    and on their transposes.

    The methods run every round, so they call ufuncs and ndarray methods,
    and leave NumPy's Python-level wrappers and the checks of set-up to
    set-up.
    """

    def __init__(self, instance: ProblemInstance):
        graph, b_dim = instance.graph, instance.b_dim
        self.edge_diff = graph.edge_diff
        ends = np.concatenate((graph.edge_owner, graph.edge_peer))
        self.end_target = (ends[:, None] * b_dim + np.arange(b_dim)).ravel()
        self.xi_source = np.tile(np.arange(graph.n_edges * b_dim), 2)
        self.xi_sign = np.repeat([1.0, -1.0], graph.n_edges * b_dim)

        self.stacked = instance.stacked
        self.a, self.kappa = self.stacked.a, self.stacked.kappa
        if self.a.shape[1:] == (1, 1):
            self.a_x = self.a_t_theta = partial(_column_product, self.a[:, :, 0])
        else:
            self.a_x = partial(_stacked_matvec, self.a)
            self.a_t_theta = partial(_stacked_matvec, self.a.transpose(0, 2, 1))
        self.b_rows = np.broadcast_to(instance.b, (instance.n_agents, b_dim))
        self.kappa_b = self.kappa[:, None] * instance.b

    def maximizers(self, theta: Array, mu: Array) -> tuple[Array, Array]:
        """Every agent's ``v_i = -A_i^T theta_i - mu_i`` and primal maximizer
        ``x_hat_i``, the gradient of the conjugate of ``f_i`` at ``v_i``."""
        v = self.a_t_theta(theta)
        np.negative(v, out=v)
        v -= mu
        return v, self.stacked.conjugate_gradient(v)


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


def iterate(
    instance: ProblemInstance,
    state: SolverState,
    steps: StepSizes,
    *,
    _maximizers=None,
    _edge_term=None,
) -> SolverState:
    """One synchronous round: all dual pairs, then all edge multipliers.

    Every agent update reads only time-t data; every edge update reads the
    freshly computed coupling estimates.  The round runs as one batched
    kernel over the instance's compiled plan, bit-identical to calling
    :func:`lambda_update` per agent and :func:`xi_update` per edge, for
    every value but the sign of a NaN.  Its formulas are exact rewrites of
    those updates that make fewer NumPy calls: ``xi_bar = gamma * M theta
    + xi`` is gathered per edge end times a sign of +-1.0, and the new xi
    is ``gamma * M theta_new + xi``.  The term ``gamma * M theta_new`` is
    also the next round's ``gamma * M theta``, so a round that is handed it
    takes one edge difference instead of two.  It returns a new state.
    """
    plan = _round_plan(instance)
    c, gamma = steps.c, steps.gamma
    theta, mu, xi = state.theta, state.mu, state.xi

    # solve hands over the maximizers of a state it has already swept, and,
    # in a one-slot list, the gamma * M theta that the round before computed;
    # this round puts its own in the list's slot
    _, x_hat = _maximizers or plan.maximizers(theta, mu)
    if _edge_term:
        xi_bar = _edge_term.pop()
    else:
        xi_bar = plan.edge_diff(theta)
        xi_bar *= gamma
    # lambda_update's pressure: np.add.at is unbuffered and adds the entries
    # of a repeated target one by one in index order, so every agent's sum
    # runs over its own ends in lambda_update's order.  Subtracting x is
    # adding -x by the definition of IEEE subtraction, and -x is x times
    # -1.0; likewise kappa*b - A x_hat is -(A x_hat) + kappa*b, and
    # mu + c*x_hat is mu - c*(-x_hat), for every value but a NaN's sign.
    xi_bar += xi
    pressure = plan.kappa_b - plan.a_x(x_hat)
    flat = pressure.reshape(-1)  # a view: pressure is a fresh C-ordered array
    np.add.at(flat, plan.end_target, xi_bar.reshape(-1).take(plan.xi_source) * plan.xi_sign)
    theta_new = theta - c * pressure
    mu_new = plan.stacked.conjugate_prox(c, mu + c * x_hat)
    edge_term = plan.edge_diff(theta_new)
    edge_term *= gamma
    if _edge_term is not None:
        _edge_term.append(edge_term)
    return SolverState(theta_new, mu_new, edge_term + xi, state.t + 1)


# --- recovery, objective, diagnostics --------------------------------------


def primal_recovery(agent: AgentProblem, theta, mu) -> Array:
    """Unique minimizer of the agent's Lagrangian slice at its duals."""
    return agent.f.conjugate_gradient(
        _h_apply(agent, np.asarray(theta, dtype=float), np.asarray(mu, dtype=float))
    )


def _dual_sweep(
    plan: _RoundPlan, theta: Array, mu: Array, v: Array, x_hat: Array
) -> tuple[Array, Array]:
    """Dual objective and coupling term ``sum_i A_i x_hat_i`` at stacked
    duals, from their maximizers ``(v, x_hat) = plan.maximizers(theta, mu)``:
    of one state from (N, .) arrays, or of a batch of K states from
    (K, N, .) arrays, one objective and one (B,) term per state.

    The objective sums each agent's smooth dual term and the conjugate of
    its nonsmooth part at mu: ``math.inf`` marks a dual point outside the
    conjugate's domain, NaN a part that has no conjugate value.  Column 0
    of an (N + 1, [K,] 1 + B) buffer holds the objectives' terms and the
    other columns the ``A_i x_hat_i``, under a zero row; one accumulation
    along the agents sums them all in agent order, so every state's sums
    round as an agent-by-agent loop over that state alone would.
    """
    n, b_dim = theta.shape[-2:]
    terms = np.empty((n + 1, *theta.shape[:-2], 1 + b_dim))
    terms[0] = 0.0
    smooth = _rowdot(v, x_hat) - plan.stacked.f_values(x_hat)
    smooth += plan.kappa * _rowdot(plan.b_rows, theta)
    smooth += plan.stacked.support_values(mu)
    # agents first: (K, N) -> (N, K) and (K, N, B) -> (N, K, B)
    terms[1:, ..., 0] = smooth.T
    terms[1:, ..., 1:] = plan.a_x(x_hat).swapaxes(0, -2)
    total = np.add.accumulate(terms)[-1]
    return total[..., 0], total[..., 1:]


def eval_dual_objective(instance: ProblemInstance, theta: Array, mu: Array) -> float:
    """Dual objective at stacked duals; ``math.inf`` marks an infeasible point
    and NaN a part without a conjugate value."""
    plan = _round_plan(instance)
    theta = np.asarray(theta, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return float(_dual_sweep(plan, theta, mu, *plan.maximizers(theta, mu))[0])


@dataclass(frozen=True)
class Residuals:
    """Consensus and primal infeasibility plus the dual objective."""

    consensus: float
    primal: float
    dual_value: float


def residuals(
    instance: ProblemInstance, state: SolverState, *, _maximizers=None
) -> Residuals:
    """Residual triple at the state's duals.

    Consensus is the norm of all per-edge theta differences; primal is the
    coupling-constraint violation of the recovered primal point.  The dual
    objective is evaluated from the same primal maximizers, so each agent
    costs a single conjugate-gradient solve.
    """
    # solve hands over the maximizers of a state it has already swept
    return _evaluate(instance, _round_plan(instance), [(state, _maximizers)])[0]


def _evaluate(instance: ProblemInstance, plan: _RoundPlan, rows: list) -> list[Residuals]:
    """The :class:`Residuals` of the states in ``rows``, ``(state,
    maximizers)`` pairs, from one dual sweep over all of them: the one
    evaluator behind :func:`residuals` and :func:`solve`'s queue.

    A state whose maximizers are None is swept here.  One state is swept in
    place, on its own arrays, and its consensus and primal norms are one
    ``_norm`` each; several are stacked along a leading axis first, into
    fresh (K, N, .) arrays, and their norms are one ``_rowdot`` each, the
    same dot product per state.  ``_rowdot`` on a (1, -1) reshape would
    make one norm path, but its ``np.matmul`` costs more than a dot: a
    4-round solve of a 3000-agent market read about 3% slower with it on a
    2-core x86-64 machine.  The consensus reads the edge differences of the
    swept theta.  Every value is bit-identical to that state's sweep alone.
    """
    swept = []
    for state, found in rows:
        duals = (np.asarray(state.theta, dtype=float), np.asarray(state.mu, dtype=float))
        swept.append((*duals, *(found or plan.maximizers(*duals))))
    arrays = swept[0] if len(swept) == 1 else [np.array(column) for column in zip(*swept)]
    phis, ax = _dual_sweep(plan, *arrays)
    ax -= instance.b
    edge_diff = plan.edge_diff(arrays[0])
    k = len(rows)
    if k == 1:
        norms = [(_norm(edge_diff), _norm(ax))]
    else:
        edge_diff, ax = edge_diff.reshape(k, -1), ax.reshape(k, -1)
        norms = zip(np.sqrt(_rowdot(edge_diff, edge_diff)).tolist(),
                    np.sqrt(_rowdot(ax, ax)).tolist())
    return [Residuals(*norm, phi) for norm, phi in zip(norms, phis.reshape(-1).tolist())]


class RunningAverage:
    """Incremental mean of the dual trajectory (no history storage)."""

    def __init__(self, n: int, b_dim: int, m: int):
        self.theta = np.zeros((n, b_dim))
        self.mu = np.zeros((n, m))
        self.count = 0

    def update(self, theta: Array, mu: Array) -> None:
        self.count += 1
        step = np.subtract(theta, self.theta)
        step /= self.count
        self.theta += step
        step = np.subtract(mu, self.mu)
        step /= self.count
        self.mu += step


def _step_norm(new: SolverState, old: SolverState) -> float:
    """Euclidean norm of the dual step from ``old`` to ``new``: the root of
    the sum of the squared theta changes plus that of the mu changes."""
    d_theta = np.subtract(new.theta, old.theta)
    d_mu = np.subtract(new.mu, old.mu)
    # added as Python floats: NumPy scalars may swap the operands, which
    # keeps the other NaN when both sums are NaN
    return math.sqrt(
        float(np.add.reduce(np.square(d_theta, out=d_theta), axis=None))
        + float(np.add.reduce(np.square(d_mu, out=d_mu), axis=None))
    )


def _weighted_sq_distance(
    graph: Graph, c: float, gamma: float, dtheta: Array, dmu: Array
) -> float:
    """||dlambda||^2 in the norm weighted by (1/2c) I - (gamma/2) M^T M.

    ``dtheta`` comes from caller arrays, so it must have one row per
    vertex: M would read the first rows of a taller one without complaint.
    """
    if dtheta.ndim != 2 or dtheta.shape[0] != graph.n_vertices:
        raise ValueError(
            f"expected a theta difference of {graph.n_vertices} rows, got shape {dtheta.shape}"
        )
    plain = float(np.sum(dtheta * dtheta) + np.sum(dmu * dmu))
    edge = graph.edge_diff(dtheta)
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
    semidefinite, which holds whenever the step-size rule does; steps that
    are not finite and positive, or violate it by more than
    :func:`validate_step_sizes`' slack, raise :class:`StepSizeError`.
    """
    tau = laplacian_spectral_radius(graph).value
    _check_step_inputs(tau_bar=tau, c=c, gamma=gamma)
    if _short_of(c, gamma * tau):
        raise StepSizeError(
            f"1/c = {1.0 / c:.6g} < gamma*tau = {gamma * tau:.6g}: "
            "the distance weighting is not positive semidefinite"
        )
    dist = _weighted_sq_distance(graph, c, gamma, theta_star - theta0, mu_star - mu0)
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
    dist = _weighted_sq_distance(
        graph, c, gamma, theta_star - state.theta, mu_star - state.mu
    )
    dxi = xi_star - state.xi
    return dist + (0.5 / gamma) * float(np.sum(dxi * dxi))


# --- the full solve ---------------------------------------------------------

# The rows of a batch of queued trace rows: at most _BATCH_ROWS, and at most
# _BATCH_ELEMENTS entries in each (K, N, max(M, B)) array of its sweep.
_BATCH_ROWS = 64
_BATCH_ELEMENTS = 1 << 16


@dataclass
class SolverConfig:
    """Knobs for :func:`solve`.

    Leaving ``c`` unset picks the boundary step from the network constants;
    an explicit value is validated before the first round, and so are the
    tolerances, which must be nonnegative (``inf`` turns a criterion off).
    ``trace_state`` additionally snapshots theta/mu/xi into each trace row.
    ``n_workers`` and ``seed`` are accepted for compatibility and have no
    effect: a round runs on one thread, as one batched kernel over all
    agents, and ``tau`` is a closed-form bound that needs no random start.
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

    def write_csv(self, path) -> None:
        """Write the trace as comma-separated text with one header row.

        Wall time is reproducible-run poison, so it stays out of the file;
        all other columns are deterministic for a given configuration.
        """
        cols = self.columns[:-1]  # wall time is last
        header = list(cols)
        if self.with_state and self.state_rows:
            theta, mu, xi = self.state_rows[0]
            n, b_dim = theta.shape
            m = mu.shape[1]
            header += [f"theta_{i}_{k}" for i in range(1, n + 1) for k in range(b_dim)]
            header += [f"mu_{i}_{k}" for i in range(1, n + 1) for k in range(m)]
            header += [f"xi_{e}_{k}" for e in range(1, xi.shape[0] + 1) for k in range(b_dim)]
            # one row of state columns per trace row
            states = np.concatenate(
                [np.stack(part).reshape(len(self.state_rows), -1)
                 for part in zip(*self.state_rows)],
                axis=1,
            )
        lines = [",".join(header)]
        for ridx, row in enumerate(self.rows):
            vals = [self._fmt(v) for v in row[: len(cols)]]
            if self.with_state and self.state_rows:
                vals += map(repr, states[ridx].tolist())
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

    Set-up validates the instance and the configuration (a tolerance
    must be nonnegative; ``inf`` turns its criterion off), computes ``h``
    and ``tau``, picks the steps and compiles the round plan; a rejection
    raises :class:`SetupError` before round 0.

    Round 0 is evaluated at once.  Every later round that is due for a
    trace row, or whose step norm is at most ``tol_step`` so that it may
    stop the run, joins one queue.  The queue is evaluated in one batched
    dual sweep when it is full (up to 64 rows, fewer on large instances),
    when its last row may stop the run, and after the last round, so a
    round makes at most one sweep.  Every row keeps the bits it would have
    alone, and is recorded, in round order, if it is due or meets the
    tolerances; its ``wall_time`` is taken when its round ends.  An error
    raised while a queued row is evaluated propagates from ``solve``, at
    most one batch after that row's round, and the rows of its batch are
    not recorded.

    The exact step norm is computed for a due row, and for a round whose
    step a certified bound cannot place above ``tol_step``.  Any other
    round only takes its theta step ``d`` and moves on when ``d.dot(d) >
    4 * tol_step**2``: every computed sum of nonnegative terms is within a
    factor ``1 +- n*eps/2`` (to first order) of the exact one, whatever its
    order, and the mu part only adds, so the computed step norm then
    exceeds ``tol_step``, with a factor-2 margin for the rounding of both
    sums.  A NaN in ``d`` fails the test and takes the exact path.  The
    bound is used for ``1e-100 <= tol_step <= 1e100``, where
    ``4 * tol_step**2`` neither under- nor overflows and the squares that
    underflow in the dot are negligible beside it; outside that band every
    round computes the exact norm.  Every branch, row and stop is that of
    the exact rule.

    Round 0 is evaluated by :func:`residuals`, and every round run by
    :func:`iterate`, called through this module's namespace, so that a
    replacement installed there (a benchmark hook or a tracer) sees those
    calls, round 0's :func:`residuals` first.  A queued row calls neither:
    it is evaluated by the queue's sweep and recorded by
    :meth:`Trace.record`, as round 0 is.  Each evaluated state costs one
    sweep of primal maximizers: ``solve`` sweeps the state once and hands
    the maximizers to its row's evaluation, to the next round, and after
    the last round to the recovery of ``x``.  Each round also hands the
    next its ``gamma * M theta``, the edge term of its new xi, so that a
    run of R rounds takes R + 1 edge differences, not 2R, in its rounds.
    """
    config = config or SolverConfig()
    report = validate(instance)
    if not report.ok:
        raise SetupError(f"instance failed validation:\n{report}")
    try:  # NumPy integers pass, floats and NaN do not
        max_iter, trace_every = map(operator.index, (config.max_iter, config.trace_every))
    except TypeError:
        raise SetupError(f"max_iter and trace_every must be integers, got "
                         f"{config.max_iter!r} and {config.trace_every!r}") from None
    if trace_every < 1:
        raise SetupError(f"trace_every must be at least 1, got {trace_every}")
    if max_iter < 0:
        raise SetupError(f"max_iter must be at least 0, got {max_iter}")
    for name in ("tol_consensus", "tol_primal", "tol_step"):
        tol = getattr(config, name)
        if not tol >= 0:  # false for NaN too; inf turns the criterion off
            raise SetupError(f"{name} must be nonnegative (or inf), got {tol}")

    h = max_lipschitz(instance)
    tau = laplacian_spectral_radius(instance.graph).value
    steps = (suggest_step_sizes(h, tau, config.gamma) if config.c is None
             else StepSizes(config.c, config.gamma))
    validate_step_sizes(h, tau, steps.c, steps.gamma)

    state = init_state(instance)
    trace = Trace(with_state=config.trace_state)
    n, m, b_dim = instance.dims
    avg = RunningAverage(n, b_dim, m)
    plan = _round_plan(instance)
    t0 = time.perf_counter()

    # the maximizers of the last evaluated state, for its next round, and
    # the gamma * M theta of the last state, which each round refills
    found = plan.maximizers(state.theta, state.mu)
    edge_term = []
    res = residuals(instance, state, _maximizers=found)
    trace.record(0, res.dual_value, res.consensus, res.primal, math.nan,
                 time.perf_counter() - t0, state)

    # (state, maximizers, step norm, wall time, due) of the rows after round 0
    # that are due or can stop the run, in round order
    queue = []
    batch = max(1, min(_BATCH_ROWS, _BATCH_ELEMENTS // (n * max(m, b_dim))))
    converged = False
    tol_step = config.tol_step
    # the squared theta step that certifies a step norm above tol_step (see
    # the docstring), in the band where 4 * tol_step**2 is a normal number
    # far above any underflowed square
    floor = 4.0 * tol_step * tol_step if 1e-100 <= tol_step <= 1e100 else None
    while state.t < max_iter:
        old, state = state, iterate(instance, state, steps, _maximizers=found,
                                    _edge_term=edge_term)
        found = None
        avg.update(state.theta, state.mu)
        due = state.t % trace_every == 0 or state.t == max_iter
        if floor is not None and not due:
            d = np.subtract(state.theta, old.theta).ravel()
            if d.dot(d) > floor:  # False for NaN
                continue
        step_norm = _step_norm(state, old)
        # the stop rule needs all three tolerances, so a round whose step is
        # not small enough needs its residuals only for a due trace row
        can_stop = step_norm <= tol_step  # False for NaN
        if not (due or can_stop):
            continue
        found = plan.maximizers(state.theta, state.mu)
        queue.append((state, found, step_norm, time.perf_counter() - t0, due))
        if not (can_stop or len(queue) == batch or state.t == max_iter):
            continue
        # only the last row can stop the run: every earlier one is queued
        # because it is due, with a step norm above tol_step
        for (row_state, _, row_step, wall, row_due), res in zip(
            queue, _evaluate(instance, plan, [row[:2] for row in queue])
        ):
            converged = (row_step <= tol_step and res.consensus <= config.tol_consensus
                         and res.primal <= config.tol_primal)
            if converged or row_due:
                trace.record(row_state.t, res.dual_value, res.consensus, res.primal,
                             row_step, wall, row_state)
        queue.clear()
        if converged:
            break

    # the last state stopped the run or is due, so x is its evaluation's
    return SolveResult(
        theta=state.theta,
        mu=state.mu,
        xi=state.xi,
        x=found[1],
        trace=trace,
        converged=converged,
        reason="residual tolerances met" if converged else "max_iter exhausted",
        iterations=state.t,
        ergodic_theta=avg.theta,
        ergodic_mu=avg.mu,
        steps=steps,
        h=h,
        tau=tau,
    )
