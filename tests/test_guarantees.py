"""The paper's guarantees, checked on random instances.

Instances come from ``oracles.random_instance``: random connected graphs
with N in 2..8, M and B in 1..3, quadratic costs and boxes around a
strictly feasible point.  The saddle point comes from the centralized
oracle, and the steps are the ones ``solve`` suggests for a gamma in
[0.5, 3].  Under those steps the Lyapunov value (the weighted distance to
the saddle point) never increases, and the ergodic dual gap and consensus
violation stay under ``C/(T+1)``.  A converged ``solve`` reports a finite
dual objective on every trace row once no part lacks a conjugate value,
also when some boxes are swapped for L1, Zero or norm penalties.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprox.functions import L1, NormPenalty, Zero
from dualprox.oracle import centralized_oracle, saddle_point
from dualprox.problems import AgentProblem, ProblemInstance
from dualprox.solver import (
    RunningAverage,
    SolverConfig,
    eval_dual_objective,
    gap_bound_constant,
    init_state,
    iterate,
    lyapunov_value,
    max_lipschitz,
    solve,
    suggest_step_sizes,
)
from dualprox.topology import laplacian_spectral_radius

from oracles import random_instance

HORIZONS = (10, 100, 1000)


@st.composite
def instances(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, b_dim = draw(st.integers(2, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return random_instance(rng, n, m, b_dim)


gammas = st.floats(0.5, 3.0)
SWAPS = ("box", "l1", "zero", "norm1", "norm2")


@settings(max_examples=40, deadline=None)
@given(instances(), gammas)
def test_lyapunov_value_never_increases_and_the_ergodic_gap_stays_bounded(instance, gamma):
    theta_star, mu_star, xi_star = saddle_point(instance, centralized_oracle(instance))
    graph = instance.graph
    steps = suggest_step_sizes(
        max_lipschitz(instance), laplacian_spectral_radius(graph).value, gamma
    )
    c = steps.c
    state = init_state(instance)
    bound_constant = gap_bound_constant(
        graph, c, gamma, state.theta, state.mu, state.xi, theta_star, mu_star, xi_star
    )
    phi_star = eval_dual_objective(instance, theta_star, mu_star)
    avg = RunningAverage(instance.n_agents, instance.b_dim, instance.m)
    prev = lyapunov_value(graph, c, gamma, state, theta_star, mu_star, xi_star)
    for _ in range(HORIZONS[-1] + 1):
        state = iterate(instance, state, steps)
        cur = lyapunov_value(graph, c, gamma, state, theta_star, mu_star, xi_star)
        assert cur <= prev + 1e-12 * max(1.0, prev), f"round {state.t}: {prev} -> {cur}"
        prev = cur
        avg.update(state.theta, state.mu)
        T = state.t - 1
        if T in HORIZONS:
            bound = bound_constant / (T + 1)
            gap = abs(eval_dual_objective(instance, avg.theta, avg.mu) - phi_star)
            feasibility = np.linalg.norm(xi_star) * np.linalg.norm(graph.edge_diff(avg.theta))
            assert gap <= bound, f"T={T}: gap {gap} > bound {bound}"
            assert feasibility <= bound, f"T={T}: feasibility {feasibility} > bound {bound}"


@settings(max_examples=8, deadline=None)
@given(instances(), gammas, st.lists(st.sampled_from(SWAPS), min_size=8, max_size=8))
def test_phi_is_finite_on_every_row_of_a_converged_solve(instance, gamma, kinds):
    swapped = {"l1": L1(0.5), "zero": Zero(), "norm1": NormPenalty(1), "norm2": NormPenalty(2)}
    agents = [
        AgentProblem(a.f, swapped.get(kind, a.g), a.a_block, a.kappa)
        for a, kind in zip(instance.agents, kinds)
    ]
    instance = ProblemInstance(agents, instance.b, instance.graph)
    result = solve(instance, SolverConfig(gamma=gamma))
    assert result.converged
    assert all(math.isfinite(phi) for phi in result.trace.column("phi"))
