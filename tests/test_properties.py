"""Property tests for the single round path and the single dual-objective path.

Random connected graphs (a random tree plus extra edges) with N in 2..12,
M = B in {1, 2}, quadratic smooth parts and nonsmooth parts drawn from the
catalog.  The message-passing engine must reproduce ``iterate`` bit for
bit, and ``residuals`` must report the same finite dual value as
``eval_dual_objective``, bit for bit, on every round.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprox.functions import L1, Box, NormPenalty, Quadratic, Zero
from dualprox.netsim import Engine
from dualprox.problems import AgentProblem, ProblemInstance
from dualprox.solver import (
    eval_dual_objective,
    init_state,
    iterate,
    max_lipschitz,
    residuals,
    suggest_step_sizes,
)
from dualprox.topology import Graph, laplacian_spectral_radius

ROUNDS = 20
KINDS = ("box", "l1", "zero", "norm1", "norm2")


def nonsmooth(kind: str, rng: np.random.Generator, dim: int):
    if kind == "box":
        lo = rng.uniform(-3.0, 0.5, size=dim)
        return Box(lo, lo + rng.uniform(0.0, 3.0, size=dim))
    if kind == "l1":
        return L1(float(rng.uniform(0.0, 2.0)))
    if kind == "zero":
        return Zero()
    return NormPenalty(1 if kind == "norm1" else 2)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 12))
    dim = draw(st.sampled_from([1, 2]))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    for i, j in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n)):
        if i != j:
            edges.add((min(i, j), max(i, j)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents = []
    for kind in kinds:
        base = rng.normal(size=(dim, dim))
        f = Quadratic(base @ base.T + 0.5 * np.eye(dim), rng.normal(size=dim))
        agents.append(
            AgentProblem(f, nonsmooth(kind, rng, dim), rng.normal(size=(dim, dim)), 1.0 / n)
        )
    return ProblemInstance(agents, rng.normal(size=dim), Graph(n, sorted(edges)))


@settings(max_examples=40, deadline=None)
@given(instances(), st.floats(0.25, 4.0))
def test_engine_and_iterate_agree_bitwise(instance, gamma):
    steps = suggest_step_sizes(
        max_lipschitz(instance), laplacian_spectral_radius(instance.graph).value, gamma
    )
    state = init_state(instance)
    with Engine(instance, steps) as engine:
        for _ in range(ROUNDS):
            state = iterate(instance, state, steps)
            engine.run_round()
            net = engine.state()
            assert np.array_equal(state.theta, net.theta)
            assert np.array_equal(state.mu, net.mu)
            assert np.array_equal(state.xi, net.xi)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_residuals_and_dual_objective_agree_bitwise(instance):
    steps = suggest_step_sizes(
        max_lipschitz(instance), laplacian_spectral_radius(instance.graph).value
    )
    state = init_state(instance)
    for _ in range(ROUNDS):
        state = iterate(instance, state, steps)
        phi = eval_dual_objective(instance, state.theta, state.mu)
        assert np.isfinite(phi)
        assert residuals(instance, state).dual_value == phi
