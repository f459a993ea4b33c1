"""Property tests for the batched round kernel and the batched dual sweep.

Random connected graphs (a random tree plus extra edges) with N in 2..12,
M and B drawn apart from {1, 2, 3} so that coupling blocks are not square,
smooth parts that are quadratic or an oracle-backed ``CustomSmooth``
quadratic, and nonsmooth parts drawn from the catalog plus a
``CustomProx`` clip: stacked Quadratic and Box agents sit next to agents
evaluated one row at a time.  Over 20 rounds the message-passing engine
must reproduce ``iterate`` bit for bit, and ``residuals`` and
``eval_dual_objective`` must reproduce the per-agent dual sweep bit for
bit, and ``solve`` must recover the same x as the per-agent
``primal_recovery``.  A 1000-agent market on the benchmark's ring-plus-chord graph checks
the kernel against the per-agent round at scale, and a star and that
graph, where most neighbour slots are padding, check it at random signed
duals.  ``iterate`` must leave its state and the plan's tables as they
were, and ``h`` must be the per-agent maximum bit for bit.  The step that
``solve`` picks must pass the paper's step rule against the exact largest
Laplacian eigenvalue, on the same random graphs and on three fixed ones.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualprox.functions import (
    L1,
    Box,
    CustomProx,
    CustomSmooth,
    NormPenalty,
    Quadratic,
    Zero,
)
from dualprox.netsim import Engine
from dualprox.problems import (
    AgentProblem,
    MarketParams,
    ProblemInstance,
    UCParams,
    UserParams,
    build_market,
    validate,
)
from dualprox.solver import (
    SolverConfig,
    SolverState,
    _round_plan,
    eval_dual_objective,
    init_state,
    iterate,
    lipschitz_h,
    max_lipschitz,
    primal_recovery,
    residuals,
    solve,
    suggest_step_sizes,
    validate_step_sizes,
)
from dualprox.topology import Graph, laplacian_spectral_radius

from oracles import (
    dense_lambda_max,
    random_instance,
    reference_dual_sweep,
    reference_iterate,
)

ROUNDS = 20
KINDS = ("box", "l1", "zero", "norm1", "norm2", "custom_prox")


def bits(a) -> bytes:
    """The exact bytes of a float array or scalar: tells -0.0 from 0.0."""
    return np.asarray(a, dtype=float).tobytes()


def nonsmooth(kind: str, rng: np.random.Generator, dim: int):
    if kind == "box":
        lo = rng.uniform(-3.0, 0.5, size=dim)
        return Box(lo, lo + rng.uniform(0.0, 3.0, size=dim))
    if kind == "l1":
        return L1(float(rng.uniform(0.0, 2.0)))
    if kind == "zero":
        return Zero()
    if kind == "custom_prox":
        return CustomProx(lambda alpha, v: np.clip(v, -1.0, 1.0))
    return NormPenalty(1 if kind == "norm1" else 2)


def smooth(custom: bool, rng: np.random.Generator, dim: int):
    q = rng.normal(size=dim)
    if not custom:
        base = rng.normal(size=(dim, dim))
        return Quadratic(base @ base.T + 0.5 * np.eye(dim), q)
    # well conditioned, so that the inner gradient loop stays short
    p = np.diag(rng.uniform(0.5, 1.5, size=dim))
    return CustomSmooth(
        lambda x: float(x @ p @ x + q @ x),
        lambda x: 2.0 * p @ x + q,
        sigma=2.0 * float(np.linalg.eigvalsh(p)[0]),
        dim=dim,
    )


@st.composite
def instances(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.sampled_from([1, 2, 3]))
    b_dim = draw(st.sampled_from([1, 2, 3]))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    for i, j in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n)):
        if i != j:
            edges.add((min(i, j), max(i, j)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
    # about one agent in four gets the slower, oracle-backed smooth part
    custom = draw(st.lists(st.sampled_from([False] * 3 + [True]), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents = [
        AgentProblem(
            smooth(is_custom, rng, m),
            nonsmooth(kind, rng, m),
            rng.normal(size=(b_dim, m)),
            1.0 / n,
        )
        for kind, is_custom in zip(kinds, custom)
    ]
    return ProblemInstance(agents, rng.normal(size=b_dim), Graph(n, sorted(edges)))


def steps_for(instance, gamma=1.0):
    return suggest_step_sizes(
        max_lipschitz(instance), laplacian_spectral_radius(instance.graph).value, gamma
    )


@settings(max_examples=40, deadline=None)
@given(instances(), st.floats(0.25, 4.0))
def test_engine_and_iterate_agree_bitwise(instance, gamma):
    steps = steps_for(instance, gamma)
    state = init_state(instance)
    with Engine(instance, steps) as engine:
        for _ in range(ROUNDS):
            state = iterate(instance, state, steps)
            engine.run_round()
            net = engine.state()
            assert bits(state.theta) == bits(net.theta)
            assert bits(state.mu) == bits(net.mu)
            assert bits(state.xi) == bits(net.xi)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_residuals_and_dual_objective_agree_bitwise(instance):
    steps = steps_for(instance)
    without_conjugate = any(isinstance(a.g, CustomProx) for a in instance.agents)
    state = init_state(instance)
    for _ in range(ROUNDS):
        state = iterate(instance, state, steps)
        phi, ax = reference_dual_sweep(instance, state.theta, state.mu)
        assert math.isnan(phi) if without_conjugate else math.isfinite(phi)
        assert bits(eval_dual_objective(instance, state.theta, state.mu)) == bits(phi)
        res = residuals(instance, state)
        assert bits(res.dual_value) == bits(phi)
        assert bits(res.primal) == bits(float(np.linalg.norm(ax - instance.b)))


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(0, 30))
def test_solve_recovers_x_bitwise_as_primal_recovery_does(instance, rounds):
    """``solve`` recovers x through the round plan; each row must equal the
    per-agent ``primal_recovery`` at the final duals.  A scalar all-box
    draw may fail the interior-feasibility check that ``solve`` runs."""
    assume(validate(instance).ok)
    result = solve(instance, SolverConfig(max_iter=rounds))
    assert result.iterations == rounds
    want = [
        primal_recovery(agent, result.theta[i], result.mu[i])
        for i, agent in enumerate(instance.agents)
    ]
    assert result.x.shape == (instance.n_agents, instance.m)
    assert bits(result.x) == bits(np.vstack(want))


def load_bench_inputs():
    """The benchmark's seeded inputs module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def scaled_market(edges=None):
    """The benchmark's seed-1 1000-agent market, on its own ring-plus-chord
    graph or on ``edges``."""
    market = load_bench_inputs().scaled_market(1, n=1000)
    return build_market(
        MarketParams(
            uc=tuple(UCParams(d, s, 0.0, x) for d, s, x in market.companies),
            users=tuple(UserParams(chi, pi, x) for chi, pi, x in market.users),
        ),
        Graph(market.n_agents, market.edges if edges is None else edges),
    )


def test_kernel_matches_per_agent_round_on_a_1000_agent_market():
    instance = scaled_market()
    assert instance.graph == Graph(1000, load_bench_inputs().ring_plus_chords(1000))
    assert instance.graph.max_degree() == 8
    steps = steps_for(instance)
    state = want = init_state(instance)
    for _ in range(5):
        state = iterate(instance, state, steps)
        want = reference_iterate(instance, want, steps)
        assert bits(state.theta) == bits(want.theta)
        assert bits(state.mu) == bits(want.mu)
        assert bits(state.xi) == bits(want.xi)


def signed_duals(
    rng: np.random.Generator, instance, zero_share: float = 1 / 3
) -> SolverState:
    """Random duals at three scales, ``zero_share`` of them zeros of either
    sign."""
    n, m, b_dim = instance.dims

    def draw(*shape):
        values = rng.normal(size=shape) * rng.choice([0.1, 1.0, 10.0], size=shape)
        zeros = rng.choice([-0.0, 0.0], size=shape)
        return np.where(rng.uniform(size=shape) < zero_share, zeros, values)

    return SolverState(draw(n, b_dim), draw(n, m), draw(instance.graph.n_edges, b_dim))


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_kernel_matches_the_per_agent_path_at_arbitrary_duals(instance, seed):
    """Duals drawn at random, so every Box component is active and the
    sums over components and agents all round; a third of them are zeros
    of either sign."""
    state = signed_duals(np.random.default_rng(seed), instance)
    phi, ax = reference_dual_sweep(instance, state.theta, state.mu)
    res = residuals(instance, state)
    assert bits(res.dual_value) == bits(phi)
    assert bits(res.primal) == bits(float(np.linalg.norm(ax - instance.b)))
    steps = steps_for(instance)
    got, want = iterate(instance, state, steps), reference_iterate(instance, state, steps)
    assert bits(got.theta) == bits(want.theta)
    assert bits(got.mu) == bits(want.mu)
    assert bits(got.xi) == bits(want.xi)


@pytest.mark.parametrize("seed", range(20))
def test_signed_zeros_match_the_per_agent_round(seed):
    """Zero data and zero duals of random sign on a star with a tail, so
    agents of every degree have padded neighbour slots: a padded slot must
    leave a -0.0 pressure as it is."""
    rng = np.random.default_rng(seed)
    edges = [(1, j) for j in range(2, 6)] + [(5, 6), (6, 7), (3, 8)]
    n = 8
    agents = [
        AgentProblem(
            Quadratic(1.0),
            Zero() if i % 2 else Box(-1.0, 1.0),
            [[rng.choice([-1.0, 1.0])]],
            1.0 / n,
        )
        for i in range(n)
    ]
    instance = ProblemInstance(agents, [-0.0], Graph(n, edges))
    signed_zeros = [-0.0, 0.0]
    state = SolverState(
        rng.choice(signed_zeros, size=(n, 1)),
        rng.choice(signed_zeros, size=(n, 1)),
        rng.choice(signed_zeros, size=(len(edges), 1)),
    )
    steps = steps_for(instance)
    got, want = iterate(instance, state, steps), reference_iterate(instance, state, steps)
    assert bits(got.theta) == bits(want.theta)
    assert bits(got.mu) == bits(want.mu)
    assert bits(got.xi) == bits(want.xi)


def zero_data(graph: Graph, b_dim: int) -> ProblemInstance:
    """Agents with ``Quadratic(1.0)``, Box and Zero parts in turn, coupling
    blocks of +-1 and ``b = -0.0``: wherever an agent's duals are zero, its
    pressure sum starts from a zero of either sign."""
    rng = np.random.default_rng(graph.n_vertices)
    agents = [
        AgentProblem(
            Quadratic(1.0),
            Zero() if i % 2 else Box(-1.0, 1.0),
            rng.choice([-1.0, 1.0], size=(b_dim, 1)),
            1.0 / graph.n_vertices,
        )
        for i in range(graph.n_vertices)
    ]
    return ProblemInstance(agents, np.full(b_dim, -0.0), graph)


@pytest.mark.parametrize(
    "graph, b_dim",
    [
        (Graph(200, [(1, j) for j in range(2, 201)]), 2),
        (Graph(1000, load_bench_inputs().ring_plus_chords(1000)), 1),
    ],
    ids=["star", "ring_plus_chords"],
)
@pytest.mark.parametrize("seed", range(3))
def test_heavily_padded_graphs_match_the_per_agent_round(graph, b_dim, seed):
    """Most neighbour slots are padding: a star's leaf has one neighbour
    next to the hub's 199, and on the ring with chords most agents have 2 or
    3 neighbours next to the hub's 8.  Nine duals in ten are zeros, so that
    many agents' pressure sums are zeros of either sign, and a padded slot
    must leave a -0.0 as it is."""
    instance = zero_data(graph, b_dim)
    state = signed_duals(np.random.default_rng(seed), instance, zero_share=0.9)
    steps = steps_for(instance)
    got, want = iterate(instance, state, steps), reference_iterate(instance, state, steps)
    assert bits(got.theta) == bits(want.theta)
    assert bits(got.mu) == bits(want.mu)
    assert bits(got.xi) == bits(want.xi)


@settings(max_examples=20, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_iterate_leaves_its_inputs_and_the_plan_alone(instance, seed):
    """The kernel sums in place into arrays of its own: the state, the plan's
    tables and a second call from the same state must be untouched by it."""
    state = signed_duals(np.random.default_rng(seed), instance)
    steps = steps_for(instance)
    plan = _round_plan(instance)
    before = [bits(a) for a in (state.theta, state.mu, state.xi)]
    tables = {k: v.copy() for k, v in vars(plan).items() if isinstance(v, np.ndarray)}
    assert "kappa_b" in tables and "nbr_pad" in tables
    first = iterate(instance, state, steps)
    second = iterate(instance, state, steps)
    assert [bits(a) for a in (state.theta, state.mu, state.xi)] == before
    for name, table in tables.items():
        got = getattr(plan, name)
        assert got.dtype == table.dtype and got.tobytes() == table.tobytes(), name
    for name in ("theta", "mu", "xi"):
        assert bits(getattr(first, name)) == bits(getattr(second, name)), name


@st.composite
def oracle_instances(draw):
    """``oracles.random_instance`` draws with non-square coupling blocks, and
    some agents' smooth parts swapped for an oracle-backed ``CustomSmooth``."""
    n = draw(st.integers(2, 8))
    m, b_dim = draw(st.sampled_from([(1, 2), (2, 1), (2, 3), (3, 2), (1, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instance = random_instance(rng, n, m, b_dim)
    custom = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    agents = [
        AgentProblem(smooth(True, rng, m), agent.g, agent.a_block, agent.kappa)
        if is_custom else agent
        for agent, is_custom in zip(instance.agents, custom)
    ]
    return ProblemInstance(agents, instance.b, instance.graph)


@settings(max_examples=30, deadline=None)
@given(oracle_instances())
def test_h_is_the_max_of_the_per_agent_constants(instance):
    """``h`` comes from one batched spectral norm; it must equal the largest
    per-agent ``lipschitz_h`` bit for bit."""
    want = max(lipschitz_h(agent.a_block, agent.f.sigma) for agent in instance.agents)
    assert bits(max_lipschitz(instance)) == bits(want)
    assert bits(solve(instance, SolverConfig(max_iter=0)).h) == bits(want)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_stacked_box_support_matches_each_box(m):
    """The batched sweep's Box conjugate values, row by row, against each
    agent's own ``support_value``, with infinite bounds and signed zeros."""
    rng = np.random.default_rng(m)
    n = 300
    lo = rng.choice([-np.inf, -2.5, -0.0, 0.0, 0.7], size=(n, m))
    hi = np.maximum(lo, 0.0) + rng.choice([0.0, 1.3, np.inf], size=(n, m))
    agents = [
        AgentProblem(Quadratic(np.eye(m)), Box(lo[i], hi[i]), np.ones((1, m)), 1.0 / n)
        for i in range(n)
    ]
    instance = ProblemInstance(agents, [0.0], Graph(n, [(i, i + 1) for i in range(1, n)]))
    mu = rng.choice([-0.0, 0.0, 1e-300, -3.7, 2.9, 0.1], size=(n, m))
    mu *= rng.uniform(0.5, 1.5, size=(n, m))
    with np.errstate(invalid="ignore"):  # +inf and -inf terms add up to NaN
        want = [a.g.support_value(mu[i]) for i, a in enumerate(agents)]
        assert bits(_round_plan(instance).support_values(mu)) == bits(want)


def assert_step_rule_holds(instance, gamma=1.0):
    """The step ``solve`` picks passes the rule against the exact eigenvalue."""
    lam = dense_lambda_max(instance.graph)
    assert laplacian_spectral_radius(instance.graph).value >= lam
    validate_step_sizes(max_lipschitz(instance), lam, steps_for(instance, gamma).c, gamma)


@settings(max_examples=40, deadline=None)
@given(instances(), st.floats(0.25, 4.0))
def test_suggested_step_passes_the_rule_on_random_graphs(instance, gamma):
    assert_step_rule_holds(instance, gamma)


def ring_with_random_chords(n=1000, chords=100, seed=0):
    """A ring 1..n plus ``chords`` chords drawn uniformly at random."""
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    while len(edges) < n + chords:
        i, j = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), 2, replace=False))
        edges.add((i, j))
    return sorted(edges)


@pytest.mark.parametrize(
    "build",
    [build_market, scaled_market, lambda: scaled_market(ring_with_random_chords())],
    ids=["market", "ring_plus_chords_1000", "ring_1000_random_chords"],
)
def test_suggested_step_passes_the_rule_on_fixed_graphs(build):
    assert_step_rule_holds(build())
