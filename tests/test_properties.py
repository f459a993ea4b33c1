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
``primal_recovery``.  ``solve``, which reuses each state's maximizers,
must match ``oracles.reference_solve``, which sweeps every state afresh
and calls ``iterate`` with no hand-off of the edge term, in every output
but the wall times, also with its queued trace rows evaluated two at a
time, and on the market, the committed mixed file and draws with M, B >= 2
at three gammas, two trace cadences and 0, 1 or 41 rounds.  A batch of up
to 64 states swept at once must give each state its own residuals bit for
bit, on a single agent without edges too.  The stacked view's four catalog calls must give each
agent's own call bit for bit, with and without leading batch axes.  A
1000-agent market on the benchmark's ring-plus-chord graph checks
the kernel against the per-agent round at scale; stars with the hub
first and last, preferential-attachment trees, paths and a single agent
check it at signed duals, mostly zeros; and a 3000-agent star checks that the plan and a round take memory linear in
the edges.  ``iterate`` must leave its state and the plan's arrays as they
were, and ``h`` must be the per-agent maximum bit for bit, also where
1x1 blocks skip the SVD.  The step that
``solve`` picks must pass the paper's step rule against the exact largest
Laplacian eigenvalue, on the same random graphs and on three fixed ones.
"""

import importlib.util
import math
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dualprox.solver as solver_module
from dualprox.functions import (
    L1,
    Box,
    ConjugateUnavailable,
    CustomProx,
    CustomSmooth,
    NormPenalty,
    Quadratic,
    Zero,
    _norm,
)
from dualprox.netsim import Engine
from dualprox.problems import (
    AgentProblem,
    MarketParams,
    ProblemInstance,
    UCParams,
    UserParams,
    build_market,
    load_instance,
    validate,
)
from dualprox.solver import (
    SolverConfig,
    SolverState,
    _round_plan,
    _spectral_norms,
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
    reference_solve,
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
def instances(draw, n_agents=None, dims=(1, 2, 3)):
    n = draw(st.integers(2, 12)) if n_agents is None else n_agents
    m = draw(st.sampled_from(dims))
    b_dim = draw(st.sampled_from(dims))
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


def result_bits(result) -> dict:
    """Every output of a solve but the wall times, as exact bytes."""
    rows = np.array([row[:5] for row in result.trace.rows], dtype=float)
    out = {
        "trace": bits(rows),
        "states": b"".join(bits(a) for row in result.trace.state_rows for a in row),
        "stop": (result.converged, result.reason, result.iterations, len(result.trace)),
        "steps": (result.steps.c.hex(), result.steps.gamma.hex()),
    }
    for name in ("theta", "mu", "xi", "x", "ergodic_theta", "ergodic_mu", "h", "tau"):
        out[name] = bits(getattr(result, name))
    return out


@pytest.mark.parametrize("stop", ["residual tolerances met", "max_iter exhausted"])
@pytest.mark.parametrize("trace_state", [False, True], ids=["no_state", "state"])
@pytest.mark.parametrize("trace_every", [1, 3, 100])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_solve_matches_the_reference_loop_bitwise(trace_every, trace_state, stop, data):
    """``solve`` reuses each evaluated state's maximizers, and evaluates
    queued trace rows in batches; the reference loop sweeps every state
    afresh, one at a time.  A run to tolerance uses
    ``oracles.random_instance``, which converges within the round budget
    unless its coupling has about as many rows as the agents have
    variables (about one draw in a hundred, skipped); a run out of rounds
    uses the module's catalog mixes with tolerances of zero.  Each draw is
    also solved with batches of two rows, so that its run crosses many
    batches however few its rows."""
    if stop == "max_iter exhausted":
        instance = data.draw(instances())
        assume(validate(instance).ok)
        config = SolverConfig(
            max_iter=data.draw(st.integers(0, 40)), tol_consensus=0.0, tol_primal=0.0,
            tol_step=0.0, trace_every=trace_every, trace_state=trace_state,
        )
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n, m, b_dim = (data.draw(st.integers(lo, hi)) for lo, hi in ((2, 6), (1, 3), (1, 3)))
        instance = random_instance(rng, n, m, b_dim)
        config = SolverConfig(
            max_iter=8_000, tol_consensus=1e-3, tol_primal=1e-3, tol_step=1e-4,
            trace_every=trace_every, trace_state=trace_state,
        )
    got = solve(instance, config)
    assume(got.reason == stop)
    with mock.patch.object(solver_module, "_BATCH_ROWS", 2):
        in_pairs = solve(instance, config)
    want_bits = result_bits(reference_solve(instance, config))
    for result in (got, in_pairs):
        got_bits = result_bits(result)
        for name in want_bits:
            assert got_bits[name] == want_bits[name], name


def assert_solve_matches_the_plain_loop(instance, gamma, trace_every, max_iter):
    """``solve`` hands each round's ``gamma * M theta`` to the next; the
    reference loop calls ``iterate`` with no hand-off.  Every output must
    keep its bits, the theta, mu and xi of every trace row included."""
    config = SolverConfig(gamma=gamma, max_iter=max_iter, trace_every=trace_every,
                          trace_state=True)
    got = result_bits(solve(instance, config))
    want = result_bits(reference_solve(instance, config))
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("max_iter", [0, 1, 41])
@pytest.mark.parametrize("trace_every", [1, 7])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
class TestEdgeTermHandOff:
    @pytest.mark.parametrize("name", ["market", "mixed"])
    def test_fixed_instances(self, name, gamma, trace_every, max_iter):
        instance = (build_market() if name == "market" else
                    load_instance(Path(__file__).parent / "data" / "mixed_instance.txt"))
        assert_solve_matches_the_plain_loop(instance, gamma, trace_every, max_iter)

    @settings(max_examples=3, deadline=None)
    @given(instance=instances(dims=(2, 3)))
    def test_vector_draws(self, instance, gamma, trace_every, max_iter):
        assume(validate(instance).ok)
        assert_solve_matches_the_plain_loop(instance, gamma, trace_every, max_iter)


def load_bench_inputs():
    """The benchmark's seeded inputs module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def scaled_market(edges=None, n=1000):
    """The benchmark's seed-1 market of ``n`` agents, on its own
    ring-plus-chord graph or on ``edges``."""
    market = load_bench_inputs().scaled_market(1, n=n)
    return build_market(
        MarketParams(
            uc=tuple(UCParams(d, s, 0.0, x) for d, s, x in market.companies),
            users=tuple(UserParams(chi, pi, x) for chi, pi, x in market.users),
        ),
        Graph(market.n_agents, market.edges if edges is None else edges),
    )


def plan_arrays(instance) -> dict:
    """Every array of an instance's round plan and of its stacked view's
    catalog groups, by name."""
    out = {k: v for k, v in vars(_round_plan(instance)).items() if isinstance(v, np.ndarray)}
    for name in ("f_groups", "g_groups"):
        for k, (rows, fn) in enumerate(getattr(instance.stacked, name)):
            out[f"{name}[{k}].rows"] = np.arange(instance.n_agents)[rows]
            out[f"{name}[{k}].type"] = np.array(type(fn).__name__)
            for attr, value in vars(fn).items():
                if isinstance(value, np.ndarray):
                    out[f"{name}[{k}].{attr}"] = value
    return out


@pytest.mark.parametrize(
    "build", [build_market, scaled_market], ids=["market", "ring_plus_chords_1000"]
)
def test_stacked_and_agent_built_markets_give_one_plan(build, tmp_path):
    """``build_market`` makes its instance from stacked arrays; the same
    agents passed to ``ProblemInstance`` must compile to the same plan and
    solve to the same bits."""
    stacked = build()
    agent_built = ProblemInstance(build().agents, [0.0], stacked.graph)
    got, want = plan_arrays(stacked), plan_arrays(agent_built)
    assert got.keys() == want.keys()
    for name in got:
        assert (got[name].dtype, got[name].shape) == (want[name].dtype, want[name].shape), name
        assert got[name].tobytes() == want[name].tobytes(), name
    config = SolverConfig(max_iter=30, trace_every=1, trace_state=True)
    results = [solve(instance, config) for instance in (stacked, agent_built)]
    for name in ("theta", "mu", "xi", "x", "ergodic_theta", "ergodic_mu", "h", "tau"):
        assert bits(getattr(results[0], name)) == bits(getattr(results[1], name)), name
    assert results[0].steps.c.hex() == results[1].steps.c.hex()
    for k, result in enumerate(results):
        result.trace.write_csv(tmp_path / f"{k}.csv")
    assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
    assert stacked.dims == agent_built.dims
    assert bits(stacked.kappa_vector()) == bits(agent_built.kappa_vector())
    assert bits(stacked.coupling_matrix()) == bits(agent_built.coupling_matrix())
    assert stacked == agent_built


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


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(instances(), instances(n_agents=1)),
    st.integers(1, solver_module._BATCH_ROWS),
    st.integers(0, 2**32 - 1),
)
def test_a_batched_sweep_gives_each_state_its_own_residuals(instance, k, seed):
    """``solve`` evaluates up to the row cap of queued states in one dual
    sweep.  At signed duals on every catalog kind, where ``L1`` and
    ``Zero`` give infinite rows and ``CustomProx`` NaN ones, each state's
    ``Residuals`` must be, bit for bit, those of ``residuals`` on a fresh
    copy, whether the state comes with its maximizers or is swept in the
    batch, and its consensus the norm of the graph's consensus operator at
    its theta.  A single agent has no edges and a zero consensus."""
    rng = np.random.default_rng(seed)
    states = [signed_duals(rng, instance) for _ in range(k)]
    plan = _round_plan(instance)
    rows = [(s, plan.maximizers(s.theta, s.mu) if i % 2 else None) for i, s in enumerate(states)]
    got = solver_module._evaluate(instance, plan, rows)
    for state, res in zip(states, got):
        want = residuals(instance, state.copy())
        for name in ("dual_value", "consensus", "primal"):
            assert bits(getattr(res, name)) == bits(getattr(want, name)), name
        again = residuals(instance, state)
        for name in ("dual_value", "consensus", "primal"):
            assert bits(getattr(again, name)) == bits(getattr(res, name)), name
        edge_diff = instance.graph.edge_diff(state.theta)
        assert bits(res.consensus) == bits(_norm(edge_diff))


@pytest.mark.parametrize("seed", range(20))
def test_signed_zeros_match_the_per_agent_round(seed):
    """Zero data and zero duals of random sign on a star with a tail, so
    agents of every degree sum zeros of either sign over their own edge
    ends, and a -0.0 pressure must stay -0.0."""
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
    """Uneven degrees: a star's leaf has one neighbour next to the hub's
    199, and on the ring with chords most agents have 2 or 3 neighbours next
    to the hub's 8.  Nine duals in ten are zeros, so that many agents'
    pressure sums are zeros of either sign, which the scatter over each
    agent's own edge ends must keep."""
    instance = zero_data(graph, b_dim)
    state = signed_duals(np.random.default_rng(seed), instance, zero_share=0.9)
    steps = steps_for(instance)
    got, want = iterate(instance, state, steps), reference_iterate(instance, state, steps)
    assert bits(got.theta) == bits(want.theta)
    assert bits(got.mu) == bits(want.mu)
    assert bits(got.xi) == bits(want.xi)


def preferential_attachment(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """A tree in which vertex v joins an earlier vertex drawn in proportion
    to its degree, so that a few early vertices collect most edges."""
    ends, edges = [1], []
    for v in range(2, n + 1):
        u = ends[rng.integers(len(ends))]
        edges.append((u, v))
        ends += [u, v]
    return edges


def parity_graph(kind: str, n: int, rng: np.random.Generator) -> Graph:
    if kind == "single":
        return Graph(1, [])
    if kind == "star_hub_first":  # the hub owns every edge
        return Graph(n, [(1, j) for j in range(2, n + 1)])
    if kind == "star_hub_last":  # every edge is incoming to the hub
        return Graph(n, [(j, n) for j in range(1, n)])
    if kind == "path":
        return Graph(n, [(i, i + 1) for i in range(1, n)])
    return Graph(n, preferential_attachment(rng, n))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["star_hub_first", "star_hub_last", "preferential", "path", "single"]),
    st.integers(2, 40),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([0.5, 0.9]),
    st.floats(0.25, 4.0),
    st.integers(0, 2**32 - 1),
)
def test_scatter_over_edge_ends_matches_the_per_agent_round(kind, n, b_dim, zero_share, gamma, seed):
    """Each agent's neighbour terms are added over its own edge ends, in
    ``lambda_update``'s order: on stars whose hub owns every edge or none,
    on preferential-attachment trees, on paths and on a single agent with
    no edge, at duals of which half or nine in ten are zeros of either
    sign, the round must be the per-agent one bit for bit."""
    rng = np.random.default_rng(seed)
    instance = zero_data(parity_graph(kind, n, rng), b_dim)
    state = signed_duals(rng, instance, zero_share=zero_share)
    steps = steps_for(instance, gamma)
    got, want = iterate(instance, state, steps), reference_iterate(instance, state, steps)
    assert bits(got.theta) == bits(want.theta)
    assert bits(got.mu) == bits(want.mu)
    assert bits(got.xi) == bits(want.xi)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["star_hub_first", "star_hub_last", "preferential", "path"]),
    st.integers(2, 12),
    st.sampled_from([1, 2]),
    st.integers(0, 2**32 - 1),
)
def test_the_round_is_the_per_agent_one_at_infinite_and_nan_duals(kind, n, b_dim, seed):
    """The round's formulas are exact rewrites of the per-agent ones (xi
    times +-1.0 for +-xi, ``kappa*b - A x`` for ``-(A x) + kappa*b``,
    ``mu + c*x`` for ``mu - c*(-x)``): at duals among +-0, +-1, +-inf and
    NaN, every entry must have the per-agent round's bits, except that a
    NaN may carry either sign."""
    rng = np.random.default_rng(seed)
    instance = zero_data(parity_graph(kind, n, rng), b_dim)
    special = np.array([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])
    n_agents, m, _ = instance.dims
    state = SolverState(*(rng.choice(special, size=shape) for shape in (
        (n_agents, b_dim), (n_agents, m), (instance.graph.n_edges, b_dim))))
    steps = steps_for(instance)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf and the like
        got, want = iterate(instance, state, steps), reference_iterate(instance, state, steps)
    for name in ("theta", "mu", "xi"):
        g, w = getattr(got, name), getattr(want, name)
        nan = np.isnan(w)
        assert (np.isnan(g) == nan).all(), name
        assert bits(np.where(nan, 0.0, g)) == bits(np.where(nan, 0.0, w)), name


def test_a_star_plan_and_round_take_memory_linear_in_the_edges():
    """A 3000-agent star market: the plan and one round together allocate at
    most 16 (N + E) * B doubles (about 0.8 MB), so that the hub's degree
    does not set every agent's cost."""
    n = 3000
    instance = scaled_market([(1, j) for j in range(2, n + 1)], n=n)
    steps = steps_for(instance)
    state = init_state(instance)
    limit = 16 * (n + instance.graph.n_edges) * instance.b_dim * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        plan = _round_plan(instance)
        plan_bytes = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        new = iterate(instance, state, steps)
        round_bytes = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert new.t == 1 and plan is _round_plan(instance)
    assert plan_bytes + round_bytes <= limit, (plan_bytes, round_bytes)


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
    assert {"kappa_b", "end_target", "xi_source", "xi_sign"} <= tables.keys()
    assert "nbr_source" not in tables
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
    m, b_dim = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3)]))
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
    """``h`` comes from one batched spectral norm, or ``|a|`` for 1x1
    blocks; it must equal the largest per-agent ``lipschitz_h`` bit for
    bit."""
    want = max(lipschitz_h(agent.a_block, agent.f.sigma) for agent in instance.agents)
    assert bits(max_lipschitz(instance)) == bits(want)
    assert bits(solve(instance, SolverConfig(max_iter=0)).h) == bits(want)


def test_1x1_spectral_norms_are_the_exact_absolute_value():
    """A 1x1 block's spectral norm is ``|a|`` exactly, in the batched
    :func:`_spectral_norms` and in :func:`lipschitz_h` alike: over 320
    decades, at LAPACK's rescaling thresholds (sqrt(tiny) / eps and its
    inverse), at zeros of either sign and at subnormals."""
    rng = np.random.default_rng(11)
    values = rng.choice([-1.0, 1.0], size=200_000) * 10.0 ** rng.uniform(-160, 160, 200_000)
    threshold = float(np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps)
    edges = [threshold, 1.0 / threshold]
    edges += [np.nextafter(edges[0], 0.0), np.nextafter(edges[1], np.inf)]
    special = [0.0, -0.0, 5e-324, -1e-310, 1.7e308, -1.7e308, *edges, *(-e for e in edges)]
    a = np.concatenate([values, special])
    assert bits(_spectral_norms(a.reshape(-1, 1, 1))) == bits(np.abs(a))
    # (|a|^2 + 1) / 1.0 with a Python float |a|; NumPy would warn on overflow
    want = [abs(x) * abs(x) + 1.0 for x in a.tolist()]
    assert bits(np.array([lipschitz_h([[x]], 1.0) for x in a.tolist()])) == bits(np.array(want))


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
        assert bits(instance.stacked.support_values(mu)) == bits(want)


@st.composite
def whole_group_instances(draw):
    """Quadratic and Box agents only, so that each group covers every agent."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, b_dim = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return random_instance(rng, n, m, b_dim)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(instances(), instances(n_agents=1), whole_group_instances()),
    st.sampled_from([(), (1,), (3,), (2, 2)]),
    st.integers(0, 2**32 - 1),
)
def test_stacked_catalog_calls_match_each_agent(instance, batch, seed):
    """The stacked view's four catalog calls, on (N, M) points or with
    leading batch axes, must give every point each agent's own function's
    result bit for bit, signed zeros included, and NaN for the support
    value that ``CustomProx`` cannot give.  The draws mix stacked Quadratic
    and Box rows with ``CustomSmooth``, ``CustomProx``, ``L1``, ``Zero``
    and ``NormPenalty`` rows, or have one group per part that covers every
    agent."""
    rng = np.random.default_rng(seed)
    shape = (*batch, instance.n_agents, instance.m)
    values = rng.normal(size=shape) * rng.choice([0.1, 1.0, 10.0], size=shape)
    zeros = rng.choice([-0.0, 0.0], size=shape)
    points = np.where(rng.uniform(size=shape) < 1 / 3, zeros, values)
    c = float(rng.choice([0.05, 1.0, 3.0]))

    def support_value(g, mu):
        try:
            return g.support_value(mu)
        except ConjugateUnavailable:
            return math.nan

    stacked = instance.stacked
    calls = [
        (stacked.conjugate_gradient, lambda agent, x: agent.f.conjugate_gradient(x), shape),
        (lambda x: stacked.conjugate_prox(c, x), lambda agent, x: agent.g.conjugate_prox(c, x),
         shape),
        (stacked.f_values, lambda agent, x: agent.f.value(x), shape[:-1]),
        (stacked.support_values, lambda agent, x: support_value(agent.g, x), shape[:-1]),
    ]
    for batched, each, out_shape in calls:
        got = batched(points)
        assert got.shape == out_shape
        want = np.empty(out_shape)
        for k in np.ndindex(batch):
            for i, agent in enumerate(instance.agents):
                want[k + (i,)] = each(agent, points[k + (i,)])
        assert bits(got) == bits(want)


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
