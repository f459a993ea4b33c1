import math

import numpy as np
import pytest

from dualprox.functions import Box, CustomProx, L1, Quadratic, Zero
from dualprox.oracle import centralized_oracle, primal_objective, saddle_point
from dualprox.problems import AgentProblem, ProblemInstance, build_market
from dualprox.solver import (
    RunningAverage,
    SetupError,
    SolverConfig,
    SolverState,
    StepSizeError,
    StepSizes,
    ergodic_gap_bound,
    eval_dual_objective,
    grad_p,
    init_state,
    iterate,
    lambda_update,
    lipschitz_h,
    lyapunov_value,
    max_lipschitz,
    primal_recovery,
    residuals,
    smooth_dual_value,
    solve,
    suggest_step_sizes,
    validate_step_sizes,
    xi_update,
)
from dualprox.topology import Graph, laplacian_spectral_radius

from oracles import central_diff, dense_m, random_instance, spectral_norm_svd


def zero_instance() -> ProblemInstance:
    """Two quadratic agents, no constraints beyond the coupling, b = 0."""
    return ProblemInstance(
        [
            AgentProblem(Quadratic(1.0), Zero(), [[1.0]], 0.5),
            AgentProblem(Quadratic(1.0), Zero(), [[-1.0]], 0.5),
        ],
        [0.0],
        Graph(2, [(1, 2)]),
    )


def market_steps(instance, gamma=1.0) -> StepSizes:
    h = max_lipschitz(instance)
    tau = laplacian_spectral_radius(instance.graph).value
    return suggest_step_sizes(h, tau, gamma)


def dense_round(instance, state: SolverState, steps: StepSizes) -> SolverState:
    """Stacked-vector reference implementation of one full round.

    Builds the dense consensus operator and applies the global update to
    the flattened dual vector, with the nonsmooth prox done directly from
    the set definitions (clip for boxes, annihilation for the zero kind).
    """
    n, m, b_dim = instance.dims
    mat = dense_m(instance.graph, b_dim, m)
    lam = np.hstack([state.theta, state.mu]).ravel()
    xi = state.xi.ravel()

    grad = np.zeros_like(lam)
    for i, agent in enumerate(instance.agents):
        v = -(agent.a_block.T @ state.theta[i]) - state.mu[i]
        x_hat = agent.f.conjugate_gradient(v)
        grad[i * (b_dim + m) : i * (b_dim + m) + b_dim] = (
            -(agent.a_block @ x_hat) + agent.kappa * instance.b
        )
        grad[i * (b_dim + m) + b_dim : (i + 1) * (b_dim + m)] = -x_hat

    w = lam - steps.c * (grad + mat.T @ xi + steps.gamma * (mat.T @ (mat @ lam)))
    lam_new = w.copy()
    for i, agent in enumerate(instance.agents):
        sl = slice(i * (b_dim + m) + b_dim, (i + 1) * (b_dim + m))
        wm = w[sl]
        if isinstance(agent.g, Box):
            inner = np.clip(wm / steps.c, agent.g.lo, agent.g.hi)
        elif isinstance(agent.g, Zero):
            inner = wm / steps.c
        else:
            raise NotImplementedError
        lam_new[sl] = wm - steps.c * inner

    xi_new = xi + steps.gamma * (mat @ lam_new)
    blocks = lam_new.reshape(n, b_dim + m)
    return SolverState(
        blocks[:, :b_dim].copy(), blocks[:, b_dim:].copy(),
        xi_new.reshape(-1, b_dim), state.t + 1,
    )


class TestLipschitz:
    def test_decoupled_scalar_agent(self):
        assert lipschitz_h(np.zeros((1, 1)), 2.0) == pytest.approx(0.5)

    def test_market_company1(self):
        # spectral norm squared of [-1, -1] is 2; sigma = 2 * 0.0031
        h = lipschitz_h(np.array([[1.0]]), 0.0062)
        assert h == pytest.approx(2.0 / 0.0062)
        stacked = np.hstack([-np.array([[1.0]]).T, -np.eye(1)])
        assert spectral_norm_svd(stacked) ** 2 == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_svd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        b_dim, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.normal(size=(b_dim, m)) * 2.0
        sigma = float(rng.uniform(0.1, 5.0))
        stacked = np.hstack([-a.T, -np.eye(m)])
        expected = spectral_norm_svd(stacked) ** 2 / sigma
        assert lipschitz_h(a, sigma) == pytest.approx(expected, rel=1e-10)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            lipschitz_h(np.eye(1), 0.0)


class TestStepSizes:
    def test_boundary_accepted(self):
        validate_step_sizes(2.0, 4.0, 1.0 / 6.0, 1.0)

    def test_too_large_rejected(self):
        with pytest.raises(StepSizeError):
            validate_step_sizes(2.0, 4.0, 0.2, 1.0)

    def test_zero_h_is_precondition_error(self):
        with pytest.raises(ValueError, match="positive"):
            validate_step_sizes(0.0, 4.0, 0.1, 1.0)

    def test_suggestion_formula(self):
        assert suggest_step_sizes(2.0, 4.0, 1.0).c == pytest.approx(1.0 / 6.0)

    def test_suggestion_market(self):
        instance = build_market()
        steps = market_steps(instance)
        h = max_lipschitz(instance)
        tau = laplacian_spectral_radius(instance.graph).value
        assert steps.c == pytest.approx(1.0 / (h + tau))
        validate_step_sizes(h, tau, steps.c, steps.gamma)

    def test_small_gamma_limit(self):
        assert suggest_step_sizes(2.0, 4.0, 1e-14).c == pytest.approx(0.5, rel=1e-9)

    def test_positive_dataclass(self):
        with pytest.raises(ValueError):
            StepSizes(-0.1, 1.0)


class TestGradP:
    def test_origin_of_decoupled_agent(self):
        agent = AgentProblem(Quadratic(1.0), Zero(), [[0.0]], 1.0)
        g = grad_p(agent, [0.0], [0.0], [0.0])
        assert np.allclose(g, 0.0)

    def test_market_company1_at_saddle(self):
        agent = AgentProblem(Quadratic(0.0031, 8.71), Box(0.0, 150.0), [[1.0]], 0.2)
        g = grad_p(agent, [0.0], [-8.1], [-0.61])
        assert np.allclose(g, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(400 + seed)
        b_dim, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        base = rng.normal(size=(m, m))
        agent = AgentProblem(
            Quadratic(base @ base.T + np.eye(m), rng.normal(size=m)),
            Box(-np.ones(m), np.ones(m)),
            rng.normal(size=(b_dim, m)),
            0.3,
        )
        b = rng.normal(size=b_dim)
        lam = rng.normal(size=b_dim + m)

        def p_val(vec):
            return smooth_dual_value(agent, b, vec[:b_dim], vec[b_dim:])

        fd = central_diff(p_val, lam)
        got = grad_p(agent, b, lam[:b_dim], lam[b_dim:])
        assert np.linalg.norm(got - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


class TestLambdaUpdate:
    def test_zero_instance_fixed_point(self):
        instance = zero_instance()
        steps = market_steps(instance)
        state = init_state(instance)
        new = iterate(instance, state, steps)
        assert np.all(new.theta == 0.0)
        assert np.all(new.mu == 0.0)
        assert np.all(new.xi == 0.0)

    def test_market_first_round_matches_dense_reference(self):
        instance = build_market()
        steps = market_steps(instance)
        state = init_state(instance)
        got = iterate(instance, state, steps)
        want = dense_round(instance, state, steps)
        assert np.allclose(got.theta, want.theta, atol=1e-12)
        assert np.allclose(got.mu, want.mu, atol=1e-12)
        assert np.allclose(got.xi, want.xi, atol=1e-12)

    def test_isolated_agent_reduces_to_gradient_step(self):
        agent = AgentProblem(Quadratic(1.0, 2.0), Zero(), [[1.0]], 1.0)
        theta, mu = np.array([3.0]), np.array([0.0])
        b = np.array([1.5])
        c, gamma = 0.05, 1.0
        theta_new, mu_new, _ = lambda_update(
            agent, b, theta, mu, {}, {}, {}, c, gamma
        )
        gt = grad_p(agent, b, theta, mu)[:1]
        assert np.allclose(theta_new, theta - c * gt)
        assert np.allclose(mu_new, 0.0)


class TestXiUpdate:
    def test_consensus_leaves_unchanged(self):
        xi = np.array([1.23])
        assert np.array_equal(xi_update(xi, np.array([2.0]), np.array([2.0]), 0.7), xi)

    def test_simple_step(self):
        got = xi_update(np.array([0.0]), np.array([2.0]), np.array([1.0]), 1.0)
        assert np.array_equal(got, [1.0])

    def test_stationary_at_market_convergence(self):
        instance = build_market()
        result = solve(instance, SolverConfig())
        assert result.converged
        state = SolverState(result.theta, result.mu, result.xi, result.iterations)
        after = iterate(instance, state, result.steps)
        assert np.linalg.norm(after.xi - result.xi) <= 1e-5


class TestIterate:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_reference_on_random_instances(self, seed):
        rng = np.random.default_rng(500 + seed)
        instance = random_instance(rng, int(rng.integers(2, 5)))
        steps = market_steps(instance)
        state = init_state(instance)
        for _ in range(3):
            want = dense_round(instance, state, steps)
            state = iterate(instance, state, steps)
            assert np.allclose(state.theta, want.theta, atol=1e-11)
            assert np.allclose(state.mu, want.mu, atol=1e-11)
            assert np.allclose(state.xi, want.xi, atol=1e-11)

    def test_order_independence_is_bitwise(self):
        instance = build_market()
        steps = market_steps(instance)
        state = init_state(instance)
        for _ in range(10):
            state = iterate(instance, state, steps)
        forward = iterate(instance, state, steps, agent_order=[1, 2, 3, 4, 5])
        shuffled = iterate(instance, state, steps, agent_order=[4, 1, 5, 3, 2])
        assert np.array_equal(forward.theta, shuffled.theta)
        assert np.array_equal(forward.mu, shuffled.mu)
        assert np.array_equal(forward.xi, shuffled.xi)

    def test_rejects_bad_order(self):
        instance = build_market()
        with pytest.raises(ValueError):
            iterate(instance, init_state(instance), market_steps(instance),
                    agent_order=[1, 1, 2, 3, 4])


class TestPrimalRecovery:
    def test_market_company1(self):
        agent = AgentProblem(Quadratic(0.0031, 8.71), Box(0.0, 150.0), [[1.0]], 0.2)
        x = primal_recovery(agent, [-8.1], [-0.61])
        assert x[0] == pytest.approx(0.0, abs=1e-12)

    def test_market_user1(self):
        agent = AgentProblem(Quadratic(0.0935, -17.17), Box(0.0, 91.79), [[-1.0]], 0.2)
        x = primal_recovery(agent, [-8.1], [0.0])
        assert x[0] == pytest.approx(9.07 / 0.187, rel=1e-12)

    def test_zero_duals(self):
        agent = AgentProblem(Quadratic(1.0, 0.0), Zero(), [[1.0]], 1.0)
        assert primal_recovery(agent, [0.0], [0.0])[0] == pytest.approx(0.0)


class TestDualObjective:
    def test_zero_instance_at_origin(self):
        instance = zero_instance()
        state = init_state(instance)
        assert eval_dual_objective(instance, state.theta, state.mu) == pytest.approx(0.0)

    def test_market_equals_negated_primal_optimum(self):
        instance = build_market()
        oracle = centralized_oracle(instance)
        theta, mu, _ = saddle_point(instance, oracle)
        phi = eval_dual_objective(instance, theta, mu)
        assert phi == pytest.approx(-oracle.objective, abs=1e-6)

    def test_offset_term_scales_with_b(self):
        rng = np.random.default_rng(3)
        instance = random_instance(rng, 3)
        zeroed = ProblemInstance(instance.agents, np.zeros_like(instance.b), instance.graph)
        theta = np.tile(rng.normal(size=instance.b_dim), (3, 1))
        mu = np.vstack([0.5 * (a.g.lo + a.g.hi) * 0.0 for a in instance.agents])
        phi = eval_dual_objective(instance, theta, mu)
        phi0 = eval_dual_objective(zeroed, theta, mu)
        assert phi - phi0 == pytest.approx(float(instance.b @ theta[0]), rel=1e-9)

    def test_infeasible_marker(self):
        instance = zero_instance()
        theta = np.zeros((2, 1))
        mu = np.array([[0.5], [0.0]])
        assert eval_dual_objective(instance, theta, mu) == math.inf


class TestResiduals:
    def test_consensual_theta_has_zero_consensus(self):
        instance = build_market()
        state = init_state(instance)
        state.theta[:] = -4.2
        assert residuals(instance, state).consensus == 0.0

    def test_market_saddle_point(self):
        instance = build_market()
        oracle = centralized_oracle(instance)
        theta, mu, xi = saddle_point(instance, oracle)
        state = SolverState(theta, mu, xi, 0)
        res = residuals(instance, state)
        assert res.consensus <= 1e-6
        assert res.primal <= 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_norms(self, seed):
        rng = np.random.default_rng(600 + seed)
        instance = random_instance(rng, 3)
        n, m, b_dim = instance.dims
        state = SolverState(
            rng.normal(size=(n, b_dim)), rng.normal(size=(n, m)),
            rng.normal(size=(instance.graph.n_edges, b_dim)), 0,
        )
        res = residuals(instance, state)
        mat = dense_m(instance.graph, b_dim, m)
        lam = np.hstack([state.theta, state.mu]).ravel()
        assert res.consensus == pytest.approx(np.linalg.norm(mat @ lam), rel=1e-12)
        ax = sum(
            a.a_block @ a.f.conjugate_gradient(-(a.a_block.T @ state.theta[i]) - state.mu[i])
            for i, a in enumerate(instance.agents)
        )
        assert res.primal == pytest.approx(
            np.linalg.norm(ax - instance.b), rel=1e-12
        )


class TestErgodicAverage:
    def test_constant_sequence(self):
        avg = RunningAverage(2, 1, 1)
        v = np.ones((2, 1))
        for _ in range(5):
            avg.update(v * 3.0, v * -1.0)
        assert np.allclose(avg.theta, 3.0)
        assert np.allclose(avg.mu, -1.0)

    def test_two_point_mean(self):
        avg = RunningAverage(1, 1, 1)
        avg.update(np.array([[0.0]]), np.array([[0.0]]))
        avg.update(np.array([[2.0]]), np.array([[4.0]]))
        assert avg.theta[0, 0] == pytest.approx(1.0)
        assert avg.mu[0, 0] == pytest.approx(2.0)

    def test_matches_stored_history(self):
        instance = build_market()
        steps = market_steps(instance)
        state = init_state(instance)
        avg = RunningAverage(5, 1, 1)
        history = []
        for _ in range(100):
            state = iterate(instance, state, steps)
            avg.update(state.theta, state.mu)
            history.append((state.theta.copy(), state.mu.copy()))
        assert np.allclose(avg.theta, np.mean([h[0] for h in history], axis=0), atol=1e-12)
        assert np.allclose(avg.mu, np.mean([h[1] for h in history], axis=0), atol=1e-12)


class TestGapBound:
    def test_zero_at_saddle_start(self):
        instance = build_market()
        oracle = centralized_oracle(instance)
        theta, mu, _ = saddle_point(instance, oracle)
        steps = market_steps(instance)
        xi0 = np.zeros((5, 1))
        bound = ergodic_gap_bound(
            instance.graph, steps.c, steps.gamma,
            theta, mu, xi0, theta, mu, xi0, T=10,
        )
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_doubling_horizon_halves_bound(self):
        instance = build_market()
        oracle = centralized_oracle(instance)
        theta, mu, xi = saddle_point(instance, oracle)
        steps = market_steps(instance)
        state = init_state(instance)
        args = (instance.graph, steps.c, steps.gamma,
                state.theta, state.mu, state.xi, theta, mu, xi)
        assert ergodic_gap_bound(*args, T=9) == pytest.approx(
            2.0 * ergodic_gap_bound(*args, T=19), rel=1e-12
        )

    def test_invalid_steps_rejected(self):
        instance = build_market()
        oracle = centralized_oracle(instance)
        theta, mu, xi = saddle_point(instance, oracle)
        state = init_state(instance)
        with pytest.raises(StepSizeError):
            ergodic_gap_bound(
                instance.graph, 1.0, 10.0,
                state.theta, state.mu, state.xi, theta, mu, xi, T=10,
            )


class TestFixedPointIsSaddle:
    def test_iterate_from_saddle_stays(self):
        instance = build_market()
        oracle = centralized_oracle(instance)
        theta, mu, xi = saddle_point(instance, oracle)
        steps = market_steps(instance)
        state = SolverState(theta.copy(), mu.copy(), xi.copy(), 0)
        new = iterate(instance, state, steps)
        assert np.allclose(new.theta, theta, atol=1e-9)
        assert np.allclose(new.mu, mu, atol=1e-9)
        assert np.allclose(new.xi, xi, atol=1e-9)

    def test_lyapunov_decreases_early(self):
        instance = build_market()
        oracle = centralized_oracle(instance)
        theta, mu, xi = saddle_point(instance, oracle)
        steps = market_steps(instance)
        state = init_state(instance)
        prev = lyapunov_value(instance.graph, steps.c, steps.gamma, state, theta, mu, xi)
        for _ in range(200):
            state = iterate(instance, state, steps)
            cur = lyapunov_value(instance.graph, steps.c, steps.gamma, state, theta, mu, xi)
            assert cur <= prev + 1e-10
            prev = cur


class TestSolve:
    def test_zero_instance_converges_immediately(self):
        result = solve(zero_instance(), SolverConfig())
        assert result.converged
        assert result.iterations == 1
        assert np.allclose(result.x, 0.0)

    def test_max_iter_exhaustion_is_not_an_error(self):
        result = solve(build_market(), SolverConfig(max_iter=5))
        assert not result.converged
        assert result.iterations == 5
        assert "max_iter" in result.reason
        assert len(result.trace) >= 2

    def test_market_against_oracle(self):
        instance = build_market()
        result = solve(instance, SolverConfig())
        oracle = centralized_oracle(instance)
        assert result.converged
        assert np.allclose(result.x, oracle.x, atol=1e-3)
        assert np.allclose(result.theta, oracle.eta, atol=1e-4)
        phi = result.trace.column("phi")[-1]
        assert phi == pytest.approx(-primal_objective(instance, oracle.x), abs=1e-2)

    def test_trace_csv_roundtrip(self, tmp_path):
        result = solve(build_market(), SolverConfig(max_iter=50, trace_every=10))
        path = tmp_path / "trace.csv"
        result.trace.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "iter,phi,consensus_residual,primal_residual,step_norm"
        parsed = np.genfromtxt(path, delimiter=",", names=True)
        assert parsed["iter"].shape[0] == len(result.trace)

    def test_explicit_bad_c_rejected(self):
        with pytest.raises(StepSizeError):
            solve(build_market(), SolverConfig(c=0.5))

    def test_validation_failure_raises(self):
        bad = ProblemInstance(
            zero_instance().agents, [0.0], Graph(2, [])
        )
        with pytest.raises(ValueError, match="validation"):
            solve(bad, SolverConfig())

    def test_single_agent_network(self):
        # degenerate one-vertex graph: no consensus machinery, plain dual run
        instance = ProblemInstance(
            [AgentProblem(Quadratic(1.0, 2.0), Box(-5.0, 5.0), [[1.0]], 1.0)],
            [1.5],
            Graph(1, []),
        )
        result = solve(instance, SolverConfig())
        assert result.converged
        assert result.x[0, 0] == pytest.approx(1.5, abs=1e-6)

    def test_result_carries_network_constants(self):
        instance = build_market()
        result = solve(instance, SolverConfig(max_iter=1, seed=3))
        assert result.h == max_lipschitz(instance)
        assert result.tau == laplacian_spectral_radius(instance.graph, seed=3).value
        assert result.steps.c == 1.0 / (result.h + result.tau)

    @pytest.mark.parametrize(
        "config",
        [SolverConfig(gamma=0.0), SolverConfig(c=0.0), SolverConfig(trace_every=0)],
        ids=["gamma", "c", "trace_every"],
    )
    def test_bad_options_rejected_before_round_0(self, config):
        with pytest.raises(SetupError):
            solve(build_market(), config)


def scalar_path(g, q=(-1.0, 0.5, 2.0, -0.3, 0.8, -1.2), b=0.5) -> ProblemInstance:
    """Six quadratic agents ``u^2 + q_i u`` on a path, all with nonsmooth part g."""
    n = len(q)
    agents = [AgentProblem(Quadratic(1.0, qi), g, [[1.0]], 1.0 / n) for qi in q]
    return ProblemInstance(agents, [b], Graph(n, [(i, i + 1) for i in range(1, n)]))


class TestDualValueAlongTheRun:
    def test_custom_prox_runs_with_phi_unavailable(self):
        clip = CustomProx(lambda alpha, v: np.clip(v, -1.0, 1.0))
        custom = solve(scalar_path(clip), SolverConfig(trace_every=1))
        box = solve(scalar_path(Box(-1.0, 1.0)), SolverConfig(trace_every=1))
        assert custom.converged
        # both parts reach mu through the same Moreau step
        assert np.array_equal(custom.theta, box.theta)
        assert np.array_equal(custom.mu, box.mu)
        assert np.array_equal(custom.x, box.x)
        assert np.all(np.isnan(custom.trace.column("phi")))

    def test_l1_phi_finite_and_matches_primal(self):
        instance = scalar_path(L1(0.3))
        result = solve(instance, SolverConfig(trace_every=1))
        phi = result.trace.column("phi")
        assert result.converged
        assert np.all(np.isfinite(phi))
        assert abs(phi[-1] + primal_objective(instance, result.x)) <= 1e-6


class TestEdgeMultipliers:
    def test_labels_follow_ownership(self):
        from dualprox.solver import edge_multipliers

        instance = build_market()
        xi = np.arange(5.0).reshape(5, 1)
        labelled = edge_multipliers(instance.graph, xi)
        assert [(e.owner, e.peer) for e in labelled] == list(instance.graph.edges)
        assert all(e.owner < e.peer for e in labelled)
        assert labelled[2].xi[0] == 2.0
