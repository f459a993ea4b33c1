import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualprox.cli import main
from dualprox.functions import (
    L1,
    Box,
    CustomProx,
    CustomStronglyConvex,
    InnerLoopError,
    Quadratic,
    Zero,
)
from dualprox.oracle import centralized_oracle, primal_objective, saddle_point
from dualprox.problems import (
    AgentProblem,
    ProblemInstance,
    build_market,
    load_instance,
    save_instance,
)
from dualprox.solver import (
    RunningAverage,
    SetupError,
    SolverConfig,
    SolverState,
    StepSizeError,
    StepSizes,
    ergodic_gap_bound,
    eval_dual_objective,
    gap_bound_constant,
    grad_p,
    init_state,
    iterate,
    lambda_update,
    lipschitz_h,
    lyapunov_value,
    max_lipschitz,
    primal_recovery,
    residuals,
    solve,
    suggest_step_sizes,
    validate_step_sizes,
    xi_update,
)
from dualprox.topology import Graph, laplacian_spectral_radius

from oracles import (
    central_diff,
    dense_m,
    random_instance,
    reference_solve,
    reference_write_csv,
    smooth_dual_value,
    spectral_norm_svd,
)


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
        for sigma in (0.0, math.nan):
            with pytest.raises(ValueError):
                lipschitz_h(np.eye(1), sigma)

    def test_max_lipschitz_rejects_a_nonpositive_sigma(self, monkeypatch):
        instance = build_market()
        for bad in (0.0, math.nan):
            sigma = np.ones(instance.n_agents)
            sigma[2] = bad
            monkeypatch.setattr(instance.stacked, "sigma", lambda: sigma)
            with pytest.raises(ValueError, match="modulus must be positive"):
                max_lipschitz(instance)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [1, 2])
    def test_an_overflowing_h_is_a_set_up_rejection(self, tmp_path, capsys, m):
        """A modulus so small that ``h`` overflows, which ``validate``
        accepts, gives ``h = inf`` without a warning, from the stacked
        maximum and the per-agent constant alike; the step check then
        rejects it before round 0, in ``solve`` and on the command line."""
        agents = [
            AgentProblem(Quadratic(p * np.eye(m)), Box(-np.ones(m), np.ones(m)),
                         np.ones((1, m)), 0.5)
            for p in (5e-321, 1.0)
        ]
        instance = ProblemInstance(agents, np.zeros(1), Graph(2, [(1, 2)]))
        path = tmp_path / "tiny_modulus.txt"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert loaded.agents[0].f.sigma == agents[0].f.sigma > 0
        for inst in (instance, loaded):
            h = max_lipschitz(inst)
            assert h == lipschitz_h(inst.agents[0].a_block, inst.agents[0].f.sigma) == math.inf
            with pytest.raises(SetupError):
                solve(inst)
        code = main(["solve", "--instance", str(path), "--trace-out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "h=inf" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()


class TestStepSizes:
    def test_boundary_accepted(self):
        validate_step_sizes(2.0, 4.0, 1.0 / 6.0, 1.0)

    def test_too_large_rejected(self):
        with pytest.raises(StepSizeError):
            validate_step_sizes(2.0, 4.0, 0.2, 1.0)

    def test_an_infinite_requirement_rejects_every_step(self):
        # an infinite h, or a gamma * tau that overflows, leaves no step
        for h, gamma in [(math.inf, 1.0), (2.0, 1e308)]:
            with pytest.raises(StepSizeError, match="below the required"):
                validate_step_sizes(h, 4.0, 1e-3, gamma)

    def test_zero_h_is_precondition_error(self):
        for h in (0.0, math.nan):
            with pytest.raises(ValueError, match="positive"):
                validate_step_sizes(h, 4.0, 0.1, 1.0)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_that_are_not_finite_are_rejected(self, bad):
        for args in [(2.0, 4.0, bad, 1.0), (2.0, 4.0, 0.1, bad), (2.0, bad, 0.1, 1.0)]:
            with pytest.raises(StepSizeError):
                validate_step_sizes(*args)
        for args in [(bad, 4.0, 1.0), (2.0, bad, 1.0), (2.0, 4.0, bad)]:
            with pytest.raises(StepSizeError):
                suggest_step_sizes(*args)
        for args in [(bad, 1.0), (0.1, bad)]:
            with pytest.raises(StepSizeError):
                StepSizes(*args)

    @settings(max_examples=2000, deadline=None)
    @given(
        st.floats(1e-6, 1e12),
        st.one_of(st.just(0.0), st.floats(1e-9, 1e12)),
        st.floats(1e-6, 1e6),
    )
    def test_every_suggestion_passes_the_check(self, h, tau, gamma):
        """The boundary step passes its own check at any size of ``h +
        gamma*tau``, where an absolute slack of 1e-12 is below an ulp."""
        steps = suggest_step_sizes(h, tau, gamma)
        validate_step_sizes(h, tau, steps.c, steps.gamma)

    @pytest.mark.parametrize("required", [1.0, 6.0, 2.4e4, 1e8])
    def test_a_step_just_past_the_slack_is_rejected(self, required):
        """The slack is a few ulps of ``h + gamma*tau``, so a step that
        criterion 6 rejects, 1e-6 past the boundary, still fails at 1e8."""
        h, tau = 0.5 * required, 0.5 * required
        with pytest.raises(StepSizeError):
            validate_step_sizes(h, tau, 1.0 / (h + tau - 1e-6), 1.0)

    def test_overflowing_suggestion_is_rejected(self):
        with pytest.raises(StepSizeError):
            suggest_step_sizes(2.0, 4.0, 1e308)


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
    @pytest.mark.parametrize("seed, gamma", [
        pytest.param(seed, gamma, id=str(seed) if gamma == 1.0 else f"{seed}-gamma{gamma}")
        for seed in range(5) for gamma in (0.5, 1.0, 3.0)
    ])
    def test_matches_dense_reference_on_random_instances(self, seed, gamma):
        """From a random nonzero start, so that a gamma misplaced in both
        the kernel and the per-agent update shows against the dense form."""
        rng = np.random.default_rng(500 + seed)
        instance = random_instance(rng, int(rng.integers(2, 5)))
        steps = market_steps(instance, gamma)
        n, m, b_dim = instance.dims
        state = SolverState(rng.normal(size=(n, b_dim)), rng.normal(size=(n, m)),
                            rng.normal(size=(instance.graph.n_edges, b_dim)))
        for _ in range(3):
            want = dense_round(instance, state, steps)
            state = iterate(instance, state, steps)
            assert np.allclose(state.theta, want.theta, atol=1e-11)
            assert np.allclose(state.mu, want.mu, atol=1e-11)
            assert np.allclose(state.xi, want.xi, atol=1e-11)


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

    @pytest.mark.parametrize("T", [0, -1])
    def test_a_horizon_below_one_is_rejected(self, T):
        graph = build_market().graph
        zeros, xi = np.zeros((5, 1)), np.zeros((graph.n_edges, 1))
        with pytest.raises(ValueError, match=f"T must be at least 1, got {T}"):
            ergodic_gap_bound(graph, 1e-3, 1.0, zeros, zeros, xi, zeros, zeros, xi, T=T)

    def test_invalid_steps_rejected(self):
        instance = build_market()
        oracle = centralized_oracle(instance)
        theta, mu, xi = saddle_point(instance, oracle)
        state = init_state(instance)
        # a step short of the rule, a NaN c and a NaN gamma
        for c, gamma in [(1.0, 10.0), (math.nan, 1.0), (1e-3, math.nan)]:
            with pytest.raises(StepSizeError):
                ergodic_gap_bound(
                    instance.graph, c, gamma,
                    state.theta, state.mu, state.xi, theta, mu, xi, T=10,
                )

    def test_every_accepted_suggestion_has_a_bound(self):
        # the suggested 1/c can round an ulp below gamma*tau, inside the
        # step rule's slack: at gamma = k*1e8 on the market graph it does
        # for k = 1, 2, 4, 8, 16, 29, 32 and 58
        graph = build_market().graph
        tau = laplacian_spectral_radius(graph).value
        zeros, xi = np.zeros((5, 1)), np.zeros((graph.n_edges, 1))
        h = 1e-9
        for gamma in [k * 1e8 for k in range(1, 60)]:
            c = suggest_step_sizes(h, tau, gamma).c
            validate_step_sizes(h, tau, c, gamma)
            assert gap_bound_constant(graph, c, gamma, zeros, zeros, xi, zeros, zeros, xi) == 0.0


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

    @pytest.mark.parametrize("with_state", [False, True])
    def test_trace_csv_bytes_match_the_row_by_row_writer(self, tmp_path, with_state):
        config = SolverConfig(max_iter=300, trace_every=7, trace_state=with_state)
        trace = solve(build_market(), config).trace
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        trace.write_csv(got)
        reference_write_csv(trace, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("with_state", [False, True])
    def test_trace_csv_keeps_the_format_of_each_value_type(self, tmp_path, with_state):
        """Rows recorded by a batch and by hand, where ``record`` gets an
        int and an ``np.float64`` in float columns: each value is written
        as the row-by-row writer writes it."""
        instance = build_market()
        config = SolverConfig(max_iter=20, trace_every=1, trace_state=with_state)
        trace = solve(instance, config).trace
        state = init_state(instance)
        trace.record(21, 3, np.float64(0.1), np.float64(-0.0), 2, 0.0, state)
        trace.record(np.int64(22), np.float64(1e300), 0, -1, np.float64(math.nan), 0.0, state)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        trace.write_csv(got)
        reference_write_csv(trace, want)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_text().splitlines()[-2].split(",")[:5] == ["21", "3", "0.1", "-0.0", "2"]

    def test_explicit_bad_c_rejected(self):
        with pytest.raises(StepSizeError):
            solve(build_market(), SolverConfig(c=0.5))

    @pytest.mark.parametrize(
        "config, error",
        [
            (SolverConfig(c=math.nan), StepSizeError),
            (SolverConfig(c=math.inf), StepSizeError),
            (SolverConfig(gamma=math.nan), StepSizeError),
            (SolverConfig(gamma=math.inf), StepSizeError),
            (SolverConfig(c=1e-4, gamma=math.nan), StepSizeError),
            (SolverConfig(max_iter=-1), SetupError),
            (SolverConfig(max_iter=2.5), SetupError),
            (SolverConfig(max_iter=math.nan), SetupError),
            (SolverConfig(trace_every=2.5), SetupError),
            (SolverConfig(trace_every=math.nan), SetupError),
            (SolverConfig(tol_consensus=math.nan), SetupError),
            (SolverConfig(tol_consensus=-1.0), SetupError),
            (SolverConfig(tol_primal=math.nan), SetupError),
            (SolverConfig(tol_primal=-1.0), SetupError),
            (SolverConfig(tol_step=math.nan), SetupError),
            (SolverConfig(tol_step=-1e-8), SetupError),
            (SolverConfig(tol_step=-math.inf), SetupError),
        ],
        ids=["c-nan", "c-inf", "gamma-nan", "gamma-inf", "c-and-gamma-nan", "max-iter",
             "max-iter-fraction", "max-iter-nan", "trace-every-fraction", "trace-every-nan",
             "tol-consensus-nan", "tol-consensus-negative", "tol-primal-nan",
             "tol-primal-negative", "tol-step-nan", "tol-step-negative", "tol-step-minus-inf"],
    )
    def test_bad_config_rejected_before_round_0(self, config, error, monkeypatch):
        import dualprox.solver

        def no_round(*args, **kwargs):
            raise AssertionError("a round ran")

        monkeypatch.setattr(dualprox.solver, "iterate", no_round)
        with pytest.raises(error):
            solve(build_market(), config)

    def test_infinite_tolerances_turn_their_criteria_off(self):
        loose = SolverConfig(tol_consensus=math.inf, tol_primal=math.inf, tol_step=math.inf)
        result = solve(build_market(), loose)
        assert (result.converged, result.iterations) == (True, 1)
        exact = SolverConfig(tol_consensus=0.0, tol_primal=0.0, tol_step=0.0, max_iter=3)
        assert solve(build_market(), exact).reason == "max_iter exhausted"

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
        result = solve(instance, SolverConfig(max_iter=1))
        assert result.h == max_lipschitz(instance)
        assert result.tau == laplacian_spectral_radius(instance.graph).value
        assert result.steps.c == 1.0 / (result.h + result.tau)

    @pytest.mark.parametrize(
        "config",
        [SolverConfig(gamma=0.0), SolverConfig(c=0.0), SolverConfig(trace_every=0)],
        ids=["gamma", "c", "trace_every"],
    )
    def test_bad_options_rejected_before_round_0(self, config):
        with pytest.raises(SetupError):
            solve(build_market(), config)


class TestLazyResiduals:
    """``solve`` evaluates the residuals only for a due trace row or a small
    step, which must leave its stop decision and its trace rows unchanged."""

    def test_sparse_trace_rows_equal_the_dense_trace(self):
        instance = build_market()
        dense = solve(instance, SolverConfig(trace_every=1))
        sparse = solve(instance, SolverConfig(trace_every=100))
        assert (sparse.iterations, sparse.converged) == (dense.iterations, dense.converged)
        assert sparse.converged
        by_iter = {row[0]: row for row in dense.trace.rows}
        assert len(sparse.trace) == 2 + dense.iterations // 100
        for row in sparse.trace.rows:
            want = by_iter[row[0]]
            # every column but wall_time, compared as exact bits
            assert np.array(row[:5]).tobytes() == np.array(want[:5]).tobytes()

    def test_market_evaluates_residuals_in_few_rounds(self, monkeypatch):
        import dualprox.solver as solver_module

        evaluated = []
        original = solver_module._evaluate

        def counted(instance, plan, rows):
            evaluated.extend(state.t for state, _ in rows)
            return original(instance, plan, rows)

        monkeypatch.setattr(solver_module, "_evaluate", counted)
        result = solve(build_market(), SolverConfig())
        assert result.converged
        assert evaluated[0] == 0 and evaluated == sorted(set(evaluated))
        assert len(evaluated) < 0.05 * result.iterations

    def test_plan_is_built_before_round_0(self, monkeypatch):
        # compiling the plan is set-up: round 0's residuals must find it built
        import dualprox.solver as solver_module

        instance = build_market()
        found = []
        original = solver_module.residuals

        def watched(inst, *args, **kwargs):
            found.append(getattr(inst, "_round_plan", None) is not None)
            return original(inst, *args, **kwargs)

        monkeypatch.setattr(solver_module, "residuals", watched)
        solve(instance, SolverConfig(max_iter=1))
        assert found[0]


# tol_step inside [1e-100, 1e100] lets solve skip the exact step norm of a
# round that is not due when the squared theta step exceeds 4 * tol_step**2
TOL_STEPS = [0.0, 1e-300, 1e-100, 1e-8, 1.0, 1e100, math.inf]
STEP_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e154, -1.3e154, 1.4e154,
                math.inf, -math.inf, math.nan]


def run_prescribed(tol_step: float, theta_steps, mu_steps):
    """``solve`` on the market with its rounds replaced by the given dual
    steps from zero: the run, the states it stepped through and the rounds
    whose exact step norm it computed.  Only the last round is due."""
    import dualprox.solver as solver_module

    instance = build_market()
    states = [init_state(instance)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflows, inf - inf
        for d_theta, d_mu in zip(theta_steps, mu_steps):
            last = states[-1]
            states.append(SolverState(last.theta + d_theta, last.mu + d_mu, last.xi, last.t + 1))
    exact_rounds = []
    step_norm = solver_module._step_norm

    def prescribed(instance, state, steps, **kwargs):
        return states[state.t + 1]

    def counted(new, old):
        exact_rounds.append(new.t)
        return step_norm(new, old)

    rounds = len(states) - 1
    config = SolverConfig(max_iter=rounds, trace_every=rounds + 1, tol_step=tol_step)
    with mock.patch.object(solver_module, "iterate", prescribed), \
            mock.patch.object(solver_module, "_step_norm", counted), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = solve(instance, config)
    return result, states, exact_rounds


@st.composite
def prescribed_steps(draw):
    """A tolerance and up to six dual steps of the market, whose entries
    include signed zeros, subnormals, squares near overflow, inf, NaN and
    multiples of the tolerance around the bound's factor of 2."""
    tol_step = draw(st.sampled_from(TOL_STEPS))
    near = [tol_step * k for k in (0.5, 1.0, 1.5, 2.0, 2.5)] if math.isfinite(tol_step) else []
    near += [-v for v in near]
    wide = st.one_of(st.sampled_from(STEP_ENTRIES + near), st.floats())
    # steps of a few multiples of tol_step, the rest zeros: near the bound
    close = st.sampled_from([0.0] * 15 + [-0.0] * 15 + near)
    entries = draw(st.sampled_from([wide, close] if near else [wide]))
    rounds = draw(st.integers(1, 6))
    return tol_step, *(draw(arrays(float, (rounds, 5, 1), elements=entries)) for _ in "tm")


class TestStepNormBound:
    """A round that is not due skips the exact step norm only when the
    squared theta step certifies that norm to exceed ``tol_step``, so the
    run takes the branches, rows and stop of the exact rule."""

    @settings(max_examples=300, deadline=None)
    @given(prescribed_steps())
    def test_a_skipped_step_norm_exceeds_the_tolerance(self, case):
        import dualprox.solver as solver_module

        tol_step, theta_steps, mu_steps = case
        result, states, exact_rounds = run_prescribed(tol_step, theta_steps, mu_steps)
        run = range(1, result.iterations + 1)
        if not 1e-100 <= tol_step <= 1e100:  # the bound is off
            assert exact_rounds == list(run)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            skipped = [solver_module._step_norm(states[t], states[t - 1])
                       for t in set(run) - set(exact_rounds)]
        # a NaN norm takes the branch of a norm above tol_step
        assert not any(norm <= tol_step for norm in skipped)

    def test_a_step_within_twice_the_tolerance_takes_the_exact_norm(self):
        """A step of 2.5 tol is skipped, and one of 1.5 tol, above tol but
        within the bound's factor of 2, is computed exactly."""
        import dualprox.solver as solver_module

        tol = 1e-8
        theta_steps = np.zeros((3, 5, 1))
        theta_steps[0, 2, 0], theta_steps[1, 2, 0] = 2.5 * tol, 1.5 * tol
        result, states, exact_rounds = run_prescribed(tol, theta_steps, np.zeros((3, 5, 1)))
        assert result.iterations == 3 and exact_rounds == [2, 3]
        assert tol < solver_module._step_norm(states[2], states[1]) <= 2 * tol

    def test_market_computes_the_step_norm_for_due_rows_and_undecided_rounds(
        self, monkeypatch
    ):
        import dualprox.solver as solver_module

        config = SolverConfig(trace_every=100)
        pairs, exact_rounds, residual_calls = [], [], []
        round_, step_norm = solver_module.iterate, solver_module._step_norm
        evaluate = solver_module.residuals

        def recorded(instance, state, *args, **kwargs):
            new = round_(instance, state, *args, **kwargs)
            pairs.append((state, new))
            return new

        def counted(new, old):
            exact_rounds.append(new.t)
            return step_norm(new, old)

        def evaluated(instance, state, *args, **kwargs):
            residual_calls.append(state.t)
            return evaluate(instance, state, *args, **kwargs)

        monkeypatch.setattr(solver_module, "iterate", recorded)
        monkeypatch.setattr(solver_module, "_step_norm", counted)
        monkeypatch.setattr(solver_module, "residuals", evaluated)
        instance = build_market()
        result = solve(instance, config)
        rounds = result.iterations
        assert result.converged and rounds == 2461

        due, undecided = set(), set()
        for old, new in pairs:
            d = (new.theta - old.theta).ravel()
            if new.t % config.trace_every == 0 or new.t == rounds:
                due.add(new.t)
            elif not d.dot(d) > 4.0 * config.tol_step**2:
                undecided.add(new.t)
        assert exact_rounds == sorted(due | undecided)
        assert 0 < len(undecided) < 0.05 * rounds
        # every row after round 0 is evaluated through the queue
        assert residual_calls == [0]
        assert outputs(result) == outputs(reference_solve(instance, config))

    @pytest.mark.parametrize("tol_step", [0.0, 1e-200, math.inf])
    def test_outside_its_band_the_bound_is_off(self, monkeypatch, tol_step):
        import dualprox.solver as solver_module

        exact_rounds = []
        step_norm = solver_module._step_norm

        def counted(new, old):
            exact_rounds.append(new.t)
            return step_norm(new, old)

        monkeypatch.setattr(solver_module, "_step_norm", counted)
        instance = build_market()
        config = SolverConfig(max_iter=3000, tol_step=tol_step)
        result = solve(instance, config)
        assert exact_rounds == list(range(1, result.iterations + 1))
        assert result.converged == (tol_step == math.inf)
        assert outputs(result) == outputs(reference_solve(instance, config))


def outputs(result) -> list:
    """Every output of a solve but the wall times, as exact bytes."""
    rows = np.array([row[:5] for row in result.trace.rows], dtype=float)
    arrays = [result.theta, result.mu, result.xi, result.x, result.ergodic_theta,
              result.ergodic_mu, rows]
    return [a.tobytes() for a in arrays] + [
        result.converged, result.reason, result.iterations, result.h, result.tau, result.steps
    ]


def state_bits(state: SolverState) -> list:
    return [state.theta.tobytes(), state.mu.tobytes(), state.xi.tobytes(), state.t]


def residual_bits(res) -> bytes:
    return np.array([res.consensus, res.primal, res.dual_value]).tobytes()


def change_state(state: SolverState, name: str, how: str) -> None:
    """Move one of the state's dual arrays by 0.5 in row 1: in place, after
    making it writeable again, or by putting a new read-only array in its
    place."""
    if how == "replace":
        moved = getattr(state, name).copy()
        moved[1] += 0.5
        moved.flags.writeable = False
        setattr(state, name, moved)
    else:
        getattr(state, name).flags.writeable = True
        getattr(state, name)[1] += 0.5


class TestSweepReuse:
    """No result may depend on a state's object identity or on the write
    flags of its arrays: whatever is done to a state between the calls, a
    result must equal that of a fresh copy."""

    def evaluated(self):
        instance = build_market()
        steps = market_steps(instance)
        state = init_state(instance)
        for _ in range(3):
            state = iterate(instance, state, steps)
        residuals(instance, state)
        return instance, steps, state

    def test_a_returned_state_is_writeable_and_carries_only_its_fields(self):
        instance, steps, state = self.evaluated()
        new = iterate(instance, state, steps)
        assert new.theta.flags.writeable and new.mu.flags.writeable
        assert vars(new).keys() == {"theta", "mu", "xi", "t"}
        assert {name for name in vars(SolverState) if not name.startswith("__")} <= {
            "t", "copy"
        }

    @pytest.mark.parametrize("how", ["write", "replace"])
    @pytest.mark.parametrize("name", ["theta", "mu"])
    def test_a_change_after_residuals_is_seen_by_iterate(self, name, how):
        instance, steps, state = self.evaluated()
        change_state(state, name, how)
        want = iterate(instance, state.copy(), steps)
        assert state_bits(iterate(instance, state, steps)) == state_bits(want)

    @pytest.mark.parametrize("how", ["write", "replace"])
    @pytest.mark.parametrize("name", ["theta", "mu"])
    def test_a_change_after_iterate_is_seen_by_residuals(self, name, how):
        instance, steps, state = self.evaluated()
        new = iterate(instance, state, steps)
        change_state(new, name, how)
        want = residuals(instance, new.copy())
        assert residual_bits(residuals(instance, new)) == residual_bits(want)

    @pytest.mark.parametrize("how", ["write", "replace"])
    @pytest.mark.parametrize("name", ["theta", "mu"])
    def test_a_change_after_residuals_is_seen_by_residuals(self, name, how):
        instance, steps, state = self.evaluated()
        kept = residuals(instance, state)
        assert residual_bits(residuals(instance, state)) == residual_bits(kept)
        change_state(state, name, how)
        want = residuals(instance, state.copy())
        assert residual_bits(want) != residual_bits(kept)
        assert residual_bits(residuals(instance, state)) == residual_bits(want)

    def test_a_writeable_state_keeps_nothing(self):
        # init_state's arrays stay writeable: residuals may not keep the
        # maximizers of a state its owner can still write into
        instance = build_market()
        steps = market_steps(instance)
        state = init_state(instance)
        residuals(instance, state)
        state.theta[:] = -4.2
        state.mu[2] = 0.3
        want = iterate(instance, state.copy(), steps)
        assert state_bits(iterate(instance, state, steps)) == state_bits(want)
        assert residuals(instance, state).consensus == 0.0

    def test_a_read_only_view_of_a_writeable_array_keeps_nothing(self):
        instance, steps, evaluated = self.evaluated()
        base = evaluated.theta.copy()
        view = base[:]
        view.flags.writeable = False
        mu = evaluated.mu.copy()
        mu.flags.writeable = False
        state = SolverState(view, mu, evaluated.xi, evaluated.t)
        residuals(instance, state)
        base[1] += 0.5
        want = iterate(instance, state.copy(), steps)
        assert state_bits(iterate(instance, state, steps)) == state_bits(want)

    def test_another_instance_sweeps_afresh(self):
        instance, steps, state = self.evaluated()
        other = build_market()
        want = iterate(other, state.copy(), steps)
        assert state_bits(iterate(other, state, steps)) == state_bits(want)
        new = iterate(instance, state, steps)
        want = residuals(other, new.copy())
        assert residual_bits(residuals(other, new)) == residual_bits(want)

    def test_copy_equality_and_repr_ignore_the_by_products(self):
        instance, steps, state = self.evaluated()
        plain = SolverState(state.theta, state.mu, state.xi, state.t)
        assert [f.name for f in dataclasses.fields(SolverState)] == ["theta", "mu", "xi", "t"]
        assert state == plain
        assert repr(state) == repr(plain)
        copied = state.copy()
        assert state_bits(copied) == state_bits(state)
        assert copied.theta.flags.writeable and copied.mu.flags.writeable
        copied.theta[1] += 0.5  # a copy is the caller's to change

    def test_solve_returns_writeable_arrays(self):
        result = solve(build_market(), SolverConfig(max_iter=5))
        for name in ("theta", "mu", "xi", "x"):
            assert getattr(result, name).flags.writeable, name


class TestOneSweepPerEvaluatedState:
    @pytest.mark.parametrize(
        "options, batch_rows",
        [
            pytest.param({"trace_every": 1}, None, id="every-1"),
            pytest.param({"trace_every": 7}, None, id="every-7"),
            pytest.param({"trace_every": 100}, None, id="every-100"),
            pytest.param({"trace_every": 5, "max_iter": 41}, 3, id="max-iter-41"),
        ],
    )
    def test_market_traced_every_round(self, monkeypatch, options, batch_rows):
        """Every state costs one maximizer sweep, one call per catalog
        group, whatever the trace cadence and however the run ends: an
        evaluated state hands its sweep to its next round, or after the
        last round to the recovery of x.  ``solve`` must call ``iterate``
        every round, and ``residuals`` for round 0 only, through the
        module, where the benchmark's hooks replace them.  Each round hands
        its ``gamma * M theta`` to the next, so R rounds take R + 1 edge
        differences, and each evaluation sweep one more; the graph's public
        edge rows stay read-only and equal to the rows they take from."""
        import dualprox.solver as solver_module

        counts = dict.fromkeys(
            ("conjugate_gradient", "residuals", "iterate", "edge_diff", "_evaluate"), 0
        )

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            Quadratic, "conjugate_gradient",
            counting("conjugate_gradient", Quadratic.conjugate_gradient),
        )
        monkeypatch.setattr(Graph, "edge_diff", counting("edge_diff", Graph.edge_diff))
        for name in ("iterate", "residuals", "_evaluate"):
            monkeypatch.setattr(solver_module, name, counting(name, getattr(solver_module, name)))
        if batch_rows is not None:
            monkeypatch.setattr(solver_module, "_BATCH_ROWS", batch_rows)
        instance = build_market()
        config = SolverConfig(**options)
        result = solve(instance, config)
        rounds, every = result.iterations, config.trace_every
        if "max_iter" in options:
            assert not result.converged and rounds == config.max_iter
        else:
            assert result.converged and rounds > 1000
        assert len(instance.stacked.f_groups) == 1
        assert counts["iterate"] == rounds
        assert len(result.trace) == 1 + rounds // every + (rounds % every != 0)
        assert counts["residuals"] == 1
        assert counts["conjugate_gradient"] == rounds + 1
        assert counts["edge_diff"] == rounds + 1 + counts["_evaluate"]
        graph = instance.graph
        for public, taken in ((graph.edge_owner, graph._owner), (graph.edge_peer, graph._peer)):
            assert not public.flags.writeable
            assert taken.flags.c_contiguous and taken.flags.writeable
            assert np.array_equal(taken, public)

    @pytest.mark.parametrize("every", [1, 7, 100])
    def test_market_sweeps_at_most_once_a_round(self, monkeypatch, every):
        """A round's due row and its stop test share one dual sweep: after
        round 0, ``_dual_sweep`` runs at most once per round, also in the
        rounds whose row can stop the run while earlier rows are queued."""
        import dualprox.solver as solver_module

        rounds, sweeps = [], []
        round_, sweep = solver_module.iterate, solver_module._dual_sweep

        def counted_round(*args, **kwargs):
            rounds.append(1)
            return round_(*args, **kwargs)

        def counted_sweep(*args, **kwargs):
            sweeps.append(len(rounds))
            return sweep(*args, **kwargs)

        monkeypatch.setattr(solver_module, "iterate", counted_round)
        monkeypatch.setattr(solver_module, "_dual_sweep", counted_sweep)
        result = solve(build_market(), SolverConfig(trace_every=every))
        assert result.converged and len(rounds) == result.iterations
        assert sweeps[0] == 0 and len(sweeps) == len(set(sweeps))

    def test_residuals_of_a_fresh_state_match_the_trace(self):
        """The consensus residual of a state that ``iterate`` did not make
        equals the trace's last row, which came from the queue's batched
        sweep; at zero duals it is zero."""
        instance = build_market()
        result = solve(instance, SolverConfig(trace_every=1))
        assert result.converged
        final = SolverState(result.theta, result.mu, result.xi, result.iterations)
        assert residuals(instance, final).consensus == result.trace.rows[-1][2]
        assert residuals(instance, init_state(instance)).consensus == 0.0


class ClosedFormProx(CustomStronglyConvex):
    """The strongly convex part ``sigma/2 * u @ u``, whose prox is in closed
    form, so that only its conjugate value runs the inner loop."""

    def _prox(self, alpha, v):
        return v / (1.0 + self.sigma * alpha)


class TestQueuedRows:
    def test_an_error_in_a_queued_row_propagates_and_the_row_is_not_recorded(
        self, monkeypatch
    ):
        """The conjugate value of ``1.5 * u @ u`` with a one-step inner loop
        that never meets its tolerance reaches the loop's cap at every
        nonzero mu, so round 0 (mu = 0) is evaluated and every later row
        raises.  Those rows cannot stop the run, so they are queued: with
        four rows to a batch, ``solve`` must raise after round 4, and
        record no row but round 0."""
        import dualprox.solver as solver_module

        g = ClosedFormProx(lambda x: 1.5 * float(x @ x), lambda x: 3.0 * x, sigma=3.0,
                           inner_tol=0.0, inner_max_iter=1)
        instance = scalar_path(g)
        recorded, rounds = [], []
        record, round_ = solver_module.Trace.record, solver_module.iterate

        def spy_record(trace, iteration, *args, **kwargs):
            recorded.append(iteration)
            return record(trace, iteration, *args, **kwargs)

        def spy_round(*args, **kwargs):
            rounds.append(1)
            return round_(*args, **kwargs)

        monkeypatch.setattr(solver_module.Trace, "record", spy_record)
        monkeypatch.setattr(solver_module, "iterate", spy_round)
        monkeypatch.setattr(solver_module, "_BATCH_ROWS", 4)
        with pytest.raises(InnerLoopError):
            solve(instance, SolverConfig(trace_every=1, max_iter=50))
        assert recorded == [0]
        assert len(rounds) == 4

    def test_queued_rows_come_in_round_order_with_their_own_residuals(self, monkeypatch):
        """Queued rows are recorded from their batch's sweep, in round order,
        each with the residuals of its own state, also when the queue is
        evaluated in batches of three.  Hooks on ``residuals`` see round 0
        only."""
        import dualprox.solver as solver_module

        seen = []
        original = solver_module.residuals

        def spy(instance, state, *args, **kwargs):
            seen.append(state.t)
            return original(instance, state, *args, **kwargs)

        monkeypatch.setattr(solver_module, "residuals", spy)
        monkeypatch.setattr(solver_module, "_BATCH_ROWS", 3)
        instance = build_market()
        result = solve(instance, SolverConfig(trace_every=5, max_iter=41, trace_state=True))
        assert seen == [0]
        assert [row[0] for row in result.trace.rows] == [0, *range(5, 41, 5), 41]
        for row, (theta, mu, xi) in zip(result.trace.rows, result.trace.state_rows):
            res = original(instance, SolverState(theta.copy(), mu.copy(), xi.copy(), row[0]))
            want = np.array([res.dual_value, res.consensus, res.primal])
            assert np.array(row[1:4]).tobytes() == want.tobytes()


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
