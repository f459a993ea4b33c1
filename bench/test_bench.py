"""The benchmark's checks accept right answers and reject wrong ones.

Each workload's check is fed the program's real output, then the same
output with one defect: a primal point moved by 1e-3, a reference
iteration run with a step 1% off, or a trace that differs by one byte.
"""

import contextlib
import io

import numpy as np
import pytest

import checks
import inputs
import dualprox as dp
from dualprox.cli import main


@pytest.fixture(scope="module")
def market_optimum():
    rows = checks.paper_market_rows(inputs.PAPER_COMPANIES, inputs.PAPER_USERS)
    x, eta = checks.scalar_market_optimum(*rows)
    return rows, x, eta


class TestMarketCheck:
    def test_closed_form_has_the_paper_active_set(self, market_optimum):
        (_, _, _, _, hi), x, _ = market_optimum
        assert checks.check_paper_active_set(x, hi) == []
        assert np.allclose(x, [0.0, 150.0, 48.5, 50.2, 51.3], atol=0.15)

    def test_closed_form_matches_the_oracle(self, market_optimum):
        _, x, eta = market_optimum
        oracle = dp.centralized_oracle(dp.build_market())
        assert np.max(np.abs(oracle.x.ravel() - x)) < 1e-6
        assert abs(oracle.eta[0] - eta) < 1e-6

    def test_solver_output_passes(self, market_optimum):
        _, x, eta = market_optimum
        result = dp.solve(dp.build_market())
        assert checks.check_market_solution(result.x, result.theta, x, eta) == []

    @pytest.mark.parametrize("agent", range(5))
    def test_moved_primal_point_is_rejected(self, market_optimum, agent):
        _, x, eta = market_optimum
        moved = x.copy()
        moved[agent] += 1e-3
        assert checks.check_market_solution(moved, np.full(5, eta), x, eta)

    def test_moved_multiplier_is_rejected(self, market_optimum):
        _, x, eta = market_optimum
        theta = np.full(5, eta)
        theta[3] -= 1e-3
        assert checks.check_market_solution(x, theta, x, eta)


class TestScaledCheck:
    @pytest.fixture(scope="class")
    def solved(self):
        market = inputs.scaled_market(seed=5, n=60)
        params = dp.MarketParams(
            uc=tuple(dp.UCParams(d, s, 0.0, x) for d, s, x in market.companies),
            users=tuple(dp.UserParams(chi, pi, x) for chi, pi, x in market.users),
        )
        instance = dp.build_market(params, dp.Graph(market.n_agents, market.edges))
        result = dp.solve(instance, dp.SolverConfig(max_iter=inputs.SCALED_ROUNDS))
        rows = checks.paper_market_rows(market.companies, market.users)
        return market, rows, result

    def reference(self, market, rows, c, gamma):
        return checks.reference_iteration(
            *rows, 1.0 / market.n_agents, 0.0, market.edges, c, gamma, inputs.SCALED_ROUNDS
        )

    def test_solver_output_passes(self, solved):
        market, rows, result = solved
        ref = self.reference(market, rows, result.steps.c, result.steps.gamma)
        got = (result.theta, result.mu, result.xi, result.x)
        assert checks.check_against_reference(got, ref) == []

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_reference_with_step_off_by_one_percent_is_rejected(self, solved, factor):
        market, rows, result = solved
        ref = self.reference(market, rows, factor * result.steps.c, result.steps.gamma)
        got = (result.theta, result.mu, result.xi, result.x)
        assert checks.check_against_reference(got, ref)

    def test_moved_primal_point_is_rejected(self, solved):
        market, rows, result = solved
        ref = self.reference(market, rows, result.steps.c, result.steps.gamma)
        x = result.x.copy()
        x[7] += 1e-3
        assert checks.check_against_reference((result.theta, result.mu, result.xi, x), ref)

    def test_support_prox_matches_moreau_form(self):
        rng = np.random.default_rng(0)
        w = rng.normal(0.0, 3.0, 1000)
        lo, hi, c = -0.5, 2.0, 0.7
        moreau = w - c * np.clip(w / c, lo, hi)
        assert np.allclose(checks.support_prox(w, c, lo, hi), moreau, atol=1e-12)


class TestCliCheck:
    @pytest.fixture(scope="class")
    def invocation(self, tmp_path_factory):
        """One ``dualprox solve`` of a seeded vector instance."""
        tmp = tmp_path_factory.mktemp("cli")
        vector = inputs.vector_instance(seed=3)
        path = tmp / "vector.txt"
        path.write_text(inputs.instance_text(vector))
        trace = tmp / "trace.csv"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["solve", "--instance", str(path), "--trace-every", "1",
                         "--trace-out", str(trace)])
        return vector, code, out.getvalue(), trace.read_bytes()

    def test_solver_output_passes(self, invocation):
        vector, code, stdout, trace = invocation
        problems, report = checks.check_cli_output(
            code, stdout, trace, [vector.x_star], checks.digest(trace)
        )
        assert problems == []
        assert int(report["iterations"]) > 0

    def test_moved_primal_point_is_rejected(self, invocation):
        vector, code, stdout, trace = invocation
        moved = vector.x_star.copy()
        moved[4, 1] += 1e-3
        problems, _ = checks.check_cli_output(code, stdout, trace, [moved], checks.digest(trace))
        assert problems

    def test_trace_differing_by_one_byte_is_rejected(self, invocation):
        vector, code, stdout, trace = invocation
        first = checks.digest(trace)
        k = len(trace) // 2
        changed = trace[:k] + bytes([trace[k] ^ 1]) + trace[k + 1:]
        problems, _ = checks.check_cli_output(code, stdout, changed, [vector.x_star], first)
        assert "trace differs from the first invocation's" in problems

    def test_nonzero_exit_is_rejected(self, invocation):
        vector, _, stdout, trace = invocation
        problems, _ = checks.check_cli_output(1, stdout, trace, [vector.x_star], checks.digest(trace))
        assert problems

    def test_unconverged_final_row_is_rejected(self):
        trace = b"iter,phi,consensus_residual,primal_residual,step_norm\n0,1.0,1.0,1.0,nan\n1,1.0,2e-6,1e-7,1e-9\n"
        assert checks.check_final_trace_row(trace, 1)


class TestInputs:
    def test_same_seed_same_inputs(self):
        assert inputs.scaled_market(4, n=50) == inputs.scaled_market(4, n=50)
        assert inputs.instance_text(inputs.vector_instance(4)) == inputs.instance_text(
            inputs.vector_instance(4)
        )

    def test_other_seed_other_inputs(self):
        assert inputs.scaled_market(4, n=50) != inputs.scaled_market(5, n=50)
        assert inputs.instance_text(inputs.vector_instance(4)) != inputs.instance_text(
            inputs.vector_instance(5)
        )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_vector_design_is_the_optimum(self, seed):
        vector = inputs.vector_instance(seed)
        assert np.max(np.abs(checks.oracle_optimum(vector) - vector.x_star)) < 1e-6
