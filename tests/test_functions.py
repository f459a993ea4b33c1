import math

import numpy as np
import pytest

from dualprox.functions import (
    Box,
    CustomProx,
    CustomSmooth,
    CustomStronglyConvex,
    InnerLoopError,
    L1,
    NormPenalty,
    Quadratic,
    Zero,
)
from dualprox.problems import AgentProblem, ProblemInstance
from dualprox.solver import solve
from dualprox.topology import Graph

from oracles import golden_max, golden_min, grid_max_value


def catalog():
    """Nonsmooth kinds exercised by the property suites."""
    quad = lambda u: 0.8 * float(u @ u) + 0.1 * float(np.sum(u))
    quad_grad = lambda u: 1.6 * u + 0.1
    return [
        Zero(),
        L1(1.0),
        L1(0.3),
        Box(np.array([-1.0, 0.0, -2.0]), np.array([2.0, 150.0, -0.5])),
        NormPenalty(1),
        NormPenalty(2),
        CustomStronglyConvex(quad, quad_grad, sigma=1.6),
    ]


class TestConjugateGradient:
    def test_scalar_quadratic(self):
        f = Quadratic(1.0)  # x^2
        assert f.conjugate_gradient(np.array([4.0])) == pytest.approx(2.0)

    def test_market_company1_zero_output(self):
        f = Quadratic(0.0031, 8.71)
        assert f.conjugate_gradient(np.array([8.71]))[0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_matches_inner_loop(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        base = rng.normal(size=(m, m))
        p = base @ base.T + np.eye(m)
        q = rng.normal(size=m)
        quad = Quadratic(p, q)
        custom = CustomSmooth(quad.value, quad.gradient, quad.sigma, m)
        v = rng.normal(size=m) * 3.0
        assert np.allclose(
            quad.conjugate_gradient(v), custom.conjugate_gradient(v), atol=1e-7
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_lipschitz_one_over_sigma(self, seed):
        rng = np.random.default_rng(50 + seed)
        base = rng.normal(size=(2, 2))
        f = Quadratic(base @ base.T + 0.5 * np.eye(2), rng.normal(size=2))
        for _ in range(100):
            u, v = rng.normal(size=2), rng.normal(size=2)
            lhs = np.linalg.norm(f.conjugate_gradient(u) - f.conjugate_gradient(v))
            assert lhs <= (1.0 / f.sigma) * np.linalg.norm(u - v) * (1 + 1e-9)

    def test_inner_loop_failure_carries_grad_norm(self):
        # quartic term keeps the minimizer off any point gradient descent
        # can hit exactly, so a 3-iteration cap must fail
        f = CustomSmooth(
            lambda u: float(u @ (u * u * u)) + float(u @ u),
            lambda u: 4.0 * u * u * u + 2.0 * u,
            sigma=2.0, dim=1,
            inner_tol=1e-14, inner_max_iter=3,
        )
        with pytest.raises(InnerLoopError) as err:
            f.conjugate_gradient(np.array([5.0]))
        assert err.value.grad_norm > 0.0
        assert err.value.iterations == 3


# ``p * u @ u`` with ``p`` just under 1 or 1/2 and a slope ``v``: from u = 0
# the inner loop's doubled step lands almost on the reflection of its start
# across the maximizer ``v / (2p)``, where the gradient has nearly the same
# norm and the opposite sign.  The last case is a draw of the property suite.
NEAR_REFLECTIONS = [(0.99999, 20.0), (0.499995, 20.0), (0.99985, 7.548)]


def counted_gradient(p: float):
    """The gradient of ``p * u @ u`` and the list its calls are counted in."""
    calls = []

    def gradient(u):
        calls.append(1)
        return 2 * p * u

    return gradient, calls


class TestNearReflections:
    @pytest.mark.parametrize("p, v", NEAR_REFLECTIONS)
    def test_conjugate_gradient_converges_in_a_few_steps(self, p, v):
        gradient, calls = counted_gradient(p)
        f = CustomSmooth(lambda u: p * float(u @ u), gradient, sigma=2 * p, dim=1)
        u = f.conjugate_gradient(np.array([v]))
        assert len(calls) < 50
        assert abs(2 * p * u[0] - v) <= f.inner_tol

    @pytest.mark.parametrize("p, v", NEAR_REFLECTIONS)
    def test_support_value_converges_in_a_few_steps(self, p, v):
        gradient, calls = counted_gradient(p)
        points = []

        def value(u):
            points.append(u.copy())
            return p * float(u @ u)

        psi = CustomStronglyConvex(value, gradient, sigma=2 * p)
        support = psi.support_value(np.array([v]))
        (u,) = points  # read once, at the maximizer: the inner loop reads no values
        assert len(calls) < 50
        assert abs(2 * p * u[0] - v) <= psi.inner_tol
        assert support == pytest.approx(v * v / (4 * p), rel=1e-14)

    def test_a_solve_through_a_near_reflection_reaches_the_kkt_point(self):
        """Agent 1 costs ``p x^2 - 20x`` with p just under 1, agent 2
        ``x^2 + 3x``, and ``x_1 + x_2 = 4``; the price ``eta`` of the
        coupling sets ``x_1 = (20 - eta) / 2p`` and ``x_2 = (-3 - eta) / 2``."""
        p = 0.99999
        smooth = CustomSmooth(lambda x: float(p * x @ x) - 20 * x[0],
                              lambda x: 2 * p * x - 20, sigma=2 * p, dim=1)
        agents = [
            AgentProblem(smooth, Box(-50, 50), [[1.0]], 0.5),
            AgentProblem(Quadratic(1.0, 3.0), Box(-50, 50), [[1.0]], 0.5),
        ]
        result = solve(ProblemInstance(agents, [4.0], Graph(2, [(1, 2)])))
        eta = (10 / p - 5.5) / (1 / (2 * p) + 0.5)
        assert result.converged
        assert result.x.ravel() == pytest.approx([(20 - eta) / (2 * p), (-3 - eta) / 2], abs=1e-6)


class TestConjugateValue:
    def test_zero_slope(self):
        assert Quadratic(1.0).conjugate_value(np.array([0.0])) == pytest.approx(0.0)

    def test_unit_slope(self):
        assert Quadratic(1.0).conjugate_value(np.array([2.0])) == pytest.approx(1.0)

    def test_market_user1(self):
        # frozen from a golden-section maximization of -8.1*u - f(u)
        f = Quadratic(0.0935, -17.17)
        expected = 9.07**2 / (4 * 0.0935)
        assert f.conjugate_value(np.array([-8.1])) == pytest.approx(expected, rel=1e-12)
        oracle = golden_max(lambda x: -8.1 * x - (0.0935 * x * x - 17.17 * x), -1e3, 1e3)
        assert f.conjugate_value(np.array([-8.1])) == pytest.approx(
            -8.1 * oracle - (0.0935 * oracle**2 - 17.17 * oracle), rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_fenchel_young_equality_at_matched_points(self, seed):
        rng = np.random.default_rng(70 + seed)
        base = rng.normal(size=(2, 2))
        f = Quadratic(base @ base.T + np.eye(2), rng.normal(size=2), rng.normal())
        x = rng.normal(size=2)
        v = f.gradient(x)
        assert f.conjugate_value(v) + f.value(x) == pytest.approx(
            float(x @ v), abs=1e-8
        )


class TestProx:
    def test_soft_threshold_frozen_from_scalar_oracle(self):
        # golden-section of |u| + (u - v)^2 / 2 gives [2, 0] for v = [3, -0.5]
        got = L1(1.0).prox(1.0, np.array([3.0, -0.5]))
        assert np.allclose(got, [2.0, 0.0], atol=1e-12)
        for v, g in zip([3.0, -0.5], got):
            oracle = golden_min(lambda u: abs(u) + (u - v) ** 2 / 2.0, -10, 10)
            assert g == pytest.approx(oracle, abs=1e-6)

    def test_box_clamp(self):
        assert Box(0.0, 150.0).prox(2.0, np.array([200.0])) == pytest.approx(150.0)

    def test_zero_identity(self):
        v = np.array([1.0, -2.0, 3.5])
        for alpha in (0.1, 1.0, 10.0):
            assert np.array_equal(Zero().prox(alpha, v), v)

    def test_rejects_nonpositive_step(self):
        for method in (L1(1.0).prox, L1(1.0).conjugate_prox):
            for alpha in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match="prox step must be positive"):
                    method(alpha, np.array([1.0]))

    @pytest.mark.parametrize("psi", catalog(), ids=lambda p: repr(p))
    def test_firmly_nonexpansive(self, psi):
        rng = np.random.default_rng(hash(repr(psi)) % 2**32)
        for _ in range(25):
            v1, v2 = rng.normal(size=3) * 4, rng.normal(size=3) * 4
            d = np.linalg.norm(psi.prox(1.0, v1) - psi.prox(1.0, v2))
            assert d <= np.linalg.norm(v1 - v2) * (1 + 1e-12)


class TestProxConjugate:
    def test_halfline_indicator(self):
        psi = Box(0.0, math.inf)  # conjugate: indicator of the nonpositive axis
        assert psi.conjugate_prox(1.0, np.array([1.0])) == pytest.approx(0.0)
        assert psi.conjugate_prox(1.0, np.array([-2.5])) == pytest.approx(-2.5)

    def test_zero_function(self):
        psi = Zero()  # conjugate: indicator of the origin
        rng = np.random.default_rng(1)
        for alpha in (0.1, 1.0, 10.0):
            v = rng.normal(size=4)
            assert np.allclose(psi.conjugate_prox(alpha, v), 0.0, atol=1e-15)

    @pytest.mark.parametrize("w", [0.5, 1.0, 2.0])
    def test_l1_conjugate_is_box_projection(self, w):
        # dual of the weighted l1 ball: clamp to [-w, w]
        rng = np.random.default_rng(2)
        psi = L1(w)
        for alpha in (0.1, 1.0, 10.0):
            v = rng.normal(size=5) * 3
            assert np.allclose(
                psi.conjugate_prox(alpha, v), np.clip(v, -w, w), atol=1e-12
            )

    def test_norm2_ball_projection(self):
        psi = NormPenalty(2)
        v = np.array([3.0, 4.0])
        assert np.allclose(psi.conjugate_prox(7.3, v), v / 5.0)
        inside = np.array([0.1, -0.2])
        assert np.allclose(psi.conjugate_prox(0.2, inside), inside)

    def test_box_conjugate_prox_matches_scalar_oracle(self):
        # prox of the box support function, checked against golden search
        lo, hi = -1.0, 2.0
        psi = Box(lo, hi)
        support = lambda z: max(z * lo, z * hi)
        rng = np.random.default_rng(3)
        for alpha in (0.5, 1.0, 4.0):
            for v in rng.normal(size=6) * 3:
                oracle = golden_min(
                    lambda z: support(z) + (z - v) ** 2 / (2 * alpha), -20, 20
                )
                got = psi.conjugate_prox(alpha, np.array([v]))[0]
                assert got == pytest.approx(oracle, abs=1e-6)


class TestMoreauIdentity:
    @pytest.mark.parametrize("psi", catalog(), ids=lambda p: repr(p))
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_decomposition(self, psi, alpha):
        rng = np.random.default_rng(17)
        for _ in range(100):
            v = rng.normal(size=3) * 5.0
            recomposed = alpha * psi.conjugate_prox(1.0 / alpha, v / alpha) + psi.prox(
                alpha, v
            )
            assert np.linalg.norm(v - recomposed) <= 1e-9


class TestSupportValue:
    def test_box_positive_multiplier(self):
        # frozen from grid maximization of 2.34 * x over [0, 150]
        assert Box(0.0, 150.0).support_value(np.array([2.34])) == pytest.approx(351.0)
        assert grid_max_value(lambda x: 2.34 * x, 0.0, 150.0) == pytest.approx(351.0)

    def test_box_negative_multiplier(self):
        assert Box(0.0, 150.0).support_value(np.array([-0.61])) == pytest.approx(0.0)
        assert grid_max_value(lambda x: -0.61 * x, 0.0, 150.0) == pytest.approx(0.0)

    def test_zero_multiplier_any_box(self):
        assert Box(-7.0, 3.0).support_value(np.array([0.0])) == 0.0
        assert Box(0.0, math.inf).support_value(np.array([0.0])) == 0.0

    def test_infeasible_marker_is_inf(self):
        assert Zero().support_value(np.array([0.1])) == math.inf
        assert Zero().support_value(np.array([0.5])) == math.inf
        assert L1(1.0).support_value(np.array([1.5])) == math.inf
        assert L1(0.3).support_value(np.array([0.3 + 1e-12])) == math.inf
        assert NormPenalty(1).support_value(np.array([0.0, -1.0 - 1e-12])) == math.inf
        assert NormPenalty(2).support_value(np.array([1.0, 1.0])) == math.inf

    @pytest.mark.parametrize(
        "psi", [Zero(), L1(0.3), L1(2.0), NormPenalty(1), NormPenalty(2)], ids=repr
    )
    def test_finite_after_conjugate_prox(self, psi):
        # the conjugate prox lands in the conjugate's domain, whatever the
        # rounding of the step
        rng = np.random.default_rng(11)
        for _ in range(2000):
            c = 10.0 ** rng.uniform(-3.0, 2.0)
            w = rng.normal(size=int(rng.integers(1, 5))) * 10.0 ** rng.uniform(-2.0, 3.0)
            assert psi.support_value(psi.conjugate_prox(c, w)) == 0.0

    def test_l1_inside_ball(self):
        assert L1(1.0).support_value(np.array([0.9, -1.0])) == 0.0

    def test_custom_strongly_convex(self):
        quad = Quadratic(np.eye(2) * 0.8, np.array([0.1, 0.1]))
        psi = CustomStronglyConvex(quad.value, quad.gradient, sigma=quad.sigma)
        mu = np.array([1.0, -2.0])
        assert psi.support_value(mu) == pytest.approx(quad.conjugate_value(mu), abs=1e-8)

    def test_a_last_step_that_converges_is_accepted(self):
        # the one allowed step of the inner loop lands on the maximizer
        # x = mu exactly, so the loop must return it, not raise at its cap
        psi = CustomStronglyConvex(lambda x: 0.5 * float(x @ x), lambda x: x, sigma=1.0,
                                   inner_tol=0.0, inner_max_iter=1)
        assert psi.support_value(np.array([0.7])) == pytest.approx(0.245, rel=1e-15)

    def test_custom_prox_has_no_conjugate_value(self):
        psi = CustomProx(lambda a, v: np.clip(v, 0, 1))
        with pytest.raises(ValueError):
            psi.support_value(np.array([1.0]))


class TestCustomKinds:
    def test_custom_prox_delegates(self):
        psi = CustomProx(lambda a, v: np.clip(v, 0.0, 1.0))
        assert np.allclose(psi.prox(2.0, np.array([5.0, -1.0])), [1.0, 0.0])

    def test_custom_prox_value_needs_its_oracle(self):
        clip = lambda a, v: np.clip(v, 0.0, 1.0)
        with pytest.raises(ValueError, match="no value oracle was supplied"):
            CustomProx(clip).value(np.array([0.5]))
        value = CustomProx(clip, lambda x: float(x @ x)).value([1.0, 2.0])
        assert type(value) is float and value == 5.0

    def test_custom_strongly_convex_prox_matches_closed_form(self):
        # prox of 0.8||u||^2 + 0.1 1'u has the closed form (v - 0.1 a)/(1 + 1.6 a)
        quad = lambda u: 0.8 * float(u @ u) + 0.1 * float(np.sum(u))
        grad = lambda u: 1.6 * u + 0.1
        psi = CustomStronglyConvex(quad, grad, sigma=1.6)
        rng = np.random.default_rng(5)
        for alpha in (0.2, 1.0, 5.0):
            v = rng.normal(size=3)
            expected = (v - 0.1 * alpha) / (1.0 + 1.6 * alpha)
            assert np.allclose(psi.prox(alpha, v), expected, atol=1e-8)


class TestCustomSmoothConsistency:
    def test_gradient_oracle_matches_value_oracle(self):
        # quartic-plus-quadratic custom kind, oracles cross-checked by
        # central finite differences
        value = lambda u: float(np.sum(u**4)) + float(u @ u)
        grad = lambda u: 4.0 * u**3 + 2.0 * u
        f = CustomSmooth(value, grad, sigma=2.0, dim=3)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=3)
            eps = 1e-6
            fd = np.array(
                [
                    (f.value(x + eps * e) - f.value(x - eps * e)) / (2 * eps)
                    for e in np.eye(3)
                ]
            )
            assert np.allclose(f.gradient(x), fd, atol=1e-4)


class TestQuadraticValidation:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            Quadratic(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(1, 2), (2, 3), (2, 2, 2, 2)])
    def test_rejects_a_p_that_is_not_square(self, shape):
        with pytest.raises(ValueError, match=rf"P must be square, got shape \({shape[0]}, "):
            Quadratic(np.ones(shape))

    def test_sigma_is_twice_smallest_eigenvalue(self):
        f = Quadratic(np.diag([0.25, 2.0]))
        assert f.sigma == pytest.approx(0.5)

    def test_gradient_consistency_by_finite_differences(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(3, 3))
        f = Quadratic(base @ base.T + np.eye(3), rng.normal(size=3), 1.2)
        x = rng.normal(size=3)
        eps = 1e-6
        fd = np.array(
            [
                (f.value(x + eps * e) - f.value(x - eps * e)) / (2 * eps)
                for e in np.eye(3)
            ]
        )
        assert np.allclose(f.gradient(x), fd, atol=1e-5)


    def test_nearly_symmetric_p_is_stored_as_its_symmetric_part(self):
        p = np.array([[2.0, 1.0 + 1e-5], [1.0, 2.0]])
        f = Quadratic(p, [0.3, -1.2], 0.5)
        sym = 0.5 * (p + p.T)
        assert np.array_equal(f.p, sym)
        assert f.sigma <= 2.0 * np.linalg.eigvalsh(sym)[0]
        x = np.array([0.7, -1.9])
        eps = 1e-3
        fd = np.array(
            [(f.value(x + eps * e) - f.value(x - eps * e)) / (2 * eps) for e in np.eye(2)]
        )
        assert np.allclose(f.gradient(x), fd, rtol=0.0, atol=1e-9)
        v = np.array([1.5, 2.5])
        assert np.allclose(f.gradient(f.conjugate_gradient(v)), v, rtol=0.0, atol=1e-12)

    def test_symmetric_p_is_stored_bit_for_bit(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(3, 3))
        p = base @ base.T + np.eye(3)
        assert Quadratic(p).p.tobytes() == p.tobytes()


class TestStacked:
    """A function with a leading row axis against each row's own function."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_quadratic_rows_match_each_quadratic(self, m):
        rng = np.random.default_rng(m)
        rows = []
        for _ in range(7):
            base = rng.normal(size=(m, m))
            rows.append(Quadratic(base @ base.T + 0.5 * np.eye(m), rng.normal(size=m), rng.normal()))
        stacked = Quadratic.stack(rows)
        built = Quadratic(
            np.array([f.p for f in rows]), np.array([f.q for f in rows]), [f.r for f in rows]
        )
        assert stacked == built
        assert stacked.sigma.tobytes() == built.sigma.tobytes()
        assert stacked.sigma.tolist() == [f.sigma for f in rows]
        x = rng.normal(size=(7, m)) * 10.0
        for method in ("value", "gradient", "conjugate_gradient"):
            got = getattr(stacked, method)(x)
            want = [getattr(f, method)(x[k]) for k, f in enumerate(rows)]
            assert got.tobytes() == np.array(want).tobytes(), method

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_one_quadratic_keeps_the_plain_formulas_bit_for_bit(self, m):
        """The shared row-by-row code, on one quadratic, rounds as the plain
        one-point products and solve do."""
        rng = np.random.default_rng(10 + m)
        base = rng.normal(size=(m, m))
        p, q, r = base @ base.T + 0.5 * np.eye(m), rng.normal(size=m), float(rng.normal())
        f = Quadratic(p, q, r)
        for x in rng.normal(size=(20, m)) * 10.0:
            assert f.value(x) == float(x @ p @ x + q @ x + r)
            assert f.gradient(x).tobytes() == (2.0 * p @ x + q).tobytes()
            want = (x - q) / (2.0 * p[0]) if m == 1 else np.linalg.solve(2.0 * p, x - q)
            assert f.conjugate_gradient(x).tobytes() == want.tobytes()

    def test_quadratic_rejects_a_bad_row(self):
        p = np.array([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(ValueError, match="positive definite"):
            Quadratic(p)
        with pytest.raises(ValueError, match="expected a vector"):
            Quadratic(p[:1], np.zeros((2, 2)))

    def test_box_rows_match_each_box(self):
        rng = np.random.default_rng(5)
        boxes = [Box(-1.0, 2.0), Box([-np.inf, 0.0, -3.0], [0.5, np.inf, -1.0]), Box(0.0, 0.0)]
        stacked = Box.stack(boxes)
        assert stacked.lo.shape == (3, 3)
        mu = rng.choice([-0.0, 0.0, -2.5, 1.5, 4.0], size=(3, 3))
        x = rng.choice([-2.0, 0.0, 0.7], size=(3, 3))
        for k, box in enumerate(boxes):
            assert stacked.support_value(mu)[k] == box.support_value(mu[k])
            assert stacked.value(x)[k] == box.value(x[k])
            assert stacked.conjugate_prox(0.3, mu)[k].tobytes() == (
                box.conjugate_prox(0.3, mu[k]).tobytes()
            )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_quadratic_rows_are_each_quadratic_bit_for_bit(self, m):
        """Rows of a checked stack, or of ``stack``, are the per-row
        quadratics: same coefficients, shapes, float types and results."""
        rng = np.random.default_rng(20 + m)
        rows = []
        for _ in range(6):
            base = rng.normal(size=(m, m))
            rows.append(Quadratic(base @ base.T + 0.5 * np.eye(m), rng.normal(size=m), rng.normal()))
        built = Quadratic(
            np.array([f.p for f in rows]), np.array([f.q for f in rows]), [f.r for f in rows]
        )
        x = rng.normal(size=(m,)) * 10.0
        for back in (built.rows(), Quadratic.stack(rows).rows()):
            assert len(back) == len(rows)
            for f, g in zip(rows, back):
                assert type(g) is Quadratic and g == f
                assert (g.p.shape, g.q.shape, g.dim) == (f.p.shape, f.q.shape, f.dim)
                assert type(g.r) is float and type(g.sigma) is float
                assert g.sigma.hex() == f.sigma.hex()
                assert g.value(x) == f.value(x)
                for method in ("gradient", "conjugate_gradient"):
                    assert getattr(g, method)(x).tobytes() == getattr(f, method)(x).tobytes()

    def test_box_rows_are_each_box(self):
        boxes = [Box([-1.0, 0.0], [2.0, 0.0]), Box([-np.inf, -3.0], [0.5, np.inf])]
        for back in (Box(np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])).rows(),
                     Box.stack(boxes).rows()):
            for box, row in zip(boxes, back, strict=True):
                assert type(row) is Box and row == box
                assert (row.lo.shape, row.hi.shape) == (box.lo.shape, box.hi.shape)
                assert row.value(np.array([0.1, 0.0])) == box.value(np.array([0.1, 0.0]))

    def test_rows_need_a_stack(self):
        with pytest.raises(ValueError, match="stacked"):
            Quadratic(2.0, 1.0).rows()
        with pytest.raises(ValueError, match="stacked"):
            Box(0.0, 1.0).rows()

    def test_unstacked_returns_stay_floats(self):
        assert type(Quadratic(2.0, 1.0).value(np.array([1.0]))) is float
        assert type(Quadratic(2.0, 1.0).sigma) is float
        assert type(Box(0.0, 1.0).support_value(np.array([2.0, -1.0]))) is float
        assert type(Box(0.0, 1.0).value(np.array([0.5]))) is float


class TestBoxValidation:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_infinite_bounds_support(self):
        psi = Box(0.0, math.inf)
        assert psi.support_value(np.array([-1.0])) == 0.0
        assert psi.support_value(np.array([1.0])) == math.inf

    @pytest.mark.parametrize("lo, hi", [([math.nan], [1.0]), ([0.0], [math.nan]),
                                        ([0.0, math.nan], [1.0, 1.0])])
    def test_rejects_nan_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="NaN"):
            Box(lo, hi)

    def test_accepts_infinite_bounds(self):
        Box([-math.inf, 0.0], [math.inf, math.inf])

    def test_rejects_bounds_of_different_shapes(self):
        with pytest.raises(ValueError, match=r"bound shapes differ: \(1,\) vs \(2,\)"):
            Box([0.0], [1.0, 2.0])


@pytest.mark.parametrize("e", [0, 3, math.inf])
def test_norm_penalty_rejects_an_order_other_than_1_or_2(e):
    with pytest.raises(ValueError, match="supported norm orders are 1 and 2"):
        NormPenalty(e)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
def test_l1_rejects_a_weight_outside_zero_to_infinity(weight):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        L1(weight)


# the norm ball's edge cases: signed zeros, its boundary, infinities, NaN
BALL_SPECIALS = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]


def ball_points(seed: int, count: int):
    """``count`` seeded (step, point) pairs: steps from 1e-3 to 1e2, points
    of 1 to 4 entries, about a fifth of them from ``BALL_SPECIALS``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(1, 5))
        v = rng.normal(size=size) * 10.0 ** rng.uniform(-2.0, 2.0)
        special = rng.random(size) < 0.2
        v[special] = rng.choice(BALL_SPECIALS, size=int(special.sum()))
        yield 10.0 ** rng.uniform(-3.0, 2.0), v


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestSharedImplementations:
    def test_norm_penalty_1_is_l1_1_bit_for_bit(self):
        ball, l1 = NormPenalty(1), L1(1.0)
        for alpha, v in ball_points(4, 2000):
            for method in ("prox", "conjugate_prox"):
                assert bits(getattr(ball, method)(alpha, v)) == bits(getattr(l1, method)(alpha, v))
            for method in ("support_value", "value"):
                assert bits(getattr(ball, method)(v)) == bits(getattr(l1, method)(v))

    def test_support_value_is_the_conjugate_value_of_the_smooth_kind(self):
        # the same oracles as a strongly convex nonsmooth part and as a smooth one
        value = lambda u: float(np.sum(u**4)) + float(u @ u)
        grad = lambda u: 4.0 * u**3 + 2.0 * u
        psi = CustomStronglyConvex(value, grad, sigma=2.0)
        f = CustomSmooth(value, grad, sigma=2.0, dim=3)
        rng = np.random.default_rng(23)
        for _ in range(20):
            mu = rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 1.0)
            assert bits(psi.support_value(mu)) == bits(f.conjugate_value(mu))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_both_custom_kinds_reject_a_nonpositive_modulus(self, sigma):
        """An infinite modulus is rejected too: it would give h_i = 0."""
        with pytest.raises(ValueError, match="modulus must be positive"):
            CustomSmooth(lambda u: 0.0, lambda u: u, sigma=sigma, dim=1)
        with pytest.raises(ValueError, match="modulus must be positive"):
            CustomStronglyConvex(lambda u: 0.0, lambda u: u, sigma=sigma)

    @pytest.mark.parametrize("setting, message", [
        ({"inner_tol": math.nan}, "tolerance must be nonnegative, got nan"),
        ({"inner_tol": -1.0}, "tolerance must be nonnegative, got -1.0"),
        ({"inner_max_iter": 2.5}, "cap must be an integer, got 2.5"),
        ({"inner_max_iter": "3"}, "cap must be an integer, got '3'"),
        ({"inner_max_iter": -3}, "cap must be nonnegative, got -3"),
    ])
    def test_both_custom_kinds_reject_a_bad_inner_loop_setting(self, setting, message):
        with pytest.raises(ValueError, match=message):
            CustomSmooth(lambda u: 0.0, lambda u: u, sigma=1.0, dim=1, **setting)
        with pytest.raises(ValueError, match=message):
            CustomStronglyConvex(lambda u: 0.0, lambda u: u, sigma=1.0, **setting)

    def test_a_numpy_integer_cap_is_read_as_an_int(self):
        f = CustomSmooth(lambda u: 0.5 * float(u @ u), lambda u: u, sigma=1.0, dim=1,
                         inner_tol=0.0, inner_max_iter=np.int64(1))
        assert type(f.inner_max_iter) is int
        assert f.conjugate_gradient(np.array([0.7])) == pytest.approx([0.7], rel=1e-15)
