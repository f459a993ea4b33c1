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
        with pytest.raises(ValueError):
            L1(1.0).prox(0.0, np.array([1.0]))

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

    def test_custom_prox_has_no_conjugate_value(self):
        psi = CustomProx(lambda a, v: np.clip(v, 0, 1))
        with pytest.raises(ValueError):
            psi.support_value(np.array([1.0]))


class TestCustomKinds:
    def test_custom_prox_delegates(self):
        psi = CustomProx(lambda a, v: np.clip(v, 0.0, 1.0))
        assert np.allclose(psi.prox(2.0, np.array([5.0, -1.0])), [1.0, 0.0])

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


class TestBoxValidation:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_infinite_bounds_support(self):
        psi = Box(0.0, math.inf)
        assert psi.support_value(np.array([-1.0])) == 0.0
        assert psi.support_value(np.array([1.0])) == math.inf
