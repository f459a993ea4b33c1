"""Convex function catalog: values, gradients, conjugates, proximal maps.

Smooth pieces are strongly convex and expose the gradient of their Fenchel
conjugate (the maximizer of ``v @ u - f(u)``), either in closed form
(quadratics) or through an inner gradient-descent loop.  Nonsmooth pieces
bundle a regularizer together with the indicator of the feasible set and
expose proximal maps on both the function and its conjugate; the conjugate
side defaults to the Moreau decomposition

    prox_step_conj(v) = v - alpha * prox_{1/alpha}(v / alpha)

so the conjugate itself is never evaluated.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "Box",
    "ConjugateUnavailable",
    "CustomProx",
    "CustomSmooth",
    "CustomStronglyConvex",
    "InnerLoopError",
    "L1",
    "NonsmoothFunction",
    "NormPenalty",
    "Quadratic",
    "SmoothFunction",
    "Zero",
    "minimize_strongly_convex",
]

Array = np.ndarray

# Relative slack on a ball's radius: a radial projection onto the ball, or
# an average of points on its boundary, can land a rounding error outside it.
_RADIUS_SLACK = 4.0 * float(np.finfo(float).eps)


class ConjugateUnavailable(ValueError):
    """The function's conjugate value cannot be computed (prox oracle only)."""


class InnerLoopError(RuntimeError):
    """Inner minimization exceeded its iteration cap.

    Carries the gradient norm reached when the loop gave up.
    """

    def __init__(self, grad_norm: float, iterations: int):
        self.grad_norm = grad_norm
        self.iterations = iterations
        super().__init__(
            f"inner loop stopped after {iterations} iterations "
            f"with gradient norm {grad_norm:.3e}"
        )


def minimize_strongly_convex(
    value: Callable[[Array], float],
    grad: Callable[[Array], Array],
    x0: Array,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> Array:
    """Gradient descent with backtracking on a strongly convex objective.

    Stops when the gradient norm drops below ``tol``; raises
    :class:`InnerLoopError` at the iteration cap.
    """
    x = np.array(x0, dtype=float)
    fx = value(x)
    step = 1.0
    g = grad(x)
    eps = float(np.finfo(float).eps)
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return x
        step = min(step * 2.0, 1e12)  # allow recovery after conservative steps
        g_next = None
        while True:
            cand = x - step * g
            fc = value(cand)
            predicted = 0.5 * step * gnorm * gnorm
            if predicted >= 8.0 * eps * max(abs(fx), 1.0):
                ok = fc <= fx - predicted
                g_next = None
            else:
                # predicted descent is below value roundoff; judge the step
                # by the gradient norm instead, which keeps full precision
                g_next = grad(cand)
                ok = float(np.linalg.norm(g_next)) < gnorm
            if ok or step < 1e-18:
                break
            step *= 0.5
        x, fx = cand, fc
        g = g_next if g_next is not None else grad(x)
    raise InnerLoopError(float(np.linalg.norm(g)), max_iter)


def _as_vector(v, dim: int | None = None) -> Array:
    out = np.atleast_1d(np.asarray(v, dtype=float))
    if out.ndim != 1:
        raise ValueError(f"expected a vector, got shape {out.shape}")
    if dim is not None and out.shape[0] != dim:
        raise ValueError(f"expected a vector of size {dim}, got {out.shape[0]}")
    return out


class SmoothFunction:
    """Differentiable, strongly convex function on R^M."""

    dim: int
    sigma: float  # strong convexity modulus

    def value(self, x: Array) -> float:
        raise NotImplementedError

    def gradient(self, x: Array) -> Array:
        raise NotImplementedError

    def conjugate_gradient(self, v: Array) -> Array:
        """Gradient of the Fenchel conjugate: argmax_u v @ u - f(u).

        Unique because f is strongly convex, and 1/sigma-Lipschitz in v.
        """
        raise NotImplementedError

    def conjugate_value(self, v: Array) -> float:
        """Fenchel conjugate sup_u v @ u - f(u), evaluated at the maximizer."""
        u = self.conjugate_gradient(v)
        v = _as_vector(v, self.dim)
        return float(v @ u - self.value(u))


class Quadratic(SmoothFunction):
    """f(x) = x @ P @ x + q @ x + r with P symmetric positive definite.

    The convention carries the quadratic coefficient directly (no 1/2
    factor), so a scalar cost ``a x^2 + b x + c`` is ``Quadratic(a, b, c)``.
    Strong convexity modulus is twice the smallest eigenvalue of P.
    """

    def __init__(self, p, q=None, r: float = 0.0):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        if p.shape[0] != p.shape[1]:
            raise ValueError(f"P must be square, got shape {p.shape}")
        if not np.allclose(p, p.T, atol=1e-12):
            raise ValueError("P must be symmetric")
        self.p = p
        self.dim = p.shape[0]
        self.q = (
            np.zeros(self.dim) if q is None else _as_vector(q, self.dim)
        )
        self.r = float(r)
        eigs = np.linalg.eigvalsh(p)
        if eigs[0] <= 0:
            raise ValueError(
                f"P must be positive definite; smallest eigenvalue {eigs[0]:.3e}"
            )
        self.sigma = 2.0 * float(eigs[0])
        self._two_p = 2.0 * p
        self._scalar = self.dim == 1

    def value(self, x: Array) -> float:
        x = _as_vector(x, self.dim)
        return float(x @ self.p @ x + self.q @ x + self.r)

    def gradient(self, x: Array) -> Array:
        x = _as_vector(x, self.dim)
        return self._two_p @ x + self.q

    def conjugate_gradient(self, v: Array) -> Array:
        v = _as_vector(v, self.dim)
        if self._scalar:
            return (v - self.q) / self._two_p[0]
        return np.linalg.solve(self._two_p, v - self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quadratic)
            and np.array_equal(self.p, other.p)
            and np.array_equal(self.q, other.q)
            and self.r == other.r
        )

    def __repr__(self) -> str:
        return f"Quadratic(p={self.p.tolist()}, q={self.q.tolist()}, r={self.r})"


class CustomSmooth(SmoothFunction):
    """Smooth function given by value/gradient oracles.

    Conjugate quantities are computed by an inner loop minimizing
    ``f(u) - v @ u``; oracles must be side-effect free, since the solver
    calls them several times per round at different points.
    """

    def __init__(
        self,
        value: Callable[[Array], float],
        gradient: Callable[[Array], Array],
        sigma: float,
        dim: int,
        inner_tol: float = 1e-10,
        inner_max_iter: int = 100_000,
    ):
        if sigma <= 0:
            raise ValueError(f"strong convexity modulus must be positive, got {sigma}")
        self._value = value
        self._gradient = gradient
        self.sigma = float(sigma)
        self.dim = int(dim)
        self.inner_tol = inner_tol
        self.inner_max_iter = inner_max_iter

    def value(self, x: Array) -> float:
        return float(self._value(np.asarray(x, dtype=float)))

    def gradient(self, x: Array) -> Array:
        return np.asarray(self._gradient(np.asarray(x, dtype=float)), dtype=float)

    def conjugate_gradient(self, v: Array) -> Array:
        v = _as_vector(v, self.dim)
        return minimize_strongly_convex(
            lambda u: self.value(u) - float(v @ u),
            lambda u: self.gradient(u) - v,
            np.zeros(self.dim),
            tol=self.inner_tol,
            max_iter=self.inner_max_iter,
        )


class NonsmoothFunction:
    """Proper, convex, closed function bundling regularizer and feasible set.

    One object stands for the sum of a (possibly zero) nonsmooth penalty
    and the indicator of the constraint set, since the dual machinery only
    ever uses them jointly.  Subclasses implement ``_prox`` and may replace
    ``_conjugate_prox``; both receive a checked step and a float array.
    """

    def prox(self, alpha: float, v: Array) -> Array:
        """argmin_u psi(u) + ||u - v||^2 / (2 alpha)."""
        if alpha <= 0:
            raise ValueError(f"prox step must be positive, got {alpha}")
        return self._prox(alpha, np.asarray(v, dtype=float))

    def conjugate_prox(self, alpha: float, v: Array) -> Array:
        """Prox of the Fenchel conjugate."""
        if alpha <= 0:
            raise ValueError(f"prox step must be positive, got {alpha}")
        return self._conjugate_prox(alpha, np.asarray(v, dtype=float))

    def _prox(self, alpha: float, v: Array) -> Array:
        raise NotImplementedError

    def _conjugate_prox(self, alpha: float, v: Array) -> Array:
        # Moreau decomposition, so the conjugate is never evaluated
        return v - alpha * self._prox(1.0 / alpha, v / alpha)

    def support_value(self, mu: Array) -> float:
        """Fenchel conjugate value at ``mu``; ``math.inf`` when unbounded.

        An infinite return marks a dual point outside the conjugate's
        domain; callers treat it as a diagnostic marker, not an error.
        Raises :class:`ConjugateUnavailable` when the value cannot be
        computed.
        """
        raise NotImplementedError

    def value(self, x: Array) -> float:
        """Function value (``math.inf`` outside the feasible set)."""
        raise NotImplementedError


class Zero(NonsmoothFunction):
    """No penalty, unconstrained.  Conjugate is the indicator of {0}, so the
    conjugate prox is the projection onto {0}."""

    def _prox(self, alpha: float, v: Array) -> Array:
        return v.copy()

    def _conjugate_prox(self, alpha: float, v: Array) -> Array:
        return np.zeros_like(v)

    def support_value(self, mu: Array) -> float:
        mu = np.asarray(mu, dtype=float)
        return 0.0 if np.all(mu == 0.0) else math.inf

    def value(self, x: Array) -> float:
        return 0.0

    def __eq__(self, other) -> bool:
        return isinstance(other, Zero)

    def __repr__(self) -> str:
        return "Zero()"


class L1(NonsmoothFunction):
    """Weighted l1 penalty w * ||x||_1, unconstrained.

    Prox is the soft-thresholding operator; the conjugate is the indicator
    of the infinity-norm ball of radius w, so the conjugate prox is a clamp
    to [-w, w].
    """

    def __init__(self, weight: float):
        if weight < 0:
            raise ValueError(f"l1 weight must be nonnegative, got {weight}")
        self.weight = float(weight)

    def _prox(self, alpha: float, v: Array) -> Array:
        t = alpha * self.weight
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    def _conjugate_prox(self, alpha: float, v: Array) -> Array:
        return np.clip(v, -self.weight, self.weight)

    def support_value(self, mu: Array) -> float:
        mu = np.asarray(mu, dtype=float)
        dual = float(np.max(np.abs(mu), initial=0.0))
        return 0.0 if dual <= self.weight * (1.0 + _RADIUS_SLACK) else math.inf

    def value(self, x: Array) -> float:
        return self.weight * float(np.sum(np.abs(x)))

    def __eq__(self, other) -> bool:
        return isinstance(other, L1) and self.weight == other.weight

    def __repr__(self) -> str:
        return f"L1(weight={self.weight})"


class Box(NonsmoothFunction):
    """Indicator of the box [lo, hi] (componentwise).

    Prox is the Euclidean projection (clamp); the conjugate is the box's
    support function, finite everywhere when the box is bounded.
    """

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise ValueError(
                f"bound shapes differ: {self.lo.shape} vs {self.hi.shape}"
            )
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")

    def _prox(self, alpha: float, v: Array) -> Array:
        return np.clip(v, self.lo, self.hi)

    def support_value(self, mu: Array) -> float:
        mu = np.asarray(mu, dtype=float)
        # piecewise so that a zero multiplier kills an infinite bound
        with np.errstate(invalid="ignore"):
            terms = np.where(
                mu > 0, mu * self.hi, np.where(mu < 0, mu * self.lo, 0.0)
            )
        return float(np.sum(terms))

    def value(self, x: Array) -> float:
        x = np.asarray(x, dtype=float)
        return 0.0 if np.all(x >= self.lo) and np.all(x <= self.hi) else math.inf

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Box)
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __repr__(self) -> str:
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class NormPenalty(NonsmoothFunction):
    """Euclidean e-norm penalty ||x||_e, unconstrained, e in {1, 2}.

    Its conjugate is the indicator of the dual-norm unit ball, so the
    conjugate prox is a direct projection: a clamp to [-1, 1] for e = 1
    (dual norm infinity) and radial scaling for the self-dual e = 2.
    """

    def __init__(self, e: int):
        if e not in (1, 2):
            raise ValueError(f"supported norm orders are 1 and 2, got {e}")
        self.e = int(e)

    def _prox(self, alpha: float, v: Array) -> Array:
        if self.e == 1:
            return np.sign(v) * np.maximum(np.abs(v) - alpha, 0.0)
        norm = float(np.linalg.norm(v))
        if norm <= alpha:
            return np.zeros_like(v)
        return (1.0 - alpha / norm) * v

    def _conjugate_prox(self, alpha: float, v: Array) -> Array:
        # projection onto the dual-norm unit ball; step size is irrelevant
        if self.e == 1:
            return np.clip(v, -1.0, 1.0)
        norm = float(np.linalg.norm(v))
        return v if norm <= 1.0 else v / norm

    def support_value(self, mu: Array) -> float:
        mu = np.asarray(mu, dtype=float)
        dual = (
            float(np.max(np.abs(mu), initial=0.0))
            if self.e == 1
            else float(np.linalg.norm(mu))
        )
        return 0.0 if dual <= 1.0 + _RADIUS_SLACK else math.inf

    def value(self, x: Array) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(np.abs(x))) if self.e == 1 else float(np.linalg.norm(x))

    def __eq__(self, other) -> bool:
        return isinstance(other, NormPenalty) and self.e == other.e

    def __repr__(self) -> str:
        return f"NormPenalty(e={self.e})"


class CustomProx(NonsmoothFunction):
    """Nonsmooth function defined by a user prox oracle.

    The oracle takes (alpha, v) and must be side-effect free.  A value
    oracle is optional; without one the conjugate value is unavailable.
    """

    def __init__(
        self,
        prox_fn: Callable[[float, Array], Array],
        value_fn: Callable[[Array], float] | None = None,
    ):
        self._prox_fn = prox_fn
        self._value = value_fn

    def _prox(self, alpha: float, v: Array) -> Array:
        return np.asarray(self._prox_fn(alpha, v), dtype=float)

    def support_value(self, mu: Array) -> float:
        raise ConjugateUnavailable(
            "conjugate value is not available for a prox-oracle function; "
            "supply a strongly convex value/gradient form instead"
        )

    def value(self, x: Array) -> float:
        if self._value is None:
            raise ValueError("no value oracle was supplied")
        return float(self._value(np.asarray(x, dtype=float)))


class CustomStronglyConvex(NonsmoothFunction):
    """Strongly convex function whose prox is found by an inner loop.

    Covers the case where a strongly convex component has been shifted
    into the nonsmooth slot; needs value and gradient oracles (where the
    function is differentiable) and the modulus ``sigma``.
    """

    def __init__(
        self,
        value: Callable[[Array], float],
        gradient: Callable[[Array], Array],
        sigma: float,
        inner_tol: float = 1e-10,
        inner_max_iter: int = 100_000,
    ):
        if sigma <= 0:
            raise ValueError(f"strong convexity modulus must be positive, got {sigma}")
        self._value = value
        self._gradient = gradient
        self.sigma = float(sigma)
        self.inner_tol = inner_tol
        self.inner_max_iter = inner_max_iter

    def _prox(self, alpha: float, v: Array) -> Array:
        inv = 1.0 / alpha
        return minimize_strongly_convex(
            lambda u: self.value(u) + 0.5 * inv * float((u - v) @ (u - v)),
            lambda u: self._grad(u) + inv * (u - v),
            v.copy(),
            tol=self.inner_tol,
            max_iter=self.inner_max_iter,
        )

    def _grad(self, x: Array) -> Array:
        return np.asarray(self._gradient(x), dtype=float)

    def support_value(self, mu: Array) -> float:
        mu = np.asarray(mu, dtype=float)
        u = minimize_strongly_convex(
            lambda x: self.value(x) - float(mu @ x),
            lambda x: self._grad(x) - mu,
            np.zeros_like(mu),
            tol=self.inner_tol,
            max_iter=self.inner_max_iter,
        )
        return float(mu @ u - self.value(u))

    def value(self, x: Array) -> float:
        return float(self._value(np.asarray(x, dtype=float)))

