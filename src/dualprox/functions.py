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

import contextlib
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
_FLOAT = np.dtype(float)

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
    :class:`InnerLoopError` when the point its last allowed step reached
    is not there either.
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
    gnorm = float(np.linalg.norm(g))
    if gnorm <= tol:
        return x
    raise InnerLoopError(gnorm, max_iter)


def _norm(v: Array) -> float:
    """``float(np.linalg.norm(v))``, bit for bit: its own formula for the
    2-norm of the flattened array."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _as_vector(v, dim: int | None = None, rows: tuple = ()) -> Array:
    """``v`` as a float vector, or as one vector per row of shape ``rows``."""
    out = np.asarray(v, dtype=float)
    if not out.ndim:
        out = out.reshape(1)
    if out.shape[:-1] != rows:
        raise ValueError(f"expected a vector, got shape {out.shape}")
    if dim is not None and out.shape[-1] != dim:
        raise ValueError(f"expected a vector of size {dim}, got {out.shape[-1]}")
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
    Strong convexity modulus is twice the smallest eigenvalue of P.  A P
    symmetric only up to roundoff is stored as its symmetric part.

    Coefficients may carry a leading axis of G rows, P (G, M, M), q (G, M)
    and r (G,): the function then stands for G quadratics, ``sigma`` has one
    entry per row, and the methods act row by row on (G, M) points,
    bit-identical to each row's own quadratic.  Points may carry leading
    axes, (..., G, M), to evaluate several points per row in one call.  Its
    checks run once over all rows; :meth:`rows` splits it into the G
    quadratics and :meth:`stack` joins checked ones back.
    """

    def __init__(self, p, q=None, r=0.0):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        if p.ndim > 3 or p.shape[-1] != p.shape[-2]:
            raise ValueError(f"P must be square, got shape {p.shape}")
        p_t = p.swapaxes(-1, -2)
        if not (p == p_t).all():  # an exactly symmetric P skips the costlier check
            if not np.allclose(p, p_t, atol=1e-12):
                raise ValueError("P must be symmetric")
            p = 0.5 * (p + p_t)
        rows = p.shape[:-2]
        q = np.zeros(p.shape[:-1]) if q is None else _as_vector(q, p.shape[-1], rows)
        smallest = np.linalg.eigvalsh(p)[..., 0]
        if (smallest <= 0).any():
            raise ValueError(
                f"P must be positive definite; smallest eigenvalue {np.min(smallest):.3e}"
            )
        if rows:
            self._set(p, q, np.broadcast_to(r, rows).astype(float), 2.0 * smallest)
        else:
            self._set(p, q, float(r), 2.0 * float(smallest))

    def _set(self, p: Array, q: Array, r, sigma, two_p: Array | None = None) -> None:
        self.p, self.q, self.r, self.sigma = p, q, r, sigma
        self.dim = p.shape[-1]
        self._point_shape = p.shape[:-1]  # (M,), or (G, M) when stacked
        self._two_p = 2.0 * p if two_p is None else two_p

    @classmethod
    def stack(cls, members: list["Quadratic"]) -> "Quadratic":
        """One stacked quadratic over ``members``, from their checked coefficients."""
        f = cls.__new__(cls)
        f._set(*(np.array([getattr(g, k) for g in members]) for k in ("p", "q", "r", "sigma")))
        return f

    def rows(self) -> list["Quadratic"]:
        """The G quadratics of a stacked one, without re-running its checks:
        the inverse of :meth:`stack`.

        Row k equals ``Quadratic(p[k], q[k], r[k])`` bit for bit, with ``r``
        and ``sigma`` Python floats; its arrays are views into this one's.
        """
        if self.p.ndim != 3:
            raise ValueError(f"rows need stacked coefficients, got P of shape {self.p.shape}")
        out = []
        columns = (self.p, self.q, self.r.tolist(), self.sigma.tolist(), self._two_p)
        for p, q, r, sigma, two_p in zip(*columns):
            f = type(self).__new__(type(self))
            f._set(p, q, r, sigma, two_p)
            out.append(f)
        return out

    def _points(self, x) -> Array:
        # a float64 ndarray whose last two axes are the point shape, (M,) or
        # (..., G, M), passes the checks below unchanged
        if type(x) is np.ndarray and x.dtype is _FLOAT and x.shape[-2:] == self._point_shape:
            return x
        rows = self.p.shape[:-2]
        if rows:
            x = np.asarray(x, dtype=float)
            if x.ndim > 2:  # leading axes before the G rows
                rows = x.shape[:-2] + rows
        return _as_vector(x, self.dim, rows)

    def value(self, x: Array) -> float:
        x = self._points(x)
        if self.dim == 1:
            # a 1x1 matmul is 0 + a*b, which turns a -0.0 product into +0.0;
            # with P > 0, x*P*x is never -0.0, so that cannot change the sum
            xpx = (x * self.p[..., 0] * x)[..., 0]
            qx = (self.q * x)[..., 0]
        else:
            xpx = (x[..., None, :] @ self.p @ x[..., :, None])[..., 0, 0]
            qx = (self.q[..., None, :] @ x[..., :, None])[..., 0, 0]
        out = xpx + qx + self.r
        return out if self.p.ndim == 3 else float(out)

    def gradient(self, x: Array) -> Array:
        return (self._two_p @ self._points(x)[..., None])[..., 0] + self.q

    def conjugate_gradient(self, v: Array) -> Array:
        shifted = self._points(v) - self.q
        if self.dim == 1:
            return shifted / self._two_p[..., 0]
        return np.linalg.solve(self._two_p, shifted[..., None])[..., 0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quadratic)
            and np.array_equal(self.p, other.p)
            and np.array_equal(self.q, other.q)
            and np.array_equal(self.r, other.r)
        )

    def __repr__(self) -> str:
        return f"Quadratic(p={self.p.tolist()}, q={self.q.tolist()}, r={self.r})"


class _Oracles:
    """Value and gradient oracles of a strongly convex function with modulus
    ``sigma``, and the inner loop that maximizes ``v @ u - f(u)``: the one
    core of :class:`CustomSmooth` and :class:`CustomStronglyConvex`.
    """

    def __init__(
        self,
        value: Callable[[Array], float],
        gradient: Callable[[Array], Array],
        sigma: float,
        inner_tol: float = 1e-10,
        inner_max_iter: int = 100_000,
    ):
        if not 0 < sigma < math.inf:  # NaN too
            raise ValueError(f"strong convexity modulus must be positive and finite, got {sigma}")
        self._value = value
        self._gradient = gradient
        self.sigma = float(sigma)
        self.inner_tol = inner_tol
        self.inner_max_iter = inner_max_iter

    def value(self, x: Array) -> float:
        return float(self._value(np.asarray(x, dtype=float)))

    def gradient(self, x: Array) -> Array:
        return np.asarray(self._gradient(np.asarray(x, dtype=float)), dtype=float)

    def _maximizer(self, v: Array) -> Array:
        """argmax_u v @ u - f(u) for a float array ``v``, by the inner loop
        from u = 0."""
        return minimize_strongly_convex(
            lambda u: self.value(u) - float(v @ u),
            lambda u: self.gradient(u) - v,
            np.zeros_like(v),
            tol=self.inner_tol,
            max_iter=self.inner_max_iter,
        )


class CustomSmooth(_Oracles, SmoothFunction):
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
        super().__init__(value, gradient, sigma, inner_tol, inner_max_iter)
        self.dim = int(dim)

    def conjugate_gradient(self, v: Array) -> Array:
        return self._maximizer(_as_vector(v, self.dim))


class NonsmoothFunction:
    """Proper, convex, closed function bundling regularizer and feasible set.

    One object stands for the sum of a (possibly zero) nonsmooth penalty
    and the indicator of the constraint set, since the dual machinery only
    ever uses them jointly.  Subclasses implement ``_prox`` and may replace
    ``_conjugate_prox``; both receive a checked step and a float array.
    """

    def prox(self, alpha: float, v: Array) -> Array:
        """argmin_u psi(u) + ||u - v||^2 / (2 alpha)."""
        if not alpha > 0:  # NaN too
            raise ValueError(f"prox step must be positive, got {alpha}")
        return self._prox(alpha, np.asarray(v, dtype=float))

    def conjugate_prox(self, alpha: float, v: Array) -> Array:
        """Prox of the Fenchel conjugate."""
        if not alpha > 0:  # NaN too
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
        return 0.0 if (mu == 0.0).all() else math.inf

    def value(self, x: Array) -> float:
        return 0.0

    def __eq__(self, other) -> bool:
        return isinstance(other, Zero)

    def __repr__(self) -> str:
        return "Zero()"


class _NormBall(NonsmoothFunction):
    """``weight * ||x||_e``, unconstrained, e in {1, 2}: the one
    implementation of :class:`L1` (e = 1) and :class:`NormPenalty`
    (weight 1.0).

    Prox is soft-thresholding for e = 1 and radial shrinkage for e = 2.  The
    conjugate is the indicator of the dual-norm ball of radius ``weight``, so
    the conjugate prox is a direct projection: a clamp to [-weight, weight]
    for e = 1 (dual norm infinity) and radial scaling for the self-dual
    e = 2.  Multiplying or dividing by a weight of 1.0 is exact, so
    ``NormPenalty(1)`` and ``L1(1.0)`` agree bit for bit.
    """

    weight: float
    e: int

    def _prox(self, alpha: float, v: Array) -> Array:
        t = alpha * self.weight
        if self.e == 1:
            return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        norm = float(np.linalg.norm(v))
        if norm <= t:
            return np.zeros_like(v)
        return (1.0 - t / norm) * v

    def _conjugate_prox(self, alpha: float, v: Array) -> Array:
        # projection onto the dual-norm ball; step size is irrelevant
        if self.e == 1:
            return v.clip(-self.weight, self.weight)
        norm = _norm(v)
        return v if norm <= self.weight else v / (norm / self.weight)

    def support_value(self, mu: Array) -> float:
        mu = np.asarray(mu, dtype=float)
        dual = float(np.abs(mu).max(initial=0.0)) if self.e == 1 else _norm(mu)
        return 0.0 if dual <= self.weight * (1.0 + _RADIUS_SLACK) else math.inf

    def value(self, x: Array) -> float:
        x = np.asarray(x, dtype=float)
        norm = float(np.sum(np.abs(x))) if self.e == 1 else float(np.linalg.norm(x))
        return self.weight * norm


class L1(_NormBall):
    """Weighted l1 penalty w * ||x||_1, unconstrained.

    Prox is the soft-thresholding operator; the conjugate is the indicator
    of the infinity-norm ball of radius w, so the conjugate prox is a clamp
    to [-w, w].
    """

    e = 1

    def __init__(self, weight: float):
        if not 0 <= weight < math.inf:
            raise ValueError(f"l1 weight must be finite and nonnegative, got {weight}")
        self.weight = float(weight)

    def __eq__(self, other) -> bool:
        return isinstance(other, L1) and self.weight == other.weight

    def __repr__(self) -> str:
        return f"L1(weight={self.weight})"


class NormPenalty(_NormBall):
    """Euclidean e-norm penalty ||x||_e, unconstrained, e in {1, 2}.

    Its conjugate is the indicator of the dual-norm unit ball, so the
    conjugate prox is a direct projection: a clamp to [-1, 1] for e = 1
    (dual norm infinity) and radial scaling for the self-dual e = 2.
    """

    weight = 1.0

    def __init__(self, e: int):
        if e not in (1, 2):
            raise ValueError(f"supported norm orders are 1 and 2, got {e}")
        self.e = int(e)

    def __eq__(self, other) -> bool:
        return isinstance(other, NormPenalty) and self.e == other.e

    def __repr__(self) -> str:
        return f"NormPenalty(e={self.e})"


class Box(NonsmoothFunction):
    """Indicator of the box [lo, hi] (componentwise).

    Prox is the Euclidean projection (clamp); the conjugate is the box's
    support function, finite everywhere when the box is bounded.  Bounds
    of shape (G, M) stack G boxes: the methods then take (G, M) points, or
    (..., G, M) with leading axes, and act row by row, and ``value`` and
    ``support_value`` return one entry per row and leading index.
    :meth:`rows` splits a stacked box into its G boxes and :meth:`stack`
    joins checked ones back.
    """

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise ValueError(
                f"bound shapes differ: {self.lo.shape} vs {self.hi.shape}"
            )
        if not (self.lo <= self.hi).all():  # false for a NaN bound too
            raise ValueError("box requires lo <= hi componentwise, with no NaN bound")

    @classmethod
    def stack(cls, members: list["Box"]) -> "Box":
        """One stacked box over ``members``' already checked bounds; a
        one-element bound is repeated to the longest member's length."""
        box = cls.__new__(cls)
        box.lo = np.empty((len(members), max(g.lo.size for g in members)))
        box.hi = np.empty_like(box.lo)
        for k, g in enumerate(members):
            box.lo[k], box.hi[k] = g.lo, g.hi
        return box

    def rows(self) -> list["Box"]:
        """The G boxes of a stacked one, without re-running its checks: the
        inverse of :meth:`stack`.  Row k's bounds are views of shape (M,)."""
        if self.lo.ndim != 2:
            raise ValueError(f"rows need stacked bounds, got shape {self.lo.shape}")
        out = []
        for lo, hi in zip(self.lo, self.hi):
            box = type(self).__new__(type(self))
            box.lo, box.hi = lo, hi
            out.append(box)
        return out

    def _prox(self, alpha: float, v: Array) -> Array:
        return v.clip(self.lo, self.hi)

    def _conjugate_prox(self, alpha: float, v: Array) -> Array:
        # the Moreau decomposition with the clamp inline
        return v - alpha * (v / alpha).clip(self.lo, self.hi)

    def support_value(self, mu: Array) -> float:
        mu = np.asarray(mu, dtype=float)
        # piecewise, so that a zero multiplier kills an infinite bound: the
        # lanes a mask leaves out are never computed.  The one invalid
        # product left, an infinite multiplier times a zero bound, gives NaN
        # as silently as ever.
        terms = np.zeros(np.broadcast(mu, self.hi).shape)
        infinite = np.isinf(mu).any()
        with np.errstate(invalid="ignore") if infinite else contextlib.nullcontext():
            np.multiply(mu, self.hi, out=terms, where=mu > 0)
            np.multiply(mu, self.lo, out=terms, where=mu < 0)
        total = np.add.reduce(terms, axis=-1)
        return total if self.lo.ndim == 2 else float(total)

    def value(self, x: Array) -> float:
        x = np.asarray(x, dtype=float)
        inside = np.all((x >= self.lo) & (x <= self.hi), axis=-1)
        out = np.where(inside, 0.0, math.inf)
        return out if self.lo.ndim == 2 else float(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Box)
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __repr__(self) -> str:
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


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


class CustomStronglyConvex(_Oracles, NonsmoothFunction):
    """Strongly convex function whose prox is found by an inner loop.

    Covers the case where a strongly convex component has been shifted
    into the nonsmooth slot; needs value and gradient oracles (where the
    function is differentiable) and the modulus ``sigma``.
    """

    def _prox(self, alpha: float, v: Array) -> Array:
        inv = 1.0 / alpha
        return minimize_strongly_convex(
            lambda u: self.value(u) + 0.5 * inv * float((u - v) @ (u - v)),
            lambda u: self.gradient(u) + inv * (u - v),
            v.copy(),
            tol=self.inner_tol,
            max_iter=self.inner_max_iter,
        )

    def support_value(self, mu: Array) -> float:
        mu = np.asarray(mu, dtype=float)
        u = self._maximizer(mu)
        return float(mu @ u - self.value(u))
