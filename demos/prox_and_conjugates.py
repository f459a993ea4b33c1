"""Tour of the convex function catalog.

The dual solver never touches primal constraint sets directly: everything
enters through proximal maps and Fenchel conjugates.  This script walks
through the catalog kinds and the identities that make the dual updates
cheap.

Run from the repository root:  python demos/prox_and_conjugates.py
"""

import numpy as np

from dualprox import Box, L1, NormPenalty, Quadratic, Zero

rng = np.random.default_rng(0)

# --- proximal maps of the nonsmooth kinds -------------------------------------

v = np.array([3.0, -0.5, 0.2])
print("soft threshold    prox of ||.||_1 at", v, "->", L1(1.0).prox(1.0, v))
print("box projection    prox of [0, 1.5]  at", v, "->", Box(0.0, 1.5).prox(1.0, v))
print("no-op             prox of zero      at", v, "->", Zero().prox(1.0, v))
print()

# --- the Moreau decomposition --------------------------------------------------
# any vector splits into the prox of a function and the scaled prox of its
# conjugate; the solver uses this to step on conjugates it never evaluates

for psi, name in [(L1(1.0), "l1"), (Box(-1.0, 2.0), "box"), (NormPenalty(2), "2-norm")]:
    alpha = 0.7
    w = rng.normal(size=3) * 4
    recomposed = alpha * psi.conjugate_prox(1 / alpha, w / alpha) + psi.prox(alpha, w)
    print(f"Moreau split for {name:7s}: max error "
          f"{np.max(np.abs(w - recomposed)):.2e}")
print()

# --- conjugate prox as a projection --------------------------------------------
# the conjugate of a weighted l1 penalty is the indicator of a box, so the
# conjugate prox is a clamp; for the self-dual 2-norm it is a radial shrink

w = np.array([2.5, -0.3])
print("conjugate prox of l1(w=1) at", w, "->", L1(1.0).conjugate_prox(1.0, w),
      " (clamp to [-1, 1])")
print("conjugate prox of ||.||_2 at", w, "->",
      np.round(NormPenalty(2).conjugate_prox(1.0, w), 4), " (unit-ball projection)")
print()

# --- smooth conjugates ----------------------------------------------------------
# for a strongly convex smooth cost, the gradient of the conjugate is the
# best response to a price: it solves max_u v.u - f(u) in closed form

company1 = Quadratic(0.0031, 8.71)  # generation cost 0.0031 x^2 + 8.71 x
for price in (5.0, 8.71, 12.0):
    u = company1.conjugate_gradient(np.array([price]))[0]
    print(f"best response of company 1 to price {price:5.2f}: produce {u:8.2f}")
print()

# --- support values feed the dual objective -------------------------------------

box = Box(0.0, 150.0)
for mu in (2.34, -0.61, 0.0):
    print(f"support of [0, 150] at multiplier {mu:+.2f}: "
          f"{box.support_value(np.array([mu])):7.2f}")
print()
print("conjugate value of the company-1 cost at its own marginal price:",
      round(company1.conjugate_value(np.array([8.71])), 6))
