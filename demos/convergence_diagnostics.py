"""Convergence theory, measured: ergodic rate and the distance-to-saddle.

With step sizes satisfying the acceptance rule, the running average of the
dual trajectory carries an O(1/T) guarantee on both the optimality gap and
the consensus feasibility, and a weighted distance to any saddle point
never increases.  This script measures both on the market benchmark
against the bound computed from the initialization, and exits with status
1 if either fails.

Run from the repository root:  python demos/convergence_diagnostics.py
"""

import sys

import numpy as np

import dualprox as dp
from dualprox.solver import eval_dual_objective, gap_bound_constant

instance = dp.build_market()
steps = dp.suggest_step_sizes(
    dp.max_lipschitz(instance),
    dp.laplacian_spectral_radius(instance.graph).value,
)

# the reference saddle point comes from the independent centralized solver
oracle = dp.centralized_oracle(instance)
theta_star, mu_star, xi_star = dp.saddle_point(instance, oracle)
phi_star = eval_dual_objective(instance, theta_star, mu_star)
print(f"dual optimum (negated social welfare): {phi_star:.4f}")

state = dp.init_state(instance)
const = gap_bound_constant(
    instance.graph, steps.c, steps.gamma,
    state.theta, state.mu, state.xi, theta_star, mu_star, xi_star,
)
print(f"bound constant from the zero initialization: {const:.1f}")
print()

avg = dp.RunningAverage(instance.n_agents, instance.b_dim, instance.m)
xi_norm = float(np.linalg.norm(xi_star))

print(f"{'T':>6} {'gap':>12} {'feasibility':>12} {'bound':>12}  (gap and "
      "feasibility must sit under the bound)")
horizons = {10, 100, 1000, 10000}
lyapunov = []
under_bound = True
for t in range(10_001):
    state = dp.iterate(instance, state, steps)
    avg.update(state.theta, state.mu)
    lyapunov.append(
        dp.lyapunov_value(instance.graph, steps.c, steps.gamma, state,
                          theta_star, mu_star, xi_star)
    )
    T = state.t - 1
    if T in horizons:
        gap = abs(eval_dual_objective(instance, avg.theta, avg.mu) - phi_star)
        feas = xi_norm * float(np.linalg.norm(instance.graph.edge_diff(avg.theta)))
        bound = const / (T + 1)
        print(f"{T:6d} {gap:12.4e} {feas:12.4e} {bound:12.4e}")
        under_bound &= gap <= bound and feas <= bound

drops = np.diff(np.array(lyapunov))
print()
print(f"distance-to-saddle over {len(lyapunov)} rounds: starts {lyapunov[0]:.1f}, "
      f"ends {lyapunov[-1]:.2e}, largest per-round increase {drops.max():.2e}")
# the tolerance of acceptance criterion 8 for rounding in the distance
never_increases = drops.max() <= 1e-10
print(f"gap and feasibility under the bound at every horizon: {under_bound}")
print(f"distance-to-saddle never increases by more than 1e-10: {never_increases}")
if not (under_bound and never_increases):
    sys.exit(1)
