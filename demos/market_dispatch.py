"""Electricity-market benchmark, end to end.

Two generating companies and three energy users share one supply-demand
balance constraint over a five-agent communication graph.  We validate the
instance, pick step sizes from the network constants, run the distributed
dual solve, and compare against the centralized reference solver.  The
demo exits with status 1 unless the solve converges to the reference
optimum and its dual value negates the optimal cost.

Run from the repository root:  python demos/market_dispatch.py
"""

import sys

import numpy as np

import dualprox as dp

# --- build and inspect the instance -----------------------------------------

instance = dp.build_market()
print("agents:", instance.n_agents, " dims (N, M, B):", instance.dims)
print("coupling row:", instance.coupling_matrix().ravel(), " b =", instance.b)
print()
print("validation report:")
print(dp.validate(instance))
print()

# --- step sizes from the network constants -----------------------------------

h = dp.max_lipschitz(instance)
spectral = dp.laplacian_spectral_radius(instance.graph)
steps = dp.suggest_step_sizes(h, spectral.value, gamma=1.0)
print(f"h = {h:.4f} (stiffest agent: company 1, sigma = 0.0062)")
print(f"tau = {spectral.value} (certified upper bound on the largest "
      f"Laplacian eigenvalue: max over edges of d_i + d_j)")
print(f"suggested steps: c = {steps.c:.6f}, gamma = {steps.gamma}")
print()

# --- distributed solve --------------------------------------------------------

result = dp.solve(instance, dp.SolverConfig(gamma=1.0, trace_every=200))
print(f"converged: {result.converged} after {result.iterations} rounds")
for row in result.agent_report():
    print(f"  agent {row['agent']}: theta = {row['theta'][0]: .4f}  "
          f"mu = {row['mu'][0]: .4f}  x = {row['x'][0]: .4f}")
print()

print("edge multipliers (owner -> peer):")
for (owner, peer), xi in zip(instance.graph.edges, result.xi):
    print(f"  {owner} -> {peer}: {xi[0]: .4f}")
print()

# --- compare with the centralized reference ----------------------------------

oracle = dp.centralized_oracle(instance)
print("reference optimum        x* =", np.round(oracle.x.ravel(), 4))
print("distributed solution  x_out =", np.round(result.x.ravel(), 4))
print("coupling multiplier    eta* =", round(float(oracle.eta[0]), 4))
deviation = float(np.max(np.abs(result.x - oracle.x)))
print("max primal deviation        =", deviation)

# strong duality: the dual objective at the solution negates the optimal cost
phi = result.trace.column("phi")[-1]
welfare = -dp.primal_objective(instance, oracle.x)
print(f"dual value at convergence   = {phi:.4f}")
print(f"negated primal optimum      = {welfare:+.4f} (social welfare)")
print()
# the tolerances of acceptance criteria 3 (oracle) and 2 (strong duality)
if not (result.converged and deviation <= 1e-3 and abs(phi - welfare) <= 1e-2):
    print("the solve missed the reference optimum")
    sys.exit(1)

# --- trace for plotting --------------------------------------------------------

demo_cfg = dp.SolverConfig(gamma=1.0, trace_every=10, trace_state=True, max_iter=3000)
trace_result = dp.solve(instance, demo_cfg)
trace_result.trace.write_csv("market_trace.csv")
print("wrote market_trace.csv with theta/mu/xi trajectory columns "
      "(one row every 10 rounds), ready for any plotting tool")
