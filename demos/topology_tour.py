"""Graphs, edge ownership, and the consensus operator.

Edges get a canonical index (sorted by smaller endpoint, then larger) and
each edge is owned by its smaller endpoint; that convention decides which
agent stores and updates the edge multiplier.  The consensus operator maps
one coupling estimate per agent to per-edge differences, and an upper
bound on its largest Gram eigenvalue enters the step-size rule.  The demo
exits with status 1 if any check fails.

Run from the repository root:  python demos/topology_tour.py
"""

import sys

import numpy as np

from dualprox import Graph, canonical_edge_order, check_connected, laplacian_spectral_radius
from dualprox import market_graph, max_lipschitz, suggest_step_sizes, build_market

failed = []


def check(label, ok):
    print(f"{label}: {ok}")
    if not ok:
        failed.append(label)

# --- canonical ordering --------------------------------------------------------

scrambled = [(4, 5), (3, 1), (2, 1), (3, 4), (3, 2)]
print("scrambled edges:  ", scrambled)
print("canonical order:  ", canonical_edge_order(5, scrambled))
print()

# --- ownership -----------------------------------------------------------------

graph = market_graph()
print("market graph:", graph)
for i in range(1, 6):
    nbrs = graph.neighbors(i)
    print(f"  agent {i}: neighbors {list(nbrs.all)}, owns edges to {list(nbrs.owned)}, "
          f"receives multipliers from {list(nbrs.incoming)}")
print("connected:", check_connected(graph))
print()

# --- the consensus operator, matrix-free ----------------------------------------

theta = np.full((5, 1), -8.1)  # equal estimates
diff = graph.edge_diff(theta)
print("per-edge differences at consensus:", diff.ravel())
check("all zero at consensus", not diff.any())
theta[2, 0] = -7.9  # perturb agent 3's estimate
diff = graph.edge_diff(theta)
print("after perturbing agent 3:         ", diff.ravel())
agent_3_edges = [k for k, edge in enumerate(graph.edges) if 3 in edge]
check("nonzero on exactly agent 3's edges", np.flatnonzero(diff).tolist() == agent_3_edges)
print()

# --- spectral radius and the step rule -------------------------------------------

# the step rule needs tau >= the largest Laplacian eigenvalue; the
# Anderson-Morley bound max over edges (i, j) of d_i + d_j is one by
# construction, with no iteration and no random start
est = laplacian_spectral_radius(graph)
q = np.zeros((graph.n_vertices, graph.n_edges))
for k, (i, j) in enumerate(graph.edges):
    q[i - 1, k], q[j - 1, k] = 1.0, -1.0
exact = np.linalg.eigvalsh(q @ q.T)[-1]
print(f"tau = {est.value} (max d_i + d_j over edges); exact largest eigenvalue {exact:.6f}")
check("tau at least the exact eigenvalue", est.value >= exact)

instance = build_market()
h = max_lipschitz(instance)
for gamma in (0.5, 1.0, 5.0):
    steps = suggest_step_sizes(h, est.value, gamma)
    print(f"  gamma = {gamma:4.1f} -> c = {steps.c:.6f}")
print()

# --- a bigger network ------------------------------------------------------------

ring = Graph(12, [(i, i + 1) for i in range(1, 12)] + [(1, 12)])
ring_est = laplacian_spectral_radius(ring)
print(f"12-ring tau: {ring_est.value} (exact: an even ring's largest "
      f"eigenvalue is 4)")

if failed:
    sys.exit(1)
