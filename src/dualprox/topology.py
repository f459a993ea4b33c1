"""Agent-network topology: graphs, edge ordering, incidence structure.

The communication network is an undirected graph on agents 1..N.  Edges
carry a canonical index (sorted by smaller endpoint, then larger), and the
agent with the smaller index on an edge *owns* that edge's multiplier.
The incidence structure provides matrix-free application of the consensus
operator that maps stacked dual vectors to per-edge differences of their
coupling blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Graph",
    "IncidenceOperator",
    "NeighborSets",
    "SpectralRadius",
    "canonical_edge_order",
    "check_connected",
    "laplacian_spectral_radius",
]

Edge = tuple[int, int]


def canonical_edge_order(n_vertices: int, edges: Sequence[Edge]) -> list[Edge]:
    """Normalize and sort an edge list into its canonical order.

    Each pair is stored as (smaller, larger) and the list is sorted by the
    smaller endpoint, ties broken by the larger endpoint.

    Parameters
    ----------
    n_vertices : int
        Number of vertices; endpoints must lie in 1..n_vertices.
    edges : sequence of (int, int)
        Unordered vertex pairs, in any order and orientation.

    Returns
    -------
    list of (int, int)
        Canonically ordered edges with i < j in every pair.

    Raises
    ------
    ValueError
        On a self-loop, an out-of-range endpoint, or a duplicate edge
        (in either orientation); the offending pair is named.
    """
    if n_vertices < 1:
        raise ValueError(f"need at least one vertex, got {n_vertices}")
    normalized = []
    seen = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) is not allowed")
        if not (1 <= i <= n_vertices and 1 <= j <= n_vertices):
            raise ValueError(
                f"edge ({i}, {j}) has endpoints outside 1..{n_vertices}"
            )
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add(pair)
        normalized.append(pair)
    return sorted(normalized)


@dataclass(frozen=True)
class NeighborSets:
    """Neighborhood of one agent, split by edge ownership.

    ``owned`` holds neighbors with a larger index (this agent stores and
    updates the multiplier of the shared edge); ``incoming`` holds neighbors
    with a smaller index (the peer owns the edge).  ``all`` is their
    disjoint union.
    """

    all: tuple[int, ...]
    owned: tuple[int, ...]
    incoming: tuple[int, ...]


class Graph:
    """Undirected, connected-checkable agent network.

    Vertices are 1-indexed.  The edge list is canonicalized at
    construction; a graph is immutable afterwards, so problem instances
    and engines can share one.
    """

    def __init__(self, n_vertices: int, edges: Sequence[Edge]):
        self.n_vertices = int(n_vertices)
        self.edges: tuple[Edge, ...] = tuple(
            canonical_edge_order(self.n_vertices, edges)
        )
        self.edge_index: dict[Edge, int] = {e: k for k, e in enumerate(self.edges)}
        nbrs: dict[int, set[int]] = {i: set() for i in range(1, self.n_vertices + 1)}
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        self._neighbor_sets = {
            i: NeighborSets(
                all=tuple(sorted(s)),
                owned=tuple(sorted(j for j in s if j > i)),
                incoming=tuple(sorted(j for j in s if j < i)),
            )
            for i, s in nbrs.items()
        }

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, i: int) -> NeighborSets:
        """Neighbor sets of agent ``i``."""
        return self._neighbor_sets[i]

    def degree(self, i: int) -> int:
        return len(self._neighbor_sets[i].all)

    def max_degree(self) -> int:
        return max(self.degree(i) for i in range(1, self.n_vertices + 1))

    def owned_edges(self, i: int) -> list[tuple[int, int]]:
        """Edge indices and peers for edges owned by agent ``i``.

        Returns a list of (edge_index, peer) pairs, peers sorted ascending.
        """
        return [(self.edge_index[(i, j)], j) for j in self._neighbor_sets[i].owned]

    def incidence(self, b_dim: int) -> "IncidenceOperator":
        return IncidenceOperator(self, b_dim)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n_vertices == other.n_vertices
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"Graph(n_vertices={self.n_vertices}, edges={list(self.edges)})"


def check_connected(graph: Graph) -> bool:
    """True iff the graph has a single connected component."""
    if graph.n_vertices == 0:
        return False
    seen = {1}
    stack = [1]
    while stack:
        i = stack.pop()
        for j in graph.neighbors(i).all:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == graph.n_vertices


class IncidenceOperator:
    """Matrix-free consensus operator over a graph.

    The operator stacks, for each edge (i, j) with i < j, the difference of
    the endpoints' coupling blocks (the first ``b_dim`` components of each
    agent's dual vector).  Its transpose scatters per-edge vectors back
    onto the coupling blocks with signs +1 at the smaller endpoint and -1
    at the larger one.  The dense matrix is never formed here; tests build
    it independently via a Kronecker product.
    """

    def __init__(self, graph: Graph, b_dim: int):
        if b_dim < 1:
            raise ValueError(f"coupling block must have positive size, got {b_dim}")
        self.graph = graph
        self.b_dim = int(b_dim)
        edges = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2)
        # 0-based endpoint rows per canonical edge; column k has +1 at
        # q_rows_pos[k], -1 at q_rows_neg[k]
        self.q_rows_pos = edges[:, 0] - 1
        self.q_rows_neg = edges[:, 1] - 1

    @property
    def q_entries(self) -> list[tuple[int, int, int]]:
        """Signed incidence entries as (vertex, edge_index, sign) triples."""
        out = []
        for k in range(self.graph.n_edges):
            out.append((int(self.q_rows_pos[k]) + 1, k, +1))
            out.append((int(self.q_rows_neg[k]) + 1, k, -1))
        return out

    def apply_m(self, lam: np.ndarray) -> np.ndarray:
        """Per-edge differences of the coupling blocks of stacked duals.

        ``lam`` is an (N, B + M) array, one row per agent, whose first B
        columns are the coupling block.  Returns an (|E|, B) array whose
        row for edge (i, j), i < j, equals row_i[:B] - row_j[:B].
        """
        lam = np.asarray(lam, dtype=float)
        if lam.ndim != 2 or lam.shape[0] != self.graph.n_vertices:
            raise ValueError(
                f"expected ({self.graph.n_vertices}, >= {self.b_dim}) stacked duals, "
                f"got shape {lam.shape}"
            )
        if lam.shape[1] < self.b_dim:
            raise ValueError(
                f"dual rows have {lam.shape[1]} columns < coupling size {self.b_dim}"
            )
        theta = lam[:, : self.b_dim]
        return theta[self.q_rows_pos] - theta[self.q_rows_neg]

    def apply_m_transpose(self, xi: np.ndarray, m_dim: int) -> np.ndarray:
        """Scatter per-edge vectors onto stacked dual space.

        ``xi`` is an (|E|, B) array.  Returns an (N, B + m_dim) array whose
        coupling block accumulates +xi_k at the smaller endpoint of edge k
        and -xi_k at the larger; the remaining ``m_dim`` columns are zero.
        """
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.graph.n_edges, self.b_dim):
            raise ValueError(
                f"expected ({self.graph.n_edges}, {self.b_dim}) edge vectors, "
                f"got shape {xi.shape}"
            )
        out = np.zeros((self.graph.n_vertices, self.b_dim + m_dim))
        np.add.at(out[:, : self.b_dim], self.q_rows_pos, xi)
        np.subtract.at(out[:, : self.b_dim], self.q_rows_neg, xi)
        return out


class SpectralRadius(NamedTuple):
    """Certified upper bound on the largest Laplacian eigenvalue.

    ``iterations`` is always 0: the bound is in closed form.
    """

    value: float
    iterations: int


def laplacian_spectral_radius(graph: Graph) -> SpectralRadius:
    """Anderson-Morley upper bound on the largest Laplacian eigenvalue.

    The largest eigenvalue of the Laplacian, which is also that of the
    consensus operator's Gram matrix and enters the step-size rule, is at
    most the largest ``d_i + d_j`` over the edges (i, j), with ``d`` the
    vertex degrees (Anderson & Morley, Lin. Multilin. Alg. 1985).  The bound
    is never below the eigenvalue, so a step accepted against it is accepted
    against the eigenvalue too.  It is exact on a single edge, a star and an
    even ring, and at most ``2 * max degree``.  An edgeless graph gives 0.0.
    """
    edges = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2) - 1
    degree = np.bincount(edges.ravel(), minlength=graph.n_vertices)
    return SpectralRadius(float(np.max(degree[edges].sum(axis=1), initial=0)), 0)
