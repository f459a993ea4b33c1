"""Agent-network topology: graphs, edge ordering, incidence structure.

The communication network is an undirected graph on agents 1..N.  Edges
carry a canonical index (sorted by smaller endpoint, then larger), and the
agent with the smaller index on an edge *owns* that edge's multiplier.
The incidence structure provides matrix-free application of the consensus
operator that maps stacked dual vectors to per-edge differences of their
coupling blocks.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
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
    smaller endpoint, ties broken by the larger endpoint.  The checks and
    the sort run on arrays; the first offending pair in input order is
    reported.

    Parameters
    ----------
    n_vertices : int
        Number of vertices; endpoints must lie in 1..n_vertices.
    edges : sequence of (int, int)
        Unordered vertex pairs of Python or NumPy integers, in any order
        and orientation.

    Returns
    -------
    list of (int, int)
        Canonically ordered edges of Python ints with i < j in every pair.

    Raises
    ------
    ValueError
        On endpoints that are not integer pairs, and on a self-loop, an
        out-of-range endpoint, or a duplicate edge (in either orientation);
        the offending pair is named.
    """
    if n_vertices < 1:
        raise ValueError(f"need at least one vertex, got {n_vertices}")
    pairs = np.asarray(edges)
    if pairs.size == 0:
        return []
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "biu":
        raise ValueError(
            f"edges must be pairs of integers, got an array of shape {pairs.shape} "
            f"and dtype {pairs.dtype}"
        )
    pairs = pairs.astype(np.int64, copy=False)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    self_loop = lo == hi
    outside = (lo < 1) | (hi > n_vertices)
    order = np.lexsort((hi, lo))  # stable: repeats follow their first occurrence
    lo, hi = lo[order], hi[order]
    repeat = np.zeros(len(pairs), dtype=bool)
    repeat[order[1:]] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    bad = self_loop | outside | repeat
    if bad.any():
        k = int(np.argmax(bad))
        i, j = edges[k]
        if self_loop[k]:
            raise ValueError(f"self-loop ({i}, {j}) is not allowed")
        if outside[k]:
            raise ValueError(f"edge ({i}, {j}) has endpoints outside 1..{n_vertices}")
        raise ValueError(f"duplicate edge ({i}, {j})")
    return list(zip(lo.tolist(), hi.tolist()))


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
    and engines can share one.  Construction only checks and sorts the
    edges: the edge array, the edge index and the adjacency lists are built
    on first use, and a vertex's :class:`NeighborSets` on each call of
    :meth:`neighbors`.  The batched solver reads only ``edge_array`` (and
    :func:`check_connected` the adjacency lists), so it builds no edge
    index and no neighbor sets.
    """

    def __init__(self, n_vertices: int, edges: Sequence[Edge]):
        self.n_vertices = int(n_vertices)
        self.edges: tuple[Edge, ...] = tuple(
            canonical_edge_order(self.n_vertices, edges)
        )

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The canonical edges as one read-only (|E|, 2) ``intp`` array."""
        pairs = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Canonical index of each edge (i, j), i < j."""
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def _adjacency(self) -> tuple[list[int], list[int]]:
        """Flat adjacency lists ``(start, flat)``: vertex i's neighbors, in
        ascending order, are ``flat[start[i - 1]:start[i]]``."""
        pairs = self.edge_array
        ends = pairs.T.ravel()
        others = pairs[:, ::-1].T.ravel()
        order = np.lexsort((others, ends))
        start = np.searchsorted(ends[order], np.arange(1, self.n_vertices + 2))
        return start.tolist(), others[order].tolist()

    def _neighbor_list(self, i: int) -> list[int]:
        if not 1 <= i <= self.n_vertices:
            raise KeyError(i)
        start, flat = self._adjacency
        return flat[start[i - 1]:start[i]]

    def neighbors(self, i: int) -> NeighborSets:
        """Neighbor sets of agent ``i``."""
        nbrs = self._neighbor_list(i)
        split = bisect.bisect(nbrs, i)
        return NeighborSets(
            all=tuple(nbrs), owned=tuple(nbrs[split:]), incoming=tuple(nbrs[:split])
        )

    def degree(self, i: int) -> int:
        return len(self._neighbor_list(i))

    def max_degree(self) -> int:
        start = self._adjacency[0]
        return max(b - a for a, b in zip(start, start[1:]))

    def owned_edges(self, i: int) -> list[tuple[int, int]]:
        """Edge indices and peers for edges owned by agent ``i``.

        Returns a list of (edge_index, peer) pairs, peers sorted ascending.
        """
        return [(self.edge_index[(i, j)], j) for j in self.neighbors(i).owned]

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
    """True iff the graph has a single connected component.

    A depth-first walk over the graph's flat adjacency lists.
    """
    if graph.n_vertices == 0:
        return False
    start, flat = graph._adjacency
    seen = [False] * (graph.n_vertices + 1)
    seen[1] = True
    reached = 1
    stack = [1]
    while stack:
        i = stack.pop()
        for j in flat[start[i - 1]:start[i]]:
            if not seen[j]:
                seen[j] = True
                reached += 1
                stack.append(j)
    return reached == graph.n_vertices


class IncidenceOperator:
    """Matrix-free consensus operator over a graph.

    The operator stacks, for each edge (i, j) with i < j, the difference of
    the endpoints' coupling blocks (the first ``b_dim`` components of each
    agent's dual vector).  The dense matrix is never formed here; tests
    build it independently via a Kronecker product.
    """

    def __init__(self, graph: Graph, b_dim: int):
        if b_dim < 1:
            raise ValueError(f"coupling block must have positive size, got {b_dim}")
        self.graph = graph
        self.b_dim = int(b_dim)
        edges = graph.edge_array
        # 0-based endpoint rows per canonical edge; column k has +1 at
        # q_rows_pos[k], -1 at q_rows_neg[k]
        self.q_rows_pos = edges[:, 0] - 1
        self.q_rows_neg = edges[:, 1] - 1

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
    edges = graph.edge_array - 1
    degree = np.bincount(edges.ravel(), minlength=graph.n_vertices)
    return SpectralRadius(float(np.max(degree[edges].sum(axis=1), initial=0)), 0)
