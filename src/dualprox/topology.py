"""Agent-network topology: graphs, edge ordering, the consensus operator.

The communication network is an undirected graph on agents 1..N.  Edges
carry a canonical index (sorted by smaller endpoint, then larger), and the
agent with the smaller index on an edge *owns* that edge's multiplier.
The consensus operator M, :meth:`Graph.edge_diff`, maps one theta row per
agent to one row per edge, the owner's minus the peer's; the graph
Laplacian is ``M^T M``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Graph",
    "NeighborSets",
    "SpectralRadius",
    "canonical_edge_order",
    "check_connected",
    "laplacian_spectral_radius",
]

Edge = tuple[int, int]


def _edge_array(n_vertices: int, edges: Sequence[Edge]) -> np.ndarray:
    """:func:`canonical_edge_order` as an (|E|, 2) ``intp`` array."""
    if n_vertices < 1:
        raise ValueError(f"need at least one vertex, got {n_vertices}")
    pairs = np.asarray(edges)
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "biu":
        raise ValueError(
            f"edges must be pairs of integers, got an array of shape {pairs.shape} "
            f"and dtype {pairs.dtype}"
        )
    pairs = pairs.astype(np.intp, copy=False)
    lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
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
    return np.concatenate((lo[:, None], hi[:, None]), axis=1)


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
    return list(zip(*_edge_array(n_vertices, edges).T.tolist()))


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
    and engines can share one.  Construction builds every structure the
    solver reads as read-only arrays: ``edge_array``, its 0-based rows
    ``edge_owner`` and ``edge_peer``, the ``degrees`` (entry ``i - 1`` is
    vertex i's) and the adjacency lists.  Vertex i's neighbors, ascending,
    are ``nbr[nbr_start[i - 1]:nbr_start[i]]``, the larger (owned) ones from
    ``nbr_split[i - 1]`` on, and ``nbr_edge`` holds the canonical index of
    the edge to each.  The Python pairs ``edges`` and a vertex's
    :class:`NeighborSets` are built on first use.  :meth:`edge_diff` alone
    reads private, writeable copies of ``edge_owner`` and ``edge_peer``.
    """

    def __init__(self, n_vertices: int, edges: Sequence[Edge]):
        self.n_vertices = n = int(n_vertices)
        self.edge_array = pairs = _edge_array(n, edges)
        self.edge_owner, self.edge_peer = (pairs - 1).T
        # every edge's peer end, then its owner end: sorted stably by vertex, a
        # vertex's edges keep their canonical order, smaller neighbors first
        ends = pairs[:, ::-1].ravel()
        by_end = np.argsort(ends, kind="stable")
        counts = np.bincount(ends, minlength=n + 1)  # no vertex 0: counts[0] == 0
        self.degrees = counts[1:]
        self.nbr_start = np.add.accumulate(counts)
        self.nbr_split = self.nbr_start[:-1] + np.bincount(pairs[:, 1], minlength=n + 1)[1:]
        self.nbr = ends[by_end ^ 1]
        self.nbr_edge = by_end >> 1
        for a in (pairs, self.edge_owner, self.edge_peer, self.degrees, self.nbr_start,
                  self.nbr_split, self.nbr, self.nbr_edge):
            a.setflags(write=False)
        # edge_diff's own rows: ndarray.take copies an index that is not
        # C-contiguous and writeable, as the public rows are not
        self._owner, self._peer = self.edge_owner.copy(), self.edge_peer.copy()

    @property
    def n_edges(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The canonical edges as pairs of Python ints."""
        return tuple(zip(*self.edge_array.T.tolist()))

    def edge_diff(self, theta: np.ndarray) -> np.ndarray:
        """The consensus operator M: rows ``theta[..., owner_e, :] -
        theta[..., peer_e, :]``, one per canonical edge, over any leading
        axes of states.

        It takes from private, contiguous copies of ``edge_owner`` and
        ``edge_peer``, which ``take`` uses without copying them again.
        """
        return theta.take(self._owner, axis=-2) - theta.take(self._peer, axis=-2)

    def _row(self, i: int) -> tuple[int, int, int]:
        """Vertex i's ``nbr_start``, ``nbr_split`` and end in ``nbr``."""
        if not 1 <= i <= self.n_vertices:
            raise KeyError(i)
        return int(self.nbr_start[i - 1]), int(self.nbr_split[i - 1]), int(self.nbr_start[i])

    def neighbors(self, i: int) -> NeighborSets:
        """Neighbor sets of agent ``i``."""
        start, split, stop = self._row(i)
        nbrs = tuple(self.nbr[start:stop].tolist())
        return NeighborSets(all=nbrs, owned=nbrs[split - start:], incoming=nbrs[:split - start])

    def degree(self, i: int) -> int:
        start, _, stop = self._row(i)
        return stop - start

    def max_degree(self) -> int:
        return int(self.degrees.max())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n_vertices == other.n_vertices
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __repr__(self) -> str:
        return f"Graph(n_vertices={self.n_vertices}, edges={list(self.edges)})"


def check_connected(graph: Graph) -> bool:
    """True iff the graph has a single connected component.

    Hooking and pointer jumping over the edge array: each pass hangs every
    root under the smallest smaller root an edge joins it to, then jumps
    pointers until each vertex points at the smallest vertex of its tree.  A
    root that neither hangs nor gets a tree hung under it hangs in the next
    pass, so a component's trees halve in every two passes.
    """
    root = np.arange(graph.n_vertices + 1)
    lo, hi = graph.edge_array.T
    while True:
        a, b = root[lo], root[hi]
        apart = a != b
        a, b = a[apart], b[apart]
        if not len(a):
            return bool(np.count_nonzero(root == 1) == graph.n_vertices)
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        jumped = root[root]
        while np.count_nonzero(jumped != root):
            root, jumped = jumped, jumped[jumped]


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
    ends = graph.degrees[graph.edge_array - 1]
    return SpectralRadius(float(np.max(ends.sum(axis=1), initial=0)), 0)
