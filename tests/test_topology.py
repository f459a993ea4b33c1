import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprox.topology import (
    Graph,
    canonical_edge_order,
    check_connected,
    laplacian_spectral_radius,
)
from dualprox.problems import build_market, market_graph
from dualprox.solver import SolverState, gap_bound_constant, lyapunov_value

from oracles import (
    apply_m_transpose,
    dense_lambda_max,
    dense_m,
    dense_q,
    eager_graph_structures,
    q_entries,
    random_connected_graph,
    reference_edge_order,
)

INTEGER_KINDS = (int, np.int64, np.int32, np.intp, np.int16)


@st.composite
def edge_lists(draw):
    """A vertex count and edge list with self-loops, out-of-range endpoints
    and duplicates in either orientation, in Python or NumPy integers."""
    n = draw(st.integers(0, 7))
    endpoint = st.integers(-1, n + 2)
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=12))
    for k in draw(st.lists(st.integers(0, 11), max_size=2)):
        if k < len(pairs):
            pairs.append(pairs[k][::-1])  # the same edge, reversed
    kinds = draw(st.lists(st.sampled_from(INTEGER_KINDS), min_size=1, max_size=3))
    return n, [
        (kinds[k % len(kinds)](i), kinds[(k + 1) % len(kinds)](j))
        for k, (i, j) in enumerate(pairs)
    ]


@st.composite
def graphs(draw):
    """A vertex count and a random subset of its pairs: connected or not."""
    n = draw(st.integers(1, 9))
    all_pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if not all_pairs:
        return n, []
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True))
    return n, [(j, i) if draw(st.booleans()) else (i, j) for i, j in chosen]


class TestCanonicalEdgeOrder:
    def test_triangle(self):
        assert canonical_edge_order(3, [(2, 3), (1, 3), (1, 2)]) == [
            (1, 2),
            (1, 3),
            (2, 3),
        ]

    def test_singleton(self):
        assert canonical_edge_order(2, [(1, 2)]) == [(1, 2)]

    def test_orientation_normalized(self):
        assert canonical_edge_order(4, [(4, 3), (2, 1)]) == [(1, 2), (3, 4)]

    def test_market_order_matches_edge_multiplier_listing(self):
        # order of the benchmark's five edge multipliers under the global
        # indexing company1=1, company2=2, users=3..5
        edges = {(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)}
        assert canonical_edge_order(5, list(edges)) == [
            (1, 2),  # company1-company2
            (1, 3),  # company1-user1
            (2, 3),  # company2-user1
            (3, 4),  # user1-user2
            (4, 5),  # user2-user3
        ]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 2\)"):
            canonical_edge_order(3, [(1, 2), (2, 2)])

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            canonical_edge_order(3, [(1, 2), (2, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            canonical_edge_order(3, [(1, 4)])

    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_matches_the_pair_by_pair_reference(self, case):
        """The same edges as Python ints, or the same error naming the same
        first offending pair."""
        n, edges = case
        try:
            want = reference_edge_order(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                canonical_edge_order(n, edges)
            assert str(got.value) == str(exc)
            return
        got = canonical_edge_order(n, edges)
        assert got == want
        assert all(type(v) is int for pair in got for v in pair)

    def test_empty_list(self):
        assert canonical_edge_order(1, []) == []
        assert Graph(3, np.empty((0, 2), dtype=int)).edges == ()

    @pytest.mark.parametrize("edges", [[(1.0, 2.0)], [(1, 2, 3)], [1, 2]])
    def test_non_integer_pairs_rejected(self, edges):
        with pytest.raises(ValueError, match="pairs of integers"):
            canonical_edge_order(3, edges)

    @pytest.mark.parametrize("n, edges", [(2.7, [(1, 2)]), ("3", [(1, 2), (2, 3)]), (3.0, [])])
    def test_non_integer_vertex_count_rejected(self, n, edges):
        with pytest.raises(ValueError, match=f"vertex count must be an integer, got {n!r}"):
            Graph(n, edges)

    def test_numpy_integer_vertex_count_accepted(self):
        graph = Graph(np.int64(3), [(1, 2), (2, 3)])
        assert type(graph.n_vertices) is int and graph == Graph(3, [(1, 2), (2, 3)])


class TestIncidence:
    def test_path_graph(self):
        graph = Graph(3, [(1, 2), (2, 3)])
        q = dense_q(graph)
        assert np.array_equal(q, np.array([[1, 0], [-1, 1], [0, -1]], dtype=float))

    def test_single_edge(self):
        assert np.array_equal(dense_q(Graph(2, [(1, 2)])), [[1.0], [-1.0]])

    def test_q_entries_match_dense(self):
        graph = Graph(4, [(1, 2), (2, 4), (1, 3)])
        q = np.zeros((4, 3))
        for vertex, edge, sign in q_entries(graph):
            q[vertex - 1, edge] = sign
        assert np.array_equal(q, dense_q(graph))

    @pytest.mark.parametrize("seed", range(5))
    def test_columns_sum_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_connected_graph(rng, int(rng.integers(2, 8)))
        assert np.all(dense_q(graph).sum(axis=0) == 0)


class TestApplyM:
    """``Graph.edge_diff`` is the consensus operator M on the coupling block,
    the first B columns of stacked (theta, mu) rows."""

    def test_consensual_duals_in_kernel(self):
        graph = market_graph()
        lam = np.hstack([np.tile([1.5, -2.0], (5, 1)), np.random.default_rng(0).normal(size=(5, 3))])
        assert np.allclose(graph.edge_diff(lam[:, :2]), 0.0)

    def test_two_agents_scalar(self):
        lam = np.array([[3.0, 9.9], [1.0, -4.2]])  # theta = (3, 1), mu arbitrary
        assert np.array_equal(Graph(2, [(1, 2)]).edge_diff(lam[:, :1]), [[2.0]])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_kronecker(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        b_dim = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        graph = random_connected_graph(rng, n)
        lam = rng.normal(size=(n, b_dim + m))
        dense = dense_m(graph, b_dim, m) @ lam.ravel()
        assert np.allclose(
            graph.edge_diff(lam[:, :b_dim]).ravel(), dense, atol=1e-12, rtol=0.0
        )
        # a leading axis of K states: each slice is that state's own edge_diff
        stacked = rng.normal(size=(3, n, b_dim))
        batched = graph.edge_diff(stacked)
        assert batched.shape == (3, graph.n_edges, b_dim)
        for theta, got in zip(stacked, batched):
            assert got.tobytes() == graph.edge_diff(theta).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_transpose_matches_dense(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        b_dim = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        graph = random_connected_graph(rng, n)
        xi = rng.normal(size=(graph.n_edges, b_dim))
        dense = dense_m(graph, b_dim, m).T @ xi.ravel()
        assert np.allclose(
            apply_m_transpose(graph, xi, m).ravel(), dense, atol=1e-12, rtol=0.0
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_gram_identity(self, seed):
        # transpose-compose-apply equals the Laplacian Kronecker form
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 6))
        graph = random_connected_graph(rng, n)
        b_dim, m = 2, 1
        lam = rng.normal(size=(n, b_dim + m))
        via_ops = apply_m_transpose(graph, graph.edge_diff(lam[:, :b_dim]), m)
        q = dense_q(graph)
        ktk = np.zeros((b_dim + m, b_dim + m))
        ktk[:b_dim, :b_dim] = np.eye(b_dim)
        dense = (np.kron(q @ q.T, ktk) @ lam.ravel()).reshape(n, b_dim + m)
        assert np.allclose(via_ops, dense, atol=1e-12, rtol=0.0)

    def test_dimension_mismatch(self):
        """The bounds reject a saddle theta with a row too many or too few,
        also where it broadcasts against a one-row start, whose first rows M
        alone would read without complaint."""
        instance = build_market()
        graph, b_dim, m = instance.graph, instance.b_dim, instance.m
        mu0, xi0 = np.zeros((5, m)), np.zeros((5, b_dim))
        for start_rows, match in ((5, None), (1, "rows")):
            theta0 = np.zeros((start_rows, b_dim))
            for rows in (6, 4):
                theta_star = np.ones((rows, b_dim))
                with pytest.raises(ValueError, match=match):
                    gap_bound_constant(graph, 0.001, 1.0, theta0, mu0, xi0, theta_star, mu0, xi0)
                with pytest.raises(ValueError, match=match):
                    lyapunov_value(graph, 0.001, 1.0, SolverState(theta0, mu0, xi0),
                                   theta_star, mu0, xi0)
        with pytest.raises(ValueError):
            apply_m_transpose(graph, np.zeros((4, 1)), 1)


class TestNeighborSets:
    def test_partition(self):
        graph = market_graph()
        for i in range(1, 6):
            nbrs = graph.neighbors(i)
            assert set(nbrs.owned) | set(nbrs.incoming) == set(nbrs.all)
            assert set(nbrs.owned) & set(nbrs.incoming) == set()

    def test_edge_ownership_unique(self):
        graph = market_graph()
        owned = [(i, j) for i in range(1, 6) for j in graph.neighbors(i).owned]
        assert sorted(owned) == sorted(graph.edges)


def large_graph(kind: str, n: int = 10_000) -> list[tuple[int, int]]:
    """Adversarial edge lists on n vertices for the array structures: a path
    whose labels run in order, in reverse or shuffled, whole or cut in two at
    its middle edge, and a star whose hub is the first or the last vertex."""
    shape, _, variant = kind.partition("-")
    if shape == "star":
        hub = 1 if variant == "first" else n
        return [(hub, k) for k in range(1, n + 1) if k != hub]
    labels = {
        "ordered": np.arange(1, n + 1),
        "reversed": np.arange(n, 0, -1),
        "shuffled": np.random.default_rng(12).permutation(n) + 1,
    }[variant.removesuffix("-cut")]
    edges = list(zip(labels[:-1].tolist(), labels[1:].tolist()))
    if variant.endswith("-cut"):
        del edges[len(edges) // 2]
    return edges


class TestLazyStructures:
    """The structures a graph builds on first use against an eager build."""

    PROBES = {
        "neighbors": lambda g: {i: g.neighbors(i) for i in range(1, g.n_vertices + 1)},
        "degree": lambda g: {i: g.degree(i) for i in range(1, g.n_vertices + 1)},
        "max_degree": lambda g: g.max_degree(),
        "connected": check_connected,
    }

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_match_an_eager_build(self, case):
        n, edges = case
        want = eager_graph_structures(n, edges)
        warm = Graph(n, edges)
        for name, probe in self.PROBES.items():
            assert probe(Graph(n, edges)) == want[name], f"{name} on a fresh graph"
            assert probe(warm) == want[name], f"{name} after the other probes"
        assert warm.degrees.tolist() == list(want["degree"].values())

    @pytest.mark.parametrize(
        "kind",
        [f"path-{labels}{cut}" for labels in ("ordered", "reversed", "shuffled")
         for cut in ("", "-cut")] + ["star-first", "star-last"],
    )
    def test_large_graphs_match_an_eager_build(self, kind):
        edges = large_graph(kind)
        want = eager_graph_structures(10_000, edges)
        graph = Graph(10_000, edges)
        for name, probe in self.PROBES.items():
            assert probe(graph) == want[name], name
        assert graph.degrees.tolist() == list(want["degree"].values())
        assert want["connected"] == (not kind.endswith("-cut"))

    @pytest.mark.parametrize("kind", INTEGER_KINDS)
    def test_numpy_integer_vertex_accepted(self, kind):
        graph = market_graph()
        assert graph.neighbors(kind(3)) == graph.neighbors(3)
        assert graph.degree(kind(3)) == graph.degree(3) == 3

    @pytest.mark.parametrize("vertex", [0, 6, -1, 2.5, "2", None])
    def test_unknown_vertex_is_a_key_error(self, vertex):
        graph = market_graph()
        for probe in (graph.neighbors, graph.degree):
            with pytest.raises(KeyError):
                probe(vertex)


class TestConnectivity:
    def test_path(self):
        assert check_connected(Graph(3, [(1, 2), (2, 3)]))

    def test_isolated(self):
        assert not check_connected(Graph(2, []))

    def test_market(self):
        assert check_connected(market_graph())


class TestSpectralRadius:
    """The Anderson-Morley bound: max over edges of d_i + d_j."""

    def test_single_edge(self):
        est = laplacian_spectral_radius(Graph(2, [(1, 2)]))
        assert est.value == 2.0
        assert est.iterations == 0

    def test_star_three_leaves(self):
        graph = Graph(4, [(1, 2), (1, 3), (1, 4)])
        expected = dense_lambda_max(graph)
        assert expected == pytest.approx(4.0, abs=1e-12)
        assert laplacian_spectral_radius(graph).value == 4.0

    def test_even_ring(self):
        ring = Graph(12, [(i, i + 1) for i in range(1, 12)] + [(1, 12)])
        assert dense_lambda_max(ring) == pytest.approx(4.0, abs=1e-12)
        assert laplacian_spectral_radius(ring).value == 4.0

    def test_market_graph(self):
        # degrees 2, 2, 3, 2, 1: the edges at agent 3 reach 2 + 3 = 5
        graph = market_graph()
        est = laplacian_spectral_radius(graph)
        assert est.value == 5.0
        assert dense_lambda_max(graph) <= est.value <= 2 * 3  # max degree is 3

    @pytest.mark.parametrize("seed", range(6))
    def test_bounded_by_twice_max_degree(self, seed):
        rng = np.random.default_rng(300 + seed)
        graph = random_connected_graph(rng, int(rng.integers(2, 10)))
        est = laplacian_spectral_radius(graph)
        assert dense_lambda_max(graph) <= est.value <= 2.0 * graph.max_degree()

    def test_no_edges(self):
        est = laplacian_spectral_radius(Graph(3, []))
        assert est.value == 0.0


class TestGraph:
    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_edge_array_is_the_read_only_edge_list(self, case):
        graph = Graph(*case)
        pairs = graph.edge_array
        assert pairs.dtype == np.intp and pairs.shape == (graph.n_edges, 2)
        assert np.array_equal(pairs, np.asarray(graph.edges).reshape(-1, 2))
        assert not pairs.flags.writeable
        assert graph.edge_array is pairs
        assert np.array_equal(graph.edge_owner, pairs[:, 0] - 1)
        assert np.array_equal(graph.edge_peer, pairs[:, 1] - 1)
        for name in ("edge_owner", "edge_peer", "degrees"):
            assert not getattr(graph, name).flags.writeable, name

    def test_equality_after_canonicalization(self):
        assert Graph(3, [(3, 1), (1, 2)]) == Graph(3, [(1, 2), (1, 3)])
