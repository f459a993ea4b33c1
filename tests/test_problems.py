from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dualprox.topology as topology
from dualprox.functions import L1, Box, CustomSmooth, NormPenalty, Quadratic, SmoothFunction, Zero
from dualprox.oracle import OracleError, centralized_oracle, primal_objective, saddle_point
from dualprox.problems import (
    AgentProblem,
    MarketParams,
    ParseError,
    ProblemInstance,
    UCParams,
    UserParams,
    _KINDS,
    build_market,
    load_instance,
    market_graph,
    save_instance,
    validate,
)
from dualprox.solver import SetupError, SolverConfig, solve
from dualprox.topology import Graph

from oracles import (
    dense_q,
    market_closed_form,
    per_agent_market,
    random_instance,
    reference_validate,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
# below 1e300, so that 2 * delta (the Hessian) does not overflow
positive = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@st.composite
def market_params(draw):
    """Market rows for 1 to 50 agents, with any finite coefficients that
    ``MarketParams`` accepts."""
    uc = draw(st.lists(st.builds(UCParams, positive, finite, finite, positive), max_size=25))
    users = draw(st.lists(st.builds(UserParams, finite, positive, positive),
                          min_size=0 if uc else 1, max_size=25))
    return MarketParams(uc=tuple(uc), users=tuple(users))


NON_FINITE = [np.nan, np.inf, -np.inf]


@st.composite
def broken_market_rows(draw):
    """Valid market rows with one to six of them broken: a field NaN or
    infinite, or ``delta``, ``pi`` or ``x_max`` zero or negative.  Returns
    the company rows, the user rows and the message that names the first
    broken one (companies are checked first)."""
    params = draw(market_params())
    uc, users = list(params.uc), list(params.users)
    first = []
    for what, rows, positive in (("generating-company", uc, ("delta", "x_max")),
                                 ("user", users, ("pi", "x_max"))):
        picks = draw(st.sets(st.integers(0, len(rows) - 1), max_size=3)) if rows else ()
        for k in sorted(picks):
            name = draw(st.sampled_from(rows[k]._fields))
            bad = NON_FINITE + ([0.0, -0.0, -1.0, -5e-324] if name in positive else [])
            rows[k] = rows[k]._replace(**{name: draw(st.sampled_from(bad))})
            first.append(f"invalid {what} row {rows[k]}")
    assume(first)
    return tuple(uc), tuple(users), first[0]


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def any_graph(draw, n: int) -> Graph:
    """A random subset of the pairs on n vertices: connected or not."""
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    return Graph(n, sorted({(min(e), max(e)) for e in pairs if e[0] != e[1]}))


class NoModulus(SmoothFunction):
    """A smooth part that declares no strong convexity modulus."""

    def __init__(self, dim: int):
        self.dim = dim


class Interval(Box):
    """A Box subclass, which the stacked view keeps on its own row."""


COEFFICIENTS = (0.0, -0.0, 1.0, -1.0, 2.5, -0.3)
BOUNDS = (-np.inf, -2.0, -0.0, 0.0, 1.5, np.inf)


@st.composite
def validated_instances(draw):
    """Agent-built instances for ``validate``: any graph, M and B in 1..3
    (both 1 in half the draws, where the coupling interval is checked),
    smooth parts with and without a modulus, quadratics with a non-finite q
    or r, all boxes or mixed kinds, zero or negative coefficients, infinite
    bounds and shares that need not sum to one."""
    n = draw(st.integers(1, 7))
    scalar = draw(st.booleans())
    m, b_dim = (1 if scalar else draw(st.integers(1, 3)) for _ in range(2))
    kinds = ["box"] if draw(st.booleans()) else ["box", "interval", "l1", "zero", "norm"]
    agents = []
    for _ in range(n):
        fkind = draw(st.sampled_from(["quadratic", "quadratic", "custom", "none", "non-finite"]))
        if fkind == "quadratic":
            f = Quadratic(np.eye(m) * draw(st.floats(0.1, 10.0)))
        elif fkind == "non-finite":
            bad = draw(st.sampled_from(NON_FINITE))
            q, r = (np.full(m, bad), 0.0) if draw(st.booleans()) else (None, bad)
            f = Quadratic(np.eye(m), q, r)
        elif fkind == "custom":
            f = CustomSmooth(lambda x: 0.0, lambda x: x, sigma=0.5, dim=m)
        else:
            f = NoModulus(m)
        gkind = draw(st.sampled_from(kinds))
        if gkind in ("box", "interval"):
            width = draw(st.sampled_from([1, m]))
            ends = np.array(draw(st.lists(st.sampled_from(BOUNDS), min_size=2 * width,
                                          max_size=2 * width))).reshape(2, width)
            g = (Box if gkind == "box" else Interval)(ends.min(axis=0), ends.max(axis=0))
        else:
            g = {"l1": L1(0.5), "zero": Zero(), "norm": NormPenalty(2)}[gkind]
        coeffs = draw(st.lists(st.sampled_from(COEFFICIENTS), min_size=b_dim * m,
                               max_size=b_dim * m))
        kappa = draw(st.sampled_from([1.0 / n, 0.0, 0.25, 1.0 / 3.0]))
        agents.append(AgentProblem(f, g, np.reshape(coeffs, (b_dim, m)), kappa))
    b = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]), min_size=b_dim,
                      max_size=b_dim))
    return ProblemInstance(agents, b, any_graph(draw, n))


def box_bounds_of_the_wrong_length() -> str:
    """A two-agent M = 2 instance file whose second box has three bounds."""
    return (
        "[dims]\nm = 2\nb_dim = 1\n[graph]\nn_vertices = 2\nedge = 1 2\n"
        "[b]\nvalues = 0.0\n"
        "[agent 1]\na_block = 1.0 1.0\nf = quadratic\nf.p = 1.0 0.0; 0.0 1.0\n"
        "f.q = 0.0 0.0\ng = box\ng.lo = -1.0\ng.hi = 1.0\n"
        "[agent 2]\na_block = 1.0 -1.0\nf = quadratic\nf.p = 1.0 0.0; 0.0 1.0\n"
        "f.q = 0.0 0.0\ng = box\ng.lo = -1.0 -1.0 -1.0\ng.hi = 1.0 1.0 1.0\n"
    )


class TestValidate:
    def test_market_passes_everything(self):
        report = validate(build_market())
        assert report.ok
        names = {c.name: c for c in report.checks}
        assert names["graph_connected"].passed
        assert names["strong_convexity"].passed
        assert names["kappa_sum"].passed
        # supply range 300 against demand range 330.49, overlapping at zero
        assert names["interior_feasibility"].passed
        assert "[-330.49" in names["interior_feasibility"].detail

    def test_disconnected_graph_fails(self):
        instance = build_market()
        broken = ProblemInstance(
            instance.agents, instance.b, Graph(5, [(1, 2), (1, 3), (2, 3)])
        )
        report = validate(broken)
        assert not report.ok
        assert any(c.name == "graph_connected" for c in report.failures())

    def test_bad_kappa_sum_fails(self):
        instance = build_market()
        agents = [
            AgentProblem(a.f, a.g, a.a_block, 0.18) for a in instance.agents
        ]
        report = validate(ProblemInstance(agents, instance.b, instance.graph))
        assert any(c.name == "kappa_sum" for c in report.failures())

    def test_slater_not_checked_for_general_shapes(self):
        instance = ProblemInstance(
            [
                AgentProblem(Quadratic(1.0), Zero(), [[1.0]], 0.5),
                AgentProblem(Quadratic(1.0), Zero(), [[-1.0]], 0.5),
            ],
            [0.0],
            Graph(2, [(1, 2)]),
        )
        report = validate(instance)
        assert report.ok
        check = {c.name: c for c in report.checks}["interior_feasibility"]
        assert check.passed is None

    def test_infeasible_interval_fails(self):
        instance = ProblemInstance(
            [
                AgentProblem(Quadratic(1.0), Box(0.0, 1.0), [[1.0]], 0.5),
                AgentProblem(Quadratic(1.0), Box(0.0, 1.0), [[1.0]], 0.5),
            ],
            [10.0],
            Graph(2, [(1, 2)]),
        )
        assert not validate(instance).ok

    @settings(max_examples=400, deadline=None)
    @given(validated_instances())
    def test_matches_the_agent_by_agent_checks(self, instance):
        got, want = validate(instance), reference_validate(instance)
        assert str(got) == str(want)
        assert got.ok == want.ok

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_market_matches_the_agent_by_agent_checks(self, data):
        """Also where caps near 1e300 make the coupling interval overflow."""
        params = data.draw(market_params())
        graph = any_graph(data.draw, len(params.uc) + len(params.users))
        got = validate(build_market(params, graph))
        want = reference_validate(per_agent_market(params, graph))
        assert str(got) == str(want)
        assert got.ok == want.ok

    @pytest.mark.parametrize("p, q, r", [(1.0, np.nan, 0.0), (1.0, -np.inf, 0.0),
                                         (1.0, 0.0, np.nan), (1.0, 0.0, np.inf),
                                         (np.inf, 0.0, 0.0)])
    def test_non_finite_smooth_part_fails_before_round_0(self, p, q, r):
        agent = AgentProblem(Quadratic(p, q, r), Box(0.0, 1.0), [[1.0]], 1.0)
        instance = ProblemInstance([agent], [0.5], Graph(1, []))
        report = validate(instance)
        assert [c.name for c in report.failures()] == ["finite_smooth_parts"]
        assert "agents [1] have a non-finite P, q or r" in str(report)
        with pytest.raises(SetupError, match="finite_smooth_parts: FAIL"):
            solve(instance, SolverConfig(max_iter=3))

    def test_non_finite_row_of_a_stacked_smooth_part_fails(self):
        # the three quadratics form one stacked group in the instance's view
        agents = [AgentProblem(Quadratic(1.0, q, r), Box(0.0, 1.0), [[a]], 1 / 3)
                  for q, r, a in [(0.0, 0.0, 1.0), (np.nan, 0.0, 1.0), (1.0, np.inf, -1.0)]]
        instance = ProblemInstance(agents, [0.5], Graph(3, [(1, 2), (2, 3)]))
        assert len(instance.stacked.f_groups) == 1
        (failure,) = validate(instance).failures()
        assert failure.detail == "agents [2, 3] have a non-finite P, q or r"


class TestInstanceConstruction:
    def test_rejects_empty_coupling(self):
        with pytest.raises(ValueError, match="coupling constraint is empty"):
            ProblemInstance(
                [AgentProblem(Quadratic(1.0), Zero(), np.zeros((0, 1)), 1.0)],
                np.zeros(0),
                Graph(1, []),
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="agent 2"):
            ProblemInstance(
                [
                    AgentProblem(Quadratic(1.0), Zero(), [[1.0]], 0.5),
                    AgentProblem(Quadratic(np.eye(2)), Zero(), [[1.0, 0.0]], 0.5),
                ],
                [0.0],
                Graph(2, [(1, 2)]),
            )

    def test_rejects_no_agents_and_blocks_with_the_wrong_row_count(self):
        with pytest.raises(ValueError, match="instance needs at least one agent"):
            ProblemInstance([], [0.0], Graph(1, []))
        agent = AgentProblem(Quadratic(1.0), Zero(), [[1.0]], 1.0)
        with pytest.raises(ValueError, match="agent 1 coupling block has 1 rows, expected 2"):
            ProblemInstance([agent], [0.0, 0.0], Graph(1, []))

    @pytest.mark.parametrize("block, message", [
        ([[1.0]], r"coupling block has 1 columns but f lives on R\^2"),
        ([1.0, 2.0, 3.0], r"coupling block has 3 columns but f lives on R\^2"),
        (np.ones((1, 2, 2)), r"coupling block must be a matrix, got shape \(1, 2, 2\)"),
    ], ids=["width", "1-D", "three-axes"])
    def test_rejects_a_coupling_block_of_the_wrong_shape(self, block, message):
        with pytest.raises(ValueError, match=message):
            AgentProblem(Quadratic(np.eye(2)), Zero(), block, 1.0)

    def test_a_1d_block_is_one_row_and_a_1x1x1_block_is_rejected(self):
        assert AgentProblem(Quadratic(np.eye(2)), Zero(), [1.0, 2.0], 1.0).a_block.shape == (1, 2)
        with pytest.raises(ValueError, match="must be a matrix"):
            AgentProblem(Quadratic(1.0), Box(0.0, 1.0), np.ones((1, 1, 1)), 0.5)

    @pytest.mark.parametrize("entries", [2, 4])
    def test_rejects_box_bounds_of_the_wrong_length(self, entries):
        with pytest.raises(ValueError, match="box bounds"):
            AgentProblem(Quadratic(np.eye(3)), Box(np.zeros(entries), np.ones(entries)),
                         np.ones((1, 3)), 1.0)

    @pytest.mark.parametrize("entries", [1, 3])
    def test_accepts_box_bounds_of_one_or_m_entries(self, entries):
        AgentProblem(Quadratic(np.eye(3)), Box(np.zeros(entries), np.ones(entries)),
                     np.ones((1, 3)), 1.0)

    def test_rejects_vertex_count_mismatch(self):
        with pytest.raises(ValueError, match="vertices"):
            ProblemInstance(
                [AgentProblem(Quadratic(1.0), Zero(), [[1.0]], 1.0)],
                [0.0],
                Graph(2, [(1, 2)]),
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coupling_blocks_and_offsets(self, value):
        with pytest.raises(ValueError, match="coupling block must be finite"):
            AgentProblem(Quadratic(np.eye(2)), Zero(), [[1.0, value]], 1.0)
        agent = AgentProblem(Quadratic(1.0), Zero(), [[1.0]], 1.0)
        with pytest.raises(ValueError, match="offset b must be finite"):
            ProblemInstance([agent], [value], Graph(1, []))

    @pytest.mark.parametrize("kappa", [-1.0, np.nan])
    def test_rejects_a_negative_or_nan_kappa(self, kappa):
        with pytest.raises(ValueError, match="kappa must be nonnegative"):
            AgentProblem(Quadratic(1.0), Zero(), 1.0, kappa)


class TestBuildMarket:
    def test_company2_row(self):
        instance = build_market()
        agent = instance.agents[1]
        assert agent.f == Quadratic(0.0074, 3.53, 0.0)
        assert agent.g == Box(0.0, 150.0)
        assert agent.a_block[0, 0] == 1.0
        assert agent.f.sigma == pytest.approx(2 * 0.0074)

    def test_user3_row(self):
        instance = build_market()
        agent = instance.agents[4]
        assert agent.f == Quadratic(0.1007, -18.42, 0.0)
        assert agent.g == Box(0.0, 91.41)
        assert agent.a_block[0, 0] == -1.0
        assert agent.f.sigma == pytest.approx(2 * 0.1007)

    def test_balance_constraint(self):
        instance = build_market()
        assert instance.b == pytest.approx(0.0)
        assert np.array_equal(
            instance.coupling_matrix(), [[1.0, 1.0, -1.0, -1.0, -1.0]]
        )
        assert np.sum(instance.kappa_vector()) == pytest.approx(1.0)

    def test_default_topology(self):
        assert build_market().graph == market_graph()

    def test_custom_size_needs_topology(self):
        params = MarketParams(
            uc=(UCParams(0.01, 1.0, 0.0, 10.0),),
            users=(UserParams(5.0, 0.1, 20.0),),
        )
        with pytest.raises(ValueError, match="topology"):
            build_market(params)
        instance = build_market(params, Graph(2, [(1, 2)]))
        assert instance.n_agents == 2
        with pytest.raises(ValueError, match="graph has 3 vertices for 2 agents"):
            build_market(params, Graph(3, [(1, 2), (2, 3)]))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MarketParams(uc=(UCParams(0.0, 1.0, 0.0, 10.0),), users=())

    @settings(max_examples=200, deadline=None)
    @given(broken_market_rows())
    def test_first_non_finite_or_non_positive_row_is_named(self, rows):
        uc, users, message = rows
        with pytest.raises(ValueError) as raised:
            MarketParams(uc=uc, users=users)
        assert str(raised.value) == message

    def test_rejects_a_nan_company_row(self):
        with pytest.raises(ValueError, match=r"invalid generating-company row UCParams\("
                                             r"delta=0.0031, varsigma=nan, beta=0.0, x_max=150.0\)"):
            MarketParams(uc=(UCParams(0.0031, np.nan, 0.0, 150.0),), users=())

    @pytest.mark.parametrize("uc, users", [
        (((0.01, 1.0, 0.0, 10.0),), ()),
        (((0.01, 1.0, 0.0, 10.0, 5.0),), ()),
        ((UserParams(5.0, 0.1, 20.0),), ()),
        ((), (UCParams(0.01, 1.0, 0.0, 10.0),)),
        ((), ((5.0, 0.1),)),
        ((), (UserParams(5.0, 0.1, 20.0), [5.0, 0.1, 20.0])),
        (((0.01, 1.0, 0.0, 10.0, 5.0), UserParams(5.0, 0.1, 20.0), (1.0,)), ()),
    ], ids=["tuple", "five-tuple", "user-as-company", "company-as-user", "pair", "list",
            "first-of-three"])
    def test_row_of_the_wrong_type_or_length_raises(self, uc, users):
        kind, first = ("UCParams", uc[0]) if uc else ("UserParams", users[-1])
        with pytest.raises(TypeError) as raised:
            MarketParams(uc=uc, users=users)
        assert str(raised.value).endswith(f"row {first!r}: not a {kind}")

    @pytest.mark.parametrize("uc, users, first", [
        ((UCParams("0.0031", 8.71, 0.0, 150.0),), (), 0),
        ((UCParams(0.0031, 8.71, 0.0, 150.0), UCParams(0.0074, 3.53, b"0", 150.0)), (), 1),
        ((), (UserParams(17.17, 0.0935, 91.79), UserParams(12.28, "nan", 147.29),
              UserParams("x", 0.1, 1.0)), 1),
    ], ids=["str", "bytes-second", "first-of-two"])
    def test_a_field_that_is_not_a_number_raises(self, uc, users, first):
        """``float`` would parse a numeric string; the row is refused instead,
        and the first such row is named."""
        what, rows = ("generating-company", uc) if uc else ("user", users)
        with pytest.raises(TypeError) as raised:
            MarketParams(uc=uc, users=users)
        assert str(raised.value) == f"invalid {what} row {rows[first]!r}: a field is not a number"

    def test_fields_of_any_real_number_type_are_read(self):
        params = MarketParams(uc=(UCParams(np.float32(0.5), 1, np.int64(0), 150.0),), users=())
        assert params.uc_table.tolist() == [[0.5, 1.0, 0.0, 150.0]]
        assert not params.uc_table.flags.writeable

    def test_rows_keep_their_record_behaviour(self):
        row = UCParams(delta=0.0031, varsigma=8.71, beta=0.0, x_max=150.0)
        user = UserParams(chi=17.17, pi=0.0935, x_max=91.79)
        assert row == UCParams(0.0031, 8.71, 0.0, 150.0)
        assert user == UserParams(17.17, 0.0935, 91.79)
        assert repr(row) == "UCParams(delta=0.0031, varsigma=8.71, beta=0.0, x_max=150.0)"
        assert repr(user) == "UserParams(chi=17.17, pi=0.0935, x_max=91.79)"
        for record, name in ((row, "delta"), (row, "other"), (user, "pi")):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(market_params())
    def test_agents_equal_their_per_agent_construction(self, params):
        n = len(params.uc) + len(params.users)
        graph = path(n)
        got, want = build_market(params, graph), per_agent_market(params, graph)
        assert got == want
        (_, f), (_, g) = got.stacked.f_groups[0], got.stacked.g_groups[0]
        (_, f_want), (_, g_want) = want.stacked.f_groups[0], want.stacked.g_groups[0]
        for name in ("p", "q", "r", "sigma", "_two_p"):
            assert getattr(f, name).tobytes() == getattr(f_want, name).tobytes()
        assert (g.lo.tobytes(), g.hi.tobytes()) == (g_want.lo.tobytes(), g_want.hi.tobytes())
        assert got.stacked.a.tobytes() == want.stacked.a.tobytes()
        assert got.stacked.kappa.tobytes() == want.stacked.kappa.tobytes()
        for a, b in zip(got.agents, want.agents, strict=True):
            assert (a.f.p.shape, a.f.q.shape, a.g.lo.shape, a.g.hi.shape) == (
                b.f.p.shape, b.f.q.shape, b.g.lo.shape, b.g.hi.shape
            )
            assert type(a.f.r) is float and type(a.f.sigma) is float
            assert a.f.sigma.hex() == b.f.sigma.hex()
            assert a.f._two_p.tobytes() == b.f._two_p.tobytes()
            assert a.a_block.tobytes() == b.a_block.tobytes() and a.a_block.shape == (1, 1)
            assert a.kappa.hex() == b.kappa.hex()

    def test_set_up_checks_the_market_once(self, monkeypatch):
        """Counts, not times: building and setting up a 2000-agent market
        takes one eigenvalue call for all its costs, no neighbor sets, no edge
        pairs and no per-agent objects; the agents are made when first read."""
        n_uc, n_users = 800, 1200
        params = MarketParams(
            uc=tuple(UCParams(0.0031 * (1 + k / n_uc), 8.71, 0.0, 150.0) for k in range(n_uc)),
            users=tuple(UserParams(17.17, 0.0935 * (1 + k / n_users), 91.79)
                        for k in range(n_users)),
        )
        graph = path(n_uc + n_users)
        calls = dict.fromkeys(
            ["eigvalsh", "NeighborSets", "AgentProblem", "rows", "stack"], 0
        )

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(
            topology, "NeighborSets", counted("NeighborSets", topology.NeighborSets)
        )
        monkeypatch.setattr(
            AgentProblem, "__init__", counted("AgentProblem", AgentProblem.__init__)
        )
        for cls in (Quadratic, Box):
            monkeypatch.setattr(cls, "rows", counted("rows", cls.rows))
            monkeypatch.setattr(cls, "stack", counted("stack", cls.stack))
        instance = build_market(params, graph)
        result = solve(instance, SolverConfig(max_iter=0))
        assert result.iterations == 0
        assert calls == {"eigvalsh": 1, "NeighborSets": 0, "AgentProblem": 0, "rows": 0,
                         "stack": 0}
        assert "edges" not in graph.__dict__  # no Python edge pairs either
        assert "_neighbor_sets" not in graph.__dict__
        assert instance.agents == per_agent_market(params, graph).agents

    def test_stationarity_at_reported_point(self):
        # reported optimum: multiplier -8.1, caps active for both companies
        instance = build_market()
        eta = -8.1
        x = np.array([0.0, 150.0, 48.5, 50.2, 51.3])
        mu_expected = np.array([-0.61, 2.34, 0.0, 0.0, 0.0])
        for i, agent in enumerate(instance.agents):
            gradf = agent.f.gradient(x[i : i + 1])[0]
            a = agent.a_block[0, 0]
            lo, hi = agent.g.lo[0], agent.g.hi[0]
            slack = gradf + a * eta
            if x[i] <= lo:  # pinned at the lower bound: slack must push up
                assert slack >= -0.05
            elif x[i] >= hi:  # pinned at the cap: slack must push down
                assert slack <= 0.05
            else:
                assert abs(slack) <= 0.05
            # the reported x (one decimal) and eta feed through slopes of
            # about 0.2 per unit, so the recomputed multiplier can be off
            # by a couple of hundredths from the reported one
            assert -slack == pytest.approx(mu_expected[i], abs=0.02)


class TestStackedDispatch:
    @pytest.mark.parametrize("cls, method", [(Quadratic, "conjugate_gradient"),
                                             (Box, "conjugate_prox")])
    def test_method_patched_on_the_class_after_the_build_runs_in_the_round(
        self, monkeypatch, cls, method
    ):
        instance = build_market()
        calls = []
        original = getattr(cls, method)

        def counted(self, *args):
            calls.append(args[-1].shape)
            return original(self, *args)

        monkeypatch.setattr(cls, method, counted)
        result = solve(instance, SolverConfig(max_iter=2))
        assert result.iterations == 2
        assert calls and all(shape[-2:] == (5, 1) for shape in calls)


class TestInstanceFiles:
    def test_market_roundtrip(self, tmp_path):
        instance = build_market()
        path = tmp_path / "market.txt"
        save_instance(instance, path)
        assert load_instance(path) == instance

    @pytest.mark.parametrize("seed", range(3))
    def test_random_roundtrip(self, tmp_path, seed):
        rng = np.random.default_rng(700 + seed)
        instance = random_instance(rng, int(rng.integers(2, 5)), m=2, b_dim=2)
        path = tmp_path / "inst.txt"
        save_instance(instance, path)
        assert load_instance(path) == instance

    def test_edges_canonicalized_on_load(self, tmp_path):
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        text = path.read_text()
        shuffled = text.replace("edge = 1 2\nedge = 1 3", "edge = 3 1\nedge = 1 2")
        path.write_text(shuffled)
        assert load_instance(path).graph == market_graph()

    def test_duplicate_edge_is_parse_error(self, tmp_path):
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        path.write_text(path.read_text().replace("edge = 1 2", "edge = 1 2\nedge = 2 1"))
        with pytest.raises(ParseError, match="duplicate"):
            load_instance(path)

    def test_no_agents_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text(
            "[dims]\nm = 1\nb_dim = 1\n[graph]\nn_vertices = 1\n[b]\nvalues = 0.0\n"
        )
        with pytest.raises(ParseError, match="agent"):
            load_instance(path)

    def test_bad_number_carries_context(self, tmp_path):
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        path.write_text(path.read_text().replace("f.q = 8.71", "f.q = eight"))
        with pytest.raises(ParseError, match="agent 1"):
            load_instance(path)

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("m = 1", "m = one", r"\[dims\] m"),
            ("b_dim = 1", "b_dim = 1.5", r"\[dims\] b_dim"),
            ("n_vertices = 5", "n_vertices = five", "line 6: n_vertices"),
            ("edge = 1 2", "edge = 1 x", "line 7: edge"),
            ("kappa = 0.2", "kappa = half", r"\[agent 1\] kappa"),
            ("f.r = 0.0", "f.r = zero", r"\[agent 1\] f.r"),
            ("[agent 5]", "[agent five]", "numbered 1..N"),
        ],
        ids=["m", "b_dim", "n_vertices", "edge", "kappa", "f.r", "section"],
    )
    def test_malformed_number_is_parse_error(self, tmp_path, old, new, where):
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ParseError, match=where):
            load_instance(path)

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("values = 0.0", "values = nan", r"\[b\] values"),
            ("a_block = 1.0", "a_block = nan", r"\[agent 1\] a_block"),
            ("a_block = 1.0", "a_block = inf", r"\[agent 1\] a_block"),
            ("kappa = 0.2", "kappa = nan", r"\[agent 1\] kappa"),
            ("f.p = 0.0031", "f.p = -inf", r"\[agent 1\] f.p"),
            ("f.q = 8.71", "f.q = nan", r"\[agent 1\] f.q"),
            ("f.r = 0.0", "f.r = inf", r"\[agent 1\] f.r"),
            ("g.lo = 0.0", "g.lo = nan", r"\[agent 1\] g.lo"),
            ("g.hi = 150.0", "g.hi = nan", r"\[agent 1\] g.hi"),
        ],
        ids=["b", "a_block-nan", "a_block-inf", "kappa", "f.p", "f.q", "f.r", "g.lo", "g.hi"],
    )
    def test_non_finite_number_is_parse_error(self, tmp_path, old, new, where):
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ParseError, match=where):
            load_instance(path)

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_l1_weight_is_parse_error(self, tmp_path, weight):
        path = tmp_path / "inst.txt"
        agent = AgentProblem(Quadratic(1.0), L1(1.0), [[1.0]], 1.0)
        save_instance(ProblemInstance([agent], [0.0], Graph(1, [])), path)
        path.write_text(path.read_text().replace("g.w = 1.0", f"g.w = {weight}"))
        with pytest.raises(ParseError, match=r"\[agent 1\] g.w"):
            load_instance(path)

    def test_infinite_box_bounds_load(self, tmp_path):
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        text = path.read_text().replace("g.lo = 0.0", "g.lo = -inf", 1)
        path.write_text(text.replace("g.hi = 150.0", "g.hi = inf", 1))
        g = load_instance(path).agents[0].g
        assert (g.lo.tolist(), g.hi.tolist()) == ([-np.inf], [np.inf])

    def test_missing_section_reported(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("[dims]\nm = 1\nb_dim = 1\n")
        with pytest.raises(ParseError, match=r"\[graph\]"):
            load_instance(path)

    def test_kappa_defaults_to_uniform(self, tmp_path):
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        stripped = "\n".join(
            line for line in path.read_text().splitlines()
            if not line.startswith("kappa")
        )
        path.write_text(stripped)
        instance = load_instance(path)
        assert np.allclose(instance.kappa_vector(), 0.2)

    def test_box_bounds_of_the_wrong_length_is_parse_error(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text(box_bounds_of_the_wrong_length())
        with pytest.raises(ParseError, match=r"\[agent 2\]: box bounds"):
            load_instance(path)

    def test_custom_function_not_serializable(self, tmp_path):
        from dualprox.functions import CustomProx

        agent = AgentProblem(
            Quadratic(1.0), CustomProx(lambda a, v: v), [[1.0]], 1.0
        )
        instance = ProblemInstance([agent, agent], [0.0], Graph(2, [(1, 2)]))
        with pytest.raises(ValueError, match="file representation"):
            save_instance(instance, tmp_path / "x.txt")

    def test_every_tag_in_the_kind_table_round_trips(self, tmp_path):
        parts = [Zero(), L1(0.3), Box([-1.0, -np.inf], [2.0, 0.5]), NormPenalty(1), NormPenalty(2)]
        agents = [
            AgentProblem(Quadratic([[2.0, 0.5], [0.5, 1.0 + k]], [0.5, -k], 0.25 * k), g,
                         [[1.0, -0.5 * k]], 0.2)
            for k, g in enumerate(parts)
        ]
        instance = ProblemInstance(agents, [0.5], Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
        path = tmp_path / "inst.txt"
        save_instance(instance, path)
        written = {line.split(" = ")[1] for line in path.read_text().splitlines()
                   if line.startswith(("f = ", "g = "))}
        assert written == {tag for kinds in _KINDS.values() for tag in kinds}
        loaded = load_instance(path)
        assert loaded == instance
        assert [type(agent.g) for agent in loaded.agents] == [type(g) for g in parts]

    def test_a_committed_mixed_file_is_written_back_byte_for_byte(self, tmp_path):
        source = Path(__file__).parent / "data" / "mixed_instance.txt"
        instance = load_instance(source)
        kinds = [type(agent.g) for agent in instance.agents]
        assert kinds == [L1, Zero, NormPenalty, NormPenalty, Box, Box]
        save_instance(instance, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == source.read_bytes()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("kappa = 0.2", "kapa = 0.9", "line 17: unknown key 'kapa' in [agent 1]"),
            ("f.r = 0.0", "f.rr = 5", "line 22: unknown key 'f.rr' in [agent 1]"),
            ("g.hi = 150.0", "g.hi = 150.0\ng.w = 0.3", "line 26: unknown key 'g.w' in [agent 1]"),
            ("b_dim = 1", "b_dim = 1\nn = 3", "line 4: unknown key 'n' in [dims]"),
            ("values = 0.0", "values = 0.0\nvalue = 1.0", "line 15: unknown key 'value' in [b]"),
            ("n_vertices = 5", "n_vertices = 5\nn_vertices = 6",
             "line 7: duplicate key 'n_vertices' in [graph]"),
            ("b_dim = 1", "b_dim = 1\nm = 1", "line 4: duplicate key 'm' in [dims]"),
            ("values = 0.0", "values = 0.0\nvalues = 1.0", "line 15: duplicate key 'values' in [b]"),
            ("kappa = 0.2", "kappa = 0.2\nkappa = 0.3",
             "line 18: duplicate key 'kappa' in [agent 1]"),
            ("n_vertices = 5", "n_vertices = 5\nedges = 1 2", "line 7: unknown graph key 'edges'"),
        ],
        ids=["kappa", "f.r", "key-of-another-kind", "dims", "b", "duplicate-n_vertices",
             "duplicate-dims", "duplicate-b", "duplicate-agent", "graph"],
    )
    def test_unknown_or_repeated_key_is_parse_error(self, tmp_path, old, new, message):
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ParseError) as caught:
            load_instance(path)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("a_block = 1.0", "a_block = 1.0 2.0; 3.0",
             "[agent 1] a_block: ragged matrix rows in '1.0 2.0; 3.0'"),
            ("[dims]", "m = 1\n[dims]", "line 1: entry before any [section]"),
            ("m = 1\n", "", "[dims]: missing required key 'm'"),
            ("f.p = 0.0031\n", "", "[agent 1]: missing required key 'f.p'"),
            ("edge = 1 2", "edge = 1 2 3", "line 7: edge needs two endpoints, got '1 2 3'"),
            ("n_vertices = 5\n", "", "[graph]: missing n_vertices"),
            ("values = 0.0", "values = 0.0 1.0", "[b]: got 2 values, expected b_dim = 1"),
            ("f = quadratic", "f = cubic", "[agent 1]: unknown smooth kind 'cubic'"),
            ("g = box", "g = ball", "[agent 1]: unknown nonsmooth kind 'ball'"),
            ("m = 1", "m = 2", "[agent 1]: dimension 1 != dims m = 2"),
            ("a_block = 1.0", "a_block = 1.0; 2.0", "[agent 1]: a_block rows 2 != dims b_dim = 1"),
            ("n_vertices = 5", "n_vertices = 6", "graph has 6 vertices for 5 agents"),
        ],
        ids=["ragged", "before-section", "no-m", "no-f.p", "edge", "no-n_vertices", "b-count",
             "f-kind", "g-kind", "agent-m", "agent-b_dim", "vertex-count"],
    )
    def test_inconsistent_file_is_parse_error(self, tmp_path, old, new, message):
        """Every other way the market's file can break, with its message."""
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ParseError) as caught:
            load_instance(path)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "section, line", [("agnet 1", "kappa = 0.9"), ("dim", "m = 7")], ids=["agnet", "dim"]
    )
    def test_unknown_section_is_parse_error(self, tmp_path, section, line):
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, f"[{section}]", line]) + "\n")
        with pytest.raises(ParseError) as caught:
            load_instance(path)
        assert str(caught.value) == f"line {len(lines) + 1}: unknown section [{section}]"

    @pytest.mark.parametrize(
        "section, line", [("agent 1", "kappa = 0.9"), ("dims", "")], ids=["agent", "dims"]
    )
    def test_repeated_section_is_parse_error(self, tmp_path, section, line):
        """A second header of a section is an error at its line, also when
        its entries would not clash with the first block's: here agent 1's
        kappa moves to a second ``[agent 1]`` block, or ``[dims]`` repeats
        with no entries."""
        path = tmp_path / "inst.txt"
        save_instance(build_market(), path)
        lines = path.read_text().splitlines()
        lines.remove("kappa = 0.2")  # agent 1's
        path.write_text("\n".join([*lines, f"[{section}]", line]) + "\n")
        with pytest.raises(ParseError) as caught:
            load_instance(path)
        assert str(caught.value) == f"line {len(lines) + 1}: duplicate section [{section}]"

    def test_bad_norm_order_names_its_key(self, tmp_path):
        path = tmp_path / "inst.txt"
        agent = AgentProblem(Quadratic(1.0), NormPenalty(1), [[1.0]], 1.0)
        save_instance(ProblemInstance([agent], [0.0], Graph(1, [])), path)
        path.write_text(path.read_text().replace("g.e = 1", "g.e = 1.5"))
        with pytest.raises(ParseError) as caught:
            load_instance(path)
        assert str(caught.value) == "[agent 1] g.e: bad number '1.5'"


class TestCentralizedOracle:
    def test_market_matches_hand_derivation(self):
        instance = build_market()
        result = centralized_oracle(instance)
        x_star, eta_star, mu_star = market_closed_form()
        assert np.allclose(result.x.ravel(), x_star, atol=1e-6)
        assert result.eta[0] == pytest.approx(eta_star, abs=1e-6)
        assert np.allclose(result.mu.ravel(), mu_star, atol=1e-6)
        # rounded values as reported for the benchmark
        assert np.allclose(result.x.ravel(), [0.0, 150.0, 48.5, 50.2, 51.3], atol=0.15)
        assert result.kkt_residual <= 1e-8

    def test_two_agent_closed_form(self):
        # min (x1^2 + 2 x1) + (2 x2^2 - 4 x2) s.t. x1 = x2  ==> x = 1/3
        instance = ProblemInstance(
            [
                AgentProblem(Quadratic(1.0, 2.0), Zero(), [[1.0]], 0.5),
                AgentProblem(Quadratic(2.0, -4.0), Zero(), [[-1.0]], 0.5),
            ],
            [0.0],
            Graph(2, [(1, 2)]),
        )
        result = centralized_oracle(instance)
        assert np.allclose(result.x.ravel(), [1.0 / 3.0, 1.0 / 3.0], atol=1e-9)
        assert result.eta[0] == pytest.approx(-8.0 / 3.0, abs=1e-8)

    @pytest.mark.parametrize("seed", [8, 9, 505])
    def test_the_benchmark_vector_instances_are_solved(self, seed):
        """The benchmark's vector instances have x up to 100 under
        curvatures near 0.04.  Started from x = 0 with unit slacks and
        multipliers, the iteration drove the duality gap up to 1e10 and
        ended at a point with every variable at a bound on about one seed
        in ten, these three among them; the designed optimum is known."""
        from test_properties import load_bench_inputs

        v = load_bench_inputs().vector_instance(seed)
        agents = [
            AgentProblem(Quadratic(v.p[k], v.q[k]), Box([0.0, 0.0], v.hi[k]), v.a[k], 1.0 / v.n_agents)
            for k in range(v.n_agents)
        ]
        result = centralized_oracle(ProblemInstance(agents, v.b, Graph(v.n_agents, v.edges)))
        assert result.kkt_residual <= 1e-10
        assert np.abs(result.x - v.x_star).max() <= 1e-6

    def test_infeasible_instance_raises(self):
        instance = ProblemInstance(
            [
                AgentProblem(Quadratic(1.0), Box(0.0, 1.0), [[1.0]], 0.5),
                AgentProblem(Quadratic(1.0), Box(0.0, 1.0), [[1.0]], 0.5),
            ],
            [10.0],
            Graph(2, [(1, 2)]),
        )
        with pytest.raises(OracleError):
            centralized_oracle(instance)
        # iteration ends once the complementarity vanishes, before the
        # slacks can underflow (a RuntimeWarning is an error here)
        with pytest.raises(OracleError):
            centralized_oracle(instance, max_iter=10**6)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_satisfy_kkt(self, seed):
        rng = np.random.default_rng(800 + seed)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        b_dim = int(rng.integers(1, 4))
        instance = random_instance(rng, n, m=m, b_dim=b_dim)
        result = centralized_oracle(instance, tol=1e-9)
        # independent recheck of feasibility and box stationarity
        feas = sum(
            a.a_block @ result.x[i] for i, a in enumerate(instance.agents)
        ) - instance.b
        assert np.linalg.norm(feas) <= 1e-6
        for i, agent in enumerate(instance.agents):
            grad = agent.f.gradient(result.x[i]) + agent.a_block.T @ result.eta
            proj = np.clip(result.x[i] - grad, agent.g.lo, agent.g.hi)
            assert np.max(np.abs(result.x[i] - proj)) <= 1e-6

    def test_square_coupling_with_an_ill_conditioned_dual(self):
        # a draw of the scheme above with N = 3, M = 1, B = 3: the coupling
        # alone fixes x, and A H^-1 A' has condition number about 1e6, so
        # gradient ascent on the multiplier is too slow to reach 1e-10
        rng = np.random.default_rng(602)
        dims = [int(rng.integers(2, 9)), int(rng.integers(1, 4)), int(rng.integers(1, 4))]
        assert dims == [3, 1, 3]
        result = centralized_oracle(random_instance(rng, *dims))
        assert result.kkt_residual <= 1e-10

    def test_more_coupling_rows_than_columns_gives_the_minimum_norm_multiplier(self):
        # three rows on two scalar agents: x is fixed by the coupling alone,
        # and the multiplier is unique only up to the null space of A'
        a = np.array([[1.0, -1.0], [2.0, 1.0], [3.0, 0.5]])
        instance = ProblemInstance(
            [
                AgentProblem(Quadratic(1.0, 2.0), Box(-5.0, 5.0), a[:, :1], 0.5),
                AgentProblem(Quadratic(2.0, -4.0), Box(-5.0, 5.0), a[:, 1:], 0.5),
            ],
            a @ [2.0, 1.0],
            Graph(2, [(1, 2)]),
        )
        result = centralized_oracle(instance)
        assert np.allclose(result.x.ravel(), [2.0, 1.0], atol=1e-12)
        grad = np.array([2.0 * 2.0 + 2.0, 4.0 * 1.0 - 4.0])
        assert np.allclose(result.eta, -np.linalg.pinv(a.T) @ grad, atol=1e-12)
        assert result.kkt_residual <= 1e-10

    def test_one_entry_box_bounds_apply_to_every_entry(self):
        p = np.array([[2.0, 0.3], [0.3, 1.0]])

        def solve_with(box):
            return centralized_oracle(
                ProblemInstance(
                    [
                        AgentProblem(Quadratic(p, [-10.0, 4.0]), box, [[1.0, 1.0]], 0.5),
                        AgentProblem(Quadratic(p, [1.0, 1.0]), Zero(), [[1.0, -1.0]], 0.5),
                    ],
                    [1.0],
                    Graph(2, [(1, 2)]),
                )
            )

        short = solve_with(Box([0.0], [1.0]))
        full = solve_with(Box([0.0, 0.0], [1.0, 1.0]))
        # both entries of agent 1 end on a bound: x = 1 at the top, 0 at the bottom
        assert np.allclose(short.x[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(short.x, full.x, atol=1e-12)
        assert np.allclose(short.eta, full.eta, atol=1e-12)

    def test_half_bounded_boxes(self):
        # x1 >= 0 stays slack and x2 <= 2.5 binds: x = (0.5, 2.5), and
        # stationarity gives eta = -(2 * 0.5 + 20) and mu_2 = -(4 * 2.5 - 4 + eta)
        instance = ProblemInstance(
            [
                AgentProblem(Quadratic(1.0, 20.0), Box(0.0, np.inf), [[1.0]], 0.5),
                AgentProblem(Quadratic(2.0, -4.0), Box(-np.inf, 2.5), [[1.0]], 0.5),
            ],
            [3.0],
            Graph(2, [(1, 2)]),
        )
        result = centralized_oracle(instance)
        assert np.allclose(result.x.ravel(), [0.5, 2.5], atol=1e-12)
        assert result.eta[0] == pytest.approx(-21.0, abs=1e-12)
        assert np.allclose(result.mu.ravel(), [0.0, 15.0], atol=1e-12)

    def test_rejects_unsupported_kinds(self):
        from dualprox.functions import L1

        instance = ProblemInstance(
            [
                AgentProblem(Quadratic(1.0), L1(1.0), [[1.0]], 0.5),
                AgentProblem(Quadratic(1.0), Zero(), [[-1.0]], 0.5),
            ],
            [0.0],
            Graph(2, [(1, 2)]),
        )
        with pytest.raises(OracleError, match="box or zero"):
            centralized_oracle(instance)

    def test_rejects_a_smooth_part_that_is_not_quadratic(self):
        custom = CustomSmooth(lambda u: float(u @ u), lambda u: 2.0 * u, sigma=2.0, dim=1)
        instance = ProblemInstance(
            [
                AgentProblem(Quadratic(1.0), Box(0.0, 1.0), [[1.0]], 0.5),
                AgentProblem(custom, Box(0.0, 1.0), [[-1.0]], 0.5),
            ],
            [0.0],
            Graph(2, [(1, 2)]),
        )
        with pytest.raises(OracleError, match="agent 2: the reference solver handles quadratic"):
            centralized_oracle(instance)


class TestSaddlePoint:
    def test_market_saddle_closes_incidence_system(self):
        instance = build_market()
        result = centralized_oracle(instance)
        theta, mu, xi = saddle_point(instance, result)
        assert np.allclose(theta, result.eta[0])
        q = dense_q(instance.graph)
        d = np.vstack(
            [
                instance.agents[i].a_block @ result.x[i]
                - instance.agents[i].kappa * instance.b
                for i in range(5)
            ]
        )
        assert np.allclose(q @ xi, d, atol=1e-9)

    def test_primal_objective_includes_nonsmooth(self):
        from dualprox.functions import L1

        instance = ProblemInstance(
            [
                AgentProblem(Quadratic(1.0), L1(2.0), [[1.0]], 0.5),
                AgentProblem(Quadratic(1.0), Zero(), [[-1.0]], 0.5),
            ],
            [0.0],
            Graph(2, [(1, 2)]),
        )
        x = np.array([[1.5], [-2.0]])
        expected = (1.5**2 + 2.0 * 1.5) + ((-2.0) ** 2)
        assert primal_objective(instance, x) == pytest.approx(expected)
