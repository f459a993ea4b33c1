"""Problem instances: agent costs, coupling constraint, validation, file I/O.

An instance couples N agents through one affine equality constraint
``A x = b`` (A split into per-agent column blocks) over a communication
graph; its stacked view makes every catalog call across agents.  This
module also ships the five-agent electricity-market benchmark
(two generating companies minimizing quadratic cost, three users
maximizing quadratic-branch utility, supply equal to demand) and a plain
text file format for instances.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .functions import (
    Box,
    ConjugateUnavailable,
    L1,
    NonsmoothFunction,
    NormPenalty,
    Quadratic,
    SmoothFunction,
    Zero,
)
from .topology import Graph, check_connected

__all__ = [
    "AgentProblem",
    "MarketParams",
    "ProblemInstance",
    "StackedAgents",
    "UCParams",
    "UserParams",
    "ValidationCheck",
    "ValidationReport",
    "build_market",
    "load_instance",
    "market_graph",
    "save_instance",
    "validate",
]


class AgentProblem:
    """One agent's private data: costs, feasible set, coupling block.

    ``f`` is the smooth strongly convex part, ``g`` bundles the nonsmooth
    penalty with the feasible-set indicator, ``a_block`` is this agent's
    (B, M) column block of the coupling matrix, and ``kappa`` is the
    agent's share of the constraint offset term (shares sum to one across
    the network).
    """

    def __init__(
        self,
        f: SmoothFunction,
        g: NonsmoothFunction,
        a_block,
        kappa: float,
    ):
        self.f = f
        self.g = g
        a = np.asarray(a_block, dtype=float)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        elif a.ndim == 1:
            a = a.reshape(1, -1)
        elif a.ndim > 2:
            raise ValueError(f"coupling block must be a matrix, got shape {a.shape}")
        if a.shape[1] != f.dim:
            raise ValueError(
                f"coupling block has {a.shape[1]} columns but f lives on R^{f.dim}"
            )
        if not np.isfinite(a).all():
            raise ValueError(f"coupling block must be finite, got {a.tolist()}")
        self.a_block = a
        if isinstance(g, Box) and (g.lo.ndim != 1 or g.lo.size not in (1, f.dim)):
            raise ValueError(
                f"box bounds have shape {g.lo.shape}, expected 1 or {f.dim} entries"
            )
        if not kappa >= 0:  # NaN too
            raise ValueError(f"kappa must be nonnegative, got {kappa}")
        self.kappa = float(kappa)

    @property
    def m(self) -> int:
        return self.f.dim

    @property
    def b_dim(self) -> int:
        return self.a_block.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AgentProblem)
            and self.f == other.f
            and self.g == other.g
            and np.array_equal(self.a_block, other.a_block)
            and self.kappa == other.kappa
        )

    def __repr__(self) -> str:
        return (
            f"AgentProblem(f={self.f!r}, g={self.g!r}, "
            f"a_block={self.a_block.tolist()}, kappa={self.kappa})"
        )


def _groups(parts: list, kind: type) -> list[tuple]:
    """``(rows, function)`` pairs covering ``parts``: every part that is
    exactly ``kind`` in one stacked function, and any other part on its own
    row.  The stacked group's rows are an index array, or ``slice(None)``
    when it covers every part, so that indexing by them copies nothing."""
    exact = [type(part) is kind for part in parts]
    members = [part for part, is_kind in zip(parts, exact) if is_kind]
    rows = slice(None) if all(exact) else np.flatnonzero(exact)
    stacked = [(rows, kind.stack(members))] if members else []
    return stacked + [(i, part) for i, part in enumerate(parts) if not exact[i]]


class StackedAgents:
    """An instance's agents as stacked arrays and groups of catalog functions.

    ``a`` holds the (N, B, M) coupling blocks and ``kappa`` the (N,) shares.
    ``f_groups`` and ``g_groups`` are ``(rows, function)`` pairs that cover
    the smooth and the nonsmooth parts: the parts that are exactly
    :class:`Quadratic` (or :class:`Box`) form one stacked function, indexed
    by an array of agent rows or by ``slice(None)`` when it covers every
    agent, and any other part sits on its own integer row.

    No code outside this module reads the groups.  The view's catalog calls
    take (N, M) points, or (..., N, M) with leading batch axes, and give
    agent i's own function's result at ``[..., i, :]``, bit for bit.  When
    one group covers every agent, each call is that function's own public
    method, looked up when called, so a method patched on its class later
    is the one that runs.
    """

    def __init__(self, a: np.ndarray, kappa: np.ndarray, f_groups: list, g_groups: list):
        self.a, self.kappa, self.f_groups, self.g_groups = a, kappa, f_groups, g_groups
        # a group on slice(None) is the only one: it takes the whole array
        self._f_whole, self._g_whole = (
            groups[0][1] if isinstance(groups[0][0], slice) else None
            for groups in (f_groups, g_groups)
        )

    def sigma(self) -> np.ndarray:
        """Entry i is agent i's strong convexity modulus, 0.0 where its
        smooth part has none."""
        out = np.empty(len(self.kappa))
        for rows, f in self.f_groups:
            out[rows] = getattr(f, "sigma", 0.0)
        return out

    def conjugate_gradient(self, v: np.ndarray) -> np.ndarray:
        """Every agent's primal maximizer, the conjugate gradient of ``f_i``."""
        if self._f_whole is not None:
            return self._f_whole.conjugate_gradient(v)
        return _each(self.f_groups, "conjugate_gradient", v, v.shape)

    def conjugate_prox(self, c: float, w: np.ndarray) -> np.ndarray:
        """Every agent's prox step on the conjugate of ``g_i``."""
        if self._g_whole is not None:
            return self._g_whole.conjugate_prox(c, w)
        return _each(self.g_groups, "conjugate_prox", w, w.shape, c)

    def f_values(self, x: np.ndarray) -> np.ndarray:
        """Entry ``[..., i]`` is ``f_i(x[..., i, :])``."""
        if self._f_whole is not None:
            return self._f_whole.value(x)
        return _each(self.f_groups, "value", x, x.shape[:-1])

    def support_values(self, mu: np.ndarray) -> np.ndarray:
        """Entry ``[..., i]`` is the conjugate of ``g_i`` at ``mu[..., i, :]``,
        NaN where it is unavailable."""
        if self._g_whole is not None:
            return self._g_whole.support_value(mu)
        return _each(self.g_groups, "support_value", mu, mu.shape[:-1])


def _each(groups: list, method: str, points: np.ndarray, shape: tuple, *args):
    """The one loop over the groups: each agent's ``method(*args, point)``
    at its rows of ``points``, into an array of ``shape``.  A stacked
    function takes its rows, and a part of its own one point at a time, NaN
    where it raises ConjugateUnavailable."""
    out = np.empty(shape)
    lead = (slice(None),) * (points.ndim - 2)  # the batch axes
    for rows, function in groups:
        call = getattr(function, method)
        if isinstance(rows, int):
            for k in np.ndindex(points.shape[:-2]):
                at = k + (rows,)
                try:
                    out[at] = call(*args, points[at])
                except ConjugateUnavailable:
                    out[at] = math.nan
        else:
            out[lead + (rows,)] = call(*args, points[lead + (rows,)])
    return out


class ProblemInstance:
    """N coupled agents, the constraint offset b, and the network graph.

    Besides its agents, an instance has a stacked view of them,
    :attr:`stacked`, which is all that :func:`validate`, the step-size
    constants and the solver's round plan read.  An instance built from
    agents makes that view on first use.  :func:`build_market` sets the
    view itself, from checked parameter rows, and the ``agents`` are then
    made on first access from the rows of the stacked functions, bit for
    bit the agents it would otherwise take.

    An instance, with its agents, their functions and its graph, is treated
    as immutable once constructed: the views and the solver's plan are kept
    on it.  No code or test mutates one; build a new instance instead.
    """

    def __init__(self, agents: Sequence[AgentProblem], b, graph: Graph):
        self.agents = list(agents)
        if not self.agents:
            raise ValueError("instance needs at least one agent")
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.b.size == 0:
            raise ValueError(
                "coupling constraint is empty (no multiplier to agree on); "
                "solve the agents independently instead"
            )
        if not np.isfinite(self.b).all():
            raise ValueError(f"constraint offset b must be finite, got {self.b.tolist()}")
        self.graph = graph
        m = self.agents[0].m
        b_dim = self.b.shape[0]
        for idx, a in enumerate(self.agents, start=1):
            if a.m != m:
                raise ValueError(f"agent {idx} has dimension {a.m}, expected {m}")
            if a.b_dim != b_dim:
                raise ValueError(
                    f"agent {idx} coupling block has {a.b_dim} rows, expected {b_dim}"
                )
        if graph.n_vertices != len(self.agents):
            raise ValueError(
                f"graph has {graph.n_vertices} vertices for {len(self.agents)} agents"
            )
        self.n_agents, self.m = len(self.agents), m

    @cached_property
    def agents(self) -> list[AgentProblem]:
        """The agents; made on first access for an instance built from its
        stacked view."""
        ((_, f),), ((_, g),) = self.stacked.f_groups, self.stacked.g_groups
        rows = zip(f.rows(), g.rows(), self.stacked.a, self.stacked.kappa.tolist())
        return [AgentProblem(*row) for row in rows]

    @cached_property
    def stacked(self) -> StackedAgents:
        """The agents as stacked arrays and catalog groups, made once."""
        agents = self.agents
        return StackedAgents(
            a=np.array([agent.a_block for agent in agents]),
            kappa=np.array([agent.kappa for agent in agents]),
            f_groups=_groups([agent.f for agent in agents], Quadratic),
            g_groups=_groups([agent.g for agent in agents], Box),
        )

    @property
    def b_dim(self) -> int:
        return self.b.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        """(N, M, B)."""
        return (self.n_agents, self.m, self.b_dim)

    def kappa_vector(self) -> np.ndarray:
        return self.stacked.kappa.copy()

    def coupling_matrix(self) -> np.ndarray:
        """Dense (B, N*M) coupling matrix; for reports and tests only."""
        return self.stacked.a.transpose(1, 0, 2).reshape(self.b_dim, -1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProblemInstance)
            and self.agents == other.agents
            and np.array_equal(self.b, other.b)
            and self.graph == other.graph
        )


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool | None  # None means "not checked"
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if c.passed is False]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = {True: "ok", False: "FAIL", None: "not checked"}[c.passed]
            lines.append(f"{c.name}: {status} ({c.detail})")
        return "\n".join(lines)


def _sum_in_order(terms: np.ndarray) -> float:
    """``0.0 + terms[0] + terms[1] + ...``, rounded as a Python loop would."""
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def validate(instance: ProblemInstance) -> ValidationReport:
    """Check an instance against the solvability assumptions.

    Verifies graph connectivity, strong convexity of every smooth part,
    finite coefficients in every quadratic one, dimension consistency, and
    that the kappa shares sum to one.  When all feasible sets are boxes and
    M = B = 1, also checks that the coupling interval contains b strictly (a
    computable stand-in for a strictly feasible interior point); otherwise
    that condition is reported as not checked.

    The checks read the instance's stacked view, not its agents.  The
    coupling interval sums Python's ``min`` and ``max`` of each agent's two
    endpoint products in agent order, so NaN and signed zeros, and every
    report string, come out as in an agent-by-agent loop.
    """
    checks: list[ValidationCheck] = []

    connected = check_connected(instance.graph)
    checks.append(
        ValidationCheck(
            "graph_connected",
            connected,
            f"{instance.graph.n_vertices} vertices, {instance.graph.n_edges} edges",
        )
    )

    stacked = instance.stacked
    bad_sigma = (np.flatnonzero(~(stacked.sigma() > 0.0)) + 1).tolist()
    checks.append(
        ValidationCheck(
            "strong_convexity",
            not bad_sigma,
            "all agents have sigma > 0"
            if not bad_sigma
            else f"agents {bad_sigma} have nonpositive modulus",
        )
    )

    finite = np.ones(len(stacked.kappa), dtype=bool)
    for rows, f in stacked.f_groups:
        if isinstance(f, Quadratic):
            finite[rows] = (
                np.isfinite(f.p).all(axis=(-2, -1))
                & np.isfinite(f.q).all(axis=-1)
                & np.isfinite(f.r)
            )
    bad_finite = (np.flatnonzero(~finite) + 1).tolist()
    checks.append(
        ValidationCheck(
            "finite_smooth_parts",
            not bad_finite,
            "all quadratic parts are finite"
            if not bad_finite
            else f"agents {bad_finite} have a non-finite P, q or r",
        )
    )

    n, m, b_dim = instance.dims
    checks.append(
        ValidationCheck(
            "dimensions",
            True,
            f"N={n}, M={m}, B={b_dim}",
        )
    )

    ksum = float(np.sum(stacked.kappa))
    checks.append(
        ValidationCheck(
            "kappa_sum",
            abs(ksum - 1.0) <= 1e-12,
            f"sum of kappa = {ksum!r}",
        )
    )

    all_box = all(isinstance(g, Box) for _, g in stacked.g_groups)
    if all_box and m == 1 and b_dim == 1:
        lo, hi = np.empty(n), np.empty(n)
        for rows, g in stacked.g_groups:
            lo[rows], hi[rows] = g.lo[..., 0], g.hi[..., 0]
        coeff = stacked.a[:, 0, 0]
        with np.errstate(invalid="ignore", over="ignore"):  # Python floats do not warn
            x, y = coeff * lo, coeff * hi
            lo_sum = _sum_in_order(np.where(y < x, y, x))  # min(x, y)
            hi_sum = _sum_in_order(np.where(y > x, y, x))  # max(x, y)
        b0 = float(instance.b[0])
        checks.append(
            ValidationCheck(
                "interior_feasibility",
                lo_sum < b0 < hi_sum,
                f"coupling range [{lo_sum}, {hi_sum}] vs b = {b0}",
            )
        )
    else:
        checks.append(
            ValidationCheck(
                "interior_feasibility",
                None,
                "only checked for scalar all-box instances",
            )
        )

    return ValidationReport(tuple(checks))


# --- electricity-market benchmark ---------------------------------------


class UCParams(NamedTuple):
    """Generating company: cost delta*x^2 + varsigma*x + beta on [0, x_max]."""

    delta: float
    varsigma: float
    beta: float
    x_max: float


class UserParams(NamedTuple):
    """Energy user: utility chi*x - pi*x^2 on [0, x_max] (quadratic branch)."""

    chi: float
    pi: float
    x_max: float


# each field must be finite and exceed its floor: delta, pi and x_max are positive
_UC_FLOOR = np.array([0.0, -np.inf, -np.inf, 0.0])
_USER_FLOOR = np.array([-np.inf, 0.0, 0.0])


def _table(rows: Sequence[tuple], kind: type, floor: np.ndarray, what: str) -> np.ndarray:
    """``rows`` as one read-only (len(rows), fields) float array, made in one
    pass.  Every row must be a ``kind``, so that the fields line up, and
    every field a number: ``struct`` packs a float, an int or a NumPy
    number as a double, and refuses a string, which ``float`` would parse.
    A row that breaks either is a TypeError, and one with a field that is
    not finite or not above its ``floor`` a ValueError, that names the
    first such row."""
    if not all(issubclass(row_type, kind) for row_type in set(map(type, rows))):
        row = next(row for row in rows if not isinstance(row, kind))
        raise TypeError(f"invalid {what} row {row!r}: not a {kind.__name__}")
    width = len(floor)
    try:
        packed = struct.pack(f"{width * len(rows)}d", *chain.from_iterable(rows))
    except struct.error:
        for row in rows:
            try:
                struct.pack(f"{width}d", *row)
            except struct.error:
                raise TypeError(f"invalid {what} row {row!r}: a field is not a number") from None
        raise
    table = np.frombuffer(packed).reshape(len(rows), width)  # read-only, as bytes are
    ok = np.isfinite(table) & (table > floor)
    if np.count_nonzero(ok) < ok.size:
        raise ValueError(f"invalid {what} row {rows[np.argmin(ok.all(axis=1))]}")
    return table


@dataclass(frozen=True)
class MarketParams:
    """Parameter rows for the supply-demand benchmark.

    The rows are checked and turned into arrays once, when the parameters
    are made: ``uc_table`` holds the company rows, (len(uc), 4), and
    ``user_table`` the user rows, (len(users), 3), each row's fields in
    order.  Every field must be finite, and ``delta``, ``pi`` and ``x_max``
    positive.
    """

    uc: tuple[UCParams, ...]
    users: tuple[UserParams, ...]
    uc_table: np.ndarray = field(init=False, repr=False, compare=False)
    user_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        uc = _table(self.uc, UCParams, _UC_FLOOR, "generating-company")
        users = _table(self.users, UserParams, _USER_FLOOR, "user")
        object.__setattr__(self, "uc_table", uc)
        object.__setattr__(self, "user_table", users)

    @staticmethod
    @cache
    def default() -> "MarketParams":
        """Stock two-company, three-user benchmark data, made once."""
        return MarketParams(
            uc=(
                UCParams(0.0031, 8.71, 0.0, 150.0),
                UCParams(0.0074, 3.53, 0.0, 150.0),
            ),
            users=(
                UserParams(17.17, 0.0935, 91.79),
                UserParams(12.28, 0.0417, 147.29),
                UserParams(18.42, 0.1007, 91.41),
            ),
        )


def market_graph() -> Graph:
    """Benchmark communication topology over the five market agents.

    Agents are globally indexed company 1, company 2, then users 1-3.
    """
    return Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])


def build_market(
    params: MarketParams | None = None, topology: Graph | None = None
) -> ProblemInstance:
    """Assemble the supply-demand balance benchmark as a problem instance.

    Scalar decisions (M = 1), one balance constraint (B = 1, b = 0) with
    coupling coefficients +1 for companies and -1 for users.  Company i
    minimizes its quadratic cost on [0, x_max]; user j contributes the
    negated quadratic branch of its utility, which keeps every smooth part
    strongly convex because the demand caps sit at the utility's kink.
    Kappa shares are uniform.

    The costs are checked as one stacked :class:`Quadratic` and the caps as
    one stacked :class:`Box`, with the same checks and errors as one agent
    at a time.  They, the coupling blocks and the shares, made here from
    checked rows, become the instance's stacked view, and only the
    topology's vertex count is checked: no per-agent object is made until
    ``agents`` is read.  Agent i's ``f`` and ``g`` are then the stacks'
    rows, equal bit for bit to ``Quadratic(delta, varsigma, beta)`` (or
    ``Quadratic(pi, -chi, 0.0)``) and ``Box(0.0, x_max)``.
    """
    params = params or MarketParams.default()
    uc, users = params.uc_table, params.user_table
    n_uc = len(uc)
    n = n_uc + len(users)
    if topology is None:
        if n != 5:
            raise ValueError(
                f"default topology is defined for 5 agents, got {n}; pass one explicitly"
            )
        topology = market_graph()
    p, q, r, x_max, a = columns = np.empty((5, n))
    columns[:4, :n_uc] = uc.T  # delta, varsigma, beta, x_max
    np.negative(users[:, 0], out=q[n_uc:])  # -chi
    p[n_uc:], r[n_uc:], x_max[n_uc:] = users[:, 1], 0.0, users[:, 2]
    a[:n_uc], a[n_uc:] = 1.0, -1.0
    costs = Quadratic(p.reshape(n, 1, 1), q.reshape(n, 1), r)
    caps = Box(np.zeros((n, 1)), x_max.reshape(n, 1))
    if topology.n_vertices != n:
        raise ValueError(f"graph has {topology.n_vertices} vertices for {n} agents")
    instance = ProblemInstance.__new__(ProblemInstance)
    instance.b, instance.graph, instance.n_agents, instance.m = np.zeros(1), topology, n, 1
    instance.stacked = StackedAgents(a.reshape(n, 1, 1), np.full(n, 1.0 / n),
                                     [(slice(None), costs)], [(slice(None), caps)])
    return instance


# --- instance files -------------------------------------------------------


class ParseError(ValueError):
    """Malformed instance file; message carries line context."""


def _fmt_vector(v: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in np.atleast_1d(v))


def _fmt_matrix(a: np.ndarray) -> str:
    return "; ".join(_fmt_vector(row) for row in np.atleast_2d(a))


def _parse_number(kind, text: str, where: str):
    """``kind(text)``; a malformed number is a ParseError that names ``where``."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ParseError(f"{where}: bad number {text!r}") from exc


def _parse_float(text: str, where: str) -> float:
    """A finite number; NaN and infinities are ParseErrors that name ``where``."""
    value = _parse_number(float, text, where)
    if not math.isfinite(value):
        raise ParseError(f"{where}: {text!r} is not a finite number")
    return value


def _parse_vector(text: str, where: str, bounds: bool = False) -> np.ndarray:
    """The numbers in ``text``, all finite, or, for box ``bounds``, none NaN."""
    values = _parse_number(lambda t: np.array([float(tok) for tok in t.split()]), text, where)
    if not (~np.isnan(values) if bounds else np.isfinite(values)).all():
        raise ParseError(f"{where}: {text!r} holds {'NaN' if bounds else 'a non-finite number'}")
    return values


def _parse_matrix(text: str, where: str) -> np.ndarray:
    rows = [_parse_vector(part, where) for part in text.split(";")]
    width = {r.size for r in rows}
    if len(width) != 1:
        raise ParseError(f"{where}: ragged matrix rows in {text!r}")
    return np.vstack(rows)


class _Key(NamedTuple):
    """One key of a catalog kind in a file: the attribute it holds, its
    ``parse(text, where)`` and ``format(value)``, and the text it reads as
    when absent (``None``: required)."""

    attr: str
    parse: Callable[[str, str], object]
    format: Callable[[object], str]
    default: str | None = None


# The catalog kinds an instance file holds, by function slot: each kind's
# tag, class and keys, in the class's constructor order.  save_instance and
# load_instance both read this table.
_KINDS: dict[str, dict[str, tuple[type, dict[str, _Key]]]] = {
    "f": {
        "quadratic": (Quadratic, {
            "f.p": _Key("p", _parse_matrix, _fmt_matrix),
            "f.q": _Key("q", _parse_vector, _fmt_vector),
            "f.r": _Key("r", _parse_float, repr, "0.0"),
        }),
    },
    "g": {
        "zero": (Zero, {}),
        "l1": (L1, {"g.w": _Key("weight", _parse_float, repr)}),
        "box": (Box, {
            "g.lo": _Key("lo", partial(_parse_vector, bounds=True), _fmt_vector),
            "g.hi": _Key("hi", partial(_parse_vector, bounds=True), _fmt_vector),
        }),
        "norm_ball": (NormPenalty, {"g.e": _Key("e", partial(_parse_number, int), str)}),
    },
}
_SLOT_NAMES = {"f": "smooth", "g": "nonsmooth"}
_AGENT_KEYS = frozenset(("kappa", "a_block", *_KINDS))
_SECTIONS = frozenset(("dims", "graph", "b"))


def save_instance(instance: ProblemInstance, path) -> None:
    """Write an instance to a plain key/value text file.

    Only catalog function kinds (quadratic, l1, box, norm_ball, zero) are
    serializable; oracle-backed custom functions are rejected.
    """
    lines = ["[dims]", f"m = {instance.m}", f"b_dim = {instance.b_dim}", ""]
    lines += ["[graph]", f"n_vertices = {instance.graph.n_vertices}"]
    lines += [f"edge = {i} {j}" for i, j in instance.graph.edges]
    lines += ["", "[b]", f"values = {_fmt_vector(instance.b)}", ""]
    for idx, agent in enumerate(instance.agents, start=1):
        lines.append(f"[agent {idx}]")
        lines.append(f"kappa = {agent.kappa!r}")
        lines.append(f"a_block = {_fmt_matrix(agent.a_block)}")
        for slot, kinds in _KINDS.items():
            function = getattr(agent, slot)
            tag = next((tag for tag, (cls, _) in kinds.items() if isinstance(function, cls)), None)
            if tag is None:
                raise ValueError(f"agent {idx}: {_SLOT_NAMES[slot]} kind "
                                 f"{type(function).__name__} has no file representation")
            lines.append(f"{slot} = {tag}")
            lines += [f"{key} = {spec.format(getattr(function, spec.attr))}"
                      for key, spec in kinds[tag][1].items()]
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _read_sections(path) -> dict[str, list[tuple[int, str, str]]]:
    """Each section's ``(line, key, value)`` entries; a section other than
    ``[dims]``, ``[graph]``, ``[b]`` and ``[agent k]``, or one whose header
    repeats, is a ParseError that names the line of its header."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current not in _SECTIONS and not current.startswith("agent "):
                    raise ParseError(f"line {lineno}: unknown section [{current}]")
                if current in sections:
                    raise ParseError(f"line {lineno}: duplicate section [{current}]")
                sections[current] = []
                continue
            if "=" not in line:
                raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
            if current is None:
                raise ParseError(f"line {lineno}: entry before any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            sections[current].append((lineno, key, value))
    return sections


def _section_map(
    entries: list[tuple[int, str, str]], section: str
) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, key, value in entries:
        if key in out:
            raise ParseError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        out[key] = value
    return out


def _check_keys(
    entries: list[tuple[int, str, str]], mapping: dict[str, str], allowed: set[str], section: str
) -> None:
    """A key of ``mapping`` outside ``allowed`` is a ParseError that names
    its line."""
    if not mapping.keys() <= allowed:
        lineno, key = next((lineno, key) for lineno, key, _ in entries if key not in allowed)
        raise ParseError(f"line {lineno}: unknown key {key!r} in [{section}]")


def _require(mapping: dict[str, str], key: str, section: str, default: str | None = None) -> str:
    value = mapping.get(key, default)
    if value is None:
        raise ParseError(f"[{section}]: missing required key {key!r}")
    return value


def load_instance(path) -> ProblemInstance:
    """Read an instance file; edges are canonicalized on load.

    Missing kappa entries default to a uniform 1/N split.  A section or a
    key that the file format does not use is a ParseError.
    """
    sections = _read_sections(path)
    for required in ("dims", "graph", "b"):
        if required not in sections:
            raise ParseError(f"missing [{required}] section")

    dims = _section_map(sections["dims"], "dims")
    _check_keys(sections["dims"], dims, {"m", "b_dim"}, "dims")
    m = _parse_number(int, _require(dims, "m", "dims"), "[dims] m")
    b_dim = _parse_number(int, _require(dims, "b_dim", "dims"), "[dims] b_dim")

    graph_entries = sections["graph"]
    n_vertices = None
    edges = []
    for lineno, key, value in graph_entries:
        if key == "n_vertices":
            if n_vertices is not None:
                raise ParseError(f"line {lineno}: duplicate key {key!r} in [graph]")
            n_vertices = _parse_number(int, value, f"line {lineno}: n_vertices")
        elif key == "edge":
            pair = value.split()
            if len(pair) != 2:
                raise ParseError(f"line {lineno}: edge needs two endpoints, got {value!r}")
            edges.append(tuple(_parse_number(int, v, f"line {lineno}: edge") for v in pair))
        else:
            raise ParseError(f"line {lineno}: unknown graph key {key!r}")
    if n_vertices is None:
        raise ParseError("[graph]: missing n_vertices")
    try:
        graph = Graph(n_vertices, edges)
    except ValueError as exc:
        raise ParseError(f"[graph]: {exc}") from exc

    bmap = _section_map(sections["b"], "b")
    _check_keys(sections["b"], bmap, {"values"}, "b")
    b = _parse_vector(_require(bmap, "values", "b"), "[b] values")
    if b.size != b_dim:
        raise ParseError(f"[b]: got {b.size} values, expected b_dim = {b_dim}")

    found = sorted(name for name in sections if name.startswith("agent "))
    if not found:
        raise ParseError("no [agent k] sections found")
    agent_names = [f"agent {k}" for k in range(1, len(found) + 1)]
    if set(found) != set(agent_names):
        raise ParseError(f"agent sections must be numbered 1..N; found {found}")

    agents = []
    for name in agent_names:
        amap = _section_map(sections[name], name)
        a_block = _parse_matrix(_require(amap, "a_block", name), f"[{name}] a_block")
        kappa = 1.0 / len(agent_names)
        if "kappa" in amap:
            kappa = _parse_float(amap["kappa"], f"[{name}] kappa")

        calls, used = [], set(_AGENT_KEYS)
        for slot, kinds in _KINDS.items():
            tag = _require(amap, slot, name)
            if tag not in kinds:
                raise ParseError(f"[{name}]: unknown {_SLOT_NAMES[slot]} kind {tag!r}")
            cls, keys = kinds[tag]
            used.update(keys)
            calls.append((cls, [spec.parse(_require(amap, key, name, spec.default), f"[{name}] {key}")
                                for key, spec in keys.items()]))
        _check_keys(sections[name], amap, used, name)
        try:
            f, g = (cls(*args) for cls, args in calls)
            agents.append(AgentProblem(f, g, a_block, kappa))
        except ValueError as exc:
            raise ParseError(f"[{name}]: {exc}") from exc

    for idx, agent in enumerate(agents, start=1):
        if agent.m != m:
            raise ParseError(f"[agent {idx}]: dimension {agent.m} != dims m = {m}")
        if agent.b_dim != b_dim:
            raise ParseError(
                f"[agent {idx}]: a_block rows {agent.b_dim} != dims b_dim = {b_dim}"
            )

    try:
        return ProblemInstance(agents, b, graph)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
