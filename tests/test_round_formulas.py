"""The code that runs every round calls ufuncs and ndarray methods.

The round, ``solve``'s bookkeeping and the residual sweep, with the catalog
methods they reach, no longer go through NumPy's Python-level function
wrappers (``np.sum``, ``np.clip``, ``np.where``, ``np.errstate``,
``np.atleast_1d``, ``np.linalg.norm``), 1x1 products multiply
instead of calling ``np.matmul``, the edge multipliers are gathered
with a sign per edge end instead of from ``np.concatenate([xi, -xi])``,
and a batch of trace rows is stacked by ``np.array``, not ``np.stack``.
The parity tests require every replaced formula to give the bits of its
wrapper form, kept in ``tests/oracles.py``, and to raise no warning where
that form did not; the guard test runs rounds with the wrappers patched to
raise.
"""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualprox import functions, solver
from dualprox.functions import L1, Box, NormPenalty, Quadratic, Zero
from dualprox.problems import AgentProblem, ProblemInstance, StackedAgents, build_market
from dualprox.solver import (
    RunningAverage,
    SolverConfig,
    SolverState,
    init_state,
    iterate,
    residuals,
    suggest_step_sizes,
)
from dualprox.topology import Graph

from oracles import (
    ReferenceRunningAverage,
    random_instance,
    reference_as_vector,
    reference_ball_conjugate_prox,
    reference_ball_support_value,
    reference_box_conjugate_prox,
    reference_box_support_value,
    reference_conjugate_gradient,
    reference_norm,
    reference_quadratic_gradient,
    reference_quadratic_value,
    reference_rowdot,
    reference_stacked_matvec,
    reference_step_norm,
)

SPECIAL = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e-310, -1e300]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
finite = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-1e6, 1e6))
bounds = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0]), st.floats(-1e6, 1e6))


def outcome(fn, *args):
    """``fn(*args)``, or the error it raised, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except Exception as exc:  # compared by type and message below
            result = exc
    return result, {(w.category, str(w.message)) for w in caught}


def assert_same(got, want):
    """Same type and bits (NaN payloads and signed zeros included), or the
    same error."""
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def assert_parity(new, reference, *args):
    (got, new_warnings), (want, old_warnings) = outcome(new, *args), outcome(reference, *args)
    assert_same(got, want)
    assert new_warnings <= old_warnings


@st.composite
def boxes_and_points(draw):
    """A box (stacked, unstacked, or with one-element bounds) and a point of
    its shape."""
    m = draw(st.integers(1, 3))
    layout = draw(st.sampled_from(["stacked", "unstacked", "one-bound"]))
    shape = {"stacked": (draw(st.integers(1, 4)), m), "unstacked": (m,), "one-bound": (1,)}[layout]
    ends = draw(arrays(float, (2, *shape), elements=bounds))
    box = Box(ends.min(axis=0), ends.max(axis=0))
    if layout == "stacked":
        box = Box.stack(box.rows())
    point_shape = (m,) if layout == "one-bound" else shape
    return box, draw(arrays(float, point_shape, elements=values))


@settings(max_examples=300, deadline=None)
@given(boxes_and_points())
def test_box_support_value_keeps_its_bits_and_warnings(case):
    box, mu = case
    assert_parity(box.support_value, lambda mu: reference_box_support_value(box, mu), mu)


def test_box_support_value_at_an_infinite_multiplier_on_a_zero_bound_stays_silent():
    box = Box([0.0, -1.0], [0.0, 0.0])
    mu = np.array([math.inf, -math.inf])
    assert_parity(box.support_value, lambda mu: reference_box_support_value(box, mu), mu)
    assert math.isnan(box.support_value(mu))


@settings(max_examples=200, deadline=None)
@given(boxes_and_points(), st.floats(1e-6, 1e6))
def test_box_conjugate_prox_keeps_its_bits_and_warnings(case, alpha):
    box, v = case
    assert_parity(
        lambda v: box.conjugate_prox(alpha, v),
        lambda v: reference_box_conjugate_prox(box, alpha, v),
        v,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([L1(0.5), L1(0.0), NormPenalty(1), NormPenalty(2), Zero()]),
    st.integers(1, 4).flatmap(lambda m: arrays(float, st.sampled_from([(), (m,)]), elements=values)),
    st.floats(1e-6, 1e6),
)
def test_ball_methods_keep_their_bits_and_warnings(g, v, alpha):
    assert_parity(g.support_value, lambda mu: reference_ball_support_value(g, mu), v)
    if not isinstance(g, Zero):
        assert_parity(
            lambda v: g.conjugate_prox(alpha, v), lambda v: reference_ball_conjugate_prox(g, v), v
        )


@st.composite
def quadratics_and_points(draw):
    """A quadratic, one or stacked, and a point of its shape, with a leading
    axis when stacked, or of a shape ``_as_vector`` rejects."""
    m = draw(st.integers(1, 3))
    rows = draw(st.sampled_from([(), (draw(st.integers(1, 3)),)]))
    diag = draw(arrays(float, (*rows, m), elements=st.floats(0.5, 4.0)))
    off = draw(arrays(float, (*rows, m, m), elements=st.floats(-0.05, 0.05)))
    p = off + off.swapaxes(-1, -2) + diag[..., None] * np.eye(m)
    q = draw(arrays(float, (*rows, m), elements=finite))
    r = draw(arrays(float, rows, elements=finite))
    f = Quadratic(p, q, r if rows else float(r))
    good = (*rows, m)
    leading = [(2, *rows, m), (2, *rows, m + 1)] if rows else []
    shape = draw(st.sampled_from(
        [good, (), (1,), (m + 1,), (*rows, m, 1), (*rows, m + 1), (2, m), *leading]
    ))
    return f, draw(arrays(float, shape, elements=finite))


def point_kinds(x: np.ndarray) -> list:
    """``x`` as a float64 array, a list, ints, float32, long double, an
    object array, a non-contiguous float64 view and a big-endian float64
    array."""
    wide = np.repeat(x[..., None], 2, axis=-1)
    return [x, x.tolist(), np.trunc(x).astype(np.int64), x.astype(np.float32),
            x.astype(np.longdouble), x.astype(object), wide[..., 0], x.astype(">f8")]


@settings(max_examples=300, deadline=None)
@given(quadratics_and_points())
def test_quadratic_value_and_conjugate_gradient_keep_their_bits_and_errors(case):
    """``_points`` skips its checks for a float64 array of the point shape;
    every kind of point must still give ``value``, ``gradient`` and
    ``conjugate_gradient`` the checked bits or the checked error."""
    f, x = case
    for point in point_kinds(x):
        assert_parity(f.value, lambda x: reference_quadratic_value(f, x), point)
        assert_parity(f.gradient, lambda x: reference_quadratic_gradient(f, x), point)
        assert_parity(f.conjugate_gradient, lambda v: reference_conjugate_gradient(f, v), point)
    for point in (x, x.tolist()):
        assert_parity(functions._as_vector, reference_as_vector, point, f.dim, f.p.shape[:-2])


# A 1x1 branch multiplies where matmul did, so a warning it gives names
# ``multiply`` where matmul's named ``matmul``; the condition must be one
# that matmul reported too.
PRODUCT_SPECIAL = SPECIAL + [-math.nan, 5e-324, 1e-200, -1e-200, 1e300]
product_values = st.one_of(st.sampled_from(PRODUCT_SPECIAL), st.floats())


def conditions(caught) -> set:
    """Warnings as (category, condition), without the function named."""
    return {(category, message.split(" encountered")[0]) for category, message in caught}


def assert_1x1_parity(new, reference, *args):
    (got, new_warnings), (want, old_warnings) = outcome(new, *args), outcome(reference, *args)
    assert_same(got, want)
    assert conditions(new_warnings) <= conditions(old_warnings)


def compiled_products(mats):
    """The two block products that a round plan binds for an all-1x1
    instance whose stacked view holds ``mats``.  The instance sets its view
    as ``build_market`` does, so that drawn blocks that are not finite skip
    the checks that would reject them; only the products are run."""
    n = len(mats)
    instance = ProblemInstance.__new__(ProblemInstance)
    instance.b, instance.graph, instance.n_agents, instance.m = np.zeros(1), Graph(n, []), n, 1
    instance.stacked = StackedAgents(mats, np.ones(n), [(slice(None), None)],
                                     [(slice(None), None)])
    plan = solver._round_plan(instance)
    return plan.a_x, plan.a_t_theta


def check_1x1_products(mats, vecs):
    assert_1x1_parity(lambda a, x: solver._column_product(a[:, :, 0], x),
                      reference_stacked_matvec, mats, vecs)
    assert_1x1_parity(solver._rowdot, reference_rowdot, mats[:, 0], vecs)
    if len(mats):  # a graph, and so a plan, has at least one vertex
        a_x, a_t_theta = compiled_products(mats)
        assert a_x.func is a_t_theta.func is solver._column_product
        assert_1x1_parity(lambda a, x: a_x(x), reference_stacked_matvec, mats, vecs)
        assert_1x1_parity(lambda a, x: a_t_theta(x),
                          lambda a, x: reference_stacked_matvec(a.transpose(0, 2, 1), x),
                          mats, vecs)


def test_1x1_products_keep_their_bits_on_every_pair_of_special_values():
    a, x = np.meshgrid(PRODUCT_SPECIAL, PRODUCT_SPECIAL)
    check_1x1_products(a.reshape(-1, 1, 1), x.reshape(-1, 1))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            arrays(float, (n, 1, 1), elements=product_values),
            arrays(float, (n, 1), elements=product_values),
        )
    )
)
def test_1x1_products_keep_their_bits_and_warnings(case):
    check_1x1_products(*case)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(), (1,), (4,)]).flatmap(
        lambda rows: st.tuples(
            arrays(float, (*rows, 1, 1), elements=st.one_of(
                st.sampled_from([5e-324, 1e-310, 1.0, 1e300, 1.7e308]),
                st.floats(5e-324, 1.7e308),
            )),
            arrays(float, (*rows, 1), elements=product_values),
            arrays(float, rows, elements=product_values),
            arrays(float, (*rows, 1), elements=product_values),
        )
    )
)
def test_1x1_quadratic_value_keeps_its_bits_and_warnings(case):
    p, q, r, x = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 2 P may overflow in set-up
        f = Quadratic(p, q, r if r.ndim else float(r))
    assert_1x1_parity(f.value, lambda x: reference_quadratic_value(f, x), x)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(0,), (), (3,), (4, 2), (2, 3, 2)]).flatmap(
        lambda shape: arrays(float, shape, elements=values)
    ),
    st.booleans(),
)
def test_norm_keeps_its_bits(x, transposed):
    x = x.T if transposed else x  # a non-contiguous view sums in memory order
    assert_parity(functions._norm, reference_norm, x)


@st.composite
def dual_states(draw):
    n, b_dim, m = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [
        SolverState(
            draw(arrays(float, (n, b_dim), elements=values)),
            draw(arrays(float, (n, m), elements=values)),
            np.zeros((0, b_dim)),
        )
        for _ in range(draw(st.integers(2, 5)))
    ]


@settings(max_examples=200, deadline=None)
@given(dual_states())
def test_step_norm_and_running_average_keep_their_bits_and_warnings(states):
    for old, new in zip(states, states[1:]):
        assert_parity(solver._step_norm, reference_step_norm, new, old)
    n, b_dim = states[0].theta.shape
    m = states[0].mu.shape[1]
    got, want = RunningAverage(n, b_dim, m), ReferenceRunningAverage(n, b_dim, m)
    for state in states:
        _, new_warnings = outcome(got.update, state.theta, state.mu)
        _, old_warnings = outcome(want.update, state.theta, state.mu)
        assert new_warnings <= old_warnings
        assert got.count == want.count
        assert_same(got.theta, want.theta)
        assert_same(got.mu, want.mu)


# --- the guard ------------------------------------------------------------------

WRAPPERS = [
    (np, "sum"), (np, "clip"), (np, "where"), (np, "errstate"), (np, "atleast_1d"),
    (np, "concatenate"), (np, "stack"), (np.linalg, "norm"),
]


class RowQuadratic(Quadratic):
    """A Quadratic that the plan does not stack: it sits on its own row."""


def multi_group_instance() -> ProblemInstance:
    """Seven agents, M = B = 2: a stacked Quadratic and two RowQuadratic
    rows, a stacked Box and four single-row nonsmooth parts."""
    base = random_instance(np.random.default_rng(5), 7, 2, 2)
    swaps = [L1(0.5), Zero(), NormPenalty(1), NormPenalty(2)]
    agents = []
    for i, a in enumerate(base.agents):
        f = RowQuadratic(a.f.p, a.f.q, a.f.r) if i in (1, 4) else a.f
        agents.append(AgentProblem(f, swaps[i] if i < len(swaps) else a.g, a.a_block, a.kappa))
    instance = ProblemInstance(agents, base.b, base.graph)
    assert (len(instance.stacked.f_groups), len(instance.stacked.g_groups)) == (3, 5)
    return instance


@pytest.mark.parametrize("build", [build_market, multi_group_instance], ids=["market", "multi-group"])
def test_rounds_call_no_numpy_function_wrapper(build, monkeypatch):
    """Four rounds with their step norms, running average and residuals,
    once as they are and once with the wrappers raising, give the same
    bits.  Set-up, which may call the wrappers, runs before the patch."""
    outputs = []
    for patched in (False, True):
        instance = build()
        steps = suggest_step_sizes(solver.max_lipschitz(instance),
                                   solver.laplacian_spectral_radius(instance.graph).value)
        state = init_state(instance)
        residuals(instance, state)  # compiles the plan
        avg = RunningAverage(instance.n_agents, instance.b_dim, instance.m)
        if patched:
            for owner, name in WRAPPERS:
                def raise_(*args, _name=name, **kwargs):
                    raise AssertionError(f"np.{_name} called in a round")
                monkeypatch.setattr(owner, name, raise_)
        out = [residuals(instance, state)]
        for _ in range(4):
            new = iterate(instance, state, steps)
            out.append(solver._step_norm(new, state))
            state = new
            avg.update(state.theta, state.mu)
            out += [residuals(instance, state), state.theta.tobytes(), state.mu.tobytes()]
        out += [avg.theta.tobytes(), avg.mu.tobytes()]
        monkeypatch.undo()
        outputs.append(out)
    assert repr(outputs[0]) == repr(outputs[1])


@pytest.mark.parametrize(
    "options",
    [{"trace_every": 1}, {"trace_every": 100}, {"trace_every": 1, "trace_state": True}],
    ids=["every-1", "every-100", "every-1-state"],
)
@pytest.mark.parametrize("build", [build_market, multi_group_instance], ids=["market", "multi-group"])
def test_solve_rounds_call_no_numpy_function_wrapper(build, options, monkeypatch):
    """A short ``solve``, once as it is and once with the wrappers raising
    from round 0's ``residuals`` on, gives the same bits: its stop test,
    plan products, queued batches and the recording of their rows call no
    wrapper.  Set-up runs before round 0's ``residuals``."""
    config = SolverConfig(max_iter=150, **options)
    original = solver.residuals
    outputs = []
    for patched in (False, True):
        def evaluate(*args, **kwargs):
            if patched:
                for owner, name in WRAPPERS:
                    def raise_(*args, _name=name, **kwargs):
                        raise AssertionError(f"np.{_name} called in a round")
                    monkeypatch.setattr(owner, name, raise_)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "residuals", evaluate)
        result = solver.solve(build(), config)
        monkeypatch.undo()
        snapshots = [a.tobytes() for row in result.trace.state_rows for a in row]
        outputs.append([[row[:5] for row in result.trace.rows], snapshots, result.x.tobytes(),
                        result.theta.tobytes(), result.mu.tobytes(), result.xi.tobytes()])
    every = options["trace_every"]
    assert len(outputs[0][0]) == 1 + 150 // every + (150 % every != 0)
    assert repr(outputs[0]) == repr(outputs[1])
