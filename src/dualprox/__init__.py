"""Distributed dual proximal gradient solver for coupled convex programs.

Agents on an undirected network share one affine coupling constraint and
private composite costs (smooth strongly convex plus nonsmooth).  The
solver works entirely in the dual: every agent iterates a local estimate
of the coupling multiplier and a slack multiplier through prox-gradient
steps that read only neighbor data, and edge owners enforce agreement of
the estimates.  Includes the function catalog (conjugates and proximal
maps), a synchronous message-passing engine that hosts the agents, an
independent centralized reference solver, convergence diagnostics, and a
built-in electricity-market benchmark.
"""

__version__ = "0.1.0"

from .functions import (
    Box,
    ConjugateUnavailable,
    CustomProx,
    CustomSmooth,
    CustomStronglyConvex,
    InnerLoopError,
    L1,
    NonsmoothFunction,
    NormPenalty,
    Quadratic,
    SmoothFunction,
    Zero,
)
from .netsim import Engine, InMemoryTransport, message_count, message_volume
from .oracle import (
    OracleError,
    OracleResult,
    centralized_oracle,
    primal_objective,
    saddle_point,
)
from .problems import (
    AgentProblem,
    MarketParams,
    ProblemInstance,
    UCParams,
    UserParams,
    build_market,
    load_instance,
    market_graph,
    save_instance,
    validate,
)
from .solver import (
    AgentDual,
    EdgeMultiplier,
    Residuals,
    RunningAverage,
    SetupError,
    SolveResult,
    SolverConfig,
    SolverState,
    StepSizeError,
    StepSizes,
    Trace,
    edge_multipliers,
    ergodic_gap_bound,
    eval_dual_objective,
    gap_bound_constant,
    grad_p,
    init_state,
    iterate,
    lambda_update,
    lipschitz_h,
    lyapunov_value,
    max_lipschitz,
    primal_recovery,
    residuals,
    solve,
    suggest_step_sizes,
    validate_step_sizes,
    xi_update,
)
from .topology import (
    Graph,
    IncidenceOperator,
    PowerIterationError,
    canonical_edge_order,
    check_connected,
    laplacian_spectral_radius,
)
