"""Seeded inputs for the benchmark workloads.

Everything here is plain numbers: parameter tables, edge lists and the text
of an instance file.  The program under test only ever sees these inputs,
never the seed.  Parameters are drawn in narrow bands around fixed designs
so that every seed gives the same active set and nearly the same number of
rounds; that keeps the end-to-end figures comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The paper's market rows: (delta, varsigma, x_max) per company and
# (chi, pi, x_max) per user.
PAPER_COMPANIES = ((0.0031, 8.71, 150.0), (0.0074, 3.53, 150.0))
PAPER_USERS = ((17.17, 0.0935, 91.79), (12.28, 0.0417, 147.29), (18.42, 0.1007, 91.41))

SCALED_AGENTS = 3000
SCALED_ROUNDS = 4
SCALED_JITTER = 0.10
HUB_CHORDS = 6

VECTOR_AGENTS = 20
VECTOR_JITTER = 0.02
VECTOR_CHORDS = ((1, 11), (4, 15), (8, 18))


def ring_plus_chords(n: int) -> list[tuple[int, int]]:
    """Ring 1..n plus n // 10 chords, the same for every seed.

    Vertex 1 has ``HUB_CHORDS`` chords to evenly spaced vertices, so its
    degree is the only largest one and the Laplacian's top eigenvalue stands
    apart: the spectral radius's power iteration then takes a narrow band of
    iterations whatever its start vector.  The other chords are drawn once,
    from a generator seeded with ``n`` and not with the workload seed.
    """
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(1, 1 + k * n // (HUB_CHORDS + 1)) for k in range(1, HUB_CHORDS + 1)]
    seen = {(min(e), max(e)) for e in edges}
    rng = np.random.default_rng(n)
    while len(edges) < n + n // 10:
        i, j = sorted(int(v) for v in rng.integers(2, n + 1, 2))
        if i != j and (i, j) not in seen:
            seen.add((i, j))
            edges.append((i, j))
    return edges


@dataclass(frozen=True)
class ScaledMarket:
    """Raw rows of a synthetic market: 2/5 companies, 3/5 users."""

    companies: tuple[tuple[float, float, float], ...]  # (delta, varsigma, x_max)
    users: tuple[tuple[float, float, float], ...]  # (chi, pi, x_max)
    edges: tuple[tuple[int, int], ...]

    @property
    def n_agents(self) -> int:
        return len(self.companies) + len(self.users)


def scaled_market(seed: int, n: int = SCALED_AGENTS) -> ScaledMarket:
    """Companies and users cycle through the paper's rows, each coefficient
    scaled by a factor drawn from [0.9, 1.1].  A user's cap keeps the
    paper's ratio to the kink chi / (2 pi) of its utility.  The seed moves
    the coefficients only; the graph is a fixed design."""
    rng = np.random.default_rng([seed, n])
    n_comp = 2 * n // 5

    def jitter(size):
        return rng.uniform(1.0 - SCALED_JITTER, 1.0 + SCALED_JITTER, size)

    companies = []
    for k in range(n_comp):
        delta, varsigma, x_max = PAPER_COMPANIES[k % 2]
        fd, fv, fx = jitter(3)
        companies.append((delta * fd, varsigma * fv, x_max * fx))
    users = []
    for k in range(n - n_comp):
        chi, pi, x_max = PAPER_USERS[k % 3]
        ratio = x_max / (chi / (2.0 * pi))
        fc, fp = jitter(2)
        users.append((chi * fc, pi * fp, ratio * chi * fc / (2.0 * pi * fp)))
    return ScaledMarket(tuple(companies), tuple(users), tuple(ring_plus_chords(n)))


@dataclass(frozen=True)
class VectorInstance:
    """Quadratic-plus-box agents with 2x2 coupling blocks, built from a
    chosen optimum so that the optimum is known exactly.

    ``x_star``/``eta_star`` satisfy the KKT conditions by construction:
    the linear terms are ``q = -2 P x* - A^T eta* + nu`` with ``nu`` the
    lower-bound multiplier (positive where x* sits at zero), and
    ``b = sum A x*``.
    """

    p: np.ndarray  # (N, 2, 2)
    q: np.ndarray  # (N, 2)
    a: np.ndarray  # (N, 2, 2)
    hi: np.ndarray  # (N, 2); every lower bound is 0
    b: np.ndarray  # (2,)
    edges: tuple[tuple[int, int], ...]
    x_star: np.ndarray  # (N, 2)
    eta_star: np.ndarray  # (2,)

    @property
    def n_agents(self) -> int:
        return self.p.shape[0]


def vector_instance(seed: int) -> VectorInstance:
    """Every coefficient of a fixed design scaled by a factor drawn from
    [0.98, 1.02].  Every fourth agent has its first component at the lower
    bound with a multiplier margin of about 2, and every other component
    sits well inside its box, so no seed moves the active set."""
    n = VECTOR_AGENTS
    rng = np.random.default_rng([seed, n, 2])

    def jitter(size=None):
        return rng.uniform(1.0 - VECTOR_JITTER, 1.0 + VECTOR_JITTER, size)

    eta = np.array([-4.0, -3.0]) * jitter(2)
    p = np.zeros((n, 2, 2))
    q = np.zeros((n, 2))
    a = np.zeros((n, 2, 2))
    hi = np.zeros((n, 2))
    x_star = np.zeros((n, 2))
    for i in range(n):
        sign = 1.0 if i % 2 == 0 else -1.0
        a[i] = sign * np.array([[1.0, 0.3 * (i % 3 - 1)], [0.2 * (i % 4 - 1.5), 1.0]]) * jitter((2, 2))
        diag = np.array([0.04 + 0.01 * (i % 3), 0.05 + 0.01 * (i % 2)]) * jitter(2)
        off = 0.002 * (i % 5 - 2)
        p[i] = np.array([[diag[0], off], [off, diag[1]]])
        hi[i] = np.array([100.0, 90.0]) * jitter(2)
        x = hi[i] * np.array([0.3 + 0.1 * (i % 5), 0.35 + 0.1 * (i % 4)]) * jitter(2)
        nu = np.zeros(2)
        if i % 4 == 3:
            x[0] = 0.0
            nu[0] = 2.0 * jitter()
        x_star[i] = x
        q[i] = -2.0 * p[i] @ x - a[i].T @ eta + nu
    b = np.einsum("nij,nj->i", a, x_star)
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    return VectorInstance(p, q, a, hi, b, tuple(ring) + VECTOR_CHORDS, x_star, eta)


def _vec(v) -> str:
    return " ".join(repr(float(x)) for x in np.ravel(v))


def _mat(m) -> str:
    return "; ".join(_vec(row) for row in np.atleast_2d(m))


def instance_text(inst: VectorInstance) -> str:
    """The instance in the documented plain-text file format."""
    n = inst.n_agents
    lines = ["[dims]", "m = 2", "b_dim = 2", "", "[graph]", f"n_vertices = {n}"]
    lines += [f"edge = {i} {j}" for i, j in inst.edges]
    lines += ["", "[b]", f"values = {_vec(inst.b)}", ""]
    for k in range(n):
        lines += [
            f"[agent {k + 1}]",
            f"kappa = {1.0 / n!r}",
            f"a_block = {_mat(inst.a[k])}",
            "f = quadratic",
            f"f.p = {_mat(inst.p[k])}",
            f"f.q = {_vec(inst.q[k])}",
            "f.r = 0.0",
            "g = box",
            "g.lo = 0.0 0.0",
            f"g.hi = {_vec(inst.hi[k])}",
            "",
        ]
    return "\n".join(lines)
