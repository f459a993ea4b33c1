"""Synchronous neighbor-only message-passing engine.

Hosts one node per agent and drives rounds of one exchange each, with
barrier semantics.  Every node updates its duals from its own data, its
cache of its neighbors' coupling estimates from the last round and its
copies of its incident edges' multipliers, then sends its fresh estimate
to every neighbor.  On receipt, both ends of an edge update their copies
of its multiplier from the same two estimates in the same order, so the
copies hold the same bits, and the received estimates become the next
round's cache.  All duals and multipliers start at zero, so the cache is
exact before round 0 and no exchange precedes it.  Nodes hold no reference
to any global state, so an update can only use the node's own data and
what arrived in its mailbox.  The in-memory transport is lossless and
delivers everything before any recipient computes, so the engine is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .problems import ProblemInstance
from .solver import SolverState, StepSizes, lambda_update, xi_update
from .topology import Graph, NeighborSets

__all__ = [
    "AgentNode",
    "Engine",
    "InMemoryTransport",
    "Mailbox",
    "Message",
    "ProtocolViolation",
    "message_count",
    "message_volume",
]

# The transport's event tuples keep a phase field, which is constant now
# that a round is one exchange: the benchmark harness reads events by
# position (round first, size last).
EXCHANGE = "theta_exchange"


@dataclass(frozen=True)
class Message:
    """One agent's fresh coupling estimate, sent to one neighbor."""

    round: int
    sender: int
    theta: np.ndarray

    @property
    def size(self) -> int:
        return self.theta.size


class ProtocolViolation(RuntimeError):
    """A node tried to compute before its mailbox had the required data."""

    def __init__(self, round: int, sender: int, recipient: int):
        self.round = round
        self.sender = sender
        self.recipient = recipient
        super().__init__(
            f"round {round}: recipient {recipient} "
            f"is missing the message from {sender}"
        )


class Mailbox:
    """Inbound messages of one node: one slot per round, holding one
    message per sender."""

    def __init__(self):
        self._slots: dict[int, dict[int, Message]] = {}

    def put(self, message: Message) -> None:
        self._slots.setdefault(message.round, {})[message.sender] = message

    def take(self, round: int) -> dict[int, Message]:
        """Drain and return the messages of one round, keyed by sender."""
        return self._slots.pop(round, {})

    def pending(self) -> int:
        return sum(len(slot) for slot in self._slots.values())


class InMemoryTransport:
    """Lossless transport delivering directly into recipient mailboxes.

    Optionally records (round, phase, sender, recipient, payload_size)
    events.
    """

    def __init__(self, recipients: Iterable[int], log_events: bool = False):
        self.mailboxes = {i: Mailbox() for i in recipients}
        self.events: list[tuple[int, str, int, int, int]] | None = (
            [] if log_events else None
        )

    def send(self, recipient: int, message: Message) -> None:
        if recipient not in self.mailboxes:
            raise KeyError(f"unknown recipient {recipient}")
        if self.events is not None:
            self.events.append(
                (message.round, EXCHANGE, message.sender, recipient, message.size)
            )
        self.mailboxes[recipient].put(message)

    def collect(self, recipient: int, round: int) -> dict[int, Message]:
        return self.mailboxes[recipient].take(round)


class AgentNode:
    """One agent: its private problem data, duals, cache of its neighbors'
    coupling estimates, and copies of its incident edges' multipliers.

    Only the node's own arrays and mailbox contents enter its updates.
    """

    def __init__(
        self,
        agent_id: int,
        problem,
        b: np.ndarray,
        neighbors: NeighborSets,
        steps: StepSizes,
    ):
        self.id = agent_id
        self.problem = problem
        self.b = np.array(b, dtype=float)
        self.neighbors = neighbors
        self.steps = steps
        b_dim = problem.b_dim
        self.theta = np.zeros(b_dim)
        self.mu = np.zeros(problem.m)
        self.neighbor_theta = {j: np.zeros(b_dim) for j in neighbors.all}
        self.xi = {j: np.zeros(b_dim) for j in neighbors.all}  # keyed by peer

    def update(self, t: int) -> list[tuple[int, Message]]:
        """Update the duals and return the fresh estimate for each neighbor."""
        self.theta, self.mu, _ = lambda_update(
            self.problem,
            self.b,
            self.theta,
            self.mu,
            self.neighbor_theta,
            {j: self.xi[j] for j in self.neighbors.owned},
            {j: self.xi[j] for j in self.neighbors.incoming},
            self.steps.c,
            self.steps.gamma,
        )
        return [(j, Message(t, self.id, self.theta.copy())) for j in self.neighbors.all]

    def receive(self, inbox: dict[int, Message], t: int) -> None:
        """Update every incident edge's multiplier and cache the estimates."""
        for j in self.neighbors.all:
            if j not in inbox:
                raise ProtocolViolation(t, j, self.id)
        gamma = self.steps.gamma
        for j in self.neighbors.owned:
            self.xi[j] = xi_update(self.xi[j], self.theta, inbox[j].theta, gamma)
        for j in self.neighbors.incoming:
            self.xi[j] = xi_update(self.xi[j], inbox[j].theta, self.theta, gamma)
        self.neighbor_theta = {j: inbox[j].theta for j in self.neighbors.all}


class Engine:
    """Round driver over a set of agent nodes and a transport."""

    def __init__(
        self,
        instance: ProblemInstance,
        steps: StepSizes,
        log_events: bool = False,
    ):
        self.graph: Graph = instance.graph
        ids = range(1, instance.n_agents + 1)
        self.transport = InMemoryTransport(ids, log_events=log_events)
        self.nodes = {
            i: AgentNode(
                i,
                instance.agents[i - 1],
                instance.b,
                instance.graph.neighbors(i),
                steps,
            )
            for i in ids
        }
        self.t = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def run_round(self) -> None:
        """One synchronous round: every node updates and sends, then receives."""
        t = self.t
        ids = sorted(self.nodes)
        for i in ids:
            for recipient, msg in self.nodes[i].update(t):
                self.transport.send(recipient, msg)
        for i in ids:
            self.nodes[i].receive(self.transport.collect(i, t), t)
        self.t += 1

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    def state(self) -> SolverState:
        """Stacked view of all node states, for comparison with the solver;
        each edge multiplier is read from its owner's copy."""
        ids = sorted(self.nodes)
        theta = np.vstack([self.nodes[i].theta for i in ids])
        mu = np.vstack([self.nodes[i].mu for i in ids])
        xi = np.zeros((self.graph.n_edges, theta.shape[1]))
        for k, (i, j) in enumerate(self.graph.edges):
            xi[k] = self.nodes[i].xi[j]
        return SolverState(theta, mu, xi, self.t)


def message_count(graph: Graph) -> int:
    """Messages per round: one coupling estimate each way over every edge."""
    return 2 * graph.n_edges


def message_volume(graph: Graph, b_dim: int) -> int:
    """Scalars moved per round across the whole network."""
    return 2 * graph.n_edges * b_dim
