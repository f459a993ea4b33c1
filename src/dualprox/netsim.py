"""Synchronous neighbor-only message-passing engine.

Hosts one node per agent and drives rounds in two phases with barrier
semantics: first every node broadcasts its dual snapshot to its neighbors
(and every edge owner pushes the edge multiplier to the other endpoint),
then all nodes update their duals; second, every node sends its fresh
coupling estimate to the owners of its incident edges, and owners update
the edge multipliers.  Nodes hold no reference to any global state, so an
update can only use the node's own data and what arrived in its mailbox.
The in-memory transport is lossless and delivers everything before any
recipient computes, so the engine is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .problems import ProblemInstance
from .solver import SolverState, StepSizes, lambda_update, xi_update
from .topology import Graph, NeighborSets

__all__ = [
    "AgentNode",
    "Engine",
    "InMemoryTransport",
    "LambdaPayload",
    "Mailbox",
    "Message",
    "Phase",
    "ProtocolViolation",
    "XiPayload",
    "message_count",
    "message_volume",
]


class Phase(Enum):
    LAMBDA_EXCHANGE = "lambda_exchange"
    LAMBDA_PLUS_EXCHANGE = "lambda_plus_exchange"


@dataclass(frozen=True)
class LambdaPayload:
    """Dual snapshot of one agent."""

    theta: np.ndarray
    mu: np.ndarray

    @property
    def size(self) -> int:
        return self.theta.size + self.mu.size


@dataclass(frozen=True)
class XiPayload:
    """One owned edge multiplier, pushed from owner to peer."""

    xi: np.ndarray

    @property
    def size(self) -> int:
        return self.xi.size


@dataclass(frozen=True)
class Message:
    round: int
    phase: Phase
    sender: int
    payload: LambdaPayload | XiPayload


class ProtocolViolation(RuntimeError):
    """A node tried to compute before its mailbox had the required data."""

    def __init__(self, round: int, phase: Phase, sender: int, recipient: int):
        self.round = round
        self.phase = phase
        self.sender = sender
        self.recipient = recipient
        super().__init__(
            f"round {round}, phase {phase.value}: recipient {recipient} "
            f"is missing the message from {sender}"
        )


class Mailbox:
    """Inbound queues of one node, keyed by (round, phase).

    A sender may deliver several messages into one slot (an edge owner
    sends both its dual snapshot and the edge multiplier to the peer), so
    each slot keeps a list per sender.
    """

    def __init__(self):
        self._slots: dict[tuple[int, Phase], dict[int, list[Message]]] = {}

    def put(self, message: Message) -> None:
        slot = self._slots.setdefault((message.round, message.phase), {})
        slot.setdefault(message.sender, []).append(message)

    def take(self, round: int, phase: Phase) -> dict[int, list[Message]]:
        """Drain and return all messages for one (round, phase) slot."""
        return self._slots.pop((round, phase), {})

    def pending(self) -> int:
        return sum(
            len(msgs) for slot in self._slots.values() for msgs in slot.values()
        )


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
                (
                    message.round,
                    message.phase.value,
                    message.sender,
                    recipient,
                    message.payload.size,
                )
            )
        self.mailboxes[recipient].put(message)

    def collect(
        self, recipient: int, round: int, phase: Phase
    ) -> dict[int, list[Message]]:
        return self.mailboxes[recipient].take(round, phase)


class AgentNode:
    """One agent: its private problem data, duals, and owned multipliers.

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
        m = problem.m
        b_dim = problem.b_dim
        self.theta = np.zeros(b_dim)
        self.mu = np.zeros(m)
        self.xi_owned: dict[int, np.ndarray] = {
            j: np.zeros(b_dim) for j in neighbors.owned
        }
        self.x_hat = np.zeros(m)

    # -- phase A: broadcast duals, owners push edge multipliers ------------

    def phase_a_messages(self, t: int) -> list[tuple[int, Message]]:
        out = []
        snapshot = LambdaPayload(self.theta.copy(), self.mu.copy())
        for j in self.neighbors.all:
            out.append((j, Message(t, Phase.LAMBDA_EXCHANGE, self.id, snapshot)))
        for j in self.neighbors.owned:
            out.append(
                (
                    j,
                    Message(
                        t, Phase.LAMBDA_EXCHANGE, self.id, XiPayload(self.xi_owned[j].copy())
                    ),
                )
            )
        return out

    def apply_phase_a(self, inbox: dict[int, list[Message]], t: int) -> None:
        neighbor_thetas: dict[int, np.ndarray] = {}
        incoming_xi: dict[int, np.ndarray] = {}
        for sender, messages in inbox.items():
            for msg in messages:
                if isinstance(msg.payload, LambdaPayload):
                    neighbor_thetas[sender] = msg.payload.theta
                else:
                    incoming_xi[sender] = msg.payload.xi
        for j in self.neighbors.all:
            if j not in neighbor_thetas:
                raise ProtocolViolation(t, Phase.LAMBDA_EXCHANGE, j, self.id)
        for j in self.neighbors.incoming:
            if j not in incoming_xi:
                raise ProtocolViolation(t, Phase.LAMBDA_EXCHANGE, j, self.id)
        self.theta, self.mu, self.x_hat = lambda_update(
            self.problem,
            self.b,
            self.theta,
            self.mu,
            neighbor_thetas,
            self.xi_owned,
            incoming_xi,
            self.steps.c,
            self.steps.gamma,
        )

    # -- phase B: send fresh theta to owners, owners update multipliers ----

    def phase_b_messages(self, t: int) -> list[tuple[int, Message]]:
        out = []
        snapshot = LambdaPayload(self.theta.copy(), self.mu.copy())
        for j in self.neighbors.incoming:  # owners of my incident edges
            out.append((j, Message(t, Phase.LAMBDA_PLUS_EXCHANGE, self.id, snapshot)))
        return out

    def apply_phase_b(self, inbox: dict[int, list[Message]], t: int) -> None:
        fresh: dict[int, np.ndarray] = {}
        for sender, messages in inbox.items():
            for msg in messages:
                if isinstance(msg.payload, LambdaPayload):
                    fresh[sender] = msg.payload.theta
        for j in self.neighbors.owned:
            if j not in fresh:
                raise ProtocolViolation(t, Phase.LAMBDA_PLUS_EXCHANGE, j, self.id)
            self.xi_owned[j] = xi_update(
                self.xi_owned[j], self.theta, fresh[j], self.steps.gamma
            )


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
        """One synchronous round: send/compute duals, send/compute multipliers."""
        t = self.t
        ids = sorted(self.nodes)
        for i in ids:
            for recipient, msg in self.nodes[i].phase_a_messages(t):
                self.transport.send(recipient, msg)
        for i in ids:
            inbox = self.transport.collect(i, t, Phase.LAMBDA_EXCHANGE)
            self.nodes[i].apply_phase_a(inbox, t)

        for i in ids:
            for recipient, msg in self.nodes[i].phase_b_messages(t):
                self.transport.send(recipient, msg)
        for i in ids:
            inbox = self.transport.collect(i, t, Phase.LAMBDA_PLUS_EXCHANGE)
            self.nodes[i].apply_phase_b(inbox, t)
        self.t += 1

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    def state(self) -> SolverState:
        """Stacked view of all node states, for comparison with the solver."""
        ids = sorted(self.nodes)
        theta = np.vstack([self.nodes[i].theta for i in ids])
        mu = np.vstack([self.nodes[i].mu for i in ids])
        b_dim = theta.shape[1]
        xi = np.zeros((self.graph.n_edges, b_dim))
        for (i, j), k in self.graph.edge_index.items():
            xi[k] = self.nodes[i].xi_owned[j]
        return SolverState(theta, mu, xi, self.t)


def message_count(graph: Graph) -> int:
    """Messages per round: two dual snapshots per edge, plus one multiplier
    push and one fresh-estimate reply per edge."""
    return 4 * graph.n_edges


def message_volume(graph: Graph, b_dim: int, m: int) -> int:
    """Scalars moved per round across the whole network."""
    e = graph.n_edges
    return 2 * e * (b_dim + m) + e * b_dim + e * (b_dim + m)
