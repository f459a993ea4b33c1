import numpy as np
import pytest

from dualprox.netsim import (
    Engine,
    InMemoryTransport,
    Mailbox,
    Message,
    ProtocolViolation,
    message_count,
    message_volume,
)
from dualprox.problems import build_market
from dualprox.solver import init_state, iterate, max_lipschitz, suggest_step_sizes
from dualprox.topology import Graph, laplacian_spectral_radius

from oracles import random_instance

GAMMAS = (0.5, 1.0, 3.0)


def steps_for(instance, gamma=1.0):
    return suggest_step_sizes(
        max_lipschitz(instance),
        laplacian_spectral_radius(instance.graph).value,
        gamma,
    )


def assert_engine_matches_iterate(instance, gamma, rounds):
    steps = steps_for(instance, gamma)
    state = init_state(instance)
    with Engine(instance, steps) as engine:
        for _ in range(rounds):
            state = iterate(instance, state, steps)
        engine.run(rounds)
        netstate = engine.state()
        nodes = engine.nodes
    assert np.array_equal(state.theta, netstate.theta), gamma
    assert np.array_equal(state.mu, netstate.mu), gamma
    assert np.array_equal(state.xi, netstate.xi), gamma
    for i, j in instance.graph.edges:
        assert np.array_equal(nodes[i].xi[j], nodes[j].xi[i]), (gamma, i, j)


class TestMailbox:
    def test_slot_holds_one_message_per_sender(self):
        box = Mailbox()
        first = Message(0, 1, np.zeros(1))
        box.put(first)
        box.put(Message(0, 2, np.ones(1)))
        got = box.take(0)
        assert set(got) == {1, 2}
        assert got[1] is first
        assert box.pending() == 0

    def test_slots_keyed_by_round(self):
        box = Mailbox()
        box.put(Message(3, 2, np.zeros(1)))
        box.put(Message(4, 2, np.zeros(1)))
        assert box.take(2) == {}
        assert box.pending() == 2
        assert set(box.take(3)) == {2}
        assert box.pending() == 1


class TestEngineEquivalence:
    # gamma is looped rather than parametrized so that the test ids stay put;
    # the assertion messages name the gamma that failed
    def test_market_matches_monolithic_bitwise(self):
        instance = build_market()
        for gamma in GAMMAS:
            assert_engine_matches_iterate(instance, gamma, 100)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances_match_bitwise(self, seed):
        rng = np.random.default_rng(900 + seed)
        instance = random_instance(rng, int(rng.integers(2, 6)), m=2, b_dim=2)
        for gamma in GAMMAS:
            assert_engine_matches_iterate(instance, gamma, 30)


class TestMessageAccounting:
    def test_market_counts(self):
        instance = build_market()
        with Engine(instance, steps_for(instance), log_events=True) as engine:
            engine.run(3)
            events = engine.transport.events
        for t in range(3):
            round_events = [e for e in events if e[0] == t]
            assert len(round_events) == 10
            assert sum(e[4] for e in round_events) == 10
        assert message_count(instance.graph) == 10
        assert message_volume(instance.graph, 1) == 10

    def test_single_edge_counts(self):
        graph = Graph(2, [(1, 2)])
        assert message_count(graph) == 2
        assert message_volume(graph, 1) == 2

    def test_ring_scaling_is_linear_in_edges(self):
        volumes = []
        for n in (4, 8, 16):
            ring = Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])
            volumes.append(message_volume(ring, 2))
        assert volumes[1] == 2 * volumes[0]
        assert volumes[2] == 4 * volumes[0]

    def test_one_message_each_way_per_edge_per_round(self):
        rng = np.random.default_rng(901)
        instance = random_instance(rng, 5, m=2, b_dim=2)
        rounds = 4
        with Engine(instance, steps_for(instance), log_events=True) as engine:
            engine.run(rounds)
            events = engine.transport.events
        each_way = sorted(
            pair for i, j in instance.graph.edges for pair in ((i, j), (j, i))
        )
        for t in range(rounds):
            round_events = [e for e in events if e[0] == t]
            assert sorted((e[2], e[3]) for e in round_events) == each_way
            assert all(e[4] == 2 for e in round_events)
        assert len(events) == rounds * message_count(instance.graph)
        assert sum(e[4] for e in events) == rounds * message_volume(instance.graph, 2)


class TestIsolation:
    def test_all_traffic_stays_on_edges(self):
        instance = build_market()
        with Engine(instance, steps_for(instance), log_events=True) as engine:
            engine.run(5)
            events = engine.transport.events
        allowed = set()
        for i, j in instance.graph.edges:
            allowed.add((i, j))
            allowed.add((j, i))
        seen = {(sender, recipient) for _, _, sender, recipient, _ in events}
        assert seen == allowed

    def test_nodes_hold_no_shared_arrays(self):
        instance = build_market()
        with Engine(instance, steps_for(instance)) as engine:
            engine.run(2)
            nodes = engine.nodes
            arrays = []
            for node in nodes.values():
                arrays.append(node.theta)
                arrays.append(node.mu)
                arrays.extend(node.neighbor_theta.values())
                arrays.extend(node.xi.values())
        for a in range(len(arrays)):
            for b in range(a + 1, len(arrays)):
                assert not np.shares_memory(arrays[a], arrays[b])


class TestProtocolViolation:
    def test_missing_lambda_message_is_named(self):
        instance = build_market()
        engine = Engine(instance, steps_for(instance))
        node = engine.nodes[3]  # neighbors 1, 2 and 4
        inbox = {j: Message(7, j, np.zeros(1)) for j in (1, 4)}
        with pytest.raises(ProtocolViolation) as err:
            node.receive(inbox, 7)
        assert err.value.recipient == 3
        assert err.value.sender == 2
        assert err.value.round == 7
        assert "round 7" in str(err.value)

    def test_unknown_recipient_rejected(self):
        transport = InMemoryTransport([1, 2])
        msg = Message(0, 1, np.zeros(1))
        with pytest.raises(KeyError):
            transport.send(9, msg)


class TestConvergenceThroughEngine:
    def test_market_run_reaches_the_known_optimum(self):
        instance = build_market()
        steps = steps_for(instance)
        with Engine(instance, steps) as engine:
            engine.run(3000)
            state = engine.state()
        assert np.allclose(state.theta, -8.0939, atol=1e-3)
        assert np.allclose(
            state.mu.ravel(), [-0.6161, 2.3439, 0.0, 0.0, 0.0], atol=1e-3
        )
