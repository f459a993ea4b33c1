import numpy as np
import pytest

from dualprox.netsim import (
    Engine,
    InMemoryTransport,
    LambdaPayload,
    Mailbox,
    Message,
    Phase,
    ProtocolViolation,
    XiPayload,
    message_count,
    message_volume,
)
from dualprox.problems import build_market
from dualprox.solver import init_state, iterate, max_lipschitz, suggest_step_sizes
from dualprox.topology import Graph, laplacian_spectral_radius

from oracles import random_instance


def steps_for(instance, gamma=1.0):
    return suggest_step_sizes(
        max_lipschitz(instance),
        laplacian_spectral_radius(instance.graph).value,
        gamma,
    )


class TestMailbox:
    def test_slot_keeps_multiple_messages_per_sender(self):
        box = Mailbox()
        lam = Message(0, Phase.LAMBDA_EXCHANGE, 1, LambdaPayload(np.zeros(1), np.zeros(1)))
        xi = Message(0, Phase.LAMBDA_EXCHANGE, 1, XiPayload(np.zeros(1)))
        box.put(lam)
        box.put(xi)
        got = box.take(0, Phase.LAMBDA_EXCHANGE)
        assert len(got[1]) == 2
        assert box.pending() == 0

    def test_slots_keyed_by_round_and_phase(self):
        box = Mailbox()
        box.put(Message(3, Phase.LAMBDA_PLUS_EXCHANGE, 2, XiPayload(np.zeros(1))))
        assert box.take(3, Phase.LAMBDA_EXCHANGE) == {}
        assert box.pending() == 1
        assert 2 in box.take(3, Phase.LAMBDA_PLUS_EXCHANGE)


class TestEngineEquivalence:
    def test_market_matches_monolithic_bitwise(self):
        instance = build_market()
        steps = steps_for(instance)
        state = init_state(instance)
        with Engine(instance, steps) as engine:
            for _ in range(100):
                state = iterate(instance, state, steps)
            engine.run(100)
            netstate = engine.state()
        assert np.array_equal(state.theta, netstate.theta)
        assert np.array_equal(state.mu, netstate.mu)
        assert np.array_equal(state.xi, netstate.xi)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances_match_bitwise(self, seed):
        rng = np.random.default_rng(900 + seed)
        instance = random_instance(rng, int(rng.integers(2, 6)), m=2, b_dim=2)
        steps = steps_for(instance)
        state = init_state(instance)
        with Engine(instance, steps) as engine:
            for _ in range(30):
                state = iterate(instance, state, steps)
            engine.run(30)
            netstate = engine.state()
        assert np.array_equal(state.theta, netstate.theta)
        assert np.array_equal(state.mu, netstate.mu)
        assert np.array_equal(state.xi, netstate.xi)


class TestMessageAccounting:
    def test_market_counts(self):
        instance = build_market()
        with Engine(instance, steps_for(instance), log_events=True) as engine:
            engine.run(3)
            events = engine.transport.events
        for t in range(3):
            round_events = [e for e in events if e[0] == t]
            assert len(round_events) == 20
            assert sum(e[4] for e in round_events) == 35
        assert message_count(instance.graph) == 20
        assert message_volume(instance.graph, 1, 1) == 35

    def test_single_edge_counts(self):
        graph = Graph(2, [(1, 2)])
        assert message_count(graph) == 4
        assert message_volume(graph, 1, 1) == 7

    def test_ring_scaling_is_linear_in_edges(self):
        volumes = []
        for n in (4, 8, 16):
            ring = Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])
            volumes.append(message_volume(ring, 2, 3))
        assert volumes[1] == 2 * volumes[0]
        assert volumes[2] == 4 * volumes[0]

    def test_phase_breakdown(self):
        instance = build_market()
        with Engine(instance, steps_for(instance), log_events=True) as engine:
            engine.run_round()
            events = engine.transport.events
        phase_a = [e for e in events if e[1] == Phase.LAMBDA_EXCHANGE.value]
        phase_b = [e for e in events if e[1] == Phase.LAMBDA_PLUS_EXCHANGE.value]
        assert len(phase_a) == 2 * 5 + 5  # dual snapshots both ways + owner pushes
        assert len(phase_b) == 5  # fresh estimates back to owners


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
                arrays.extend(node.xi_owned.values())
        for a in range(len(arrays)):
            for b in range(a + 1, len(arrays)):
                assert not np.shares_memory(arrays[a], arrays[b])


class TestProtocolViolation:
    def test_missing_lambda_message_is_named(self):
        instance = build_market()
        steps = steps_for(instance)
        engine = Engine(instance, steps)
        node = engine.nodes[3]
        with pytest.raises(ProtocolViolation) as err:
            node.apply_phase_a({}, 0)
        assert err.value.recipient == 3
        assert err.value.sender in (1, 2, 4)
        assert err.value.round == 0
        assert "phase" in str(err.value)

    def test_missing_xi_message_detected(self):
        instance = build_market()
        engine = Engine(instance, steps_for(instance))
        node = engine.nodes[3]  # neighbors 1, 2, 4; owners 1 and 2 push xi
        inbox = {
            j: [Message(0, Phase.LAMBDA_EXCHANGE, j,
                        LambdaPayload(np.zeros(1), np.zeros(1)))]
            for j in (1, 2, 4)
        }
        with pytest.raises(ProtocolViolation) as err:
            node.apply_phase_a(inbox, 0)
        assert err.value.sender in (1, 2)

    def test_missing_phase_b_message_detected(self):
        instance = build_market()
        engine = Engine(instance, steps_for(instance))
        node = engine.nodes[1]  # owns edges to 2 and 3
        with pytest.raises(ProtocolViolation) as err:
            node.apply_phase_b({}, 0)
        assert err.value.phase is Phase.LAMBDA_PLUS_EXCHANGE

    def test_unknown_recipient_rejected(self):
        transport = InMemoryTransport([1, 2])
        msg = Message(0, Phase.LAMBDA_EXCHANGE, 1, XiPayload(np.zeros(1)))
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
