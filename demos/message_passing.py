"""The synchronous message-passing engine.

Each agent runs on its own node with no access to global state; a round is
one exchange with barrier semantics: every node updates its duals, sends
its fresh coupling estimate to its neighbors, and both ends of each edge
update their copies of its multiplier.  The engine reproduces the
monolithic solver bit for bit, and its event log exposes exactly who
talked to whom.  The demo exits with status 1 if any check fails.

Run from the repository root:  python demos/message_passing.py
"""

import sys

import numpy as np

import dualprox as dp
from dualprox.netsim import Engine, message_count, message_volume

instance = dp.build_market()
steps = dp.suggest_step_sizes(
    dp.max_lipschitz(instance),
    dp.laplacian_spectral_radius(instance.graph).value,
)
failed = []


def check(label, ok):
    print(f"{label}: {ok}")
    if not ok:
        failed.append(label)


# --- run the network and the monolithic loop side by side ------------------------

rounds = 500
state = dp.init_state(instance)
for _ in range(rounds):
    state = dp.iterate(instance, state, steps)

with Engine(instance, steps, log_events=True) as engine:
    engine.run(rounds)
    netstate = engine.state()
    events = engine.transport.events

print(f"after {rounds} rounds:")
check("  theta identical bit-for-bit", np.array_equal(state.theta, netstate.theta))
check("  mu    identical bit-for-bit", np.array_equal(state.mu, netstate.mu))
check("  xi    identical bit-for-bit", np.array_equal(state.xi, netstate.xi))
print()

# --- communication accounting ------------------------------------------------------

round0 = [e for e in events if e[0] == 0]
n_messages, n_scalars = len(round0), sum(e[4] for e in round0)
check(f"messages per round {n_messages} match the formula",
      n_messages == message_count(instance.graph))
check(f"scalars per round {n_scalars} match the formula",
      n_scalars == message_volume(instance.graph, instance.b_dim))
print()
print("round-0 traffic (sender -> recipient, scalars):")
for t, _, sender, recipient, size in round0:
    print(f"  {sender} -> {recipient}  ({size})")
print()

# --- determinism across runs ---------------------------------------------------------
# every node reads only its mailbox and sums neighbor data in ascending index
# order, so two fresh engines driven for the same rounds agree bit for bit

states = []
for _ in range(2):
    with Engine(instance, steps) as eng:
        eng.run(200)
        states.append(eng.state())
same = (
    np.array_equal(states[0].theta, states[1].theta)
    and np.array_equal(states[0].mu, states[1].mu)
    and np.array_equal(states[0].xi, states[1].xi)
)
check("two fresh engines agree bit-for-bit after 200 rounds", same)

if failed:
    sys.exit(1)
