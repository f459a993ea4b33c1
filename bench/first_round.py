"""Notes when ``solve`` starts its rounds.

``solve`` starts its own clock right after its set-up and then calls
``residuals`` for round 0.  ``FirstRound`` replaces ``solver.residuals``
with a hook that notes the time of that first call and puts the original
back at once, so the rounds themselves run unwrapped.  Set-up is then the
time before the hook fired, and solving the time from it to the return,
primal recovery included.
"""

from __future__ import annotations

import dualprox.solver as solver


class FirstRound:
    def __init__(self, clock):
        self.clock = clock
        self.time = None

    def __enter__(self) -> "FirstRound":
        self.time = None
        original = self._original = solver.residuals

        def hook(*args, **kwargs):
            self.time = self.clock()
            solver.residuals = original
            return original(*args, **kwargs)

        solver.residuals = hook
        return self

    def __exit__(self, *exc) -> None:
        solver.residuals = self._original
