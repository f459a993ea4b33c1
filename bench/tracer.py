"""Per-layer counters, installed by wrapping the program's public functions.

The wrappers are put in place from outside: each one replaces a function
in the module namespace (or class) where the program looks it up, counts
calls and adds up inclusive wall time.  ``install`` returns the tracer and
``restore`` puts every original back, so the program itself is never
edited and untraced runs execute none of these wrappers.
"""

from __future__ import annotations

import functools
import time

import dualprox.cli as cli
import dualprox.functions as functions
import dualprox.problems as problems
import dualprox.solver as solver
import dualprox.topology as topology

# layer name -> [(namespace, attribute), ...] where the program looks it up
MODULE_TARGETS = {
    "problems.build_market": [(problems, "build_market"), (cli, "build_market")],
    "problems.load_instance": [(problems, "load_instance"), (cli, "load_instance")],
    "problems.validate": [(problems, "validate"), (solver, "validate"), (cli, "validate")],
    "topology.spectral_radius": [
        (topology, "laplacian_spectral_radius"),
        (solver, "laplacian_spectral_radius"),
        (cli, "laplacian_spectral_radius"),
    ],
    "topology.graph": [(topology.Graph, "__init__")],
    "solver.iterate": [(solver, "iterate")],
    "solver.residuals": [(solver, "residuals")],
    "solver.trace_record": [(solver.Trace, "record")],
    "solver.write_csv": [(solver.Trace, "write_csv")],
}

# catalog methods, wrapped on every class that defines them itself
CATALOG_METHODS = ("conjugate_gradient", "conjugate_prox", "support_value")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, seconds]
        self.power_iterations = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[1] += clock() - start
                stats[0] += 1

        return wrapper

    def _wrap_spectral(self, fn):
        inner = self._wrap("topology.spectral_radius", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.power_iterations += result.iterations
            return result

        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        for name, sites in MODULE_TARGETS.items():
            original = getattr(*sites[0])
            if name == "topology.spectral_radius":
                wrapped = self._wrap_spectral(original)
            else:
                wrapped = self._wrap(name, original)
            for owner, attr in sites:
                self._replace(owner, attr, wrapped)
        for cls in vars(functions).values():
            if isinstance(cls, type) and issubclass(
                cls, (functions.SmoothFunction, functions.NonsmoothFunction)
            ):
                for method in CATALOG_METHODS:
                    if method in vars(cls):
                        self._replace(
                            cls, method, self._wrap(f"functions.{method}", vars(cls)[method])
                        )
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "power_iterations": self.power_iterations,
        }
