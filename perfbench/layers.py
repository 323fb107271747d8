"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``.  It measures a layer by replacing a
public entry point with a timing wrapper at every name its callers
resolve: a method on its class (so every caller sees it), or a
module-level function in every loaded ``repro`` module that bound it
with ``from ... import``.

A wrapped call is a span.  Spans nest per thread, so a layer's self
time is its inclusive time minus the time of the wrapped calls made
inside it.  Spans are aggregated in memory (calls, inclusive seconds,
self seconds) rather than kept one by one: the hot layers see hundreds
of thousands of calls per run.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Aggregated spans and counters, safe to update from many threads."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_return: Callable[[tuple, dict, Any, float], None] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper of ``fn`` that records one ``name`` span per call.

        ``on_return(args, kwargs, result, seconds)`` runs after a call
        that returned, for layers that count something in the result.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            frame = [0.0]  # seconds spent in wrapped children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.total_s[name] += seconds
                    tracer.self_s[name] += seconds - frame[0]
            if on_return is not None:
                on_return(args, kwargs, result, seconds)
            return result

        return wrapper

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Bump a named counter."""
        with self._lock:
            self.counters[counter] += amount

    def peak(self, counter: str, value: float) -> None:
        """Keep the largest value seen for ``counter``."""
        with self._lock:
            self.counters[counter] = max(self.counters[counter], value)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """A copy of every aggregate, for reporting."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "counters": dict(self.counters),
            }


def wrap_method(tracer: Tracer, name: str, cls: type, attr: str) -> None:
    """Trace ``cls.attr`` for every caller (subclasses that call
    ``super()`` included)."""
    setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr]))


def wrap_function(tracer: Tracer, name: str, module: str, attr: str) -> None:
    """Trace ``module.attr`` at every ``repro`` module that bound it.

    Callers that imported the function by name hold their own reference,
    so the wrapper replaces each loaded module's binding of the original.
    Call only after the program's modules are imported.
    """
    original = getattr(sys.modules[module], attr)
    wrapped = tracer.wrap(name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "repro" or mod is None:
            continue
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def install_diagnosis_layers(tracer: Tracer) -> None:
    """Wrap the layers a diagnosis session passes through.

    The names match the per-layer metrics in ``BENCHMARK.json``; the
    module list mirrors ``core.protocol`` -> ``trap.machine`` ->
    ``sim.xx_engine`` / ``sim.dense_plan``, plus the calibration entry
    points of ``analysis.experiments.scenarios``.
    """
    import repro.analysis.experiments.arena  # noqa: F401 (binds calibrate_cell)
    import repro.analysis.experiments.scenarios  # noqa: F401
    from repro.core.protocol import TestExecutor
    from repro.sim.dense_plan import DensePlan
    from repro.sim.xx_engine import ContractionPlan
    from repro.trap.machine import CompiledBattery, VirtualIonTrap

    wrap_method(tracer, "core.execute", TestExecutor, "execute")
    wrap_function(
        tracer, "core.build_test_circuit", "repro.core.tests_builder", "build_test_circuit"
    )
    wrap_method(tracer, "trap.run_match", VirtualIonTrap, "run_match")
    wrap_method(tracer, "trap.compiled_battery.compile", CompiledBattery, "__init__")
    wrap_method(
        tracer, "trap.compiled_battery.trial_fidelities", CompiledBattery, "trial_fidelities"
    )
    wrap_method(tracer, "sim.xx.plan_build", ContractionPlan, "__init__")
    wrap_method(tracer, "sim.xx.amplitudes", ContractionPlan, "amplitudes")
    wrap_method(tracer, "sim.dense.probabilities", DensePlan, "probabilities")
    wrap_function(
        tracer,
        "scenarios.calibrate_cell",
        "repro.analysis.experiments.scenarios",
        "calibrate_cell",
    )


def diagnosis_layer_metrics(snap: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of the diagnosis layers from a tracer snapshot."""
    calls, total, own = snap["calls"], snap["total_s"], snap["self_s"]
    counters = snap["counters"]

    def c(name: str) -> float:
        return float(calls.get(name, 0))

    builds = counters.get("trap.dense_plan.builds", 0.0)
    hits = counters.get("trap.dense_plan.hits", 0.0)
    rebinds = counters.get("trap.dense_plan.rebinds", 0.0)
    lookups = builds + hits + rebinds
    return {
        "core.execute.calls": c("core.execute"),
        "core.execute.self_s": own.get("core.execute", 0.0),
        "core.build_test_circuit.calls": c("core.build_test_circuit"),
        "core.build_test_circuit.s": total.get("core.build_test_circuit", 0.0),
        "trap.run_match.calls": c("trap.run_match"),
        "trap.run_match.self_s": own.get("trap.run_match", 0.0),
        "trap.circuit_runs": counters.get("trap.circuit_runs", 0.0),
        "trap.shots": counters.get("trap.shots", 0.0),
        "trap.two_qubit_gates": counters.get("trap.two_qubit_gates", 0.0),
        "trap.quantum_seconds": counters.get("trap.quantum_seconds", 0.0),
        "trap.dense_plan.builds": builds,
        "trap.dense_plan.hits": hits,
        "trap.dense_plan.rebinds": rebinds,
        "trap.dense_plan.invalidations": counters.get("trap.dense_plan.invalidations", 0.0),
        "trap.dense_plan.hit_ratio": (hits + rebinds) / lookups if lookups else 0.0,
        "sim.xx.plan_builds": c("sim.xx.plan_build"),
        "sim.xx.plan_build_s": total.get("sim.xx.plan_build", 0.0),
        "sim.xx.amplitudes.calls": c("sim.xx.amplitudes"),
        "sim.xx.amplitudes.s": total.get("sim.xx.amplitudes", 0.0),
        "sim.xx.spin_table_bytes": counters.get("sim.xx.spin_table_bytes", 0.0),
        "sim.dense.probabilities.calls": c("sim.dense.probabilities"),
        "sim.dense.probabilities.s": total.get("sim.dense.probabilities", 0.0),
        "scenarios.calibrate_cell.calls": c("scenarios.calibrate_cell"),
        "scenarios.calibrate_cell.s": total.get("scenarios.calibrate_cell", 0.0),
        "trap.compiled_battery.compiles": c("trap.compiled_battery.compile"),
        "trap.compiled_battery.trial_fidelities_s": total.get(
            "trap.compiled_battery.trial_fidelities", 0.0
        ),
    }


def add_machine_stats(tracer: Tracer, stats: Any) -> None:
    """Fold one session machine's ``MachineStats`` into the counters."""
    tracer.add("trap.circuit_runs", stats.circuit_runs)
    tracer.add("trap.shots", stats.shots)
    tracer.add("trap.two_qubit_gates", stats.two_qubit_gates)
    tracer.add("trap.quantum_seconds", stats.quantum_seconds)
    tracer.add("trap.dense_plan.builds", stats.dense_plan_builds)
    tracer.add("trap.dense_plan.hits", stats.dense_plan_hits)
    tracer.add("trap.dense_plan.rebinds", stats.dense_plan_rebinds)
    tracer.add("trap.dense_plan.invalidations", stats.dense_plan_invalidations)
