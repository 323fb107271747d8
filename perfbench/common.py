"""Statistics, the result line and the run history shared by the workloads."""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 60.0, 50.0)

#: End-to-end metrics and their units (the ``end_to_end`` list of
#: ``BENCHMARK.json``); every workload reports all of them.
E2E_UNITS = {
    "setup_s": "s",
    "p50_s": "s",
    "tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "shots_per_diag": "shots",
    "sim_seconds_per_diag": "s",
}

#: Per-layer metrics and their units (the ``per_layer`` list).
LAYER_UNITS = {
    "core.execute.calls": "count",
    "core.execute.self_s": "s",
    "core.build_test_circuit.calls": "count",
    "core.build_test_circuit.s": "s",
    "trap.run_match.calls": "count",
    "trap.run_match.self_s": "s",
    "trap.circuit_runs": "count",
    "trap.shots": "count",
    "trap.two_qubit_gates": "count",
    "trap.quantum_seconds": "s",
    "trap.dense_plan.builds": "count",
    "trap.dense_plan.hits": "count",
    "trap.dense_plan.rebinds": "count",
    "trap.dense_plan.invalidations": "count",
    "trap.dense_plan.hit_ratio": "ratio",
    "sim.xx.plan_builds": "count",
    "sim.xx.plan_build_s": "s",
    "sim.xx.amplitudes.calls": "count",
    "sim.xx.amplitudes.s": "s",
    "sim.xx.spin_table_bytes": "bytes",
    "sim.dense.probabilities.calls": "count",
    "sim.dense.probabilities.s": "s",
    "scenarios.calibrate_cell.calls": "count",
    "scenarios.calibrate_cell.s": "s",
    "trap.compiled_battery.compiles": "count",
    "trap.compiled_battery.trial_fidelities_s": "s",
    "exec.run_supervised.diagnose.s": "s",
    "exec.run_supervised.experiment.s": "s",
    "exec.run_supervised.sleep.s": "s",
    "exec.attempts": "count",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "runner.cache_bytes_written": "bytes",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.finish_s": "s",
    "service.journal_appends": "count",
    "service.journal_bytes": "bytes",
    "service.http_requests": "count",
}

#: Per-layer metrics that count work rather than time it: two runs with
#: the same workload, seed and ``--seconds`` must print identical values.
DETERMINISTIC_LAYERS = tuple(
    name for name, unit in LAYER_UNITS.items() if unit == "count"
) + ("trap.quantum_seconds",)


#: CPU seconds of one ``reference_s`` loop timed between diagnosis
#: sessions in the first scaled runs on the 2-core VM this benchmark was
#: built on.  Timings are reported scaled to that host speed; the value
#: only fixes the unit.
REFERENCE_S = 0.03


def reference_s() -> float:
    """CPU seconds of one run of a fixed loop of Python and small numpy work.

    The host this benchmark runs on changes speed by up to a factor of
    two within a minute, for every process on it alike.  Timing this
    loop alongside a measurement shows how fast the host was meanwhile.
    """
    import numpy as np

    start = time.process_time()
    acc, ramp = 0.0, np.arange(64.0)
    for i in range(4000):
        acc += sum({j: j * i for j in range(16)}.values())
        acc += float((ramp * (i % 7)).sum())
    return time.process_time() - start


class HostSpeed:
    """Reference-loop timings taken alongside one measurement."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, CPU s)

    def sample(self, times: int = 1) -> None:
        """Time the reference loop ``times`` times."""
        for _ in range(times):
            self.samples.append((time.perf_counter(), reference_s()))

    def factor(self, at: float | None = None, within: float = 0.0) -> float:
        """Scale that takes a time measured meanwhile to the nominal host.

        With ``at`` (a ``perf_counter`` reading), only the timings taken
        within ``within`` seconds of it count, if there are any: the
        host's speed drifts within a run too.
        """
        near = [s for t, s in self.samples if at is not None and abs(t - at) <= within]
        return REFERENCE_S / statistics.median(near or [s for _, s in self.samples])


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (``inf`` sorts last)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if lo == hi or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples_beyond)``; below twenty samples
    no percentile qualifies and the median is returned.
    """
    n = len(values)
    for q in TAIL_LADDER:
        beyond = n * (100.0 - q) / 100.0
        if beyond >= 10:
            return q, percentile(values, q), int(beyond)
    return 50.0, percentile(values, 50.0), n // 2


class History:
    """Earlier results of this checkout, for cross-run comparisons.

    Kept under ``.perfbench/history`` (ignored by git).  A traced run
    compares its work counters with an earlier traced run of the same
    workload, seed and length, and both modes print the difference of
    their end-to-end metrics from the other mode's run: the tracing
    overhead.
    """

    def __init__(self, workdir: Path, workload: str, seed: int, seconds: int):
        self.dir = workdir / "history"
        self.key = f"{workload}-seed{seed}-{seconds}s"

    def _path(self, trace: int) -> Path:
        return self.dir / f"{self.key}-trace{trace}.json"

    def load(self, trace: int) -> dict[str, Any] | None:
        """The last stored result of this key in ``trace`` mode, if any."""
        try:
            return json.loads(self._path(trace).read_text())
        except (OSError, ValueError):
            return None

    def store(self, trace: int, record: dict[str, Any]) -> None:
        """Replace the stored result of this key in ``trace`` mode."""
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = self._path(trace).with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, self._path(trace))


def finish(
    history: History,
    trace: int,
    e2e: dict[str, float],
    layers: dict[str, float] | None,
    problems: list[str],
    attempted: int,
    failed: int,
) -> int:
    """Print the comparisons, problems and the closing result line.

    With ``trace`` 0 the result carries every end-to-end metric; with
    ``trace`` 1 every per-layer metric.  Returns the exit code: 0 when
    the run completed, whether or not its outputs were correct; 1,
    without a result line, when an end-to-end metric is not a finite
    number (every operation failed).
    """
    broken = [name for name, value in e2e.items() if not math.isfinite(value)]
    if broken:
        print(f"error: no finite value for {', '.join(broken)}", file=sys.stderr)
        return 1
    other = history.load(1 - trace)
    if other is not None:
        traced, untraced = (e2e, other["e2e"]) if trace else (other["e2e"], e2e)
        print("tracing overhead (traced minus untraced, same workload and seed):")
        for name, unit in E2E_UNITS.items():
            delta = traced[name] - untraced[name]
            share = f" ({delta / untraced[name]:+.1%})" if untraced[name] else ""
            print(f"  {name:<22} {delta:+.6g} {unit}{share}")
    if trace and layers is not None:
        previous = history.load(1)
        if previous is not None:
            for name in DETERMINISTIC_LAYERS:
                old, new = previous["layers"].get(name), layers.get(name)
                if old is not None and old != new:
                    problems.append(
                        f"work counter {name} differs from an earlier run of "
                        f"the same seed: {old} != {new}"
                    )
    history.store(trace, {"e2e": e2e, "layers": layers})
    for problem in problems:
        print(f"INCORRECT: {problem}")
    if trace:
        assert layers is not None
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()
        }
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def print_e2e(e2e: dict[str, float], notes: dict[str, str]) -> None:
    """The end-to-end table, one metric per line with its unit."""
    print("end-to-end:")
    for name, value in e2e.items():
        note = notes.get(name, "")
        print(f"  {name:<22} {value:.6g} {E2E_UNITS[name]}{'  ' + note if note else ''}")


def print_layers(layers: dict[str, float], title: str) -> None:
    """Per-layer figures, one per line with its unit."""
    print(title)
    for name, value in layers.items():
        print(f"  {name:<42} {value:.6g} {LAYER_UNITS.get(name, '')}")
