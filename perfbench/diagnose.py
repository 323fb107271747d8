"""diagnose-small: closed-loop arena diagnosis sessions at N = 6 and 8.

One thread runs arena sessions back to back through
``repro.arena.diagnosers.run_bounded``, exactly as the arena and the
service's ``diagnose`` job do: a fresh trial machine from the arena's
seeding, the cell's calibrated context, one bounded diagnosis.

Time is the process's CPU time (``time.process_time``), not wall time.
The sessions do no I/O and wait for nothing, so their CPU time is their
cost.  Work moved into another process would escape the measure, so a
run in which a child process used CPU during the timed loop is marked
incorrect.  Wall-time figures are printed beside the CPU ones.

A *pass* runs every trial of every (cell, strategy) pair once, in an
order drawn from the workload seed; the seed also seeds the arena, so
it sets the calibration and every trial machine.  A run repeats the
pass until ``--seconds`` have passed, and makes at least ``MIN_PASSES``
of them.  Each session's CPU time is scaled to the nominal host speed
by the reference loop timed within two seconds of it (see
``common.reference_s``).  Every pass but the first, which warms the
per-cell caches up, gives a median, a tail and a throughput; the run
reports the median of each over those passes.  Covering every trial
makes the cost distribution the same for every seed to within a few
per cent.  The model metrics (accuracy, shots and simulated seconds per
diagnosis) and the per-layer figures cover the main process's set-up
plus the first pass only, so they are the same for a seed whatever the
host's speed; later passes must reproduce every diagnosis of the first.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import common
import layers

#: (N, scenario kind) cells of the workload.
CELLS = tuple(
    (n, kind)
    for n in (6, 8)
    for kind in (
        "static-under-rotation",
        "over-rotation",
        "correlated-burst",
        "drifting-magnitude",
        "phase-miscalibration",
        "asymmetric-spam",
    )
)

#: Passes every run makes; more run while ``--seconds`` allow.  The first
#: pass warms the per-cell caches up and is not timed.
MIN_PASSES = 3

#: Set-ups per run (the main process plus fresh child processes); the
#: reported ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Sessions between two timings of the host-speed reference loop.
REFERENCE_EVERY = 20
#: A session is scaled by the reference timings this many seconds around it.
REFERENCE_WITHIN_S = 2.0
#: Reference timings right after each set-up.
SETUP_REFERENCES = 9


@dataclass
class Cell:
    """One calibrated (N, kind) cell and a diagnoser per strategy."""

    n_qubits: int
    kind: str
    spec: Any
    diagnosers: dict[str, Any]


def arena_seed(seed: int) -> int:
    """The ``ArenaConfig.seed`` the workload seed maps to."""
    return 1000 + seed


def arena_config(seed: int) -> Any:
    """The arena's smoke configuration, seeded from the workload seed."""
    from repro.analysis.registry import get_experiment

    return get_experiment("arena").config("smoke", {"seed": arena_seed(seed)})


def calibrated_cell(cfg: Any, n_qubits: int, kind: str) -> Cell:
    """Calibrate one cell as the arena does; a diagnoser per strategy."""
    from repro.analysis.experiments.arena import _cell_context
    from repro.analysis.experiments.scenarios import calibrate_cell
    from repro.arena.diagnosers import STRATEGY_NAMES, build_diagnoser
    from repro.scenarios.spec import build_scenario

    spec = build_scenario(kind, n_qubits)
    thresholds, bank, _batteries = calibrate_cell(cfg, n_qubits, spec)
    ctx = _cell_context(cfg, n_qubits, thresholds, bank)
    return Cell(
        n_qubits,
        kind,
        spec,
        {strategy: build_diagnoser(strategy, ctx) for strategy in STRATEGY_NAMES},
    )


def setup(seed: int) -> tuple[Any, list[Cell]]:
    """Import the program and calibrate every cell of the workload."""
    cfg = arena_config(seed)
    return cfg, [calibrated_cell(cfg, n, kind) for n, kind in CELLS]


def session_plan(seed: int, cells: list[Cell], trials: int):
    """Every ``(cell, strategy, trial)`` session of a pass, in seeded order."""
    sessions = [
        (cell, strategy, trial)
        for cell in cells
        for strategy in cell.diagnosers
        for trial in range(trials)
    ]
    random.Random(f"diagnose-small/{seed}").shuffle(sessions)
    return sessions


def run_session(cfg: Any, cell: Cell, strategy: str, trial: int):
    """One bounded diagnosis of a fresh trial machine."""
    from repro.analysis.experiments.arena import _trial_machine
    from repro.arena.budget import TimeBudget
    from repro.arena.diagnosers import run_bounded

    machine = _trial_machine(cfg, cell.n_qubits, cell.spec, trial)
    budget = TimeBudget(cfg.soft_seconds, cfg.hard_seconds)
    diagnosis, wall = run_bounded(cell.diagnosers[strategy], machine, budget)
    return machine, diagnosis, wall


def check_session(cell: Cell, strategy: str, machine: Any, diagnosis: Any) -> list[str]:
    """Output checks of one completed session."""
    where = f"N={cell.n_qubits} {cell.kind} {strategy}"
    problems = []
    if diagnosis.diagnoser != strategy:
        problems.append(f"{where}: diagnosis names {diagnosis.diagnoser!r}")
    valid = {frozenset((i, j)) for i in range(cell.n_qubits) for j in range(i)}
    if not set(diagnosis.claimed) <= valid or not diagnosis.ambiguity_group <= valid:
        problems.append(f"{where}: accuses couplings the machine does not have")
    if (diagnosis.shots, diagnosis.tests_used) != (
        machine.stats.shots,
        machine.stats.circuit_runs,
    ):
        problems.append(
            f"{where}: session cost {diagnosis.shots} shots/{diagnosis.tests_used} "
            f"circuits != machine {machine.stats.shots}/{machine.stats.circuit_runs}"
        )
    return problems


def _children_cpu() -> float:
    """CPU seconds used by this process's finished children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _timed_setup() -> dict[str, Any]:
    """This process's CPU time so far, and reference timings taken after."""
    cpu = time.process_time()
    speed = common.HostSpeed()
    speed.sample(SETUP_REFERENCES)
    return {"cpu_s": cpu, "references": speed.samples}


def _setup_children(args: Any) -> list[dict[str, Any]]:
    """Repeat the set-up in fresh processes; their ``_timed_setup`` records."""
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).with_name("run.py")),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--setup-only",
            ],
            check=True,
            capture_output=True,
            text=True,
            timeout=170,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def run(args: Any, workdir: Path) -> int:
    """Run diagnose-small; print its report; return the exit code."""
    from repro.arena.scoring import grade_trial, score_trial
    from repro.sim.xx_engine import spin_table_cache_info

    if args.setup_only:
        tracer = layers.Tracer()
        if args.trace:
            layers.install_diagnosis_layers(tracer)
        setup(args.seed)
        print(json.dumps(_timed_setup()))
        return 0

    child_setups = _setup_children(args)
    tracer = layers.Tracer()
    if args.trace:
        layers.install_diagnosis_layers(tracer)
    cfg, cells = setup(args.seed)
    setups = [_timed_setup(), *child_setups]
    setup_speed = common.HostSpeed()
    for record in setups:
        setup_speed.samples += record["references"]
    setup_samples = [record["cpu_s"] for record in setups]
    spin_bytes = lambda: spin_table_cache_info()["total_bytes"]  # noqa: E731
    tracer.peak("sim.xx.spin_table_bytes", spin_bytes())

    hi = cfg.detect_floor * (1.0 + cfg.ambiguity)
    sessions = session_plan(args.seed, cells, cfg.trials)
    inf = float("inf")
    first = [None] * len(sessions)  # first-pass diagnosis per session
    failures: dict[tuple[str, str], int] = {}
    problems: list[str] = []
    scores = []  # first pass only
    snapshot = None
    passes = 0
    per_pass = []  # (scaled CPU seconds per session, completed flags, unscaled p50)
    children_before = _children_cpu()
    loop_wall, loop_cpu = time.perf_counter(), time.process_time()
    while passes < MIN_PASSES or time.perf_counter() - loop_wall < args.seconds:
        speed = common.HostSpeed()
        measured: list[tuple[float, float, bool]] = []  # (start, CPU s, completed)
        for i, (cell, strategy, trial) in enumerate(sessions):
            if i % REFERENCE_EVERY == 0:
                speed.sample()
            where = f"N={cell.n_qubits} {cell.kind} {strategy}"
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                machine, diagnosis, wall = run_session(cfg, cell, strategy, trial)
            except Exception as exc:  # noqa: BLE001 — counted, logged, run goes on
                measured.append((t0, time.process_time() - c0, False))
                key = (where, f"{type(exc).__name__}: {exc}")
                failures[key] = failures.get(key, 0) + 1
                continue
            measured.append((t0, time.process_time() - c0, not diagnosis.timed_out))
            if diagnosis.timed_out:
                failures[(where, "timed out")] = failures.get((where, "timed out"), 0) + 1
            if passes == 0:
                problems += check_session(cell, strategy, machine, diagnosis)
                first[i] = diagnosis
                truth_kind = grade_trial(
                    cell.spec.top_severity(trial), cfg.detect_floor, cfg.ambiguity
                )
                truth = cell.spec.ground_truth(trial, floor=hi)
                scores.append(score_trial(diagnosis, truth, truth_kind, wall))
                layers.add_machine_stats(tracer, machine.stats)
                tracer.peak("sim.xx.spin_table_bytes", spin_bytes())
            elif diagnosis != first[i]:
                problems.append(f"{where} trial {trial}: pass {passes + 1} diagnosis differs")
        speed.sample()
        scaled = [s * speed.factor(t, REFERENCE_WITHIN_S) for t, s, _ in measured]
        completed = [ok for _, _, ok in measured]
        raw_p50 = common.percentile([s for _, s, _ in measured], 50.0)
        per_pass.append((scaled, completed, raw_p50))
        passes += 1
        if passes == 1:
            snapshot = tracer.snapshot()
    elapsed_cpu = time.process_time() - loop_cpu
    elapsed_wall = time.perf_counter() - loop_wall
    if _children_cpu() != children_before:
        problems.append("a child process used CPU during the timed loop")

    attempted = len(sessions) * passes
    failed = sum(failures.values())
    graded = [s.correct for s in scores if s.correct is not None]
    totals = snapshot["counters"]  # MachineStats sums of first-pass sessions
    diagnosed = len(scores)
    q, _, beyond = common.tail(per_pass[0][0])  # which percentile is the tail
    stats = []  # per timed pass: scaled p50, tail and throughput, unscaled p50
    for scaled, completed, raw_p50 in per_pass[1:]:
        latencies = [s if ok else inf for s, ok in zip(scaled, completed)]
        stats.append(
            (
                common.percentile(latencies, 50.0),
                common.percentile(latencies, q),
                len(sessions) / sum(scaled),
                raw_p50,
            )
        )
    e2e = {
        "setup_s": statistics.median(setup_samples) * setup_speed.factor(),
        "p50_s": statistics.median(p50 for p50, _, _, _ in stats),
        "tail_s": statistics.median(tail for _, tail, _, _ in stats),
        "ops_per_s": statistics.median(ops for _, _, ops, _ in stats),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": sum(graded) / len(graded) if graded else 0.0,
        "shots_per_diag": totals["trap.shots"] / diagnosed,
        "sim_seconds_per_diag": totals["trap.quantum_seconds"] / diagnosed,
    }
    print(
        f"passes={passes} sessions_per_pass={len(sessions)} attempted={attempted} "
        f"graded={len(graded)} loop_wall_s={elapsed_wall:.3f} loop_cpu_s={elapsed_cpu:.3f}"
    )
    for k, (p50, tail, ops, raw_p50) in enumerate(stats, 2):
        print(
            f"pass {k}: scaled p50 {p50:.6g} s (unscaled {raw_p50:.6g} s), "
            f"p{q:g} {tail:.6g} s, {ops:.6g} sessions per scaled CPU second"
        )
    print(
        "setup samples (CPU s): " + " ".join(f"{s:.4f}" for s in setup_samples)
        + f"; host-speed scale {setup_speed.factor():.3f}"
    )
    common.print_e2e(
        e2e,
        {
            "setup_s": f"(scaled median CPU of {len(setup_samples)} set-ups)",
            "p50_s": f"(scaled CPU; median of passes 2-{passes})",
            "tail_s": (
                f"(scaled CPU, p{q:g}, {beyond} of {len(sessions)} sessions beyond it; "
                f"median of passes 2-{passes})"
            ),
            "ops_per_s": (
                f"(per scaled CPU second, median of passes 2-{passes}; unscaled "
                f"{attempted / elapsed_cpu:.6g} per CPU second, "
                f"{attempted / elapsed_wall:.6g} per wall second over the run)"
            ),
        },
    )
    print(f"  {'fail_ratio':<22} {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    print(f"  {'gen_lag_s':<22} n/a (closed loop: no schedule to fall behind)")
    for (where, error), count in sorted(failures.items()):
        print(f"failure x{count}: {where}: {error}")
    common.print_layers(
        {
            name: totals.get(name, 0.0)
            for name in (
                "trap.circuit_runs",
                "trap.shots",
                "trap.two_qubit_gates",
                "trap.quantum_seconds",
                "trap.dense_plan.builds",
                "trap.dense_plan.hits",
                "trap.dense_plan.rebinds",
            )
        },
        f"work counts (MachineStats sums over the {diagnosed} first-pass sessions):",
    )
    layer_values = None
    if args.trace:
        layer_values = layers.diagnosis_layer_metrics(snapshot)
        common.print_layers(layer_values, "per-layer (set-up + first pass):")
    history = common.History(workdir, args.workload, args.seed, args.seconds)
    return common.finish(history, args.trace, e2e, layer_values, problems, attempted, failed)
