"""The fleet-over-time experiment: maintenance policies head-to-head.

The ROADMAP's robustness workload behind ``python -m repro fleet``: a
small fleet of drifting, fault-prone virtual traps serves client jobs
for a simulated service window under each maintenance policy in turn
(:mod:`repro.fleet`), and every policy cell reports uptime, good-job
throughput, MTTR, corruption (jobs lost to undetected faults) and the
measured duty-cycle breakdown.

Fairness mirrors the arena: thresholds and contrast baselines come from
the scenario matrix's own calibration pass
(:func:`~repro.analysis.experiments.scenarios.calibrate_cell`) on the
fleet's fault-free noise environment, the drifting/faulting/job world is
seeded independently of the policy, and every diagnosing policy checks
on the same derived cadence — the interval that pins the *point-check
baseline* at Fig. 2's 25 % coupling-testing share, so the uptime
comparison happens at the paper's operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ...arena.diagnosers import DiagnoserContext
from ...core.multi_fault import ContrastVerifyConfig
from ...fleet.policies import POLICY_NAMES
from ...fleet.simulator import simulate_policy
from ...fleet.traps import TRAP_STATES
from ...scenarios.spec import SCENARIO_KINDS, ScenarioSpec
from .scenarios import calibrate_cell

__all__ = [
    "FleetConfig",
    "FleetResult",
    "run_fleet_experiment",
]


@dataclass(frozen=True)
class FleetConfig:
    """World, policy and calibration parameters of the fleet simulation."""

    #: Policies to sweep (each runs the identical seeded world).
    policies: tuple[str, ...] = POLICY_NAMES
    n_qubits: int = 6
    n_traps: int = 3
    #: Simulated service window per trap, in seconds.
    horizon_seconds: float = 43200.0
    #: Serving seconds between maintenance checks; ``None`` derives the
    #: interval that pins the point-check baseline at Fig. 2's testing
    #: share (:func:`~repro.fleet.simulator.derive_check_interval`).
    check_interval: float | None = None
    #: Fig. 2's coupling-testing share, the derivation's set point.
    testing_fraction_target: float = 0.25
    #: The threshold-triggered policy probes ``check_interval / this``.
    probe_divisor: float = 4.0
    #: Multiplier from the timing model's idealized seconds to
    #: operational simulated seconds (queueing, setup, operator time).
    maintenance_time_scale: float = 40.0
    #: Client-job Poisson interarrival mean / duration / coupling usage.
    job_interval: float = 120.0
    job_seconds: float = 60.0
    job_couplings: int = 3
    #: Fault-onset Poisson interarrival mean and the taxonomy kinds
    #: injected (amplitude-only kinds: the fleet tracks under-rotations).
    fault_interval: float = 5400.0
    fault_kinds: tuple[str, ...] = (
        "static-under-rotation",
        "over-rotation",
        "correlated-burst",
    )
    #: True severity at which a job using the coupling corrupts.
    corruption_floor: float = 0.25
    #: True severity counted as a detected *fault* (detection marking).
    detect_floor: float = 0.18
    #: True severity making a claim a legitimate repair target; claims
    #: below it are misdiagnoses (repair the wrong coupling, pay the
    #: penalty).  Lower than ``detect_floor``: recalibrating a
    #: moderately drifted coupling is useful work, not a wrong repair.
    repair_floor: float = 0.08
    #: Seconds to measure *and* retune one coupling during a periodic
    #: full recalibration (the expensive practice Fig. 2 costs: a
    #: per-coupling check plus the repair itself).
    recal_seconds_per_coupling: float = 100.0
    #: Repair economics (see :class:`~repro.fleet.repair.RepairModel`).
    repair_seconds: float = 45.0
    repair_failure_prob: float = 0.15
    repair_backoff: float = 2.0
    repair_max_attempts: int = 3
    misdiagnosis_penalty: float = 2.0
    repair_budget_seconds: float = 1800.0
    #: Injected diagnosis stalls: probability and simulated time charged.
    stall_prob: float = 0.1
    stall_penalty_seconds: float = 900.0
    #: Non-coupling calibration upkeep (Fig. 2's third slice).
    other_cal_interval: float = 1500.0
    other_cal_seconds: float = 330.0
    #: Drift advances on this fixed tick lattice (policy-independent).
    drift_tick_seconds: float = 60.0
    #: Fault-free noise environment of the trap machines.
    amplitude_sigma: float = 0.10
    #: Calibration-pass fields (duck-typed by ``calibrate_cell``).
    repetition_counts: tuple[int, ...] = (2, 4)
    baseline_trials: int = 6
    noise_realizations: int = 4
    #: Shots per test circuit.  Sec. IX quotes its timing at 150 shots;
    #: the battery's per-test circuits are deeper than point checks, so
    #: much larger shot counts let quantum time swamp the point check's
    #: fixed per-test classical overhead and invert the economics.
    shots: int = 150
    verify_shots: int = 600
    threshold_quantile: float = 0.05
    threshold_margin: float = 0.15
    verify_attempts: int = 3
    verify_margin: float = 3.0
    max_faults: int = 4
    random_detect_rate: float = 0.25
    #: Real wall-clock budgets protecting the host from a runaway
    #: diagnoser (not simulation time).
    soft_seconds: float = 60.0
    hard_seconds: float = 90.0
    #: Fan the policy sweep out over worker processes (execution-only:
    #: never changes results, excluded from the cache digest).
    series_jobs: int = field(default=1, metadata={"execution_only": True})
    seed: int = 23


@dataclass(frozen=True)
class FleetResult:
    """Every policy cell plus the grading floors."""

    cells: tuple[dict[str, Any], ...]
    detect_floor: float
    corruption_floor: float

    def cell(self, policy: str) -> dict[str, Any]:
        """Look up one policy's cell."""
        for cell in self.cells:
            if cell["policy"] == policy:
                return cell
        raise KeyError(f"no cell for policy {policy!r}")


def _environment_spec(cfg: FleetConfig) -> ScenarioSpec:
    """The fleet's fault-free noise environment as a scenario spec."""
    return ScenarioSpec(
        name="fleet-env",
        kind="static-under-rotation",
        faults=(),
        amplitude_sigma=cfg.amplitude_sigma,
        description="fault-free environment of the fleet's trap machines",
    )


def _fleet_context(cfg: FleetConfig, thresholds, bank) -> DiagnoserContext:
    """The shared diagnoser context every policy builds sessions from."""
    return DiagnoserContext(
        n_qubits=cfg.n_qubits,
        thresholds=thresholds,
        shots=cfg.shots,
        repetition_counts=cfg.repetition_counts,
        baselines=bank,
        shot_batch=cfg.noise_realizations,
        verify=ContrastVerifyConfig(
            shots=cfg.verify_shots,
            realizations=2 * cfg.noise_realizations,
            attempts=cfg.verify_attempts,
            margin=cfg.verify_margin,
        ),
        max_faults=cfg.max_faults,
        random_detect_rate=cfg.random_detect_rate,
    )


def _run_policy(args: tuple[FleetConfig, str]) -> dict[str, Any]:
    """Worker entry point for the policy fan-out (must be module-level).

    Calibration is re-derived per worker from policy-independent seeds,
    so every policy grades against bit-identical thresholds/baselines.
    """
    cfg, policy = args
    env_spec = _environment_spec(cfg)
    thresholds, bank, _batteries = calibrate_cell(cfg, cfg.n_qubits, env_spec)
    ctx = _fleet_context(cfg, thresholds, bank)
    return simulate_policy(cfg, policy, ctx, env_spec)


def run_fleet_experiment(cfg: FleetConfig | None = None) -> FleetResult:
    """Sweep every configured policy over the identical seeded world.

    ``series_jobs > 1`` fans policies out over worker processes; each
    policy's world streams are seeded independently of execution order,
    so results are identical to the sequential run.
    """
    from ..runner import fan_out

    cfg = cfg or FleetConfig()
    for policy in cfg.policies:
        if policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {policy!r}; known: {', '.join(POLICY_NAMES)}"
            )
    for kind in cfg.fault_kinds:
        if kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {kind!r}; "
                f"known: {', '.join(SCENARIO_KINDS)}"
            )
    grid = [(cfg, policy) for policy in cfg.policies]
    cells = fan_out(_run_policy, grid, cfg.series_jobs)
    return FleetResult(
        cells=tuple(cells),
        detect_floor=cfg.detect_floor,
        corruption_floor=cfg.corruption_floor,
    )


# -- validation contract ----------------------------------------------------------


def _cell(result: dict, policy: str) -> dict | None:
    """One policy's cell out of a result dict (None if not swept)."""
    for cell in result["cells"]:
        if cell["policy"] == policy:
            return cell
    return None


def _uptime_edge(result: dict) -> float:
    """Battery uptime minus periodic-recalibration uptime."""
    battery = _cell(result, "battery")
    periodic = _cell(result, "periodic-recalibration")
    if battery is None or periodic is None:
        return -1.0
    return battery["uptime"] - periodic["uptime"]


def _coverage_margin(result: dict) -> float:
    """Periodic's corrupted-job rate + band minus the battery's (>= 0 passes)."""
    battery = _cell(result, "battery")
    periodic = _cell(result, "periodic-recalibration")
    if battery is None or periodic is None:
        return -1.0
    return (
        periodic["corrupted_job_rate"]
        + 0.10
        - battery["corrupted_job_rate"]
    )


def _undefined_states(result: dict) -> float:
    """Trap windows ending outside the defined state set."""
    return float(
        sum(
            1
            for cell in result["cells"]
            for trap in cell["traps"]
            if trap["final_state"] not in TRAP_STATES
        )
    )


def _unaccounted_faults(result: dict) -> float:
    """Trap windows whose fault resolutions do not sum to injections."""
    return float(
        sum(
            1
            for cell in result["cells"]
            for trap in cell["traps"]
            if sum(trap["fault_resolutions"].values())
            != trap["faults_injected"]
        )
    )


def _fig2_worst_delta(result: dict) -> float:
    """Worst slice deviation of the point-check baseline from Fig. 2."""
    baseline = _cell(result, "point-check")
    if baseline is None:
        return 1.0
    duty = baseline["duty_cycle"]
    return max(
        abs(duty["jobs"] - 0.53),
        abs(duty["coupling_tests"] - 0.25),
        abs(duty["other_calibration"] - 0.22),
    )


def _projection_delta(result: dict) -> float:
    """Gap between the battery's jobs share and the Fig. 2 projection."""
    from ...trap.duty_cycle import DutyCycleBreakdown, improved_duty_cycle

    battery = _cell(result, "battery")
    baseline = _cell(result, "point-check")
    if (
        battery is None
        or baseline is None
        or not battery["mean_diagnosis_seconds"]
        or not baseline["mean_diagnosis_seconds"]
    ):
        return 1.0
    speedup = (
        baseline["mean_diagnosis_seconds"] / battery["mean_diagnosis_seconds"]
    )
    if speedup < 1.0:
        return 1.0
    duty = baseline["duty_cycle"]
    projected = improved_duty_cycle(
        DutyCycleBreakdown(
            jobs=duty["jobs"],
            coupling_tests=duty["coupling_tests"],
            other_calibration=duty["other_calibration"],
            label="simulated point-check",
        ),
        speedup,
    )
    return abs(battery["duty_cycle"]["jobs"] - projected.jobs)


def _failure_path_events(result: dict) -> float:
    """Stalls + misdiagnoses + repair failures + quarantines, pooled."""
    return float(
        sum(
            cell["stalls"]
            + cell["misdiagnoses"]
            + cell["repair_failures"]
            + cell["faults_quarantined"]
            for cell in result["cells"]
        )
    )


def _validation():
    """The fleet's golden-tracked operational locks (EXPERIMENTS.md)."""
    from ...validation.specs import Expectation, FigureValidation

    return FigureValidation(
        replicates=1,
        expectations=(
            Expectation(
                check_id="fleet.battery_beats_periodic_uptime",
                description=(
                    "the battery policy yields higher fleet uptime than "
                    "periodic full recalibration at equal check cadence"
                ),
                kind="band",
                target=(0.0, 1.0),
                drift_tolerance=0.5,
                extract=lambda ctx: _uptime_edge(ctx.first),
            ),
            Expectation(
                check_id="fleet.coverage_parity",
                description=(
                    "the battery's corrupted-job rate stays within 0.10 of "
                    "periodic recalibration's (equal fault coverage)"
                ),
                kind="band",
                target=(0.0, 2.0),
                drift_tolerance=0.5,
                extract=lambda ctx: _coverage_margin(ctx.first),
            ),
            Expectation(
                check_id="fleet.defined_final_states",
                description=(
                    "every trap of every policy ends the window in a "
                    "defined state"
                ),
                kind="band",
                target=(0.0, 0.5),
                drift_tolerance=0.0,
                extract=lambda ctx: _undefined_states(ctx.first),
            ),
            Expectation(
                check_id="fleet.faults_accounted",
                description=(
                    "every injected fault is repaired, recalibrated away, "
                    "quarantined or still active at the horizon"
                ),
                kind="band",
                target=(0.0, 0.5),
                drift_tolerance=0.0,
                extract=lambda ctx: _unaccounted_faults(ctx.first),
            ),
            Expectation(
                check_id="fleet.duty_cycle_fig2",
                description=(
                    "the simulated point-check baseline reproduces Fig. 2's "
                    "53/25/22 duty cycle within 0.12 per slice"
                ),
                kind="band",
                target=(0.0, 0.12),
                drift_tolerance=0.5,
                extract=lambda ctx: _fig2_worst_delta(ctx.first),
            ),
            Expectation(
                check_id="fleet.improved_duty_cycle_consistent",
                description=(
                    "the battery's measured jobs share agrees with the "
                    "improved_duty_cycle projection from the measured "
                    "episode speed-up"
                ),
                kind="band",
                target=(0.0, 0.10),
                drift_tolerance=0.5,
                extract=lambda ctx: _projection_delta(ctx.first),
            ),
            Expectation(
                check_id="fleet.failure_path_exercised",
                description=(
                    "at least one stall, misdiagnosis, repair failure or "
                    "quarantine occurred across the sweep"
                ),
                kind="band",
                target=(0.5, 1e9),
                drift_tolerance=None,
                extract=lambda ctx: _failure_path_events(ctx.first),
            ),
        ),
    )


def _register() -> None:
    """Hook this experiment into the unified runner registry."""
    from ...fleet.report import merge_fleet, render_fleet
    from ..registry import MatrixSpec, register_experiment

    def _to_rows(result: FleetResult):
        rows = []
        for cell in result.cells:
            rows.append(
                [
                    cell["policy"],
                    round(cell["uptime"], 4),
                    round(cell["good_jobs_per_hour"], 2),
                    round(cell["corrupted_job_rate"], 4),
                    (
                        round(cell["mttr_seconds"], 1)
                        if cell["mttr_seconds"] is not None
                        else None
                    ),
                    cell["faults_injected"],
                    cell["faults_repaired"],
                    cell["faults_quarantined"],
                    cell["misdiagnoses"],
                    cell["stalls"],
                ]
            )
        return (
            [
                "policy",
                "uptime",
                "good_jobs_per_hour",
                "corrupted_job_rate",
                "mttr_seconds",
                "faults_injected",
                "faults_repaired",
                "faults_quarantined",
                "misdiagnoses",
                "stalls",
            ],
            rows,
        )

    def _summarize(result: FleetResult) -> str:
        parts = [
            f"{cell['policy']} uptime {cell['uptime']:.3f} "
            f"({cell['good_jobs_per_hour']:.1f} jobs/h)"
            for cell in result.cells
        ]
        return "fleet: " + "; ".join(parts)

    register_experiment(
        name="fleet",
        anchor="Fig. 2 / Sec. IX",
        title="Fleet-over-time simulation of maintenance policies",
        runner=run_fleet_experiment,
        config_type=FleetConfig,
        smoke_overrides={
            "n_traps": 2,
            "horizon_seconds": 21600.0,
            "shots": 120,
            "baseline_trials": 4,
            "verify_shots": 300,
            "fault_interval": 3600.0,
            "soft_seconds": 20.0,
            "hard_seconds": 30.0,
        },
        to_rows=_to_rows,
        summarize=_summarize,
        validation=_validation(),
        matrix=MatrixSpec(
            axis="policies",
            record_key="policies",
            values=POLICY_NAMES,
            noun="policies",
            merge=merge_fleet,
            render=render_fleet,
        ),
    )


_register()
