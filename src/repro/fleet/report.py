"""Schema'd fleet reports (``FLEET_<label>.json``).

The matrix front door (:func:`repro.analysis.runner.run_matrix` over the
``fleet`` experiment, behind ``python -m repro fleet``) merges the
per-policy experiment records through :func:`merge_fleet` into one
payload: every policy's uptime / throughput / MTTR / corruption cell, a
leaderboard ranked by good jobs per hour, and embedded golden-style
checks that gate the CLI exit code — including the Fig. 2
reconciliation: the simulated point-check baseline must land on the
paper's duty-cycle fractions, and the battery's measured jobs share must
agree with what :func:`~repro.trap.duty_cycle.improved_duty_cycle`
projects from the measured episode speed-up.  :data:`FLEET_SCHEMA`
declares the payload's shape for the stdlib checker of
:mod:`repro.schema`, so the artifact stays dependency-free and diffable
across PRs.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from ..schema import (
    BOOLEAN,
    Schema,
    embedded_checks,
    enum,
    integer,
    list_of,
    nullable,
    number,
    obj,
    string,
    where,
)
from ..trap.duty_cycle import DutyCycleBreakdown, improved_duty_cycle
from ..validation.specs import Check
from .policies import POLICY_NAMES
from .traps import TRAP_STATES

__all__ = [
    "FLEET_SCHEMA",
    "FLEET_SCHEMA_ID",
    "fleet_checks",
    "fleet_leaderboard",
    "fleet_payload",
    "merge_fleet",
    "render_fleet",
    "validate_fleet_payload",
]

#: Schema identifier stamped into (and required of) every fleet payload.
FLEET_SCHEMA_ID = "repro-fleet/v1"

#: The simulated baseline whose duty cycle must reproduce Fig. 2.
_BASELINE_POLICY = "point-check"

#: Cell fields that must be non-negative integers.
_CELL_COUNTS = (
    "diagnosis_episodes",
    "faults_injected",
    "faults_repaired",
    "faults_quarantined",
    "misdiagnoses",
    "repair_failures",
    "stalls",
    "timeouts",
    "jobs_lost_to_undetected_faults",
)

#: Tolerance band around each Fig. 2 fraction for the baseline policy.
_FIG2_BAND = 0.12

#: Allowed gap between the battery's measured jobs share and the
#: ``improved_duty_cycle`` projection from the measured speed-up.
_PROJECTION_BAND = 0.10

#: Allowed excess of the battery's corrupted-job rate over periodic
#: recalibration's (the equal-fault-coverage side of the uptime claim).
_COVERAGE_BAND = 0.10


def fleet_leaderboard(cells: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Rank the policies: throughput first, uptime second.

    Good jobs per hour is the quantity a fleet operator sells; uptime
    breaks ties (a policy can buy throughput with risk, so both are
    shown alongside the corruption rate it paid).
    """
    rows = [
        {
            "policy": cell["policy"],
            "uptime": cell["uptime"],
            "good_jobs_per_hour": cell["good_jobs_per_hour"],
            "corrupted_job_rate": cell["corrupted_job_rate"],
            "mttr_seconds": cell["mttr_seconds"],
            "faults_repaired": cell["faults_repaired"],
            "faults_quarantined": cell["faults_quarantined"],
            "stalls": cell["stalls"],
        }
        for cell in cells
    ]
    rows.sort(
        key=lambda r: (-r["good_jobs_per_hour"], -r["uptime"], r["policy"])
    )
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def _cell_by_policy(
    cells: list[dict[str, Any]], policy: str
) -> dict[str, Any] | None:
    """The (single) cell of one policy, if it was swept."""
    for cell in cells:
        if cell["policy"] == policy:
            return cell
    return None


def _measured_breakdown(cell: dict[str, Any]) -> DutyCycleBreakdown:
    """A cell's duty cycle as a validated three-slice breakdown."""
    duty = cell["duty_cycle"]
    return DutyCycleBreakdown(
        jobs=duty["jobs"],
        coupling_tests=duty["coupling_tests"],
        other_calibration=duty["other_calibration"],
        label=f"simulated {cell['policy']}",
    )


def fleet_checks(cells: list[dict[str, Any]]) -> list[Check]:
    """The payload's embedded golden-style checks.

    Hard checks gate the CLI exit code: the battery beats periodic full
    recalibration on uptime without paying for it in corrupted jobs,
    every trap ends the window in a defined state with every injected
    fault accounted for, and the simulated baseline's duty cycle
    reconciles with Fig. 2 both directly and through the
    ``improved_duty_cycle`` projection.
    """
    checks: list[Check] = []
    battery = _cell_by_policy(cells, "battery")
    periodic = _cell_by_policy(cells, "periodic-recalibration")
    baseline = _cell_by_policy(cells, _BASELINE_POLICY)

    both = battery is not None and periodic is not None
    checks.append(
        Check(
            check_id="fleet.battery_beats_periodic_uptime",
            description=(
                "the paper's battery policy yields higher fleet uptime than "
                "periodic full recalibration at the same check cadence"
            ),
            passed=bool(both and battery["uptime"] > periodic["uptime"]),
            hard=True,
            observed=(
                f"battery {battery['uptime']:.3f} vs periodic "
                f"{periodic['uptime']:.3f}"
                if both
                else "policy missing from sweep"
            ),
            target="battery uptime > periodic uptime",
            value=battery["uptime"] if battery else None,
            drift_tolerance=0.25,
        )
    )

    checks.append(
        Check(
            check_id="fleet.coverage_parity",
            description=(
                "the battery's uptime win is not bought with undetected "
                "faults: its corrupted-job rate stays within "
                f"{_COVERAGE_BAND:.2f} of periodic recalibration's"
            ),
            passed=bool(
                both
                and battery["corrupted_job_rate"]
                <= periodic["corrupted_job_rate"] + _COVERAGE_BAND
            ),
            hard=True,
            observed=(
                f"battery {battery['corrupted_job_rate']:.3f} vs periodic "
                f"{periodic['corrupted_job_rate']:.3f}"
                if both
                else "policy missing from sweep"
            ),
            target=f"battery rate <= periodic rate + {_COVERAGE_BAND:.2f}",
            value=battery["corrupted_job_rate"] if battery else None,
            drift_tolerance=0.25,
        )
    )

    undefined = [
        (cell["policy"], trap["index"], trap["final_state"])
        for cell in cells
        for trap in cell["traps"]
        if trap["final_state"] not in TRAP_STATES
    ]
    state_totals_ok = all(
        sum(cell["final_states"].values()) == cell["n_traps"] for cell in cells
    )
    checks.append(
        Check(
            check_id="fleet.defined_final_states",
            description=(
                "every trap of every policy ends the window in a defined "
                "state (healthy, under-repair, quarantined-degraded)"
            ),
            passed=not undefined and state_totals_ok,
            hard=True,
            observed=(
                f"{sum(len(c['traps']) for c in cells)} trap windows, "
                f"{len(undefined)} undefined"
            ),
            target="0 undefined states, totals match the fleet size",
            value=float(len(undefined)),
            drift_tolerance=0.0,
        )
    )

    unbalanced = [
        (cell["policy"], trap["index"])
        for cell in cells
        for trap in cell["traps"]
        if sum(trap["fault_resolutions"].values()) != trap["faults_injected"]
    ]
    checks.append(
        Check(
            check_id="fleet.faults_accounted",
            description=(
                "every injected fault is accounted for: repaired, swept by "
                "recalibration, quarantined, or still active at the horizon"
            ),
            passed=not unbalanced,
            hard=True,
            observed=f"{len(unbalanced)} trap window(s) out of balance",
            target="resolutions sum to injections on every trap",
            value=float(len(unbalanced)),
            drift_tolerance=0.0,
        )
    )

    fig2 = DutyCycleBreakdown()
    if baseline is not None:
        measured = _measured_breakdown(baseline)
        deltas = {
            "jobs": abs(measured.jobs - fig2.jobs),
            "coupling_tests": abs(measured.coupling_tests - fig2.coupling_tests),
            "other_calibration": abs(
                measured.other_calibration - fig2.other_calibration
            ),
        }
        worst = max(deltas.values())
        observed = (
            f"jobs {measured.jobs:.3f}/{fig2.jobs:.2f}, tests "
            f"{measured.coupling_tests:.3f}/{fig2.coupling_tests:.2f}, other "
            f"{measured.other_calibration:.3f}/{fig2.other_calibration:.2f}"
        )
    else:
        worst, observed = None, "point-check baseline missing from sweep"
    checks.append(
        Check(
            check_id="fleet.duty_cycle_fig2",
            description=(
                "the simulated point-check baseline reproduces Fig. 2's "
                "duty-cycle breakdown (53/25/22) within "
                f"+-{_FIG2_BAND:.2f} per slice"
            ),
            passed=bool(worst is not None and worst <= _FIG2_BAND),
            hard=True,
            observed=observed,
            target=f"every slice within +-{_FIG2_BAND:.2f} of Fig. 2",
            value=worst,
            drift_tolerance=0.25,
        )
    )

    projectable = (
        battery is not None
        and baseline is not None
        and battery["mean_diagnosis_seconds"]
        and baseline["mean_diagnosis_seconds"]
    )
    if projectable:
        speedup = (
            baseline["mean_diagnosis_seconds"]
            / battery["mean_diagnosis_seconds"]
        )
        if speedup >= 1.0:
            projected = improved_duty_cycle(
                _measured_breakdown(baseline), speedup
            )
            delta = abs(battery["duty_cycle"]["jobs"] - projected.jobs)
            passed = delta <= _PROJECTION_BAND
            observed = (
                f"speedup {speedup:.2f}x, battery jobs "
                f"{battery['duty_cycle']['jobs']:.3f} vs projected "
                f"{projected.jobs:.3f}"
            )
        else:
            delta, passed = None, False
            observed = f"battery slower than baseline (speedup {speedup:.2f}x)"
    else:
        delta, passed = None, False
        observed = "battery or baseline episode durations missing"
    checks.append(
        Check(
            check_id="fleet.improved_duty_cycle_consistent",
            description=(
                "the battery's measured jobs share agrees with the "
                "improved_duty_cycle projection from the measured episode "
                f"speed-up (within {_PROJECTION_BAND:.2f})"
            ),
            passed=bool(passed),
            hard=True,
            observed=observed,
            target=f"|measured - projected| <= {_PROJECTION_BAND:.2f}",
            value=delta,
            drift_tolerance=0.25,
        )
    )

    exercised = sum(
        cell["stalls"]
        + cell["misdiagnoses"]
        + cell["repair_failures"]
        + cell["faults_quarantined"]
        for cell in cells
    )
    checks.append(
        Check(
            check_id="fleet.failure_path_exercised",
            description=(
                "the robustness machinery actually fired: at least one "
                "stall, misdiagnosis, repair failure or quarantine across "
                "the sweep"
            ),
            passed=exercised > 0,
            hard=True,
            observed=f"{exercised} failure-path event(s)",
            target=">= 1 event",
            value=float(exercised),
            drift_tolerance=0.25,
        )
    )
    return checks


def fleet_payload(
    preset: str,
    cells: list[dict[str, Any]],
    detect_floor: float,
    corruption_floor: float,
    records: list[dict[str, Any]],
    label: str | None = None,
) -> dict[str, Any]:
    """Assemble the schema'd fleet report from merged policy cells.

    Derives the leaderboard and embedded checks from ``cells``;
    ``records`` carries per-policy run provenance.
    """
    checks = fleet_checks(cells)
    return {
        **FLEET_SCHEMA.header(preset, label),
        "detect_floor": detect_floor,
        "corruption_floor": corruption_floor,
        "policies": [cell["policy"] for cell in cells],
        "cells": cells,
        "leaderboard": fleet_leaderboard(cells),
        "checks": [asdict(check) for check in checks],
        "records": records,
    }


_FRACTION = number(0.0, 1.0)

FLEET_SCHEMA = Schema(
    FLEET_SCHEMA_ID,
    "fleet",
    detect_floor=number(),
    corruption_floor=number(),
    policies=list_of(enum(POLICY_NAMES), nonempty=True),
    cells=list_of(
        obj(
            policy=enum(POLICY_NAMES),
            n_qubits=integer(4),
            n_traps=integer(1),
            **{count: integer(0) for count in _CELL_COUNTS},
            uptime=_FRACTION,
            corrupted_job_rate=_FRACTION,
            good_jobs_per_hour=number(0),
            mttr_seconds=nullable(number(0)),
            duty_cycle=obj(
                jobs=_FRACTION,
                coupling_tests=_FRACTION,
                other_calibration=_FRACTION,
            ),
            traps=list_of(
                obj(
                    final_state=enum(TRAP_STATES),
                    fault_resolutions=obj(),
                ),
                nonempty=True,
            ),
            final_states=where(
                lambda v: isinstance(v, dict) and set(v) == set(TRAP_STATES),
                "an object mapping every defined trap state",
            ),
        ),
        nonempty=True,
    ),
    leaderboard=list_of(
        obj(policy=enum(POLICY_NAMES), rank=integer(1)), nonempty=True
    ),
    checks=embedded_checks("fleet."),
    records=list_of(
        obj(policies=list_of(), config_digest=string(), cache_hit=BOOLEAN)
    ),
)

validate_fleet_payload = FLEET_SCHEMA.validate


def merge_fleet(
    preset: str,
    results: list[dict[str, Any]],
    config: dict[str, Any],
    records: list[dict[str, Any]],
) -> dict[str, Any]:
    """The ``fleet`` matrix hook: merge per-policy results into one report."""
    return fleet_payload(
        preset=preset,
        cells=[cell for result in results for cell in result["cells"]],
        detect_floor=float(config["detect_floor"]),
        corruption_floor=float(config["corruption_floor"]),
        records=records,
    )


def render_fleet(payload: dict[str, Any]) -> tuple[str, str]:
    """The ``fleet`` table hook: policy table and per-policy duty cycles;
    the headline counts cells and cache-served jobs."""
    # Imported here: importing repro.analysis at module level would make
    # ``import repro`` load the runner and the execution layer.
    from ..analysis.reporting import ascii_table

    rows = [
        [
            entry["rank"],
            entry["policy"],
            f"{entry['uptime']:.3f}",
            f"{entry['good_jobs_per_hour']:.1f}",
            f"{entry['corrupted_job_rate']:.3f}",
            (
                f"{entry['mttr_seconds']:.0f}"
                if entry["mttr_seconds"] is not None
                else "-"
            ),
            entry["faults_repaired"],
            entry["faults_quarantined"],
            entry["stalls"],
        ]
        for entry in payload["leaderboard"]
    ]
    lines = [
        ascii_table(
            [
                "rank",
                "policy",
                "uptime",
                "jobs/h",
                "corrupted",
                "mttr-s",
                "repaired",
                "quarantined",
                "stalls",
            ],
            rows,
            title=f"fleet maintenance policies ({payload['preset']})",
        )
    ]
    for cell in payload["cells"]:
        duty = cell["duty_cycle"]
        states = cell["final_states"]
        lines.append(
            f"{cell['policy']}: duty jobs {duty['jobs']:.2f} / tests "
            f"{duty['coupling_tests']:.2f} / other "
            f"{duty['other_calibration']:.2f}; final states "
            f"{states['healthy']}H/{states['under-repair']}R/"
            f"{states['quarantined-degraded']}Q"
        )
    records = payload["records"]
    headline = (
        f"{len(payload['cells'])} policy cells "
        f"({sum(r['cache_hit'] for r in records)}/{len(records)} policy jobs "
        "cache-served)"
    )
    return "\n".join(lines), headline
