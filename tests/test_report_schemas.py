"""Rejection tests for the arena and fleet report schemas (tier-1).

Each mutation breaks one rule family of the declared schema; the
validator must reject it with the ``invalid <name> payload:`` prefix and
name the failing field path.
"""

import copy

import pytest

from repro.arena.report import arena_payload, validate_arena_payload
from repro.fleet.report import fleet_payload, validate_fleet_payload

_RECORD = {"config_digest": "ab", "cache_hit": False}


def _arena_cell(diagnoser: str, n_qubits: int) -> dict:
    return {
        "diagnoser": diagnoser,
        "scenario": "over-rotation",
        "n_qubits": n_qubits,
        "fault_trials": 4,
        "clean_trials": 1,
        "ambiguous_trials": 0,
        "detections": 4 if diagnoser == "battery" else 0,
        "false_alarms": 0,
        "isolated": 3,
        "covered": 4,
        "mean_precision": 0.75,
        "mean_ambiguity": 1.0,
        "mean_shots": 900.0,
        "mean_adaptations": 0.0,
        "mean_wall_seconds": 0.01,
        "timeouts": 0,
    }


def _arena() -> dict:
    cells = [
        _arena_cell(name, n) for name in ("battery", "null") for n in (6, 8)
    ]
    return arena_payload(
        preset="smoke",
        cells=cells,
        budget={"soft_seconds": 20.0, "hard_seconds": 30.0},
        detect_floor=0.18,
        random_detect_rate=0.25,
        records=[{"kinds": ["over-rotation"], **_RECORD}],
    )


def _fleet_cell(policy: str) -> dict:
    return {
        "policy": policy,
        "n_qubits": 6,
        "n_traps": 1,
        "diagnosis_episodes": 3,
        "faults_injected": 1,
        "faults_repaired": 1,
        "faults_quarantined": 0,
        "misdiagnoses": 0,
        "repair_failures": 0,
        "stalls": 1,
        "timeouts": 0,
        "jobs_lost_to_undetected_faults": 0,
        "uptime": 0.5,
        "corrupted_job_rate": 0.1,
        "good_jobs_per_hour": 12.0,
        "mttr_seconds": 300.0,
        "mean_diagnosis_seconds": 60.0,
        "duty_cycle": {
            "jobs": 0.53,
            "coupling_tests": 0.25,
            "other_calibration": 0.22,
        },
        "traps": [
            {
                "index": 0,
                "final_state": "healthy",
                "faults_injected": 1,
                "fault_resolutions": {"repaired": 1},
            }
        ],
        "final_states": {
            "healthy": 1,
            "under-repair": 0,
            "quarantined-degraded": 0,
        },
    }


def _fleet() -> dict:
    return fleet_payload(
        preset="smoke",
        cells=[_fleet_cell("battery"), _fleet_cell("point-check")],
        detect_floor=0.18,
        corruption_floor=0.25,
        records=[{"policies": ["battery"], **_RECORD}],
    )


REPORTS = {
    "arena": (_arena, validate_arena_payload),
    "fleet": (_fleet, validate_fleet_payload),
}


def _bad_cell(payload: dict) -> None:
    payload["cells"][0]["n_qubits"] = 2


def _unprefixed_check(payload: dict) -> None:
    payload["checks"][0]["check_id"] = "bench.nope"


MUTATIONS = [
    ("schema-id", lambda p: p.update(schema="wrong/v0"), r"schema"),
    ("preset-enum", lambda p: p.update(preset="huge"), r"preset"),
    ("empty-cells", lambda p: p.update(cells=[]), r"cells"),
    ("bad-cell-field", _bad_cell, r"cells\[0\]\.n_qubits"),
    ("check-prefix", _unprefixed_check, r"checks\[0\]\.check_id"),
    (
        "non-bool-passed",
        lambda p: p["checks"][0].update(passed="yes"),
        r"checks\[0\]\.passed",
    ),
    (
        "record-cache-hit",
        lambda p: p["records"][0].update(cache_hit="no"),
        r"records\[0\]\.cache_hit",
    ),
]


@pytest.mark.parametrize("report", sorted(REPORTS))
def test_report_schema_accepts_the_builder_shape(report):
    build, validate = REPORTS[report]
    validate(build())


@pytest.mark.parametrize("report", sorted(REPORTS))
@pytest.mark.parametrize(
    "mutate, field", [m[1:] for m in MUTATIONS], ids=[m[0] for m in MUTATIONS]
)
def test_report_schema_rejects_violations(report, mutate, field):
    build, validate = REPORTS[report]
    payload = copy.deepcopy(build())
    mutate(payload)
    with pytest.raises(ValueError, match=rf"invalid {report} payload: .*{field}"):
        validate(payload)
