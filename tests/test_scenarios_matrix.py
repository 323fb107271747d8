"""The scenario taxonomy, matrix runner and report schema (tier-1)."""

import dataclasses

import pytest

from repro.analysis import runner
from repro.scenarios import (
    SCENARIO_KINDS,
    TAXONOMY,
    ScenarioFault,
    ScenarioSpec,
    build_scenario,
    matrix_payload,
    validate_matrix_payload,
)
from repro.schema import write_report
from repro.trap.faults import Determinism, TimeScale, Unitarity
from repro.trap.machine import VirtualIonTrap


def test_every_kind_builds_and_classifies():
    """Each kind builds for several machine sizes and maps into Table I."""
    for kind in SCENARIO_KINDS:
        info = TAXONOMY[kind]
        assert info.fault_class is not None
        for n_qubits in (4, 6, 8, 11):
            scenario = build_scenario(kind, n_qubits)
            assert scenario.kind == kind
            assert scenario.required_qubits() <= n_qubits
            assert scenario.faults, "every default scenario injects a fault"
            assert scenario.is_xx_preserving() == info.xx_preserving


def test_taxonomy_covers_both_table_i_axes():
    """The kinds span deterministic-unitary and stochastic-non-unitary."""
    classes = {TAXONOMY[kind].fault_class for kind in SCENARIO_KINDS}
    assert any(
        c.determinism is Determinism.DETERMINISTIC
        and c.unitarity is Unitarity.UNITARY
        for c in classes
    )
    assert any(
        c.determinism is Determinism.STOCHASTIC
        and c.unitarity is Unitarity.NON_UNITARY
        for c in classes
    )
    scales = {TAXONOMY[kind].time_scale for kind in SCENARIO_KINDS}
    assert TimeScale.SLOW in scales and TimeScale.STATIC in scales


def test_drifting_magnitude_crosses_the_floor():
    """The drift scenario is in spec early and badly faulty late."""
    scenario = build_scenario("drifting-magnitude", 6)
    assert scenario.top_severity(0) < 0.18 * 0.7
    assert scenario.top_severity(6) > 0.18 * 1.3
    assert scenario.ground_truth(0, floor=0.18) == []
    assert scenario.ground_truth(6, floor=0.18) == [scenario.faults[0].key]


def test_apply_compiles_onto_the_calibration_state():
    """apply() lands magnitudes and phases in the machine calibration."""
    scenario = build_scenario("phase-miscalibration", 6)
    machine = VirtualIonTrap(6, noise=scenario.noise_parameters(), seed=1)
    scenario.apply(machine)
    fault = scenario.faults[0]
    assert machine.calibration.under_rotation(fault.pair) == fault.magnitude
    assert machine.calibration.phase_offset(fault.pair) == fault.phase
    assert machine.calibration.has_phase_offsets()
    machine.recalibrate(fault.pair)
    assert not machine.calibration.has_phase_offsets()
    assert machine.calibration.under_rotation(fault.pair) == 0.0


def test_scenario_spec_validation_errors():
    with pytest.raises(ValueError, match="unknown scenario kind"):
        build_scenario("cosmic-rays", 8)
    with pytest.raises(ValueError, match="at least four"):
        build_scenario("over-rotation", 3)
    with pytest.raises(ValueError, match="magnitude"):
        ScenarioFault((0, 1), magnitude=1.5)
    with pytest.raises(ValueError, match="distinct"):
        ScenarioFault((2, 2), magnitude=0.1)
    with pytest.raises(ValueError, match="unknown scenario kind"):
        ScenarioSpec(name="x", kind="nope")
    small = VirtualIonTrap(4, seed=0)
    with pytest.raises(ValueError, match="needs >="):
        build_scenario("static-under-rotation", 8).apply(small)


def test_matrix_payload_schema_round_trip(tmp_path):
    """A runner-shaped payload validates and writes; mutations fail."""
    cell = {
        "scenario": "over-rotation",
        "n_qubits": 6,
        "xx_preserving": True,
        "fallback_to_dense": False,
        "engines": ["xx", "dense"],
        "detection": [["xx", 3, 3], ["dense", 3, 3]],
        "false_flags": [["xx", 0, 40], ["dense", 0, 40]],
        "inspec_clean": [["xx", 0, 0], ["dense", 0, 0]],
        "identification_successes": 2,
        "identification_trials": 2,
        "ambiguous_trials": 0,
        "top_severity": 0.47,
    }
    payload = matrix_payload(
        preset="smoke",
        cells=[cell],
        anchor={"largest_resolved_2ms": True, "largest_resolved_4ms": True},
        detect_floor=0.18,
        records=[{"kinds": ["over-rotation"], "config_digest": "ab", "cache_hit": False}],
    )
    validate_matrix_payload(payload)
    path = write_report(payload, tmp_path)
    assert path.name == "SCENARIOS_smoke.json"

    broken = dict(payload, schema="bench/v0")
    with pytest.raises(ValueError, match="schema"):
        validate_matrix_payload(broken)
    bad_cell = dict(cell, detection=[["xx", 5, 3]])
    with pytest.raises(ValueError, match="detection"):
        validate_matrix_payload(dict(payload, cells=[bad_cell]))
    with pytest.raises(ValueError, match="cells"):
        validate_matrix_payload(dict(payload, cells=[]))


@pytest.mark.parametrize(
    "kinds",
    [
        ["over-rotation", "phase-miscalibration"],
        ["over-rotation", "phase-miscalibration", "over-rotation"],
    ],
    ids=["distinct", "doubled-kind"],
)
def test_run_scenario_matrix_merges_and_caches(tmp_path, kinds):
    """Per-kind jobs cache independently and merge into one report;
    a repeated kind runs (and merges) once."""
    cache = tmp_path / "cache"
    overrides = {
        "qubit_counts": [5],
        "shots": 60,
        "detection_trials": 2,
        "identification_trials": 1,
        "baseline_trials": 2,
        "verify_shots": 100,
        "fig6_anchor": False,
    }
    payload, records = runner.run_matrix(
        "scenarios",
        kinds,
        preset="smoke",
        overrides=overrides,
        cache_dir=cache,
    )
    validate_matrix_payload(payload)
    assert payload["kinds"] == sorted(set(kinds))
    assert sorted(c["scenario"] for c in payload["cells"]) == sorted(set(kinds))
    assert [r["kinds"] for r in payload["records"]] == [
        ["over-rotation"],
        ["phase-miscalibration"],
    ]
    assert len(records) == 2 and all(not r.cache_hit for r in records)
    over = next(
        c for c in payload["cells"] if c["scenario"] == "over-rotation"
    )
    phase = next(
        c for c in payload["cells"] if c["scenario"] == "phase-miscalibration"
    )
    assert over["engines"] == ["xx", "dense"] and not over["fallback_to_dense"]
    assert phase["engines"] == ["dense"] and phase["fallback_to_dense"]
    # A rerun is served from the per-kind cache entries.
    payload2, records2 = runner.run_matrix(
        "scenarios", kinds, preset="smoke", overrides=overrides, cache_dir=cache
    )
    assert all(r.cache_hit for r in records2)
    assert payload2["cells"] == payload["cells"]
    with pytest.raises(ValueError, match="unknown scenario kinds"):
        runner.run_matrix("scenarios", ["warp-core"], cache_dir=cache)
    # An explicit kinds argument wins over a "scenarios" override (the
    # sweep owns that field); the combination must not trip the sweep's
    # duplicate-override guard.
    payload3, _ = runner.run_matrix(
        "scenarios",
        ["over-rotation"],
        preset="smoke",
        overrides={**overrides, "scenarios": ["phase-miscalibration"]},
        cache_dir=cache,
    )
    assert payload3["kinds"] == ["over-rotation"]


#: Tiny per-front-door sweeps: (axis flag, axis value, --set overrides).
FRONT_DOORS = {
    "scenarios": (
        "--kind",
        "correlated-burst",
        {
            "qubit_counts": [5],
            "detection_trials": 2,
            "identification_trials": 1,
            "baseline_trials": 2,
            "shots": 60,
            "verify_shots": 100,
            "fig6_anchor": False,
        },
    ),
    "arena": (
        "--kind",
        "over-rotation",
        {
            "qubit_counts": [5],
            "diagnosers": ["battery", "null"],
            "trials": 1,
            "clean_trials": 1,
            "baseline_trials": 2,
            "shots": 60,
            "verify_shots": 100,
        },
    ),
    "fleet": (
        "--policy",
        "battery",
        {
            "n_traps": 1,
            "horizon_seconds": 3600.0,
            "baseline_trials": 2,
            "shots": 60,
            "verify_shots": 100,
        },
    ),
}


def _without(payload, key):
    """``payload`` with ``key`` dropped at every depth."""
    if isinstance(payload, dict):
        return {k: _without(v, key) for k, v in payload.items() if k != key}
    if isinstance(payload, list):
        return [_without(v, key) for v in payload]
    return payload


@pytest.mark.parametrize("command", sorted(FRONT_DOORS))
def test_scenarios_cli_emits_schema_valid_report(tmp_path, monkeypatch, command):
    """Each matrix front door writes <PREFIX>_smoke.json, and the CLI, a
    direct run_matrix call and a service job agree on the payload."""
    import json

    from repro.__main__ import main
    from repro.provenance import payloads_equivalent
    from repro.schema import validate_report
    from repro.service import DiagnosisService, ServiceClient

    flag, value, overrides = FRONT_DOORS[command]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    argv = [command, "--smoke", flag, value, "--out", str(tmp_path)]
    for field, setting in overrides.items():
        argv += ["--set", f"{field}={json.dumps(setting)}"]
    code = main(argv)
    prefix = {"scenarios": "SCENARIOS", "arena": "ARENA", "fleet": "FLEET"}
    cli = json.loads((tmp_path / f"{prefix[command]}_smoke.json").read_text())
    validate_report(cli)
    hard_failed = any(c["hard"] and not c["passed"] for c in cli.get("checks", []))
    assert code == int(hard_failed)
    assert [record["cache_hit"] for record in cli["records"]] == [False]

    direct, _ = runner.run_matrix(
        command,
        [value],
        preset="smoke",
        overrides=overrides,
        cache_dir=tmp_path / "direct-cache",
    )
    key = "policies" if command == "fleet" else "kinds"
    with DiagnosisService(tmp_path / "svc", workers=1) as svc:
        client = ServiceClient(svc)
        job_id = client.submit(
            command, {"preset": "smoke", key: [value], "overrides": overrides}
        )
        assert client.wait(job_id, timeout=120) == "done"
        served = client.result(job_id)["result"]
    # Wall-clock is the one arena field two identical runs disagree on.
    cli, direct, served = (
        _without(p, "mean_wall_seconds") for p in (cli, direct, served)
    )
    assert payloads_equivalent(cli, direct)
    assert payloads_equivalent(cli, served)


def test_scenario_cell_is_execution_order_independent():
    """series_jobs is execution-only: the digest ignores it."""
    from repro.analysis.registry import get_experiment

    spec = get_experiment("scenarios")
    sequential = spec.config("smoke")
    parallel = dataclasses.replace(sequential, series_jobs=4)
    assert runner.config_digest("scenarios", sequential) == runner.config_digest(
        "scenarios", parallel
    )
