"""Compiled single tests: ``TestExecutor.execute`` vs the slot reference.

``execute`` serves each spec from a process-wide cache of compiled tests
and, for XX-eligible settings, evaluates it against the cached
contraction plan instead of realizing noisy slots.  That must change
nothing: on same-seed machines, a spec sequence run through ``execute``
and through the retained reference composition
(``_realize_slots`` -> ``_match_probabilities_slots`` ->
``sample_bernoulli_counts_batch``) yields equal counts, machine
statistics, clocks and final RNG states, for every scenario kind and for
the settings that must keep the slot path (phase offsets, oversized
components, swap insertion).
"""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

import repro.core.protocol as protocol
import repro.trap.machine as machine_mod
from repro.core.multi_fault import battery_specs
from repro.core.protocol import TestExecutor, compiled_test
from repro.core.tests_builder import TestSpec, build_test_circuit, expected_output
from repro.scenarios.spec import SCENARIO_KINDS, build_scenario
from repro.sim.circuit import Circuit
from repro.sim.sampling import sample_bernoulli_counts_batch
from repro.sim.xx_engine import ContractionPlan, XXCircuitEvaluator
from repro.trap.machine import VirtualIonTrap, compiled_test_cache_info

SHOTS = 120


def _pair(i, j):
    return frozenset((i, j))


def _spec_sequence(n_qubits):
    """Battery tests at two depths, a point test, and a repeated spec."""
    specs = list(battery_specs(n_qubits, 2)) + list(battery_specs(n_qubits, 4))
    specs.append(TestSpec("point(0,1)", (_pair(0, 1),), 4, kind="point"))
    specs.append(TestSpec("empty", (), 2))
    # A name/metadata-only variant of the first spec: same cache entry.
    specs.append(
        TestSpec("again", specs[0].pairs, specs[0].repetitions, metadata=(("r", 2),))
    )
    return specs


def _scenario_machine(kind, n_qubits, seed=11, trial=1):
    spec = build_scenario(kind, n_qubits)
    machine = VirtualIonTrap(
        n_qubits, noise=spec.noise_parameters(), seed=seed, noise_realizations=4
    )
    spec.apply(machine, trial=trial)
    return machine


def _reference_counts(machine, circuit, expected, shots):
    """One ``run_match`` through the slot reference composition."""
    machine._account(circuit.depth_two_qubit(), shots)
    spam = (
        machine.noise.spam.match_probability_factor(expected, machine.n_qubits)
        if machine.noise.spam is not None
        else 1.0
    )
    groups = machine._shot_groups(shots)
    slots = machine._realize_slots(circuit, len(groups))
    p_match = machine._match_probabilities_slots(slots, expected)
    return sample_bernoulli_counts_batch(
        p_match * spam, expected, np.asarray(groups, dtype=np.int64), machine.rng
    )


class _Recorder:
    """A backend passing ``run_match`` through while keeping the counts."""

    def __init__(self, machine):
        self.machine = machine
        self.n_qubits = machine.n_qubits
        self.counts = []

    def run_match(self, circuit, expected, shots, realizations=None):
        counts = self.machine.run_match(circuit, expected, shots, realizations)
        self.counts.append(counts)
        return counts


def _machine_state(machine):
    return (
        machine.stats,
        machine._clock,
        machine.rng.bit_generator.state,
    )


def _run_both(make_machine, specs, shots=SHOTS):
    """Run ``specs`` both ways; returns the executed machine and how many
    of its tests realized slots (0 when all took the compiled path)."""
    fast, ref = make_machine(), make_machine()
    realized = []
    slot_path = fast._realize_slots
    fast._realize_slots = lambda *a: realized.append(1) or slot_path(*a)
    recorder = _Recorder(fast)
    executor = TestExecutor(recorder, shots=shots)
    fidelities = [executor.execute(spec).fidelity for spec in specs]
    ref_counts = []
    ref_fidelities = []
    for spec in specs:
        if not spec.pairs:
            ref_fidelities.append(1.0)
            continue
        n = ref.n_qubits
        circuit, expected = build_test_circuit(spec, n), expected_output(spec, n)
        counts = _reference_counts(ref, circuit, expected, shots)
        ref_counts.append(counts)
        ref_fidelities.append(counts.get(expected, 0) / shots)
    assert recorder.counts == ref_counts
    assert fidelities == ref_fidelities
    assert _machine_state(fast) == _machine_state(ref)
    return fast, len(realized)


@pytest.mark.parametrize("n_qubits", [6, 8])
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_execute_matches_slot_reference_per_scenario(kind, n_qubits):
    specs = _spec_sequence(n_qubits)
    machine, realized = _run_both(lambda: _scenario_machine(kind, n_qubits), specs)
    assert machine.stats.circuit_runs == len(specs) - 1
    # XX-preserving kinds skip slot realization; phase offsets keep it.
    xx_kind = build_scenario(kind, n_qubits).is_xx_preserving()
    assert realized == (0 if xx_kind else len(specs) - 1)


@pytest.mark.parametrize("n_qubits", [6, 8])
@pytest.mark.parametrize(
    "kind", [k for k in SCENARIO_KINDS if build_scenario(k).is_xx_preserving()]
)
def test_compiled_probabilities_are_bitwise_the_slot_probabilities(kind, n_qubits):
    # Counts hide last-bit differences in the match probabilities; the
    # probabilities themselves must agree exactly, draw for draw.
    fast = _scenario_machine(kind, n_qubits)
    ref = _scenario_machine(kind, n_qubits)
    for spec in _spec_sequence(n_qubits):
        if not spec.pairs:
            continue
        test = compiled_test(spec, n_qubits)
        assert fast._compiled_xx_eligible(test)
        got = fast._compiled_match_probabilities(test, 5)
        slots = ref._realize_slots(build_test_circuit(spec, n_qubits), 5)
        want = ref._match_probabilities_slots(slots, test.expected)
        assert got.tobytes() == want.tobytes()
    assert _machine_state(fast) == _machine_state(ref)


def test_execute_matches_reference_with_shot_batch_override():
    specs = _spec_sequence(6)[:4]

    def make():
        return _scenario_machine("static-under-rotation", 6)

    fast, ref = make(), make()
    executor = TestExecutor(fast, shots=SHOTS, shot_batch=3)
    got = [executor.execute(spec).fidelity for spec in specs]
    want = []
    for spec in specs:
        circuit = build_test_circuit(spec, 6)
        expected = expected_output(spec, 6)
        counts = ref.run_match(circuit, expected, SHOTS, realizations=3)
        want.append(counts.get(expected, 0) / SHOTS)
    assert got == want
    assert _machine_state(fast) == _machine_state(ref)


def test_oversized_component_canary_keeps_the_slot_path():
    # A 32-qubit chain is one coupling component above max_exact_qubits:
    # no plan compiles, and the slot path's Monte-Carlo fallback runs.
    n = 32
    canary = TestSpec(
        "canary-chain",
        tuple(_pair(q, q + 1) for q in range(n - 1)),
        2,
        kind="canary",
    )
    assert compiled_test(canary, n).plan is None

    def make():
        return VirtualIonTrap(n, seed=5, noise_realizations=2)

    assert _run_both(make, [canary], shots=60)[1] == 1


def test_swap_insertion_circuit_runs_on_the_slot_path():
    n = 6
    spec = TestSpec("swapped", (_pair(0, 1), _pair(2, 3)), 4)
    circuit = build_test_circuit(spec, n, swap_insertion={_pair(0, 1): 5})
    expected = expected_output(spec, n)
    fast = _scenario_machine("over-rotation", n)
    ref = _scenario_machine("over-rotation", n)
    assert fast.run_match(circuit, expected, SHOTS) == _reference_counts(
        ref, circuit, expected, SHOTS
    )
    assert _machine_state(fast) == _machine_state(ref)


def test_cached_plan_amplitudes_match_the_evaluator(rng):
    n = 8
    spec = battery_specs(n, 2)[0]
    test = compiled_test(spec, n)
    thetas = rng.uniform(-np.pi, np.pi, (5, len(test.pairs)))
    amps = test.plan.amplitudes(thetas)
    for row, amp in zip(thetas, amps):
        circuit = Circuit(n)
        for pair, theta in zip(test.pairs, row):
            circuit.xx(*sorted(pair), theta)
        want = XXCircuitEvaluator(circuit).amplitude(test.expected)
        assert abs(amp - want) <= 1e-9


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty compiled-test cache with zeroed counters."""
    monkeypatch.setattr(machine_mod, "_COMPILED_TESTS", OrderedDict())
    monkeypatch.setattr(machine_mod, "_COMPILED_BY_CIRCUIT", {})
    monkeypatch.setattr(
        machine_mod,
        "_COMPILED_TEST_COUNTS",
        {"builds": 0, "hits": 0, "evictions": 0},
    )


def test_one_spec_builds_once_across_fresh_machines(fresh_cache, monkeypatch):
    built = []
    original_build = protocol.build_test_circuit
    monkeypatch.setattr(
        protocol,
        "build_test_circuit",
        lambda *a, **k: built.append(1) or original_build(*a, **k),
    )
    plans = []
    original_init = ContractionPlan.__init__

    def counting_init(self, *args, **kwargs):
        plans.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(ContractionPlan, "__init__", counting_init)
    spec = battery_specs(8, 2)[1]
    renamed = TestSpec("renamed", spec.pairs, spec.repetitions, kind="verify",
                       metadata=(("round", 2),))
    for seed in range(3):
        executor = TestExecutor(VirtualIonTrap(8, seed=seed), shots=SHOTS)
        executor.execute(spec)
        executor.execute(renamed)
    assert len(built) == 1
    assert len(plans) == 1
    info = compiled_test_cache_info()
    assert (info["tests"], info["builds"], info["hits"]) == (1, 1, 5)
    assert compiled_test(renamed, 8) is compiled_test(spec, 8)


def test_eviction_keeps_the_cache_within_its_byte_bound(fresh_cache, monkeypatch):
    specs = battery_specs(8, 2)[:6]
    one = machine_mod._compiled_test_bytes(compiled_test(specs[0], 8))
    monkeypatch.setattr(machine_mod, "_COMPILED_TESTS_MAX_BYTES", 3 * one)
    for spec in specs:
        compiled_test(spec, 8)
        info = compiled_test_cache_info()
        assert info["total_bytes"] <= info["max_bytes"]
    assert info["evictions"] > 0
    assert len(machine_mod._COMPILED_BY_CIRCUIT) == info["tests"]
    # An evicted spec recompiles and still runs bit-identically.
    _run_both(lambda: VirtualIonTrap(8, seed=3), specs[:2])


def test_concurrent_lookups_keep_the_cache_consistent(fresh_cache, monkeypatch):
    specs = battery_specs(8, 2) + battery_specs(8, 4)
    one = machine_mod._compiled_test_bytes(compiled_test(specs[0], 8))
    monkeypatch.setattr(machine_mod, "_COMPILED_TESTS_MAX_BYTES", 4 * one)
    errors = []

    def worker(offset):
        try:
            for k in range(150):
                spec = specs[(k + offset) % len(specs)]
                test = compiled_test(spec, 8)
                assert test.expected == expected_output(spec, 8)
                assert test.two_qubit_depth == len(spec.pairs) * spec.repetitions
        except Exception as exc:  # reported below, with the thread's peers
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    info = compiled_test_cache_info()
    # A lost update would unbalance builds against evictions and entries.
    assert info["tests"] == info["builds"] - info["evictions"]
    assert len(machine_mod._COMPILED_BY_CIRCUIT) == info["tests"]
    assert info["total_bytes"] <= info["max_bytes"]


def test_cached_circuits_are_read_only():
    test = compiled_test(battery_specs(6, 2)[0], 6)
    with pytest.raises(TypeError):
        test.circuit.ms(0, 1, 1.0)
    with pytest.raises(AttributeError):
        test.circuit.ops = []
    with pytest.raises(ValueError):
        test.slot_theta[0] = 0.0
    mutable = test.circuit.copy()
    mutable.ms(0, 1, 1.0)
    assert len(mutable) == len(test.circuit) + 1
