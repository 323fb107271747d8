"""Test bootstrap: ``src/`` importability, the shared seeded RNG and the
per-realization dense oracle the engine-equivalence suites compare to."""

import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.sim.statevector import (  # noqa: E402
    StatevectorSimulator,
    subregister_bitstring,
)


@pytest.fixture
def rng(request: pytest.FixtureRequest) -> np.random.Generator:
    """Deterministic per-test random generator.

    Seeded from the test's node id, so every test gets its own stable
    stream (reordering or adding tests never shifts another test's
    draws) without per-test ad-hoc ``default_rng(<magic constant>)``
    seeding.  Tests that need *two identical* streams (determinism
    comparisons) still construct their own generators explicitly.
    """
    seed = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng(seed)


def dense_reference(machine, slots, plan, expected) -> np.ndarray:
    """Per-realization dense evolution of the identical realized draws.

    Each realization in ``slots`` is materialized as a circuit and run
    gate by gate through :class:`StatevectorSimulator` on the plan's
    compacted register: the dense engine's reference oracle.
    """
    sub, forced_zero = subregister_bitstring(
        machine.n_qubits, plan.touched, expected
    )
    if forced_zero:
        return np.zeros(slots[0].params.shape[0])
    probs = []
    for circuit in machine._slots_to_circuits(slots):
        sim = StatevectorSimulator(plan.n_local)
        for op in circuit.ops:
            sim.apply_gate(
                op.matrix(), tuple(plan.index[q] for q in op.qubits)
            )
        probs.append(sim.probability_of(sub))
    return np.array(probs)
