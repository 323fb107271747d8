"""A minimal quantum-circuit intermediate representation.

The protocols in this package build *test circuits* — sequences of native
ion-trap gates (``R`` one-qubit rotations and ``MS`` two-qubit gates) plus a
few convenience gates.  ``Circuit`` stores operations in program order and
offers structural queries used by the simulators and the fault-testing
protocols (which couplings are exercised, is the circuit XX-only, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import gates

__all__ = ["Operation", "Circuit", "FrozenCircuit", "is_multiple_of_pi"]

#: Gates natively understood by the simulators, mapped to their arity.
_GATE_ARITY = {
    "R": 1,
    "RX": 1,
    "RY": 1,
    "RZ": 1,
    "X": 1,
    "Y": 1,
    "Z": 1,
    "H": 1,
    "MS": 2,
    "XX": 2,
    "CNOT": 2,
    "CZ": 2,
    "SWAP": 2,
}

#: Number of float parameters expected per gate.
_GATE_PARAMS = {
    "R": 2,
    "RX": 1,
    "RY": 1,
    "RZ": 1,
    "X": 0,
    "Y": 0,
    "Z": 0,
    "H": 0,
    "MS": 3,
    "XX": 1,
    "CNOT": 0,
    "CZ": 0,
    "SWAP": 0,
}


@dataclass(frozen=True)
class Operation:
    """One gate application: a name, target qubits, and float parameters."""

    gate: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.gate not in _GATE_ARITY:
            raise ValueError(f"unknown gate {self.gate!r}")
        if len(self.qubits) != _GATE_ARITY[self.gate]:
            raise ValueError(
                f"{self.gate} acts on {_GATE_ARITY[self.gate]} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in {self.gate} on {self.qubits}")
        if len(self.params) != _GATE_PARAMS[self.gate]:
            raise ValueError(
                f"{self.gate} takes {_GATE_PARAMS[self.gate]} params, "
                f"got {len(self.params)}"
            )

    def matrix(self) -> np.ndarray:
        """Dense matrix of this operation on its own qubits."""
        g, p = self.gate, self.params
        if g == "R":
            return gates.r_gate(p[0], p[1])
        if g == "RX":
            return gates.rx(p[0])
        if g == "RY":
            return gates.ry(p[0])
        if g == "RZ":
            return gates.rz(p[0])
        if g == "X":
            return gates.X
        if g == "Y":
            return gates.Y
        if g == "Z":
            return gates.Z
        if g == "H":
            return gates.H
        if g == "MS":
            return gates.ms_gate(p[0], p[1], p[2])
        if g == "XX":
            return gates.xx(p[0])
        if g == "CNOT":
            return gates.cnot()
        if g == "CZ":
            return gates.cz()
        if g == "SWAP":
            return gates.swap()
        raise AssertionError(f"unhandled gate {g!r}")

    def is_xx_like(self) -> bool:
        """True if this operation is diagonal in the X basis.

        ``XX(theta)`` always is; ``MS(theta, phi1, phi2)`` is only when both
        drive phases are multiples of pi (the axis stays on X up to sign);
        ``RX`` rotations also commute with everything X-diagonal.
        """
        if self.gate == "XX":
            return True
        if self.gate == "RX" or self.gate == "X":
            return True
        if self.gate == "MS":
            _, phi1, phi2 = self.params
            return bool(
                is_multiple_of_pi(phi1) and is_multiple_of_pi(phi2)
            )
        return False


def is_multiple_of_pi(phi, atol: float = 1e-12):
    """True where ``phi`` is an integer multiple of pi (elementwise).

    The single source of the pi-multiple tolerance used to decide
    X-basis diagonality; accepts scalars or arrays.
    """
    ratio = np.asarray(phi) / math.pi
    return np.abs(ratio - np.rint(ratio)) < atol


@dataclass
class Circuit:
    """An ordered list of gate operations on ``n_qubits`` qubits.

    The builder methods return ``self`` so circuits can be written fluently::

        circ = Circuit(4).ms(0, 1, math.pi / 2).ms(2, 3, math.pi / 2)
    """

    n_qubits: int
    ops: list[Operation] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for op in self.ops:
            self._check_op(op)

    def _check_op(self, op: Operation) -> None:
        for q in op.qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.n_qubits}-qubit circuit"
                )

    # -- builder methods ----------------------------------------------------

    def append(self, op: Operation) -> "Circuit":
        """Append a validated operation; returns ``self`` for chaining."""
        self._check_op(op)
        self.ops.append(op)
        return self

    def extend(self, ops: Iterable[Operation]) -> "Circuit":
        """Append several operations in order; returns ``self``."""
        for op in ops:
            self.append(op)
        return self

    def r(self, q: int, theta: float, phi: float) -> "Circuit":
        """Native one-qubit rotation ``R(theta, phi)`` on qubit ``q``."""
        return self.append(Operation("R", (q,), (theta, phi)))

    def rx(self, q: int, theta: float) -> "Circuit":
        """Rotation about X by ``theta`` on qubit ``q``."""
        return self.append(Operation("RX", (q,), (theta,)))

    def ry(self, q: int, theta: float) -> "Circuit":
        """Rotation about Y by ``theta`` on qubit ``q``."""
        return self.append(Operation("RY", (q,), (theta,)))

    def rz(self, q: int, theta: float) -> "Circuit":
        """Rotation about Z by ``theta`` on qubit ``q``."""
        return self.append(Operation("RZ", (q,), (theta,)))

    def x(self, q: int) -> "Circuit":
        """Pauli-X gate on qubit ``q``."""
        return self.append(Operation("X", (q,)))

    def y(self, q: int) -> "Circuit":
        """Pauli-Y gate on qubit ``q``."""
        return self.append(Operation("Y", (q,)))

    def z(self, q: int) -> "Circuit":
        """Pauli-Z gate on qubit ``q``."""
        return self.append(Operation("Z", (q,)))

    def h(self, q: int) -> "Circuit":
        """Hadamard gate on qubit ``q``."""
        return self.append(Operation("H", (q,)))

    def ms(
        self, q1: int, q2: int, theta: float, phi1: float = 0.0, phi2: float = 0.0
    ) -> "Circuit":
        """Molmer-Sorensen gate ``M(theta, phi1, phi2)`` on ``(q1, q2)``."""
        return self.append(Operation("MS", (q1, q2), (theta, phi1, phi2)))

    def xx(self, q1: int, q2: int, theta: float) -> "Circuit":
        """Ising interaction ``XX(theta)`` on ``(q1, q2)``."""
        return self.append(Operation("XX", (q1, q2), (theta,)))

    def cnot(self, control: int, target: int) -> "Circuit":
        """Controlled-NOT with the given control and target qubits."""
        return self.append(Operation("CNOT", (control, target)))

    def cz(self, q1: int, q2: int) -> "Circuit":
        """Controlled-Z gate on ``(q1, q2)``."""
        return self.append(Operation("CZ", (q1, q2)))

    def swap(self, q1: int, q2: int) -> "Circuit":
        """SWAP gate exchanging qubits ``q1`` and ``q2``."""
        return self.append(Operation("SWAP", (q1, q2)))

    # -- structural queries --------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def two_qubit_ops(self) -> list[Operation]:
        """All operations acting on two qubits, in program order."""
        return [op for op in self.ops if len(op.qubits) == 2]

    def couplings(self) -> set[frozenset[int]]:
        """The set of qubit pairs exercised by two-qubit gates."""
        return {frozenset(op.qubits) for op in self.two_qubit_ops()}

    def touched_qubits(self) -> set[int]:
        """All qubits acted on by at least one gate."""
        out: set[int] = set()
        for op in self.ops:
            out.update(op.qubits)
        return out

    def is_xx_only(self) -> bool:
        """True if every operation is diagonal in the X basis.

        Such circuits can be evaluated by the fast ``xx_engine`` without a
        dense statevector.
        """
        return all(op.is_xx_like() for op in self.ops)

    def depth_two_qubit(self) -> int:
        """Number of two-qubit gate applications (a proxy for test depth)."""
        return len(self.two_qubit_ops())

    def copy(self) -> "Circuit":
        """Shallow copy with an independent operation list."""
        return Circuit(self.n_qubits, list(self.ops))


class FrozenCircuit(Circuit):
    """A read-only :class:`Circuit` whose operations are a tuple.

    Shared, cached circuits (see
    :func:`~repro.core.protocol.compiled_test`) are handed to every
    backend that runs them, so none of those callers may change them:
    the builder methods raise and attributes cannot be reassigned.
    :meth:`~Circuit.copy` returns an ordinary, mutable circuit.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "_frozen", True)

    def __setattr__(self, name: str, value: object) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError("a FrozenCircuit cannot be modified")
        super().__setattr__(name, value)

    def append(self, op: Operation) -> "Circuit":
        """Refuse: frozen circuits are read-only (``copy()`` first)."""
        raise TypeError("a FrozenCircuit cannot be modified; copy() it first")
