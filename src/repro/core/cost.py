"""Cost accounting for diagnosis sessions.

Sec. V-C summarizes the cost of the full protocol:

* 0 faults — periodic canary runs only (negligible);
* k faults — ``4k + 1`` **adaptations** and ``k * s * (3n + R)``
  **circuit runs**, where ``s`` is shots per circuit and ``R`` the number
  of repetition configurations checked by the magnitude search.

:class:`CostTracker` counts what actually happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tests_builder import TestSpec

__all__ = ["CostTracker"]


@dataclass
class CostTracker:
    """Counts adaptations, circuit runs and shots during a session."""

    adaptations: int = 0
    circuit_runs: int = 0
    shots: int = 0
    runs_by_kind: dict[str, int] = field(default_factory=dict)

    def record_run(self, spec: TestSpec, shots: int) -> None:
        """Account one executed test circuit and its shots."""
        self.circuit_runs += 1
        self.shots += shots
        self.runs_by_kind[spec.kind] = self.runs_by_kind.get(spec.kind, 0) + 1

    def record_adaptation(self, reason: str = "") -> None:
        """One round of classical feedback: decide + recompile + upload."""
        self.adaptations += 1
