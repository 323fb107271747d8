"""Adaptive binary-search baseline (Sec. IV).

The classical alternative to the paper's combinatorial protocol: each test
exercises half of the remaining suspect couplings; failing keeps that
half, passing keeps the complement.  ``ceil(log2 C(N,2))`` tests isolate a
single fault — about ``2 log2 N - 1`` — but *every* step is adaptive: the
next test's coupling set depends on the previous outcome, so each step
pays the classical decision + pulse-recompilation + upload cost that
Fig. 10 shows dominating at scale.

Extended to multiple faults the way the paper describes: diagnosed
couplings are removed from future consideration and the search repeats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import all_couplings
from .protocol import TestExecutor
from .tests_builder import TestSpec

__all__ = ["BinarySearchOutcome", "AdaptiveBinarySearch"]

Pair = frozenset[int]


@dataclass(frozen=True)
class BinarySearchOutcome:
    """Result of one adaptive search for a single fault."""

    identified: Pair | None
    tests_used: int
    adaptations: int


@dataclass
class AdaptiveBinarySearch:
    """Halving search over suspect couplings.

    Parameters
    ----------
    n_qubits:
        Machine size.
    relevant:
        Suspect couplings (defaults to all pairs).
    repetitions:
        Gate stack height per coupling in each test.
    """

    n_qubits: int
    relevant: set[Pair] | None = None
    repetitions: int = 4

    def __post_init__(self) -> None:
        if self.relevant is None:
            self.relevant = set(all_couplings(self.n_qubits))

    def find_one(self, executor: TestExecutor) -> BinarySearchOutcome:
        """Isolate one faulty coupling (assuming at least one exists).

        Each halving step runs one test and records one adaptation (the
        next test is computed from its outcome).  A final one-coupling
        test verifies the survivor; if it passes, no fault is reported.
        """
        suspects = sorted(self.relevant, key=sorted)
        tests = 0
        adaptations = 0
        step = 0
        while len(suspects) > 1:
            half = suspects[: len(suspects) // 2]
            spec = TestSpec(
                name=f"bisect[{step}]({len(half)} couplings)",
                pairs=tuple(half),
                repetitions=self.repetitions,
                kind="subset",
                metadata=(("step", step),),
            )
            result = executor.execute(spec)
            tests += 1
            adaptations += 1
            executor.cost.record_adaptation("binary-search halving")
            suspects = half if result.failed else suspects[len(half):]
            step += 1
        if not suspects:
            return BinarySearchOutcome(None, tests, adaptations)
        survivor = suspects[0]
        verify = TestSpec(
            name=f"bisect-verify({min(survivor)},{max(survivor)})",
            pairs=(survivor,),
            repetitions=self.repetitions,
            kind="verify",
        )
        result = executor.execute(verify)
        tests += 1
        identified = survivor if result.failed else None
        return BinarySearchOutcome(identified, tests, adaptations)

    def find_all(
        self, executor: TestExecutor, max_faults: int = 16
    ) -> list[Pair]:
        """Repeat the search, excluding found couplings (multi-fault)."""
        remaining = set(self.relevant)
        found: list[Pair] = []
        for _ in range(max_faults):
            if not remaining:
                break
            search = AdaptiveBinarySearch(
                self.n_qubits, relevant=remaining, repetitions=self.repetitions
            )
            outcome = search.find_one(executor)
            if outcome.identified is None:
                break
            found.append(outcome.identified)
            remaining.discard(outcome.identified)
        return found
