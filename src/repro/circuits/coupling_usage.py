"""Coupling-usage analysis and fault avoidance (Fig. 11, Sec. VIII).

Two questions from the paper's discussion:

1. *How many couplings do applications actually use?*  Fig. 11 finds an
   average around 1/3 of the C(N,2) available — so detected faulty
   couplings can often be tolerated instead of recalibrated.
2. *Can a circuit be mapped around known-faulty couplings?*
   :func:`map_around_faults` searches for a qubit relabelling whose image
   of the circuit's coupling graph avoids every faulty pair — a simple
   simulated-annealing-free greedy/randomized search adequate for the
   sparse usage the suite exhibits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..sim.circuit import Circuit
from .library import build_suite

__all__ = [
    "coupling_usage",
    "usage_fraction",
    "SuiteUsage",
    "suite_usage",
    "map_around_faults",
]

Pair = frozenset[int]


def coupling_usage(circuit: Circuit) -> set[Pair]:
    """The set of couplings a circuit's two-qubit gates exercise."""
    return circuit.couplings()


def usage_fraction(circuit: Circuit) -> float:
    """Utilized couplings over the total available C(N,2)."""
    total = math.comb(circuit.n_qubits, 2)
    return len(coupling_usage(circuit)) / total


@dataclass(frozen=True)
class SuiteUsage:
    """Per-circuit and aggregate coupling usage at one machine size."""

    n_qubits: int
    used: dict[str, int]
    fractions: dict[str, float]

    @property
    def mean_used(self) -> float:
        return float(np.mean(list(self.used.values())))

    @property
    def mean_fraction(self) -> float:
        return float(np.mean(list(self.fractions.values())))


def suite_usage(n_qubits: int) -> SuiteUsage:
    """Coupling usage of the whole Fig. 11 suite at one size."""
    suite = build_suite(n_qubits)
    used = {name: len(coupling_usage(c)) for name, c in suite.items()}
    fractions = {name: usage_fraction(c) for name, c in suite.items()}
    return SuiteUsage(n_qubits=n_qubits, used=used, fractions=fractions)


def map_around_faults(
    circuit: Circuit,
    faulty: set[Pair],
    attempts: int = 200,
    seed: int = 0,
) -> dict[int, int] | None:
    """Find a qubit relabelling avoiding all faulty couplings.

    Strategy: start from the identity, count conflicts (used couplings
    that map onto faulty ones); retry from random permutations and apply
    greedy pairwise swaps until conflict-free or attempts run out.
    Returns the mapping, or ``None`` when no conflict-free relabelling was
    found (the paper's criterion for when recalibration becomes
    unavoidable).
    """
    n = circuit.n_qubits
    used = [tuple(sorted(p)) for p in coupling_usage(circuit)]
    faulty_set = {frozenset(p) for p in faulty}
    rng = np.random.default_rng(seed)

    def conflicts(perm: np.ndarray) -> int:
        return sum(
            1
            for a, b in used
            if frozenset((int(perm[a]), int(perm[b]))) in faulty_set
        )

    perm = np.arange(n)
    best = conflicts(perm)
    if best == 0:
        return {q: int(perm[q]) for q in range(n)}
    for attempt in range(attempts):
        candidate = rng.permutation(n) if attempt else perm.copy()
        score = conflicts(candidate)
        improved = True
        while improved and score > 0:
            improved = False
            for i in range(n):
                for j in range(i + 1, n):
                    candidate[i], candidate[j] = candidate[j], candidate[i]
                    new_score = conflicts(candidate)
                    if new_score < score:
                        score = new_score
                        improved = True
                    else:
                        candidate[i], candidate[j] = candidate[j], candidate[i]
        if score == 0:
            return {q: int(candidate[q]) for q in range(n)}
    return None
