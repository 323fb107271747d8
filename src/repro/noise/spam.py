"""State-preparation and measurement (SPAM) error model.

Sec. III notes that SPAM errors on ion-trap QCs are below 1 % and stable,
so they "can be addressed in post-processing".  :class:`SpamModel`
applies independent per-qubit readout bit flips to sampled counts
(``p01`` = P(read 1 | true 0), ``p10`` = P(read 0 | true 1)).
"""

from __future__ import annotations

import numpy as np

from ..sim.sampling import Counts

__all__ = ["SpamModel"]


class SpamModel:
    """Independent per-qubit readout error channel.

    Parameters
    ----------
    p01:
        Probability of reading ``1`` when the qubit is ``|0>``.
    p10:
        Probability of reading ``0`` when the qubit is ``|1>``.
    """

    def __init__(self, p01: float = 0.005, p10: float = 0.005):
        for name, p in (("p01", p01), ("p10", p10)):
            if not 0.0 <= p < 0.5:
                raise ValueError(f"{name}={p} must be in [0, 0.5)")
        self.p01 = p01
        self.p10 = p10

    def apply_to_counts(
        self, counts: Counts, n_qubits: int, rng: np.random.Generator
    ) -> Counts:
        """Corrupt measurement counts with sampled readout flips."""
        out: Counts = {}
        for bitstring, count in counts.items():
            bits = np.array(
                [(bitstring >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)],
                dtype=np.int8,
            )
            flip_prob = np.where(bits == 0, self.p01, self.p10)
            flips = rng.random((count, n_qubits)) < flip_prob
            observed = bits ^ flips.astype(np.int8)
            weights = 1 << np.arange(n_qubits - 1, -1, -1)
            observed_ints = observed @ weights
            for v in observed_ints:
                out[int(v)] = out.get(int(v), 0) + 1
        return out

    def match_probability_factor(self, expected: int, n_qubits: int) -> float:
        """Probability that a correct shot still reads out as ``expected``.

        Used by the scalar (Bernoulli) sampling path: the observed match
        probability is ``p_true_match * factor`` plus a negligible term for
        wrong states flipping into the expected one.
        """
        factor = 1.0
        for q in range(n_qubits):
            bit = (expected >> (n_qubits - 1 - q)) & 1
            factor *= (1.0 - self.p10) if bit else (1.0 - self.p01)
        return factor
