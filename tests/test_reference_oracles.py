"""The fast paths against the reference implementations kept beside them.

* :func:`~repro.core.syndrome.brute_force_candidates` scans every
  coupling and compares its syndrome with the observed one; the
  constructive decoder :func:`~repro.core.syndrome.candidates_for_syndrome`
  (Lemma V.9) must return exactly the same pairs.
* :func:`~repro.noise.one_over_f.estimate_psd_exponent` fits the spectral
  slope of a series; the 1/f^alpha generator must produce the alpha it
  was asked for.
"""

from itertools import product

import numpy as np
import pytest

from repro.core.combinatorics import all_couplings, num_bits
from repro.core.syndrome import (
    Syndrome,
    brute_force_candidates,
    candidates_for_syndrome,
)
from repro.noise.one_over_f import estimate_psd_exponent, one_over_f_series


def _single_fault_syndromes(n_bits: int):
    """Every syndrome with at most one entry per bit position."""
    for choice in product((None, 0, 1), repeat=n_bits):
        entries = frozenset((i, b) for i, b in enumerate(choice) if b is not None)
        yield Syndrome(entries, n_bits)


@pytest.mark.parametrize("n_qubits", [4, 5, 6, 8, 11, 16])
def test_constructive_decoder_matches_brute_force(n_qubits, rng):
    """Lemma V.9's construction == exhaustive scan, with and without a
    relevant-coupling filter (Corollary V.12)."""
    pairs = all_couplings(n_qubits)
    keep = rng.random(len(pairs)) < 0.5
    relevant = {p for p, k in zip(pairs, keep) if k}
    n_bits = num_bits(n_qubits)
    checked = 0
    for syndrome in _single_fault_syndromes(n_bits):
        for subset in (None, relevant):
            fast = candidates_for_syndrome(syndrome, n_qubits, subset)
            reference = brute_force_candidates(syndrome, n_qubits, subset)
            assert fast == reference, (sorted(syndrome.entries), subset is None)
        checked += 1
    assert checked == 3**n_bits


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_one_over_f_generator_has_requested_exponent(alpha):
    """The fitted spectral exponent is within 0.15 of alpha on 8 seeds."""
    for seed in range(8):
        series = one_over_f_series(4096, 0.1, np.random.default_rng(seed), alpha)
        assert estimate_psd_exponent(series) == pytest.approx(alpha, abs=0.15)
