"""Arena scoring: pure set arithmetic over diagnoses and ground truth.

A trial's score is a function of three things only: the
:class:`~repro.arena.diagnosers.Diagnosis`, the scenario's
``ground_truth`` at that trial, and the trial's grading class.  No
machine state, labels or wall-clock enters the *correctness* metrics, so
scoring is permutation-invariant by construction — relabeling the qubits
maps diagnosis and truth through the same permutation and every score is
bitwise unchanged (the metamorphic property the test suite checks).

Grading classes follow PR 5's ambiguity-band convention: a trial whose
worst fault severity falls inside ``detect_floor * (1 +- ambiguity)`` is
*ambiguous* and ungraded for detection; above the band it must be
detected, below (or faultless) it must not.

Isolation is scored DXC-style against the true ambiguity group:

* ``isolated_top`` — the first claimed coupling is the worst true fault;
* ``covered`` — the worst true fault is somewhere in the diagnoser's
  ambiguity group (it was not exonerated);
* ``precision`` — ``|truth ∩ ambiguity| / |ambiguity|``, the fraction of
  accused couplings that are actually faulty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnosers import Diagnosis

__all__ = [
    "CellScore",
    "TrialScore",
    "grade_trial",
    "score_trial",
]

Pair = frozenset[int]

#: Grading classes of a trial.
FAULT, CLEAN, AMBIGUOUS = "fault", "clean", "ambiguous"


def grade_trial(
    top_severity: float, detect_floor: float, ambiguity: float
) -> str:
    """Classify a trial by its worst fault magnitude.

    ``fault`` above the band ``detect_floor * (1 +- ambiguity)``,
    ``clean`` below it, ``ambiguous`` (detection-ungraded) inside.
    """
    lo = detect_floor * (1.0 - ambiguity)
    hi = detect_floor * (1.0 + ambiguity)
    if top_severity >= hi:
        return FAULT
    if top_severity <= lo:
        return CLEAN
    return AMBIGUOUS


@dataclass(frozen=True)
class TrialScore:
    """One (diagnoser, trial) outcome, fully scored.

    ``isolated_top``/``covered``/``precision`` are ``None`` on trials
    without gradable ground truth (clean or ambiguous); ``correct`` is
    ``None`` on ambiguous trials.
    """

    diagnoser: str
    truth_kind: str
    detected: bool
    correct: bool | None
    isolated_top: bool | None
    covered: bool | None
    precision: float | None
    ambiguity_size: int
    tests_used: int
    shots: int
    adaptations: int
    wall_seconds: float
    timed_out: bool


def score_trial(
    diagnosis: Diagnosis,
    truth: list[Pair],
    truth_kind: str,
    wall_seconds: float = 0.0,
) -> TrialScore:
    """Score one diagnosis against one trial's ground truth.

    ``truth`` is the scenario's ``ground_truth`` at the trial (worst
    first, already floored at the detection floor); ``truth_kind`` is the
    trial's :func:`grade_trial` class.  Pure set arithmetic — see the
    module docstring for the permutation-invariance argument.
    """
    ambiguity = diagnosis.ambiguity_group
    if truth_kind == FAULT and truth:
        truth_set = set(truth)
        worst = truth[0]
        isolated_top = bool(diagnosis.claimed) and diagnosis.claimed[0] == worst
        covered = worst in ambiguity
        precision = (
            len(truth_set & ambiguity) / len(ambiguity) if ambiguity else 0.0
        )
        correct: bool | None = diagnosis.detected
    else:
        isolated_top = covered = precision = None
        correct = (not diagnosis.detected) if truth_kind == CLEAN else None
    return TrialScore(
        diagnoser=diagnosis.diagnoser,
        truth_kind=truth_kind,
        detected=diagnosis.detected,
        correct=correct,
        isolated_top=isolated_top,
        covered=covered,
        precision=precision,
        ambiguity_size=len(ambiguity),
        tests_used=diagnosis.tests_used,
        shots=diagnosis.shots,
        adaptations=diagnosis.adaptations,
        wall_seconds=wall_seconds,
        timed_out=diagnosis.timed_out,
    )


@dataclass
class CellScore:
    """Aggregate of one diagnoser's trials in one (kind, N) arena cell."""

    diagnoser: str
    kind: str
    n_qubits: int
    fault_trials: int = 0
    clean_trials: int = 0
    ambiguous_trials: int = 0
    detections: int = 0
    false_alarms: int = 0
    isolated: int = 0
    covered: int = 0
    precision_sum: float = 0.0
    ambiguity_sum: int = 0
    tests_sum: int = 0
    shots_sum: int = 0
    adaptations_sum: int = 0
    wall_sum: float = 0.0
    timeouts: int = 0

    def add(self, score: TrialScore) -> None:
        """Fold one trial score into the aggregate."""
        if score.truth_kind == FAULT:
            self.fault_trials += 1
            if score.detected:
                self.detections += 1
            if score.isolated_top:
                self.isolated += 1
            if score.covered:
                self.covered += 1
            self.precision_sum += score.precision or 0.0
            self.ambiguity_sum += score.ambiguity_size
        elif score.truth_kind == CLEAN:
            self.clean_trials += 1
            if score.detected:
                self.false_alarms += 1
        else:
            self.ambiguous_trials += 1
        self.tests_sum += score.tests_used
        self.shots_sum += score.shots
        self.adaptations_sum += score.adaptations
        self.wall_sum += score.wall_seconds
        if score.timed_out:
            self.timeouts += 1

    # -- derived rates (None when the denominator is empty) ----------------------

    @property
    def trials(self) -> int:
        """All graded and ungraded trials folded into this cell."""
        return self.fault_trials + self.clean_trials + self.ambiguous_trials

    def detection_rate(self) -> float | None:
        """Fraction of fault trials detected."""
        return self.detections / self.fault_trials if self.fault_trials else None

    def mean_precision(self) -> float | None:
        """Mean isolation precision over fault trials."""
        return self.precision_sum / self.fault_trials if self.fault_trials else None

    def mean_ambiguity(self) -> float | None:
        """Mean ambiguity-group size over fault trials."""
        return self.ambiguity_sum / self.fault_trials if self.fault_trials else None

    def mean_shots(self) -> float:
        """Mean shots per trial (all trials)."""
        return self.shots_sum / self.trials if self.trials else 0.0

    def mean_adaptations(self) -> float:
        """Mean adaptations per trial (all trials)."""
        return self.adaptations_sum / self.trials if self.trials else 0.0

    def mean_wall(self) -> float:
        """Mean diagnosis wall-clock seconds per trial (all trials)."""
        return self.wall_sum / self.trials if self.trials else 0.0
