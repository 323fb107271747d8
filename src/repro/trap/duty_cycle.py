"""Duty-cycle model of a commercial ion-trap QC (Fig. 2).

Fig. 2 breaks a contemporary machine's duty cycle into ~53 % client jobs
and ~47 % testing/calibration, with coupling calibration a significant
share.  This model lets us quantify the headline impact of the paper: a
faster fault-diagnosis strategy shrinks the coupling-testing slice and so
raises operational uptime.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DutyCycleBreakdown", "improved_duty_cycle"]


@dataclass(frozen=True)
class DutyCycleBreakdown:
    """Fractions of wall-clock spent per activity (must sum to 1)."""

    jobs: float = 0.53
    coupling_tests: float = 0.25
    other_calibration: float = 0.22
    label: str = "contemporary commercial ion-trap QC (Fig. 2)"

    def __post_init__(self) -> None:
        total = self.jobs + self.coupling_tests + self.other_calibration
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"duty-cycle fractions sum to {total}, not 1")
        for name, value in (
            ("jobs", self.jobs),
            ("coupling_tests", self.coupling_tests),
            ("other_calibration", self.other_calibration),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")

    @property
    def overhead(self) -> float:
        """Non-productive fraction (all testing + calibration)."""
        return self.coupling_tests + self.other_calibration


def improved_duty_cycle(
    baseline: DutyCycleBreakdown, coupling_test_speedup: float
) -> DutyCycleBreakdown:
    """Duty cycle after accelerating coupling tests by ``speedup``x.

    Model: each unit of job time requires a fixed amount of coupling
    testing and other calibration.  Speeding up coupling tests shrinks
    their absolute time per job unit; the freed time becomes job time and
    the fractions are renormalized over the new (shorter) cycle.
    """
    if coupling_test_speedup < 1.0:
        raise ValueError("speed-up must be >= 1")
    new_tests = baseline.coupling_tests / coupling_test_speedup
    total = baseline.jobs + new_tests + baseline.other_calibration
    return DutyCycleBreakdown(
        jobs=baseline.jobs / total,
        coupling_tests=new_tests / total,
        other_calibration=baseline.other_calibration / total,
        label=f"{baseline.label} + {coupling_test_speedup:.0f}x faster coupling tests",
    )
