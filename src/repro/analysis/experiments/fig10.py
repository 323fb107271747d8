"""Fig. 10: testing speed-up vs machine size.

Compares, as a function of N, the wall-clock of three strategies against
the all-couplings point-check baseline, using the Sec. VIII timing model
(gate time 0.2 ms at 8 qubits scaling as 1/N^2; adaptive rounds pay
classical decision + per-coupling pulse-recompilation costs):

* **adaptive** (binary search): ~log2 C(N,2) adaptive rounds.  Speed-up
  plateaus around 10^3 because recompilation scales with couplings, just
  like the point checks' processing — the paper's blue curve.
* **non-adaptive** (this paper): 3n-1 predetermined tests, a single
  adaptation; speed-up grows ~N^2/log N — the orange curve.

Also evaluates the Sec. IX headline: a full 11-qubit diagnosis in ~10 s
versus over a minute for per-coupling point checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...trap.timing import TimingModel

__all__ = ["Fig10Config", "Fig10Row", "run_fig10", "sec9_headline"]


@dataclass(frozen=True)
class Fig10Config:
    """Machine sizes and per-test parameters of the projection."""

    qubit_counts: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024)
    shots: int = 300
    repetitions: int = 4
    timing: TimingModel = TimingModel()


@dataclass(frozen=True)
class Fig10Row:
    """Wall-clock of the three strategies at one machine size."""

    n_qubits: int
    point_check_seconds: float
    binary_search_seconds: float
    non_adaptive_seconds: float

    @property
    def adaptive_speedup(self) -> float:
        return self.point_check_seconds / self.binary_search_seconds

    @property
    def non_adaptive_speedup(self) -> float:
        return self.point_check_seconds / self.non_adaptive_seconds


def run_fig10(cfg: Fig10Config | None = None) -> list[Fig10Row]:
    """Evaluate the three strategies' wall-clock across machine sizes."""
    cfg = cfg or Fig10Config()
    rows = []
    for n in cfg.qubit_counts:
        rows.append(
            Fig10Row(
                n_qubits=n,
                point_check_seconds=cfg.timing.point_check_total(
                    n, cfg.shots, cfg.repetitions
                ),
                binary_search_seconds=cfg.timing.binary_search_total(
                    n, cfg.shots, cfg.repetitions
                ),
                non_adaptive_seconds=cfg.timing.non_adaptive_total(
                    n, cfg.shots, cfg.repetitions
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class Sec9Headline:
    """The Sec. IX wall-clock claim for the 11-qubit system."""

    non_adaptive_seconds: float
    point_check_seconds: float
    point_check_per_coupling: float

def sec9_headline(
    timing: TimingModel | None = None, shots: int = 300, repetitions: int = 4
) -> Sec9Headline:
    """Evaluate the Sec. IX wall-clock claim on the 11-qubit system."""
    timing = timing or TimingModel()
    n = 11
    total_point = timing.point_check_total(n, shots, repetitions)
    return Sec9Headline(
        non_adaptive_seconds=timing.non_adaptive_total(n, shots, repetitions),
        point_check_seconds=total_point,
        point_check_per_coupling=total_point / math.comb(n, 2),
    )


def _register() -> None:
    """Hook this experiment into the unified runner registry."""
    from ..registry import register_experiment

    register_experiment(
        name="fig10",
        anchor="Fig. 10",
        title="Projected testing speed-up vs machine size",
        runner=run_fig10,
        config_type=Fig10Config,
        smoke_overrides={"qubit_counts": (8, 16, 32, 64)},
        to_rows=lambda rows: (
            [
                "n_qubits",
                "point_check_seconds",
                "binary_search_seconds",
                "non_adaptive_seconds",
                "adaptive_speedup",
                "non_adaptive_speedup",
            ],
            [
                [
                    r.n_qubits,
                    r.point_check_seconds,
                    r.binary_search_seconds,
                    r.non_adaptive_seconds,
                    r.adaptive_speedup,
                    r.non_adaptive_speedup,
                ]
                for r in rows
            ],
        ),
        summarize=lambda rows: (
            f"non-adaptive speedup {rows[-1].non_adaptive_speedup:,.0f}x "
            f"at N={rows[-1].n_qubits} "
            f"(adaptive plateaus at {rows[-1].adaptive_speedup:,.0f}x)"
        ),
    )


_register()
