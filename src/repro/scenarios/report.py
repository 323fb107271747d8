"""Schema'd scenario-matrix reports (``SCENARIOS_<label>.json``).

The matrix front door (:func:`repro.analysis.runner.run_matrix` over the
``scenarios`` experiment, behind ``python -m repro scenarios``) merges
the per-kind experiment records through :func:`merge_matrix` into one
matrix payload: every (scenario, machine size) cell's per-engine
detection counts, identification counts and engine-routing flags, plus
the fig6 anchor verdicts.  :data:`SCENARIO_MATRIX_SCHEMA` declares the
payload's shape for the stdlib checker of :mod:`repro.schema`, so the
report stays dependency-free and diffable across PRs.
"""

from __future__ import annotations

from typing import Any

from ..schema import (
    BOOLEAN,
    Schema,
    enum,
    integer,
    list_of,
    nullable,
    number,
    obj,
    string,
    where,
)
from .spec import SCENARIO_KINDS

__all__ = [
    "SCENARIO_MATRIX_SCHEMA",
    "SCENARIO_MATRIX_SCHEMA_ID",
    "matrix_payload",
    "merge_matrix",
    "render_matrix",
    "validate_matrix_payload",
]

#: Schema identifier stamped into (and required of) every matrix payload.
SCENARIO_MATRIX_SCHEMA_ID = "repro-scenarios/v1"


def _is_count_triple(entry: Any) -> bool:
    """``[engine, successes, trials]`` with 0 <= successes <= trials."""
    return (
        isinstance(entry, list)
        and len(entry) == 3
        and entry[0] in ("xx", "dense")
        and all(isinstance(count, int) for count in entry[1:])
        and 0 <= entry[1] <= entry[2]
    )


_COUNTS = list_of(
    where(_is_count_triple, "an [engine, successes, trials] count triple")
)

SCENARIO_MATRIX_SCHEMA = Schema(
    SCENARIO_MATRIX_SCHEMA_ID,
    "scenario matrix",
    detect_floor=number(),
    kinds=list_of(enum(SCENARIO_KINDS), nonempty=True),
    cells=list_of(
        obj(
            scenario=enum(SCENARIO_KINDS),
            n_qubits=integer(4),
            xx_preserving=BOOLEAN,
            fallback_to_dense=BOOLEAN,
            detection=_COUNTS,
            false_flags=_COUNTS,
            inspec_clean=_COUNTS,
            identification_successes=integer(0),
            identification_trials=integer(0),
        ),
        nonempty=True,
    ),
    anchor=obj(
        largest_resolved_2ms=nullable(BOOLEAN),
        largest_resolved_4ms=nullable(BOOLEAN),
    ),
    records=list_of(
        obj(kinds=list_of(), config_digest=string(), cache_hit=BOOLEAN)
    ),
)

validate_matrix_payload = SCENARIO_MATRIX_SCHEMA.validate


def matrix_payload(
    preset: str,
    cells: list[dict[str, Any]],
    anchor: dict[str, Any],
    detect_floor: float,
    records: list[dict[str, Any]],
    label: str | None = None,
) -> dict[str, Any]:
    """Assemble the schema'd matrix report from merged cell dicts.

    ``cells`` are the JSON-able ``ScenarioCell`` payload entries of the
    underlying experiment records; ``records`` carries per-kind run
    provenance (config digest, cache hit) so a matrix report names
    exactly which cached results it merged.
    """
    return {
        **SCENARIO_MATRIX_SCHEMA.header(preset, label),
        "detect_floor": detect_floor,
        "kinds": sorted({cell["scenario"] for cell in cells}),
        "cells": cells,
        "anchor": anchor,
        "records": records,
    }


def merge_matrix(
    preset: str,
    results: list[dict[str, Any]],
    config: dict[str, Any],
    records: list[dict[str, Any]],
) -> dict[str, Any]:
    """The ``scenarios`` matrix hook: merge per-kind results into one report.

    Concatenates every kind's cells and keeps the fig6 anchor verdicts of
    the (single) record that ran the anchor.
    """
    anchor = {"largest_resolved_2ms": None, "largest_resolved_4ms": None}
    for result in results:
        if result.get("anchor_largest_resolved_2ms") is not None:
            anchor = {key: result[f"anchor_{key}"] for key in anchor}
    return matrix_payload(
        preset=preset,
        cells=[cell for result in results for cell in result["cells"]],
        anchor=anchor,
        detect_floor=float(config["detect_floor"]),
        records=records,
    )


def render_matrix(payload: dict[str, Any]) -> tuple[str, str]:
    """The ``scenarios`` table hook: per-engine cell table and anchor line;
    the headline counts cells, kinds and cache-served jobs."""
    # Imported here: importing repro.analysis at module level would make
    # ``import repro`` load the runner and the execution layer.
    from ..analysis.reporting import ascii_table

    rows = []
    for cell in payload["cells"]:
        detection = {e: (s, t) for e, s, t in cell["detection"]}
        for engine in cell["engines"]:
            s, t = detection.get(engine, (0, 0))
            rows.append(
                [
                    cell["scenario"],
                    cell["n_qubits"],
                    engine,
                    "xx+dense" if cell["xx_preserving"] else "dense-only",
                    f"{s}/{t}" if t else "-",
                    (
                        f"{cell['identification_successes']}"
                        f"/{cell['identification_trials']}"
                    ),
                ]
            )
    lines = [
        ascii_table(
            ["scenario", "N", "engine", "routing", "detected", "identified"],
            rows,
            title=f"fault-scenario matrix ({payload['preset']})",
        )
    ]
    anchor = payload["anchor"]
    if anchor["largest_resolved_2ms"] is not None:
        lines.append(
            "fig6 anchor (Sec. VI noise, paper thresholds): 47% fault "
            f"resolved 2-MS {anchor['largest_resolved_2ms']}, "
            f"4-MS {anchor['largest_resolved_4ms']}"
        )
    records = payload["records"]
    headline = (
        f"{len(payload['cells'])} cells across "
        f"{len(payload['kinds'])} scenario kinds "
        f"({sum(r['cache_hit'] for r in records)}/{len(records)} kind jobs "
        "cache-served)"
    )
    return "\n".join(lines), headline
