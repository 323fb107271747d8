"""Experiment registry: one uniform surface over every paper artifact.

Each module under :mod:`repro.analysis.experiments` registers its
``run_*`` entry point here as an :class:`ExperimentSpec` — the paper
anchor it reproduces, its config dataclass, the scaled-down ``--smoke``
preset, and serializers for JSON/CSV emission.  The unified runner
(:mod:`repro.analysis.runner`) and the ``python -m repro`` CLI consume
only this registry, so adding an experiment means registering a spec, not
touching the pipeline.

Presets
-------
``full``
    The module's config defaults — the paper-comparable run.
``smoke``
    The ``smoke_overrides`` applied on top — minutes shrink to seconds,
    while every code path still executes (used by CI and the cache tests).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

__all__ = [
    "ExperimentSpec",
    "MatrixSpec",
    "register_experiment",
    "get_experiment",
    "experiment_names",
    "all_experiments",
]

#: ``to_rows`` return type: CSV header plus data rows.
RowTable = tuple[list[str], list[list[object]]]

_REGISTRY: dict[str, "ExperimentSpec"] = {}


@dataclasses.dataclass(frozen=True)
class MatrixSpec:
    """How :func:`repro.analysis.runner.run_matrix` sweeps one experiment.

    A matrix experiment runs one job per value of one config field (so
    values cache independently) and merges the records into one report.

    Attributes
    ----------
    axis:
        The swept config field (``scenarios``, ``policies``).
    record_key:
        The key naming a record's values in the report's ``records``;
        also the service job payload key (``kinds``, ``policies``).
    values:
        Every known value of the axis; anything else is rejected.
    noun:
        How that rejection names them (``scenario kinds``, ``policies``).
    merge:
        ``merge(preset, results, config, records) -> payload``: the report
        from the per-value results, the first record's config and the
        per-record provenance.
    render:
        ``render(payload) -> (table, headline)``: the human report.  The
        CLI prints the table, then the embedded checks, then the one-line
        headline with the report's path appended.
    """

    axis: str
    record_key: str
    values: tuple[str, ...]
    noun: str
    merge: Callable[..., dict[str, Any]]
    render: Callable[[dict[str, Any]], tuple[str, str]]


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Registered experiment: runner, config presets, serializers.

    Attributes
    ----------
    name:
        Registry key and CLI name (``fig3``, ``table2``, ...).
    anchor:
        The paper artifact this reproduces (``"Fig. 3"``).
    title:
        One-line human description.
    runner:
        ``runner(config) -> result``; receives ``None`` when
        ``config_type`` is ``None``.
    config_type:
        Frozen config dataclass, or ``None`` for parameterless runners.
    smoke_overrides:
        ``dataclasses.replace`` overrides producing the smoke preset.
    to_rows:
        Flattens a result into a CSV header + rows.
    summarize:
        One-line human summary of a result.
    validation:
        Optional :class:`repro.validation.specs.FigureValidation`
        contract — the statistical expectations ``python -m repro
        validate`` grades for this experiment (``None`` means the
        experiment has no paper-fidelity locks).
    matrix:
        Optional :class:`MatrixSpec` making the experiment a matrix
        front door (``None`` for single-run experiments).
    """

    name: str
    anchor: str
    title: str
    runner: Callable[[Any], Any]
    config_type: type | None
    smoke_overrides: dict[str, Any]
    to_rows: Callable[[Any], RowTable]
    summarize: Callable[[Any], str]
    validation: Any | None = None
    matrix: MatrixSpec | None = None

    def config(
        self, preset: str = "full", overrides: dict[str, Any] | None = None
    ) -> Any:
        """Build the preset config, with optional field overrides."""
        if preset not in ("full", "smoke"):
            raise ValueError(f"unknown preset {preset!r}")
        if self.config_type is None:
            if overrides:
                raise ValueError(
                    f"experiment {self.name!r} takes no config overrides"
                )
            return None
        cfg = self.config_type()
        if preset == "smoke" and self.smoke_overrides:
            cfg = dataclasses.replace(cfg, **self.smoke_overrides)
        if overrides:
            cfg = dataclasses.replace(
                cfg, **_coerce_overrides(self.config_type, overrides)
            )
        return cfg

    def run(
        self, preset: str = "full", overrides: dict[str, Any] | None = None
    ) -> Any:
        """Run the experiment under the given preset."""
        return self.runner(self.config(preset, overrides))


def _coerce_overrides(
    config_type: type, overrides: dict[str, Any]
) -> dict[str, Any]:
    """Adapt JSON-shaped override values to the config's field types.

    CLI ``--set`` values arrive as JSON, where tuples are lists; config
    dataclasses use (nested) tuples, so lists are converted recursively.
    Unknown field names raise with the valid choices listed.
    """
    fields = {f.name: f for f in dataclasses.fields(config_type)}
    coerced: dict[str, Any] = {}
    for key, value in overrides.items():
        if key not in fields:
            raise ValueError(
                f"unknown config field {key!r}; valid fields: "
                + ", ".join(sorted(fields))
            )
        coerced[key] = _listify_to_tuples(value)
    return coerced


def _listify_to_tuples(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_listify_to_tuples(v) for v in value)
    return value


def register_experiment(
    *,
    name: str,
    anchor: str,
    title: str,
    runner: Callable[[Any], Any],
    config_type: type | None,
    smoke_overrides: dict[str, Any] | None = None,
    to_rows: Callable[[Any], RowTable],
    summarize: Callable[[Any], str],
    validation: Any | None = None,
    matrix: MatrixSpec | None = None,
) -> ExperimentSpec:
    """Register an experiment; re-registration under the same name errors."""
    if name in _REGISTRY:
        raise ValueError(f"experiment {name!r} already registered")
    spec = ExperimentSpec(
        name=name,
        anchor=anchor,
        title=title,
        runner=runner,
        config_type=config_type,
        smoke_overrides=dict(smoke_overrides or {}),
        to_rows=to_rows,
        summarize=summarize,
        validation=validation,
        matrix=matrix,
    )
    _REGISTRY[name] = spec
    return spec


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment by name."""
    _ensure_populated()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {name!r}; known: "
            + ", ".join(experiment_names())
        )
    return _REGISTRY[name]


def experiment_names() -> list[str]:
    """All registered experiment names, sorted."""
    _ensure_populated()
    return sorted(_REGISTRY)


def all_experiments() -> list[ExperimentSpec]:
    """All registered specs, sorted by name."""
    _ensure_populated()
    return [_REGISTRY[name] for name in experiment_names()]


def _ensure_populated() -> None:
    """Import the experiment modules so their registrations run."""
    from . import experiments  # noqa: F401  (import-time registration)
