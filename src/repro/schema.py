"""One declarative checker for the schema'd JSON reports.

Every report family (``SCENARIOS_``, ``ARENA_``, ``FLEET_``, ``CHAOS_``,
``BENCH_<label>.json``) declares its :class:`Schema` next to its payload
builder: a tree of rules, each a callable ``rule(value, path,
problems)``.  :meth:`Schema.validate` walks the tree, names every
violation by its field path (``cells[3].n_qubits must be ...``) and
raises one ``ValueError`` prefixed ``invalid <name> payload:``.  Stdlib
only, so the reports stay dependency-free.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "BOOLEAN",
    "PROVENANCE",
    "Schema",
    "embedded_checks",
    "enum",
    "integer",
    "list_of",
    "nullable",
    "number",
    "obj",
    "string",
    "validate_report",
    "where",
    "write_report",
]

#: ``rule(value, path, problems)`` appends one message per violation.
Rule = Callable[[Any, str, list[str]], None]

#: Every declared schema by id (reports are resolved by their own id).
_SCHEMAS: dict[str, "Schema"] = {}


def where(test: Callable[[Any], bool], text: str) -> Rule:
    """A value passing ``test``; ``text`` completes "<path> must be"."""

    def check(value: Any, path: str, problems: list[str]) -> None:
        if not test(value):
            problems.append(f"{path} must be {text}")

    return check


def enum(choices) -> Rule:
    """One of ``choices``."""
    choices = tuple(choices)
    return where(lambda v: v in choices, f"one of {list(choices)}")


def string(nonempty: bool = False, prefix: str = "") -> Rule:
    """A string, optionally non-empty or starting with ``prefix``."""
    if prefix:
        text = f"a {prefix!r}-prefixed string"
    else:
        text = "a non-empty string" if nonempty else "a string"
    return where(
        lambda v: isinstance(v, str)
        and v.startswith(prefix)
        and (bool(v) or not nonempty),
        text,
    )


def integer(minimum: int | None = None) -> Rule:
    """An integer (never a bool), optionally ``>= minimum``."""
    return where(
        lambda v: isinstance(v, int)
        and not isinstance(v, bool)
        and (minimum is None or v >= minimum),
        "an integer" + (f" >= {minimum}" if minimum is not None else ""),
    )


def number(
    low: float | None = None, high: float | None = None, positive: bool = False
) -> Rule:
    """A number (never a bool) in ``[low, high]``, or ``> 0`` if ``positive``."""
    text = "a positive number" if positive else "a number"
    if low is not None:
        text += f" >= {low:g}" if high is None else f" in [{low:g}, {high:g}]"
    return where(
        lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool)
        and (not positive or v > 0)
        and (low is None or v >= low)
        and (high is None or v <= high),
        text,
    )


BOOLEAN = where(lambda v: isinstance(v, bool), "a boolean")


def nullable(rule: Rule) -> Rule:
    """``null``, or a value passing ``rule``."""

    def check(value: Any, path: str, problems: list[str]) -> None:
        if value is not None:
            rule(value, path, problems)

    return check


def obj(**fields: Rule) -> Rule:
    """An object whose named fields pass their rules (extra keys allowed)."""

    def check(value: Any, path: str, problems: list[str]) -> None:
        if not isinstance(value, dict):
            problems.append(f"{path} must be an object")
            return
        for key, rule in fields.items():
            rule(value.get(key), f"{path}.{key}" if path else key, problems)

    return check


def list_of(item: Rule | None = None, nonempty: bool = False) -> Rule:
    """An array (optionally non-empty) whose entries pass ``item``."""
    text = "a non-empty array" if nonempty else "an array"

    def check(value: Any, path: str, problems: list[str]) -> None:
        if not isinstance(value, list) or (nonempty and not value):
            problems.append(f"{path} must be {text}")
            return
        if item is not None:
            for k, entry in enumerate(value):
                item(entry, f"{path}[{k}]", problems)

    return check


#: The uniform provenance stamp of every persisted artifact.
PROVENANCE = obj(
    repro_version=string(nonempty=True),
    git_sha=nullable(string()),
    python=string(),
    numpy=string(),
)


def embedded_checks(prefix: str) -> Rule:
    """A report's embedded pass/fail checks, ids under ``prefix``."""
    return list_of(
        obj(check_id=string(prefix=prefix), passed=BOOLEAN, hard=BOOLEAN),
        nonempty=True,
    )


class Schema:
    """One report schema: its id, its display name and its field rules.

    Every report carries the same header: ``schema`` (this id), a
    non-empty ``label``, ``preset`` (``smoke``/``full``), a numeric
    ``created_unix`` and a :data:`PROVENANCE` block, followed by the
    declared ``fields``.  The file prefix is the upper-cased id stem:
    ``repro-arena/v1`` writes ``ARENA_<label>.json``.
    """

    def __init__(self, schema_id: str, name: str, **fields: Rule):
        self.id = schema_id
        self.name = name
        self.prefix = schema_id.split("/")[0].removeprefix("repro-").upper()
        self._root = obj(
            schema=where(lambda v: v == schema_id, repr(schema_id)),
            label=string(nonempty=True),
            preset=enum(("smoke", "full")),
            created_unix=number(),
            provenance=PROVENANCE,
            **fields,
        )
        _SCHEMAS[schema_id] = self

    def header(self, preset: str, label: str | None = None) -> dict[str, Any]:
        """The header fields of a new report (stamped now, here)."""
        from .provenance import provenance

        return {
            "schema": self.id,
            "label": label or preset,
            "preset": preset,
            "created_unix": time.time(),
            "provenance": provenance(),
        }

    def validate(self, payload: Any) -> None:
        """Raise ``ValueError`` listing every way ``payload`` violates the schema."""
        problems: list[str] = []
        path = "" if isinstance(payload, dict) else "payload"
        self._root(payload, path, problems)
        if problems:
            raise ValueError(
                f"invalid {self.name} payload: " + "; ".join(problems)
            )


def validate_report(payload: dict[str, Any]) -> Schema:
    """Validate a report against the schema its ``schema`` id names."""
    schema = _SCHEMAS.get(payload.get("schema"))
    if schema is None:
        raise ValueError(f"unknown report schema {payload.get('schema')!r}")
    schema.validate(payload)
    return schema


def write_report(payload: dict[str, Any], out_dir: Path | str) -> Path:
    """Validate a report and write it as ``<out>/<PREFIX>_<label>.json``.

    The schema, and with it the file prefix, is looked up from the
    payload's own ``schema`` id.
    """
    from .exec.integrity import atomic_write_json

    schema = validate_report(payload)
    label = "".join(
        c if c.isalnum() or c in "._-" else "-" for c in str(payload["label"])
    )
    path = Path(out_dir) / f"{schema.prefix}_{label}.json"
    atomic_write_json(path, payload)
    return path
