"""Provenance stamping for cached results and benchmark records.

Every persisted artifact (runner cache payloads, ``BENCH_*.json``) should
be traceable to the code that produced it: the package version, the git
commit when the source tree is a checkout, and the interpreter/numpy
versions that shaped the numerics.  :func:`provenance` gathers all of it
defensively — a missing ``git`` binary or an installed (non-checkout)
package degrades to ``None`` fields, never an error.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
from pathlib import Path
from typing import Any

__all__ = [
    "VOLATILE_KEYS",
    "git_sha",
    "payload_fingerprint",
    "payloads_equivalent",
    "provenance",
    "strip_volatile",
]

#: Payload keys that legitimately differ between equivalent runs:
#: who/when/how-long, never *what*.
VOLATILE_KEYS = frozenset(
    {"provenance", "elapsed_seconds", "created_unix", "integrity"}
)


def git_sha() -> str | None:
    """Commit SHA of the source checkout, or ``None`` outside a repo."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def provenance(config_digest: str | None = None) -> dict[str, Any]:
    """Stampable provenance record for a persisted artifact.

    ``config_digest`` threads the runner's invocation digest through when
    the artifact corresponds to one experiment config.
    """
    import numpy

    from . import __version__

    record: dict[str, Any] = {
        "repro_version": __version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if config_digest is not None:
        record["config_digest"] = config_digest
    return record


def strip_volatile(payload: Any) -> Any:
    """Recursively drop :data:`VOLATILE_KEYS` from a JSON-able payload.

    What remains is the *content* of an artifact — the part two
    equivalent runs must agree on byte-for-byte.  Used for "modulo
    provenance" diffing of runner cache entries and the ``FLEET_`` /
    ``ARENA_`` / ``CHAOS_`` report family.
    """
    if isinstance(payload, dict):
        return {
            key: strip_volatile(value)
            for key, value in payload.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(payload, list):
        return [strip_volatile(value) for value in payload]
    return payload


def payload_fingerprint(payload: Any) -> str:
    """SHA-256 of the canonical JSON of a volatile-stripped payload."""
    canonical = json.dumps(
        strip_volatile(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def payloads_equivalent(a: Any, b: Any) -> bool:
    """Whether two payloads agree modulo provenance/timing/integrity."""
    return payload_fingerprint(a) == payload_fingerprint(b)
