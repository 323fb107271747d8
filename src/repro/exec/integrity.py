"""Cache integrity: checksum stamping, verification and quarantine.

Every cache entry the runner writes is stamped with an ``integrity``
block::

    "integrity": {"algorithm": "sha256", "payload_sha256": "<hex>"}

The checksum covers the canonical JSON serialisation of the payload
*minus* the integrity block itself, so it survives the write → read
round-trip byte-for-byte (Python's ``json`` emits ``repr``-exact floats
and parses them back losslessly).

Writes go through :func:`atomic_write_json` (write a temporary file,
then rename), so a reader never sees a half-written entry.  On read,
:func:`load_verified_json` re-derives the checksum.  A
mismatch — or JSON that no longer parses at all — means the entry was
corrupted on disk; the file is *quarantined* (moved into
``<cache_dir>/quarantine/``, never deleted: it is evidence) and the
caller recomputes transparently.  Entries written before this layer
existed carry no integrity block and are accepted as ``legacy``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = [
    "QUARANTINE_DIRNAME",
    "atomic_write_json",
    "load_verified_json",
    "payload_checksum",
    "quarantine_file",
    "stamp_integrity",
    "verify_payload",
]

#: Subdirectory of the cache dir holding corrupted entries.
QUARANTINE_DIRNAME = "quarantine"


def payload_checksum(payload: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``payload`` sans integrity block."""
    body = {k: v for k, v in payload.items() if k != "integrity"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def stamp_integrity(payload: dict[str, Any]) -> dict[str, Any]:
    """Return ``payload`` with a fresh ``integrity`` block (in place)."""
    payload["integrity"] = {
        "algorithm": "sha256",
        "payload_sha256": payload_checksum(payload),
    }
    return payload


def verify_payload(payload: dict[str, Any]) -> str:
    """Classify a loaded payload: ``"ok"``, ``"legacy"`` or ``"mismatch"``.

    ``legacy`` means no integrity block (pre-integrity cache entry,
    accepted as-is); ``mismatch`` means the stamped checksum does not
    match the payload content.
    """
    block = payload.get("integrity")
    if not isinstance(block, dict) or "payload_sha256" not in block:
        return "legacy"
    if block.get("payload_sha256") == payload_checksum(payload):
        return "ok"
    return "mismatch"


def atomic_write_json(path: Path | str, payload: dict[str, Any]) -> None:
    """Write ``payload`` as indented, key-sorted JSON via write-then-rename.

    The payload is serialized before any file is created, and a failed
    write removes its temporary file, so a failure at any point leaves
    the previous file at ``path`` untouched and nothing beside it.
    """
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def quarantine_file(path: Path | str, cache_dir: Path | str | None = None) -> Path:
    """Move a corrupted cache entry into the quarantine directory.

    The file keeps its name (suffixed ``.1``, ``.2``… on collision) so
    the original digest stays recoverable from the filename.  Returns
    the quarantine destination.
    """
    path = Path(path)
    base = Path(cache_dir) if cache_dir is not None else path.parent
    qdir = base / QUARANTINE_DIRNAME
    qdir.mkdir(parents=True, exist_ok=True)
    dest = qdir / path.name
    counter = 0
    while dest.exists():
        counter += 1
        dest = qdir / f"{path.name}.{counter}"
    path.rename(dest)
    return dest


def load_verified_json(
    path: Path | str, cache_dir: Path | str | None = None
) -> tuple[dict[str, Any] | None, str]:
    """Load a cache entry, verifying integrity; quarantine on corruption.

    Returns ``(payload, status)`` where status is one of:

    - ``"ok"`` — checksum present and matching;
    - ``"legacy"`` — loaded fine, no checksum to check;
    - ``"missing"`` — no such file (payload is ``None``);
    - ``"quarantined-undecodable"`` — the file no longer parses as JSON;
    - ``"quarantined-mismatch"`` — parsed, but the checksum disagrees.

    In both quarantine cases the file has been moved out of the cache
    (into ``quarantine/``) and the payload is ``None`` — the caller is
    expected to recompute and rewrite a clean entry.
    """
    path = Path(path)
    if not path.exists():
        return None, "missing"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise json.JSONDecodeError("not an object", "", 0)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError):
        quarantine_file(path, cache_dir)
        return None, "quarantined-undecodable"
    status = verify_payload(payload)
    if status == "mismatch":
        quarantine_file(path, cache_dir)
        return None, "quarantined-mismatch"
    return payload, status
