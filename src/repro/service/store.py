"""Persistent, crash-safe job store for the diagnosis service.

The store is an append-only ``service.journal.jsonl`` written through
the sweep-journal machinery (:class:`repro.exec.journal.JournalWriter`:
one atomic ``os.write`` per record on an ``O_APPEND`` descriptor), so a
``kill -9`` at any byte can at worst tear the final line — earlier
records are never corrupted and :func:`replay_store` tolerates the
torn tail exactly like :func:`repro.exec.journal.load_journal`.

Record shapes (``repro-service/v1``)::

    {"type": "submitted", "job_id": ..., "spec": {...}, "seq": n,
     "submitted_unix": t}
    {"type": "state", "job_id": ..., "state": "running"|"queued",
     "dispatch_seq": n, ...}
    {"type": "done", "job_id": ..., "state": "done"|"failed"|"cancelled",
     "status": <pool outcome status>, "attempts": [...], "result_path": ...,
     "done_unix": t}

``seq`` is the service-wide submission sequence number and
``dispatch_seq`` the scheduler's decision number — together they make
every scheduling decision journalled, so a restarted service re-adopts
orphans in the *same* queue order the dead one would have run them.

A ``done`` record is appended only *after* the result artifact is
safely on disk, so (mirroring the sweep journal's ``finished`` ⇒ cached
invariant) a ``done`` state is a proof the artifact exists.  A job whose
last record is ``submitted`` or a ``running`` state was orphaned by a
crash: on restart the service re-adopts it — re-queues and re-runs it —
rather than losing it.

Retention/GC (:mod:`repro.service.retention`) rewrites the journal via
:meth:`JobStore.compact`: surviving records land in a temp file that is
atomically ``os.replace``d over the journal, so a ``kill -9`` at any
point mid-compaction leaves either the old journal or the new one —
never a mix, never a loss.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..exec.journal import JournalWriter
from .jobs import JobSpec

__all__ = [
    "SERVICE_SCHEMA",
    "JobRecord",
    "JobStore",
    "compact_journal",
    "replay_store",
]

#: Schema tag stamped into every record.
SERVICE_SCHEMA = "repro-service/v1"


@dataclass
class JobRecord:
    """One job's replayed state (the store's view, not the live one)."""

    job_id: str
    spec: JobSpec
    state: str
    status: str | None = None
    attempts: list[dict[str, Any]] = field(default_factory=list)
    result_path: str | None = None
    submitted_unix: float = 0.0
    done_unix: float | None = None
    seq: int = 0
    dispatch_seq: int | None = None
    adopted: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")


class JobStore:
    """Append-only journal of every job the service ever accepted."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._writer = JournalWriter(self.path)

    def _append(self, record: dict[str, Any]) -> None:
        with self._lock:
            self._writer.append(record)

    def record_submitted(self, job_id: str, spec: JobSpec, seq: int = 0) -> None:
        """Persist a freshly accepted job (state ``queued``)."""
        self._append(
            {
                "type": "submitted",
                "schema": SERVICE_SCHEMA,
                "job_id": job_id,
                "spec": spec.to_payload(),
                "seq": int(seq),
                "submitted_unix": time.time(),
            }
        )

    def record_state(self, job_id: str, state: str, **extra: Any) -> None:
        """Persist a non-terminal transition (``running``, re-``queued``)."""
        self._append(
            {"type": "state", "job_id": job_id, "state": state, **extra}
        )

    def record_done(
        self,
        job_id: str,
        state: str,
        status: str,
        attempts: list[dict[str, Any]],
        result_path: str | None = None,
    ) -> None:
        """Persist a terminal record — append only after the result
        artifact (if any) is safely on disk."""
        self._append(
            {
                "type": "done",
                "job_id": job_id,
                "state": state,
                "status": status,
                "attempts": attempts,
                "result_path": result_path,
                "done_unix": time.time(),
            }
        )

    def compact(self, keep: Iterable[str]) -> dict[str, int]:
        """Rewrite the journal keeping only records of ``keep`` job ids.

        The rewrite is crash-safe: surviving lines are written to a
        sibling temp file, fsynced, then atomically ``os.replace``d
        over the journal while the append lock is held — a ``kill -9``
        before the replace leaves the old journal intact (plus a stale
        temp the next compaction overwrites); after it, the new one.
        Appends from other threads block for the duration, so no record
        can land on the doomed inode and be lost.
        """
        keep_ids = set(keep)
        with self._lock:
            self._writer.close()
            stats = compact_journal(self.path, keep_ids)
            self._writer = JournalWriter(self.path)
        return stats

    def close(self) -> None:
        with self._lock:
            self._writer.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def replay_store(path: Path | str) -> dict[str, JobRecord]:
    """Parse a service journal into ``{job_id: JobRecord}``.

    Tolerates a torn final line (the ``kill -9`` signature) and skips
    records for specs that no longer validate — a store from a newer
    schema must not brick an older service.

    Journals from before the scheduler era carry no ``seq`` — those
    jobs get their file position as the sequence number, which is the
    order they were accepted in (the journal is append-only).
    """
    path = Path(path)
    records: dict[str, JobRecord] = {}
    if not path.exists():
        return records
    lines = path.read_bytes().decode("utf-8", errors="replace").split("\n")
    submit_position = 0
    for position, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if position >= len(lines) - 2:
                continue  # torn final append from a killed process
            raise ValueError(
                f"corrupt service journal record at line {position + 1} "
                f"of {path}"
            )
        kind = record.get("type")
        job_id = record.get("job_id")
        if not isinstance(job_id, str):
            continue
        if kind == "submitted":
            submit_position += 1
            try:
                spec = JobSpec.from_payload(record.get("spec") or {})
            except (ValueError, TypeError):
                continue  # unparseable spec: skip, never crash the replay
            records[job_id] = JobRecord(
                job_id=job_id,
                spec=spec,
                state="queued",
                submitted_unix=float(record.get("submitted_unix", 0.0)),
                seq=int(record.get("seq", submit_position)),
            )
        elif kind == "state" and job_id in records:
            job = records[job_id]
            if not job.terminal:
                job.state = str(record.get("state", job.state))
                job.adopted += int(bool(record.get("adopted")))
                if record.get("dispatch_seq") is not None:
                    job.dispatch_seq = int(record["dispatch_seq"])
        elif kind == "done" and job_id in records:
            job = records[job_id]
            job.state = str(record.get("state", "failed"))
            job.status = record.get("status")
            job.attempts = list(record.get("attempts") or [])
            job.result_path = record.get("result_path")
            if record.get("done_unix") is not None:
                job.done_unix = float(record["done_unix"])
    return records


def compact_journal(path: Path | str, keep: set[str]) -> dict[str, int]:
    """Atomically rewrite a journal file keeping only ``keep`` job ids.

    Pure file surgery (no live writer — :meth:`JobStore.compact` wraps
    it for a running service): survivors are streamed to
    ``<journal>.compact.tmp``, fsynced, then ``os.replace``d over the
    journal.  A torn final line is dropped (it never fully landed);
    records without a ``job_id`` are kept verbatim.  Returns
    ``{"kept": ..., "dropped": ..., "bytes_before": ..., "bytes_after": ...}``.
    """
    path = Path(path)
    if not path.exists():
        return {"kept": 0, "dropped": 0, "bytes_before": 0, "bytes_after": 0}
    raw = path.read_bytes()
    lines = raw.decode("utf-8", errors="replace").split("\n")
    kept: list[str] = []
    dropped = 0
    for position, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if position >= len(lines) - 2:
                continue  # torn final append from a killed process
            raise ValueError(
                f"corrupt service journal record at line {position + 1} "
                f"of {path}"
            )
        job_id = record.get("job_id")
        if isinstance(job_id, str) and job_id not in keep:
            dropped += 1
            continue
        kept.append(line)
    tmp = path.with_name(path.name + ".compact.tmp")
    body = ("\n".join(kept) + "\n") if kept else ""
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, body.encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return {
        "kept": len(kept),
        "dropped": dropped,
        "bytes_before": len(raw),
        "bytes_after": len(body.encode("utf-8")),
    }
