"""``python -m repro serve`` with the service's layers traced.

Usage (arguments after the output path are the ``repro`` CLI's)::

    python3 perfbench/traced_serve.py TRACE_OUT serve --root ROOT --port 0 --workers 2

Wraps the submit path, the journal, the finish path, the HTTP handler and
the supervised pool call inside the server process, serves until SIGINT,
then writes the aggregates to ``TRACE_OUT`` as JSON.  Spans inside pool
workers never reach this file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import layers


def install(tracer: layers.Tracer) -> None:
    """Wrap the server-side layers at the names their callers resolve."""
    from repro.service import http, service
    from repro.service.store import JobStore

    submitted: dict[str, float] = {}
    record_submitted = JobStore.record_submitted
    record_state = JobStore.record_state

    def traced_record_submitted(self, job_id, spec, seq=0):
        submitted[job_id] = time.perf_counter()
        return record_submitted(self, job_id, spec, seq=seq)

    def traced_record_state(self, job_id, state, **extra):
        if state == "running" and job_id in submitted:
            tracer.add("service.queue_wait_s", time.perf_counter() - submitted.pop(job_id))
        return record_state(self, job_id, state, **extra)

    JobStore.record_submitted = traced_record_submitted
    JobStore.record_state = traced_record_state

    def on_supervised(args, kwargs, outcomes, seconds):
        kind = args[1][0]["kind"]
        tracer.add(f"exec.run_supervised.{kind}.s", seconds)
        tracer.add("exec.attempts", sum(len(o.attempts) for o in outcomes))

    service.run_supervised = tracer.wrap(
        "exec.run_supervised", service.run_supervised, on_return=on_supervised
    )
    layers.wrap_method(tracer, "service.submit", service.DiagnosisService, "submit")
    layers.wrap_method(tracer, "service.finish", service.DiagnosisService, "_finish")
    layers.wrap_method(tracer, "service.http", http._Handler, "do_GET")
    layers.wrap_method(tracer, "service.http", http._Handler, "do_POST")


def main() -> int:
    """Serve with tracing; dump the aggregates on the way out."""
    out = Path(sys.argv[1])
    tracer = layers.Tracer()
    install(tracer)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        out.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
