"""service-mix: the diagnosis service under a seeded open-loop job stream.

``python -m repro serve --workers 2`` runs on localhost; this process is
its only client.  Jobs arrive on a fixed schedule, whether or not
earlier ones have finished (an open loop): one every ``1/JOBS_PER_S``
seconds, over a window ``--seconds`` long but never holding fewer than
``MIN_JOBS`` jobs.  Evenly spaced arrivals keep the queue the same from
seed to seed; Poisson arrivals at the same rate queue each seed's
bursts differently, and with them the median latency spread by 28-33 %
over ten seeds.  The seed draws the order of the job kinds, the
namespaces, the diagnosis cells and trials, and the fresh experiment
seeds.  The mix and its reasons:

* ``diagnose`` (60 %): one arena session at N = 8 per job.  Every job
  forks a worker, loads the experiment registry and recalibrates its
  cell, so spawn and set-up costs sit on the critical path.
* ``cached`` (25 %): a smoke experiment the namespace's result cache
  already holds, a cache read.
* ``fresh`` (10 %): the same experiment with a seed never used before,
  compute plus a cache write.
* ``sleep`` (5 %): ``sleep 0``, the floor of the service and the pool.

Jobs are split evenly across two namespaces.  A job's latency runs from
the moment it was due to its ``done_unix`` in the service journal, so
client polling never enters it and a late generator counts against the
service.  Set-up (server start to ready, plus filling the two namespace
caches) is repeated ``SETUP_REPEATS`` times; the last server stays up.
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import common
import diagnose

#: Offered load: about half of what the two workers can serve at the
#: seed commit on two cores, so the queue stays short (see README.md).
JOBS_PER_S = 2.5
#: 150 jobs hold 90 diagnoses, every (kind, strategy) cell three times,
#: and put 15 jobs beyond the p90 that ``tail_s`` reports.
MIN_JOBS = 150
MIX = (("diagnose", 0.60), ("cached", 0.25), ("fresh", 0.10), ("sleep", 0.05))
NAMESPACES = ("tenant-a", "tenant-b")
CACHED_EXPERIMENTS = ("fig3", "fig6")
FRESH_EXPERIMENT = "fig6"
DIAGNOSE_N = 8
WORKERS = 2
SETUP_REPEATS = 5
#: Reference timings right after each set-up.
SETUP_REFERENCES = 9
#: Least idle time before the next due job that the client spends on one
#: timing of the host-speed reference loop.
REFERENCE_GAP_S = 0.15
#: A job's latency is scaled by the reference timings this many seconds
#: around the middle of its run.
REFERENCE_WITHIN_S = 3.0
DRAIN_TIMEOUT_S = 60.0
RSS_SAMPLE_S = 0.05


@dataclass
class Job:
    """One planned submission and what became of it."""

    label: str
    kind: str
    payload: dict[str, Any]
    namespace: str
    offset: float
    job_id: str | None = None
    due_unix: float = 0.0
    due_clock: float = 0.0  # the same moment on the perf_counter clock
    done_unix: float | None = None
    state: str = "unsubmitted"


def plan(seed: int, seconds: int) -> list[Job]:
    """The seeded job stream of one run."""
    from repro.arena.diagnosers import STRATEGY_NAMES
    from repro.scenarios.spec import SCENARIO_KINDS

    rng = random.Random(f"service-mix/{seed}")
    total = max(MIN_JOBS, round(JOBS_PER_S * seconds))
    labels = []
    for label, share in MIX[:-1]:
        labels += [label] * round(share * total)
    labels += [MIX[-1][0]] * (total - len(labels))
    rng.shuffle(labels)
    namespaces = [NAMESPACES[i % len(NAMESPACES)] for i in range(total)]
    rng.shuffle(namespaces)
    offsets = [i / JOBS_PER_S for i in range(total)]
    # Diagnoses cycle through every (kind, strategy) cell in a seeded order,
    # so each cell appears equally often (give or take one).
    cells = [(kind, strategy) for kind in SCENARIO_KINDS for strategy in STRATEGY_NAMES]
    rng.shuffle(cells)
    diagnoses = 0
    arena = diagnose.arena_config(seed)
    jobs = []
    for i, (label, namespace, offset) in enumerate(zip(labels, namespaces, offsets)):
        if label == "diagnose":
            kind, strategy = cells[diagnoses % len(cells)]
            diagnoses += 1
            kind_, payload = "diagnose", {
                "scenario": kind,
                "n_qubits": DIAGNOSE_N,
                "trial": rng.randrange(arena.trials),
                "diagnoser": strategy,
                "preset": "smoke",
                "overrides": {"seed": arena.seed},
            }
        elif label == "cached":
            kind_, payload = "experiment", {
                "name": rng.choice(CACHED_EXPERIMENTS),
                "preset": "smoke",
            }
        elif label == "fresh":
            kind_, payload = "experiment", {
                "name": FRESH_EXPERIMENT,
                "preset": "smoke",
                "overrides": {"seed": 100_000 + 1000 * seed + i},
            }
        else:
            kind_, payload = "sleep", {"seconds": 0}
        jobs.append(Job(label, kind_, payload, namespace, offset))
    return jobs


class Server:
    """A ``repro serve`` child process on an ephemeral localhost port."""

    def __init__(self, root: Path, checkout: Path, trace_out: Path | None):
        serve = ["serve", "--root", str(root), "--port", "0", "--workers", str(WORKERS), "--quiet"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            script = Path(__file__).with_name("traced_serve.py")
            cmd = [sys.executable, str(script), str(trace_out), *serve]
        self.log = open(root.parent / f"{root.name}.log", "w")
        self.proc = subprocess.Popen(
            cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=self.log, text=True
        )
        self.url = self._await_ready(deadline=time.monotonic() + 60.0)

    def _await_ready(self, deadline: float) -> str:
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("repro-service ready "):
                    return line.split()[2]
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("the service did not become ready")

    def stop(self) -> None:
        """SIGINT (the clean shutdown path), then SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _rollup(pid: int) -> tuple[int, int]:
    """Resident and private resident bytes of ``pid`` (0, 0 once it is gone)."""
    fields = {}
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                name, _, rest = line.partition(":")
                if name in ("Rss", "Private_Clean", "Private_Dirty"):
                    fields[name] = int(rest.split()[0]) * 1024
    except (OSError, ValueError):
        pass  # the process ended, or is a zombie without mappings
    return fields.get("Rss", 0), fields.get("Private_Clean", 0) + fields.get("Private_Dirty", 0)


def _descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``."""
    found, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    kids = [int(c) for c in fh.read().split()]
                found += kids
                todo += kids
        except (OSError, ValueError):
            continue  # the process ended between listing and reading
    return found


class RssSampler(threading.Thread):
    """Peak memory of the server tree with every worker slot busy.

    Sampled in the background: the peak resident size of the server
    process, plus ``WORKERS`` times the largest private resident size any
    worker reached.  A worker shares the pages it forked from the server,
    so its private pages are what it adds.  Summing the tree at each
    sample instead read 67-106 MB from run to run, depending on whether
    a sample caught two workers at once.
    """

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid, self.server_peak, self.worker_peak = pid, 0, 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(RSS_SAMPLE_S):
            self.server_peak = max(self.server_peak, _rollup(self.pid)[0])
            for child in _descendants(self.pid):
                self.worker_peak = max(self.worker_peak, _rollup(child)[1])

    def stop(self) -> int:
        """Stop sampling; the peak in bytes."""
        self._halt.set()
        self.join()
        return self.server_peak + WORKERS * self.worker_peak


def _setup(root: Path, checkout: Path, trace_out: Path | None) -> tuple[Server, dict]:
    """Start a server on a fresh root and fill both namespace caches."""
    from repro.analysis.runner import run_experiment

    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    server = Server(root, checkout, trace_out)
    try:
        first = root / NAMESPACES[0] / "cache"
        warm = {
            name: run_experiment(name, preset="smoke", cache_dir=first).payload
            for name in CACHED_EXPERIMENTS
        }
        for namespace in NAMESPACES[1:]:
            shutil.copytree(first, root / namespace / "cache")
    except BaseException:
        server.stop()
        raise
    return server, json.loads(json.dumps(warm))


def _cache_files(root: Path) -> dict[Path, int]:
    return {
        p: p.stat().st_size
        for ns in NAMESPACES
        for p in (root / ns / "cache").glob("*.json")
    }


def _read_journal(path: Path, offset: int, jobs_by_id: dict[str, Job]) -> int:
    """Fold new journal ``done`` records into the jobs; the new offset."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read()
    end = data.rfind(b"\n") + 1
    for line in data[:end].splitlines():
        record = json.loads(line)
        job = jobs_by_id.get(record.get("job_id"))
        if job is not None and record.get("type") == "done":
            job.state, job.done_unix = record["state"], record["done_unix"]
    return offset + end


def _submit(jobs: list[Job], client: Any, speed: common.HostSpeed) -> list[float]:
    """Submit each job when due; how late the generator was for each.

    Between submissions the client times the host-speed reference loop
    whenever the next job is not due for ``REFERENCE_GAP_S``.
    """
    lags = []
    start_unix, start = time.time() + 0.2, time.perf_counter() + 0.2
    for job, following in zip(jobs, [*jobs[1:], None]):
        delay = start + job.offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append(max(0.0, time.perf_counter() - start - job.offset))
        job.due_unix, job.due_clock = start_unix + job.offset, start + job.offset
        job.job_id = client.submit(job.kind, job.payload, namespace=job.namespace)
        if following and start + following.offset - time.perf_counter() > REFERENCE_GAP_S:
            speed.sample()
    return lags


def _drain(jobs: list[Job], journal: Path, offset: int) -> None:
    """Follow the journal until every job is terminal (or time is up)."""
    by_id = {job.job_id: job for job in jobs}
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while time.monotonic() < deadline:
        offset = _read_journal(journal, offset, by_id)
        if all(job.done_unix is not None for job in jobs):
            return
        time.sleep(0.1)


class Reference:
    """In-process results the service's payloads must match."""

    def __init__(self, seed: int):
        self.cfg = diagnose.arena_config(seed)
        self.cells: dict[str, diagnose.Cell] = {}

    def diagnose(self, payload: dict[str, Any]):
        """Expected result payload (less ``wall_seconds``), score, stats."""
        from repro.arena.scoring import grade_trial, score_trial

        cfg, kind, trial = self.cfg, payload["scenario"], payload["trial"]
        if kind not in self.cells:
            self.cells[kind] = diagnose.calibrated_cell(cfg, DIAGNOSE_N, kind)
        cell, strategy = self.cells[kind], payload["diagnoser"]
        machine, diagnosis, wall = diagnose.run_session(cfg, cell, strategy, trial)
        expected = {
            "schema": "repro-service-diagnosis/v1",
            "scenario": kind,
            "n_qubits": DIAGNOSE_N,
            "trial": trial,
            "diagnoser": diagnosis.diagnoser,
            "detected": diagnosis.detected,
            "claimed": diagnosis.claimed_sorted(),
            "ambiguity_group": sorted(tuple(sorted(p)) for p in diagnosis.ambiguity_group),
            "tests_used": diagnosis.tests_used,
            "shots": diagnosis.shots,
            "adaptations": diagnosis.adaptations,
            "timed_out": diagnosis.timed_out,
            "ground_truth": [tuple(sorted(p)) for p in cell.spec.ground_truth(trial, floor=0.0)],
        }
        hi = cfg.detect_floor * (1.0 + cfg.ambiguity)
        score = score_trial(
            diagnosis,
            cell.spec.ground_truth(trial, floor=hi),
            grade_trial(cell.spec.top_severity(trial), cfg.detect_floor, cfg.ambiguity),
            wall,
        )
        return json.loads(json.dumps(expected)), score, machine.stats


def _check(jobs: list[Job], client: Any, warm: dict, seed: int) -> tuple[list[str], dict]:
    """Fetch every finished job's artifact and check it; model figures."""
    from repro.analysis.runner import run_experiment
    from repro.exec.integrity import verify_payload
    from repro.provenance import payloads_equivalent

    problems: list[str] = []
    reference = Reference(seed)
    graded, shots, sim_seconds, cache_hits = [], [], [], 0
    for job in jobs:
        if job.state != "done":
            continue
        artifact = client.result(job.job_id)
        result = artifact.get("result")
        where = f"job {job.job_id} ({job.label} {json.dumps(job.payload, sort_keys=True)})"
        if verify_payload(artifact) != "ok" or artifact.get("kind") != job.kind:
            problems.append(f"{where}: artifact fails its integrity check")
        elif job.label == "diagnose":
            expected, score, stats = reference.diagnose(job.payload)
            got = {k: v for k, v in result.items() if k != "wall_seconds"}
            if got != expected:
                problems.append(f"{where}: payload differs from the in-process session")
                continue
            if score.correct is not None:
                graded.append(score.correct)
            shots.append(stats.shots)
            sim_seconds.append(stats.quantum_seconds)
        elif job.label == "cached":
            if result != warm[job.payload["name"]]:
                problems.append(f"{where}: not served from the namespace cache")
            else:
                cache_hits += 1
        elif job.label == "fresh":
            local = run_experiment(
                FRESH_EXPERIMENT,
                preset="smoke",
                overrides=job.payload["overrides"],
                use_cache=False,
            )
            if not payloads_equivalent(result, local.payload):
                problems.append(f"{where}: payload differs from an in-process run")
        elif result != {"schema": "repro-service-sleep/v1", "slept_seconds": 0.0}:
            problems.append(f"{where}: unexpected sleep result {result}")
    model = {
        "accuracy": sum(graded) / len(graded) if graded else 0.0,
        "shots_per_diag": sum(shots) / len(shots) if shots else 0.0,
        "sim_seconds_per_diag": sum(sim_seconds) / len(sim_seconds) if sim_seconds else 0.0,
        "cache_hits": cache_hits,
        "graded": len(graded),
    }
    return problems, model


def run(args: Any, workdir: Path, checkout: Path) -> int:
    """Run service-mix; print its report; return the exit code."""
    from repro.service.client import HttpServiceClient

    base = workdir / "service-mix"
    trace_out = base / "server-trace.json" if args.trace else None
    setup_samples = []  # wall seconds
    setup_speed = common.HostSpeed()  # timed after each set-up
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        server, warm = _setup(base / f"root{i}", checkout, trace_out)
        setup_samples.append(time.perf_counter() - t0)
        setup_speed.sample(SETUP_REFERENCES)
        if i < SETUP_REPEATS - 1:
            server.stop()
    root = base / f"root{SETUP_REPEATS - 1}"
    journal = root / "service.journal.jsonl"
    journal_start = journal.stat().st_size
    cache_before = _cache_files(root)
    jobs = plan(args.seed, args.seconds)
    try:
        client = HttpServiceClient(server.url)
        sampler = RssSampler(server.proc.pid)
        sampler.start()
        speed = common.HostSpeed()
        lags = _submit(jobs, client, speed)
        _drain(jobs, journal, journal_start)
        peak_rss = sampler.stop()
        problems, model = _check(jobs, client, warm, args.seed)
    finally:
        server.stop()
    journal_end = journal.read_bytes()[journal_start:]
    new_cache = {p: n for p, n in _cache_files(root).items() if p not in cache_before}

    latencies = [
        job.done_unix - job.due_unix if job.state == "done" else float("inf")
        for job in jobs
    ]
    failures = [job for job in jobs if job.state != "done"]
    done = [job for job in jobs if job.state == "done"]
    span = max(j.done_unix for j in done) - jobs[0].due_unix if done else 1.0
    scaled = [
        latency * speed.factor(job.due_clock + latency / 2, REFERENCE_WITHIN_S)
        if math.isfinite(latency)
        else latency
        for job, latency in zip(jobs, latencies)
    ]
    q, tail_value, beyond = common.tail(scaled)
    e2e = {
        "setup_s": statistics.median(setup_samples) * setup_speed.factor(),
        "p50_s": common.percentile(scaled, 50.0),
        "tail_s": tail_value,
        "ops_per_s": len(done) / span,
        "peak_rss_mb": peak_rss / 2**20,
        "accuracy": model["accuracy"],
        "shots_per_diag": model["shots_per_diag"],
        "sim_seconds_per_diag": model["sim_seconds_per_diag"],
    }
    print(
        f"jobs={len(jobs)} offered={JOBS_PER_S:g}/s window_s={jobs[-1].offset:.2f} "
        f"namespaces={','.join(NAMESPACES)} graded_diagnoses={model['graded']}"
    )
    print(
        "setup samples (wall s): " + " ".join(f"{s:.4f}" for s in setup_samples)
        + f"; host-speed scale {setup_speed.factor():.3f}"
    )
    print(
        f"host-speed scale over the window: {speed.factor():.4f} "
        f"({len(speed.samples)} reference timings)"
    )
    common.print_e2e(
        e2e,
        {
            "p50_s": f"(scaled; unscaled {common.percentile(latencies, 50.0):.6g} s)",
            "tail_s": (
                f"(scaled, p{q:g}, {beyond} of {len(jobs)} samples beyond it; "
                f"unscaled {common.percentile(latencies, q):.6g} s)"
            ),
            "setup_s": f"(scaled median wall time of {len(setup_samples)} set-ups)",
            "peak_rss_mb": f"(server peak RSS + {WORKERS} x largest worker private RSS)",
        },
    )
    print(f"  {'fail_ratio':<22} {len(failures) / len(jobs):.6g} ratio  ({len(failures)} of {len(jobs)})")
    print(f"  {'gen_lag_s':<22} {max(lags):.6g} s")
    for label, _ in MIX:
        mine = [lat for job, lat in zip(jobs, latencies) if job.label == label]
        print(f"  p50 {label:<18} {common.percentile(mine, 50.0):.6g} s  ({len(mine)} jobs, unscaled)")
    third = len(jobs) // 3
    print(
        "backlog check (unscaled): p50 of the first third "
        f"{common.percentile(latencies[:third], 50.0):.6g} s, "
        f"of the last third {common.percentile(latencies[-third:], 50.0):.6g} s"
    )
    for job in failures:
        print(f"failure: job {job.job_id} ({job.label}) ended {job.state}")
    counts = {
        "runner.cache_hits": float(model["cache_hits"]),
        "runner.cache_misses": float(len(new_cache)),
        "runner.cache_bytes_written": float(sum(new_cache.values())),
        "service.journal_appends": float(journal_end.count(b"\n")),
        "service.journal_bytes": float(len(journal_end)),
    }
    common.print_layers(counts, "work counts (measured window):")
    layer_values = None
    if args.trace:
        snap = json.loads(trace_out.read_text())
        layer_values = {name: 0.0 for name in common.LAYER_UNITS}
        layer_values.update(counts)
        layer_values.update(
            {
                name: snap["counters"].get(name, 0.0)
                for name in (
                    "exec.run_supervised.diagnose.s",
                    "exec.run_supervised.experiment.s",
                    "exec.run_supervised.sleep.s",
                    "exec.attempts",
                    "service.queue_wait_s",
                )
            }
        )
        layer_values["service.submit_s"] = snap["total_s"].get("service.submit", 0.0)
        layer_values["service.finish_s"] = snap["total_s"].get("service.finish", 0.0)
        layer_values["service.http_requests"] = float(snap["calls"].get("service.http", 0))
        common.print_layers(
            {k: v for k, v in layer_values.items() if k.split(".")[0] in ("exec", "service")},
            "per-layer (server process):",
        )
    history = common.History(workdir, args.workload, args.seed, args.seconds)
    return common.finish(
        history, args.trace, e2e, layer_values, problems, len(jobs), len(failures)
    )
