"""The service workload: one ``repro serve --workers 1``, one closed-loop
client.

A pass is 4 rounds.  Each round submits one cold ``/v1/run`` request
(kmeans and md5 under tdnuca at scale 256, alternating, each with its
own seed drawn from the benchmark seed, so each is a cache miss and one
worker spawn) and then 5 duplicates of earlier requests of the pass,
which the result cache answers.  A request's latency runs from submit
until the client holds the result; completion is polled every 10 ms.
A run makes at least :data:`MIN_PASSES` passes on one server and
reports the fastest (see README.md, "Host drift").
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from report import Report, median
from repro.service.client import ServiceClient
from repro.service.envelope import ServiceError

APPS = ("kmeans", "md5")
POLICY = "tdnuca"
SCALE = 256
ROUNDS = 4
MIN_PASSES = 5
#: pass length on the 2-core Xeon VM; ``--seconds`` divided by it sets
#: the pass count, so the op count does not depend on host speed.
NOMINAL_PASS_S = 4.0
HITS_PER_ROUND = 5
POLL_S = 0.01
SETUP_PROBES = 4
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 120.0


class Server:
    """A ``repro serve`` subprocess with its own cache and spool dirs."""

    def __init__(self, root: Path, work: Path, env: dict[str, str]) -> None:
        work.mkdir(parents=True)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", str(work / "cache"),
             "--spool-dir", str(work / "spool")],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            host, _, port = line.split()[-1].rpartition(":")
            self.client = ServiceClient(host, int(port), retries=0,
                                        timeout=JOB_TIMEOUT_S)
            self.client.health()
            #: from spawn until the server answers /v1/health.
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def _specs(rng: random.Random, used: set[int]) -> list[dict]:
    specs = []
    for i in range(ROUNDS):
        seed = rng.randrange(1, 2**31)
        while seed in used:
            seed = rng.randrange(1, 2**31)
        used.add(seed)
        specs.append(dict(workload=APPS[i % 2], policy=POLICY, seed=seed,
                          scale=SCALE))
    return specs


class Pass:
    """One timed pass of the closed loop, with every job record."""

    def __init__(self, client: ServiceClient, rng: random.Random,
                 used: set[int]) -> None:
        self.specs = _specs(rng, used)
        self.cold: list[tuple[float, dict | None, dict | None]] = []
        self.hits: list[tuple[int, float, dict | None, dict | None]] = []
        start = time.perf_counter()
        for i, spec in enumerate(self.specs):
            self.cold.append(self._request(client, spec))
            for _ in range(HITS_PER_ROUND):
                j = rng.randrange(i + 1)
                self.hits.append((j, *self._request(client, self.specs[j])))
        self.wall_s = time.perf_counter() - start
        self.attempted = len(self.cold) + len(self.hits)

    @staticmethod
    def _request(client: ServiceClient, spec: dict):
        """(latency, job record, result); record and result are None when
        the request failed."""
        t0 = time.perf_counter()
        try:
            job = client.submit_run(**spec)
            if job["state"] != "done":
                job = client.wait(job["id"], timeout=JOB_TIMEOUT_S, poll=POLL_S)
            result = client.result(job["id"])["result"]
        except ServiceError:
            return time.perf_counter() - t0, None, None
        return time.perf_counter() - t0, job, result

    def failures(self, reference: list[dict] | None) -> int:
        """Cold requests that failed, were not simulated, or (when the
        in-process ``reference`` results are given) differ from them; hits
        that re-simulated or differ from the cold result of their key."""
        failed = 0
        for i, (_, job, result) in enumerate(self.cold):
            ok = job is not None and job["simulated"] == 1
            if ok and reference is not None:
                ok = json.loads(json.dumps(result)) == reference[i]
            failed += not ok
        for j, _, job, result in self.hits:
            cold = self.cold[j][2]
            ok = (job is not None and job["cache_hits"] == 1
                  and job["simulated"] == 0 and cold is not None
                  and result == cold)
            failed += not ok
        return failed


def inprocess(spec: dict) -> tuple[float, dict]:
    """Simulate ``spec`` in this process the way a worker does (a cold
    trace cache, an event-streaming observer); returns (seconds, result)."""
    from repro.api import Session
    from repro.obs.observer import Observer
    from repro.obs.stream import CallbackSink
    from repro.runtime.trace import shared_trace_cache
    from repro.service.queue import RunSpec

    run_spec = RunSpec(**spec)
    shared_trace_cache.clear()
    t0 = time.perf_counter()
    session = Session(run_spec.config(), seed=run_spec.seed)
    rr = session.run(
        run_spec.workload, run_spec.policy,
        trace=Observer(sink=CallbackSink(lambda evt: None), timeline=False),
    )
    result = rr.stats_dict()
    spent = time.perf_counter() - t0
    return spent, json.loads(json.dumps(result))


def run(seed: int, seconds: float, trace: bool, root: Path, work: Path,
        env: dict[str, str], speed: HostSpeed) -> Report:
    report = Report()
    setup_samples = []
    speed.mark()
    for k in range(SETUP_PROBES):
        probe = Server(root, work / f"probe-{k}", env)
        probe.stop()
        setup_samples.append(probe.setup_s)

    rng = random.Random(seed)
    used: set[int] = set()
    passes: list[Pass] = []
    server = Server(root, work / "server", env)
    setup_samples.append(server.setup_s)
    try:
        speed.mark()
        for _ in range(max(MIN_PASSES, int(seconds // NOMINAL_PASS_S))):
            passes.append(Pass(server.client, rng, used))
            speed.mark()
        health = server.client.health()
    finally:
        server.stop()
    # Largest server or worker process; all of them have been reaped.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    inproc: list[list[tuple[float, dict]]] = []
    if trace:
        inproc = [[inprocess(spec) for spec in p.specs] for p in passes]
    report.attempted = sum(p.attempted for p in passes)
    report.failed = sum(
        p.failures([r for _, r in inproc[n]] if trace else None)
        for n, p in enumerate(passes)
    )

    # Host-speed scale of each pass (marks 0 and 1 bracket the set-up).
    # A pass's wall is mostly worker spawns, a hit is in-process work.
    spawn_scale = [speed.spawn_factor(i + 1) for i in range(len(passes))]
    scale = [speed.factor(i + 1) for i in range(len(passes))]
    wall_s = median([p.wall_s * k for p, k in zip(passes, spawn_scale)])
    cold = [c for p in passes for c in p.cold if c[1] is not None]
    hit_s = [h[1] * k for p, k in zip(passes, scale) for h in p.hits]
    records = [c[1] for c in cold] + [h[2] for p in passes for h in p.hits
                                      if h[2] is not None]
    # Every pass has the same mix of cold apps; refs are those of pass 0.
    simulated = [result for _, _, result in passes[0].cold if result is not None]
    refs = sum(result["l1"]["accesses"] for result in simulated)
    report.add("setup_s", median(setup_samples) * speed.spawn_factor(0), "s",
               len(setup_samples))
    report.add("wall_s", wall_s, "s", len(passes))
    report.add("refs_per_s", refs / wall_s, "1/s", len(passes))
    report.add("jobs_per_s", passes[0].attempted / wall_s, "1/s", len(passes))
    report.add("peak_rss_mb", peak_rss_mb, "MB", 1)
    report.add_percentile("hit_p50_ms", hit_s, 0.5, 1e3, "ms")
    report.add_percentile("hit_p90_ms", hit_s, 0.9, 1e3, "ms")
    report.add("host.probe_ms", speed.probe_ms(), "ms", len(speed.marks))
    report.add("host.spawn_probe_ms", speed.spawn_probe_ms(), "ms",
               len(speed.spawn_marks))
    report.add("sim.refs", refs, "count")
    report.add("sim.tasks", sum(r["tasks_executed"] for r in simulated), "count")

    latency = [c[0] for c in cold]
    spent = [c[1]["spent_s"] for c in cold]
    report.add_percentile("service.cold_p50_s", latency, 0.5, 1.0, "s")
    report.add_percentile("service.attempt_p50_s", spent, 0.5, 1.0, "s")
    report.add_percentile("service.queue_p50_s",
                          [lat - s for lat, s in zip(latency, spent)],
                          0.5, 1.0, "s")
    cells_hit = sum(r["cache_hits"] for r in records)
    cells_run = sum(r["simulated"] for r in records)
    report.add("service.hit_ratio", cells_hit / max(1, cells_hit + cells_run),
               "ratio", len(records))
    spawned = (health["queue"].get("pool") or {}).get("spawned", 0)
    report.add("service.spawns_per_cold", spawned / max(1, len(cold)), "ratio",
               len(cold))
    report.add("service.attempts_per_job",
               sum(c[1]["attempts"] for c in cold) / max(1, len(cold)),
               "ratio", len(cold))
    if trace:
        own = [s for per_pass in inproc for s, _ in per_pass]
        overhead = [
            c[1]["spent_s"] - inproc[n][i][0]
            for n, p in enumerate(passes)
            for i, c in enumerate(p.cold) if c[1] is not None
        ]
        report.add_percentile("service.inproc_p50_s", own, 0.5, 1.0, "s")
        report.add_percentile("service.spawn_overhead_s", overhead, 0.5, 1.0, "s")
    return report
