"""The two in-process simulator workloads: a serial ``repro sweep``.

Each pass drives ``Session.sweep`` with an explicit plan, ``jobs=1`` and
a fresh run directory, the path ``repro sweep --scale 256`` takes.  The
cells are the cold ops.  The pass then resumes the finished sweep one
job at a time, 25 times on cells drawn from the seed: each resume
answers its job from the checkpoint shard without simulating, so these
are the hit ops.  A run makes at least :data:`MIN_PASSES` passes and
reports the fastest (see README.md, "Host drift").
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time
from pathlib import Path

from hostspeed import HostSpeed
from report import Report, median

#: workload name -> its (workload, policy) cells.
WORKLOADS = {
    "sim-runtime-heavy": [
        ("gauss", "tdnuca"), ("histo", "tdnuca"),
        ("kmeans", "tdnuca"), ("md5", "tdnuca"),
    ],
    "sim-kernel-heavy": [
        ("lu", "snuca"), ("jacobi", "snuca"),
        ("jacobi", "rnuca"), ("knn", "tdnuca"),
    ],
}

#: ``--scale``: the machine is scaled by 1/SCALE.  Small enough that a
#: run repeats its op list four times or more.
SCALE = 256
HITS_PER_PASS = 25
MIN_PASSES = 4
#: pass length on the 2-core Xeon VM; ``--seconds`` divided by it sets
#: the pass count, so the op count does not depend on host speed.
NOMINAL_PASS_S = {"sim-runtime-heavy": 7.0, "sim-kernel-heavy": 5.0}
DIGESTS = Path(__file__).with_name("digests.json")


def make_session(kernel: str = "auto"):
    """The session ``repro sweep`` builds: config compiled via Scenario."""
    from repro.api import Session
    from repro.scenario.model import MachineSpec, Scenario

    cfg = Scenario(
        name="sweep", machine=MachineSpec(scale=SCALE), kernel=kernel,
    ).to_config()
    return Session(cfg)


#: what a set-up probe runs: imports plus the session, then "ready".
PROBE_CODE = "import simload; simload.make_session(); print('ready', flush=True)"


def digest(experiment) -> str:
    """sha256 of a run's canonical statistics (the golden-snapshot dict)."""
    from repro.experiments.golden import canonical_stats

    text = json.dumps(canonical_stats(experiment), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def reference_digest(workload: str, policy: str, seed: int) -> str:
    """The cell's digest under the reference kernel."""
    from repro.experiments import harness

    outcome = make_session("reference").sweep(
        plan=[harness.Job(workload, policy, seed)], jobs=1,
    )
    return digest(outcome.completed[0].result)


class Pass:
    """One timed pass over a workload's op list.

    Only digests and hit verdicts are kept, so memory does not grow with
    the number of passes."""

    def __init__(self, session, cells, seed: int, rng: random.Random,
                 run_dir: Path) -> None:
        from repro.experiments import harness
        from repro.runtime.trace import shared_trace_cache

        plan = [harness.Job(wl, pol, seed) for wl, pol in cells]
        hit_plan = [rng.choice(plan) for _ in range(HITS_PER_PASS)]
        # Every `repro sweep` starts with an empty trace cache.
        shared_trace_cache.clear()
        trace_hits, trace_misses = shared_trace_cache.hits, shared_trace_cache.misses

        start = time.perf_counter()
        cold = session.sweep(plan=plan, jobs=1, run_dir=run_dir)
        hits = []
        for job in hit_plan:
            t0 = time.perf_counter()
            outcome = session.sweep(plan=[job], jobs=1, run_dir=run_dir,
                                    resume=True)
            hits.append((job, outcome, time.perf_counter() - t0))
        self.wall_s = time.perf_counter() - start

        looked_up = (shared_trace_cache.hits - trace_hits
                     + shared_trace_cache.misses - trace_misses)
        self.trace_hit_ratio = (
            (shared_trace_cache.hits - trace_hits) / looked_up if looked_up else 0.0
        )
        self.attempted = len(plan) + len(hit_plan)
        self.hit_s = [spent for _, _, spent in hits]
        done = {f"{r.workload}/{r.policy}": r for r in cold.completed}
        self.refs = sum(r.result.machine.l1.accesses for r in done.values())
        self.tasks = sum(r.result.execution.tasks_executed for r in done.values())
        #: cell -> digest of its cold result (missing if the cell failed).
        self.digests = {cell: digest(r.result) for cell, r in done.items()}
        cold_dicts = {cell: json.loads(json.dumps(r.result_dict()))
                      for cell, r in done.items()}
        #: whether each hit came from the shard and equals its cold result.
        self.hits_ok = [
            len(outcome.completed) == 1
            and outcome.completed[0].from_checkpoint
            and outcome.completed[0].result_dict()
            == cold_dicts.get(f"{job.workload}/{job.policy}")
            for job, outcome, _ in hits
        ]

    def failures(self, expected: dict[str, str]) -> int:
        """Ops whose output is wrong: a cold cell whose digest differs from
        ``expected`` (or that failed), or a hit that was not answered from
        the shard with its cell's cold result."""
        cold_bad = sum(self.digests.get(cell) != want
                       for cell, want in expected.items())
        return cold_bad + self.hits_ok.count(False)


def expected_digests(cells, seed: int) -> dict[str, str]:
    """The recorded table at a recorded seed; otherwise an untimed rerun
    of every cell under the reference kernel."""
    table = json.loads(DIGESTS.read_text())
    recorded = table["seeds"].get(str(seed), {}) if table["scale"] == SCALE else {}
    return {f"{wl}/{pol}": recorded.get(f"{wl}/{pol}")
            or reference_digest(wl, pol, seed) for wl, pol in cells}


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        setup_samples: list[float], speed: HostSpeed) -> Report:
    """Run the workload.  ``setup_samples`` were timed between
    ``speed``'s first two marks; each pass is followed by another mark."""
    from layers import Spans

    cells = WORKLOADS[name]
    rng = random.Random(seed)
    session = make_session()
    report = Report()
    passes: list[Pass] = []

    def one_pass(tag: str) -> Pass:
        run_dir = work / f"sweep-{tag}-{len(passes)}"
        p = Pass(session, cells, seed, rng, run_dir)
        passes.append(p)
        return p

    for _ in range(max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[name]))):
        one_pass("pass")
        speed.mark(spawn=False)  # only set-up is spawn-scaled here
    # Peak memory of the timed work, before the traced pass and the check.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = list(passes)
    #: host-speed scale of each pass (mark 0 and 1 bracket the set-up).
    scale = [speed.factor(i + 1) for i in range(len(untraced))]
    if trace:
        with Spans() as spans:
            traced = one_pass("traced")

    expected = expected_digests(cells, seed)
    report.attempted = sum(p.attempted for p in passes)
    report.failed = sum(p.failures(expected) for p in passes)

    first = untraced[0]
    wall_s = median([p.wall_s * k for p, k in zip(untraced, scale)])
    hit_s = [s * k for p, k in zip(untraced, scale) for s in p.hit_s]
    report.add("setup_s", median(setup_samples) * speed.spawn_factor(0), "s",
               len(setup_samples))
    report.add("wall_s", wall_s, "s", len(untraced))
    report.add("refs_per_s", first.refs / wall_s, "1/s", len(untraced))
    report.add("jobs_per_s", first.attempted / wall_s, "1/s", len(untraced))
    report.add("peak_rss_mb", peak_rss_mb, "MB", 1)
    report.add_percentile("hit_p50_ms", hit_s, 0.5, 1e3, "ms")
    report.add_percentile("hit_p90_ms", hit_s, 0.9, 1e3, "ms")
    report.add("host.probe_ms", speed.probe_ms(), "ms", len(speed.marks))
    report.add("host.spawn_probe_ms", speed.spawn_probe_ms(), "ms",
               len(speed.spawn_marks))
    report.add("sim.refs", first.refs, "count")
    report.add("sim.tasks", first.tasks, "count")
    if trace:
        for layer in ("kernel", "isa", "extensions", "tdg", "trace",
                      "pagetable", "machine", "executor", "traffic", "nuca",
                      "harness", "session"):
            report.add(f"{layer}.self_s", spans.self_s[layer], "s",
                       spans.calls[layer])
        report.add("workloads.build_s", spans.self_s["workloads"], "s",
                   spans.calls["workloads"])
        report.add("isa.calls", spans.calls["isa"], "count")
        report.add("kernel.vector_task_frac", spans.vector_task_frac(), "ratio")
        report.add("trace.hit_ratio", traced.trace_hit_ratio, "ratio")
        report.add("traced.wall_s", traced.wall_s, "s", 1)
        report.add("uncovered_s", traced.wall_s - spans.covered_s(), "s")
        report.add("trace_overhead",
                   traced.wall_s / median([p.wall_s for p in untraced]), "ratio")
    return report
