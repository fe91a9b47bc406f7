"""Section V-E — TD-NUCA design trade-offs and overheads.

Paper claims reproduced here:

* RRT latency: 1-cycle RRTs cost 0.1% vs ideal; 2/3/4 cycles cost
  0.5/1.1/1.9% on average.
* RRT occupancy: 14.71 entries average; Gauss/Histo/Kmeans/KNN never
  exceed 23; the maximum anywhere is 59 (64 entries always suffice).
* Cache flushing: <0.1% of execution time everywhere except Histo (0.49%).
* Runtime extensions alone (ISA off): 0.01% average overhead.
"""


from repro.api import Session
from repro.config import scaled_config
from repro.experiments import figures
from repro.stats.report import format_table

from .conftest import emit

#: smaller scale for the latency sweep: 5 extra full runs.
SWEEP_CFG = scaled_config(1 / 256)
SWEEP_BENCHES = ("kmeans", "lu", "knn")


def test_rrt_latency_sensitivity(benchmark):
    """Makespan vs RRT lookup latency, normalized to the 1-cycle design."""

    def sweep():
        out = {}
        for cycles in (0, 1, 2, 3, 4):
            total = 0
            for wl in SWEEP_BENCHES:
                r = Session(SWEEP_CFG).run(
                    wl, "tdnuca", rrt_lookup_cycles=cycles
                ).experiment
                total += r.makespan
            out[cycles] = total
        return out

    makespans = benchmark.pedantic(sweep, rounds=1, iterations=1)
    base = makespans[1]
    rows = [
        [str(c), f"{makespans[c] / base:.4f}", f"{makespans[c] / makespans[0]:.4f}"]
        for c in sorted(makespans)
    ]
    emit(
        format_table(
            ["RRT cycles", "vs 1-cycle", "vs ideal (0)"],
            rows,
            "Section V-E: RRT latency sensitivity",
        )
    )
    # Monotone: more latency, more time; overheads stay small (paper <2%).
    assert makespans[0] <= makespans[1] <= makespans[4]
    assert makespans[4] / makespans[0] < 1.05


def test_rrt_occupancy(benchmark, suite):
    report = benchmark(figures.rrt_occupancy_report, suite)
    rows = [
        [b, f"{v['mean']:.2f}", f"{v['max']:.0f}"] for b, v in report.items()
    ]
    emit(format_table(["bench", "mean", "max"], rows, "Section V-E: RRT occupancy"))
    # 64 entries always suffice (paper's central occupancy claim)...
    for bench, v in report.items():
        assert v["max"] <= 64, bench
    # ...and the low-pressure benchmarks stay far from the limit.
    for bench in ("gauss", "kmeans", "knn"):
        assert report[bench]["max"] <= 30, bench


def test_flush_overhead(benchmark, suite):
    report = benchmark(figures.flush_overhead_report, suite)
    rows = [[b, f"{v * 100:.3f}%"] for b, v in report.items()]
    emit(
        format_table(
            ["bench", "flush time"], rows, "Section V-E: time spent flushing"
        )
    )
    # Flushing stays a sub-percent effect everywhere (paper: <0.1%
    # everywhere but Histo's 0.49%; our smaller tasks inflate the ratio).
    for bench, v in report.items():
        assert v < 0.02, bench


def test_runtime_extension_overhead(benchmark, suite):
    report = benchmark(figures.runtime_overhead_report, suite)
    rows = [[b, f"{v * 100:+.3f}%"] for b, v in report.items()]
    emit(
        format_table(
            ["bench", "overhead"],
            rows,
            "Section V-E: runtime extensions overhead (ISA disabled vs S-NUCA)",
        )
    )
    # The software-only extension cost is small; at this scale the signal
    # (paper: 0.01%) is below the scheduling noise, so bound it loosely.
    for bench, v in report.items():
        assert abs(v) < 0.05, bench


def test_runtime_software_cycles_fraction(benchmark, suite):
    """A noise-free view of the same claim: directory + decision cycles
    as a fraction of total busy cycles."""
    benchmark(lambda: None)  # the work below is assembly over cached runs
    rows = []
    for (wl, pol), r in suite.items():
        if pol != "tdnuca" or r.runtime is None:
            continue
        frac = r.runtime.software_cycles / max(1, sum(r.execution.busy_cycles))
        rows.append([wl, f"{frac * 100:.3f}%"])
        # Fixed per-dependency bookkeeping over 1/64-scale tasks inflates
        # the paper's 0.01% by roughly the scale factor; Gauss (the
        # smallest tasks, 9 deps each) sits highest at ~2.7%.
        assert frac < 0.04, wl
    emit(
        format_table(
            ["bench", "software cycles"],
            rows,
            "Section V-E: RTCacheDirectory + decision cycles / busy cycles",
        )
    )
