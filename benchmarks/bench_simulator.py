"""Raw simulator throughput: honest timings of single (workload, policy)
runs, for tracking the simulator's own performance."""

from repro.api import Session
from repro.config import scaled_config

CFG = scaled_config(1 / 256)


def test_simulate_kmeans_snuca(benchmark):
    result = benchmark.pedantic(
        Session(CFG).run, args=("kmeans", "snuca"), rounds=1, iterations=1
    )
    assert result.execution.tasks_executed > 0


def test_simulate_kmeans_tdnuca(benchmark):
    result = benchmark.pedantic(
        Session(CFG).run, args=("kmeans", "tdnuca"), rounds=1, iterations=1
    )
    assert result.execution.tasks_executed > 0


def test_simulate_md5_rnuca(benchmark):
    result = benchmark.pedantic(
        Session(CFG).run, args=("md5", "rnuca"), rounds=1, iterations=1
    )
    assert result.execution.tasks_executed == 128
