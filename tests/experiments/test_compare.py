"""Result-set regression comparison."""

import pytest

from repro.experiments.compare import MetricDelta, compare_result_sets


def payload(makespan=1000, llc=500):
    return {
        "makespan_cycles": makespan,
        "tasks_executed": 10,
        "llc": {"accesses": llc, "hits": llc // 2},
        "l1": {"accesses": 2000},
        "noc": {"router_bytes": 9999, "mean_nuca_distance": 2.5},
        "dram": {"reads": 100, "writes": 50},
        "energy_pj": {"llc": 1e6, "noc": 5e5},
        "bypassed_accesses": 0,
    }


KEY = ("md5", "tdnuca")


class TestCompare:
    def test_identical_sets_clean(self):
        old = {KEY: payload()}
        assert compare_result_sets(old, {KEY: payload()}) == []

    def test_within_tolerance_clean(self):
        old = {KEY: payload(makespan=1000)}
        new = {KEY: payload(makespan=1010)}
        assert compare_result_sets(old, new, tolerance=0.02) == []

    def test_beyond_tolerance_reported(self):
        old = {KEY: payload(makespan=1000)}
        new = {KEY: payload(makespan=1100)}
        deltas = compare_result_sets(old, new, tolerance=0.02)
        assert len(deltas) == 1
        d = deltas[0]
        assert d.metric == "makespan_cycles"
        assert d.relative == pytest.approx(0.10)
        assert "md5/tdnuca" in str(d)

    def test_multiple_metrics(self):
        old = {KEY: payload(makespan=1000, llc=500)}
        new = {KEY: payload(makespan=2000, llc=1000)}
        metrics = {d.metric for d in compare_result_sets(old, new)}
        assert "makespan_cycles" in metrics
        assert "llc.accesses" in metrics

    def test_missing_run_flagged(self):
        old = {KEY: payload(), ("lu", "snuca"): payload()}
        new = {KEY: payload()}
        deltas = compare_result_sets(old, new)
        assert any(d.metric == "<missing>" and d.run == "lu/snuca" for d in deltas)

    def test_zero_to_nonzero(self):
        old = {KEY: {**payload(), "bypassed_accesses": 0}}
        new = {KEY: {**payload(), "bypassed_accesses": 10}}
        deltas = compare_result_sets(old, new)
        assert any(d.metric == "bypassed_accesses" for d in deltas)

    def test_missing_metric_skipped(self):
        old = {KEY: {"makespan_cycles": 100}}
        new = {KEY: {"makespan_cycles": 100}}
        assert compare_result_sets(old, new) == []

    def test_negative_tolerance(self):
        with pytest.raises(ValueError):
            compare_result_sets({}, {}, tolerance=-1)


class TestEndToEnd:
    def test_against_real_sweep(self):
        from repro.api import Session
        from repro.config import scaled_config
        from repro.experiments.serialize import (
            load_results_json,
            results_to_json,
        )

        cfg = scaled_config(1 / 2048)
        results = {("md5", "snuca"): Session(cfg).run("md5", "snuca").experiment}
        snapshot = load_results_json(results_to_json(results))
        assert compare_result_sets(snapshot, snapshot) == []
