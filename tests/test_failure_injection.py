"""Failure injection: the system must degrade gracefully, never break.

The paper's design guarantees functionality is preserved when resources
run out — full RRTs fall back to S-NUCA interleaving, tiny TLBs just
re-walk, fragmented page tables only cost RRT entries.  These tests
starve each resource and check both completion and graceful degradation.
"""

from dataclasses import replace

import pytest

from repro.api import Session
from repro.config import scaled_config

CFG = scaled_config(1 / 2048)


class TestStarvedRRT:
    def test_one_entry_rrt_still_completes(self):
        cfg = replace(CFG, rrt_entries=1)
        r = Session(cfg).run("lu", "tdnuca").experiment
        assert r.execution.tasks_executed > 0
        assert r.runtime.occupancy_max <= 1

    def test_starved_rrt_converges_to_snuca_distance(self):
        """With (almost) nothing tracked, TD-NUCA behaves like S-NUCA."""
        starved = Session(replace(CFG, rrt_entries=1)).run("lu", "tdnuca").experiment
        snuca = Session(CFG).run("lu", "snuca").experiment
        assert (
            abs(starved.machine.mean_nuca_distance - snuca.machine.mean_nuca_distance)
            < 0.8
        )

    def test_work_identical_regardless_of_capacity(self):
        small = Session(replace(CFG, rrt_entries=2)).run("kmeans", "tdnuca").experiment
        large = Session(CFG).run("kmeans", "tdnuca").experiment
        assert small.machine.l1.accesses == large.machine.l1.accesses


class TestStarvedTLB:
    def test_tiny_tlb_completes_with_low_hit_ratio(self):
        cfg = replace(CFG, tlb_entries=2)
        r = Session(cfg).run("jacobi", "tdnuca").experiment
        assert r.execution.tasks_executed > 0
        full = Session(CFG).run("jacobi", "tdnuca").experiment
        assert r.machine.tlb.hit_ratio <= full.machine.tlb.hit_ratio


class TestFragmentedPhysicalMemory:
    def test_full_fragmentation_completes(self):
        r = Session(CFG).run("md5", "tdnuca", seed=3).experiment
        frag = Session(CFG).run("md5", "tdnuca", seed=3).experiment
        assert frag.execution.tasks_executed == r.execution.tasks_executed

    def test_fragmentation_costs_rrt_entries_not_correctness(self):
        from repro.sim.machine import build_machine
        from repro.experiments.runner import build_runtime
        from repro.runtime import Executor
        from repro.workloads.registry import get_workload

        occupancies = {}
        for frag in (0.0, 1.0):
            machine = build_machine(CFG, "tdnuca", fragmentation=frag)
            ext = build_runtime(machine, "tdnuca")
            prog = get_workload("jacobi").build(CFG)
            Executor(machine, extension=ext).run(prog)
            occupancies[frag] = ext.stats.occupancy_max
        assert occupancies[1.0] >= occupancies[0.0]


class TestDegenerateCaches:
    def test_minimal_l1(self):
        cfg = replace(CFG, l1_bytes=2048, l1_assoc=8)
        r = Session(cfg).run("md5", "tdnuca").experiment
        assert r.execution.tasks_executed == 128

    def test_minimal_llc_banks(self):
        cfg = replace(CFG, llc_bank_bytes=16 * 1024)
        for pol in ("snuca", "rnuca", "tdnuca"):
            r = Session(cfg).run("kmeans", pol).experiment
            assert r.execution.tasks_executed > 0


class TestZeroNondepTraffic:
    def test_runs_without_scratch(self):
        cfg = replace(CFG, nondep_blocks_per_task=0)
        r = Session(cfg).run("md5", "tdnuca").experiment
        assert r.execution.tasks_executed == 128
        # Without scratch, essentially everything bypasses.
        assert r.machine.llc_accesses < 300


# ---------------------------------------------------------------------------
# Hardware fault axis: injected bank/link/DRAM failures (repro.faults).
# The trace is the work, so fault handling may change *where* data lives and
# *how long* accesses take — never how many references the cores issue.
# ---------------------------------------------------------------------------


def _faulted(workload, policy, spec, seed=0):
    cfg = replace(CFG, fault_spec=spec, strict_invariants=True)
    return Session(cfg).run(workload, policy, seed=seed).experiment


class TestBankFailure:
    @pytest.mark.parametrize("policy", ["snuca", "rnuca", "dnuca", "tdnuca"])
    def test_midrun_bank_death_preserves_work(self, policy):
        """Every policy completes with the exact same L1 access count and
        a clean invariant report when a bank dies mid-run."""
        healthy = Session(CFG).run("lu", policy).experiment
        faulted = _faulted("lu", policy, "bank:5@task=20")
        assert faulted.execution.tasks_executed == healthy.execution.tasks_executed
        assert faulted.machine.l1.accesses == healthy.machine.l1.accesses
        assert faulted.machine.faults.banks_failed == 1
        assert faulted.machine.faults.dead_bank_redirects > 0
        assert faulted.machine.extra["invariants"]["violations"] == 0

    @pytest.mark.parametrize("bank", [0, 7, 15])
    def test_any_single_bank_position(self, bank):
        healthy = Session(CFG).run("kmeans", "tdnuca").experiment
        faulted = _faulted("kmeans", "tdnuca", f"bank:{bank}@task=10")
        assert faulted.machine.l1.accesses == healthy.machine.l1.accesses
        assert faulted.machine.extra["invariants"]["violations"] == 0

    def test_every_workload_survives_a_bank_death(self):
        from repro.workloads.registry import workload_names

        for wl in workload_names():
            healthy = Session(CFG).run(wl, "tdnuca").experiment
            faulted = _faulted(wl, "tdnuca", "bank:3@task=5")
            assert faulted.machine.l1.accesses == healthy.machine.l1.accesses, wl
            assert faulted.machine.extra["invariants"]["violations"] == 0, wl

    def test_dead_from_start_bank(self):
        faulted = _faulted("md5", "snuca", "bank:2@task=0")
        assert faulted.execution.tasks_executed == 128
        assert faulted.machine.faults.blocks_lost == 0  # bank never filled
        assert faulted.machine.extra["invariants"]["violations"] == 0


class TestLinkFailure:
    @pytest.mark.parametrize("spec", ["link:1-2@task=10", "link:10-14@task=0"])
    def test_single_link_death_preserves_work(self, spec):
        healthy = Session(CFG).run("jacobi", "tdnuca").experiment
        faulted = _faulted("jacobi", "tdnuca", spec)
        assert faulted.execution.tasks_executed == healthy.execution.tasks_executed
        assert faulted.machine.l1.accesses == healthy.machine.l1.accesses
        assert faulted.machine.faults.links_failed == 1
        assert faulted.machine.faults.mean_hop_inflation > 0
        assert faulted.machine.extra["invariants"]["violations"] == 0


class TestDramTransientErrors:
    def test_errors_slow_the_run_but_change_no_work(self):
        healthy = Session(CFG).run("md5", "snuca", seed=4).experiment
        faulted = _faulted("md5", "snuca", "dram:transient:p=0.01", seed=4)
        assert faulted.machine.l1.accesses == healthy.machine.l1.accesses
        assert faulted.machine.faults.dram_transient_errors > 0
        assert faulted.machine.faults.dram_retry_cycles > 0
        assert faulted.makespan > healthy.makespan


class TestFaultDeterminism:
    def test_same_seed_same_stats_bit_for_bit(self):
        from repro.experiments.serialize import result_to_dict

        spec = "bank:5@task=10,link:1-2@task=20,dram:transient:p=1e-3"
        a = result_to_dict(_faulted("lu", "tdnuca", spec, seed=11))
        b = result_to_dict(_faulted("lu", "tdnuca", spec, seed=11))
        assert a == b

    def test_different_seed_different_dram_errors(self):
        spec = "dram:transient:p=1e-2"
        a = _faulted("md5", "snuca", spec, seed=1)
        b = _faulted("md5", "snuca", spec, seed=2)
        assert (
            a.machine.faults.dram_transient_errors
            != b.machine.faults.dram_transient_errors
            or a.machine.faults.dram_retry_cycles
            != b.machine.faults.dram_retry_cycles
        )


class TestStrictModeFaultFree:
    @pytest.mark.parametrize("policy", ["snuca", "tdnuca"])
    def test_fault_free_strict_run_is_clean_and_identical(self, policy):
        plain = Session(CFG).run("kmeans", policy, seed=0).experiment
        strict = Session(replace(CFG, strict_invariants=True)).run(
            "kmeans", policy, seed=0
        ).experiment
        inv = strict.machine.extra["invariants"]
        assert inv["violations"] == 0
        assert inv["checks_run"] > 0 and inv["full_sweeps"] >= 1
        # Checking must observe, never perturb, the simulation.
        assert strict.makespan == plain.makespan
        assert strict.machine.l1.accesses == plain.machine.l1.accesses
        assert strict.machine.llc_accesses == plain.machine.llc_accesses
