"""End-to-end cross-policy invariants on a tiny suite.

These are the properties that must hold *between* policies for the
reproduction to be meaningful: identical work, conserved data, and the
paper's qualitative orderings.
"""

import pytest

from repro.api import Session
from repro.config import scaled_config

CFG = scaled_config(1 / 1024)
POLICIES = ("snuca", "rnuca", "tdnuca")


@pytest.fixture(scope="module")
def results():
    out = {}
    for wl in ("kmeans", "lu"):
        for pol in POLICIES:
            out[(wl, pol)] = Session(CFG).run(wl, pol).experiment
    return out


class TestWorkConservation:
    @pytest.mark.parametrize("wl", ["kmeans", "lu"])
    def test_same_l1_accesses_under_every_policy(self, results, wl):
        """The program issues the same references regardless of NUCA policy."""
        counts = {p: results[(wl, p)].machine.l1.accesses for p in POLICIES}
        assert len(set(counts.values())) == 1

    @pytest.mark.parametrize("wl", ["kmeans", "lu"])
    def test_same_tasks_executed(self, results, wl):
        counts = {p: results[(wl, p)].execution.tasks_executed for p in POLICIES}
        assert len(set(counts.values())) == 1

    @pytest.mark.parametrize("wl", ["kmeans", "lu"])
    def test_same_unique_blocks(self, results, wl):
        counts = {p: results[(wl, p)].unique_blocks for p in POLICIES}
        assert len(set(counts.values())) == 1


class TestDataConservation:
    @pytest.mark.parametrize("wl", ["kmeans", "lu"])
    @pytest.mark.parametrize("pol", POLICIES)
    def test_llc_accounting(self, results, wl, pol):
        llc = results[(wl, pol)].machine.llc
        assert llc.hits + llc.misses == llc.accesses
        assert 0.0 <= results[(wl, pol)].machine.llc_hit_ratio <= 1.0

    @pytest.mark.parametrize("wl", ["kmeans", "lu"])
    @pytest.mark.parametrize("pol", POLICIES)
    def test_distance_within_mesh_bounds(self, results, wl, pol):
        d = results[(wl, pol)].machine.mean_nuca_distance
        assert 0.0 <= d <= 6.0  # 4x4 mesh diameter


class TestPaperOrderings:
    def test_snuca_distance_near_theoretical(self, results):
        for wl in ("kmeans", "lu"):
            d = results[(wl, "snuca")].machine.mean_nuca_distance
            assert d == pytest.approx(2.5, abs=0.35)

    @pytest.mark.parametrize("wl", ["kmeans", "lu"])
    def test_tdnuca_reduces_distance(self, results, wl):
        assert (
            results[(wl, "tdnuca")].machine.mean_nuca_distance
            < results[(wl, "snuca")].machine.mean_nuca_distance
        )

    @pytest.mark.parametrize("wl", ["kmeans", "lu"])
    def test_tdnuca_reduces_data_movement(self, results, wl):
        assert (
            results[(wl, "tdnuca")].machine.router_bytes
            < results[(wl, "snuca")].machine.router_bytes
        )

    @pytest.mark.parametrize("wl", ["kmeans", "lu"])
    def test_tdnuca_cuts_llc_energy(self, results, wl):
        assert (
            results[(wl, "tdnuca")].machine.energy.llc
            <= results[(wl, "snuca")].machine.energy.llc * 1.05
        )

    def test_rnuca_llc_accesses_near_snuca(self, results):
        """Paper Fig. 9: R-NUCA within 2% of S-NUCA."""
        for wl in ("kmeans", "lu"):
            s = results[(wl, "snuca")].machine.llc_accesses
            r = results[(wl, "rnuca")].machine.llc_accesses
            assert abs(r - s) / s < 0.1


class TestSeedStability:
    def test_conclusion_stable_across_seeds(self):
        """TD-NUCA's win must not hinge on one scheduling realization."""
        for seed in (0, 1, 2):
            s = Session(CFG).run("kmeans", "snuca", seed=seed).experiment
            t = Session(CFG).run("kmeans", "tdnuca", seed=seed).experiment
            assert t.makespan < s.makespan * 1.01, seed
            assert t.machine.llc_accesses < s.machine.llc_accesses, seed

    def test_seeds_actually_differ(self):
        a = Session(CFG).run("kmeans", "tdnuca", seed=0).experiment
        b = Session(CFG).run("kmeans", "tdnuca", seed=1).experiment
        assert a.makespan != b.makespan  # fragmentation/jitter differ


class TestTLBClaims:
    @pytest.mark.parametrize("wl", ["kmeans", "lu"])
    def test_tdnuca_tlb_accesses_small(self, results, wl):
        """Section V-A: the translation walks of the TD-NUCA instructions
        add a negligible number of TLB accesses."""
        isa = results[(wl, "tdnuca")].isa
        l1 = results[(wl, "tdnuca")].machine.l1.accesses
        assert isa.translation_tlb_accesses < 0.25 * l1
