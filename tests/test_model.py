"""Tests for the alpha-beta machine model (Section 5)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.model import (
    CARVER,
    FRANKLIN,
    HOPPER,
    Charger,
    NetworkCostModel,
    RmatVolumeModel,
    alpha_L,
    beta_a2a,
    beta_ag,
    cost_1d,
    cost_2d,
    gteps,
)
from repro.model.machine import get_machine
from repro.model.memory import int_op_cost, random_access_cost, stream_cost
from repro.model.network import latency_a2a, latency_tree
from repro.model.projection import fit_dedup_curve


class TestMachineConfigs:
    def test_registry_lookup(self):
        assert get_machine("franklin") is FRANKLIN
        assert get_machine("HOPPER") is HOPPER
        assert get_machine(CARVER) is CARVER
        assert get_machine(None) is None
        with pytest.raises(ValueError, match="unknown machine"):
            get_machine("roadrunner")

    def test_paper_hardware_ratios(self):
        # Hopper has 6x the cores per node of Franklin but nowhere near 6x
        # the per-node network bandwidth — the "cores to bandwidth ratio
        # increases" regime motivating the 2D algorithm.
        franklin_bw_per_core = FRANKLIN.nic_words_per_sec / FRANKLIN.cores_per_node
        hopper_bw_per_core = HOPPER.nic_words_per_sec / HOPPER.cores_per_node
        assert hopper_bw_per_core < 0.5 * franklin_bw_per_core
        # Hopper's MagnyCours is faster at integer work (Section 6).
        assert HOPPER.int_ops_per_sec > FRANKLIN.int_ops_per_sec

    def test_nodes_for_cores(self):
        assert FRANKLIN.nodes_for_cores(4096) == 1024
        assert FRANKLIN.nodes_for_cores(5) == 2
        assert HOPPER.nodes_for_cores(1) == 1

    def test_with_overrides(self):
        fat = FRANKLIN.with_overrides(nic_words_per_sec=1e12)
        assert fat.nic_words_per_sec == 1e12
        assert fat.cores_per_node == FRANKLIN.cores_per_node
        assert FRANKLIN.nic_words_per_sec != 1e12  # original untouched


class TestMemoryModel:
    def test_latency_ladder_monotone(self):
        sizes = np.logspace(1, 9, 50)
        lats = [alpha_L(s, FRANKLIN) for s in sizes]
        assert all(b >= a for a, b in zip(lats, lats[1:]))

    def test_cache_resident_vs_dram(self):
        assert alpha_L(100, FRANKLIN) == FRANKLIN.lat_l1
        # Very large working sets land in the TLB-limited regime.
        assert alpha_L(10**10, FRANKLIN) == pytest.approx(
            FRANKLIN.tlb_penalty * FRANKLIN.lat_dram
        )
        assert alpha_L(32 * FRANKLIN.l3_words, FRANKLIN) == pytest.approx(
            FRANKLIN.lat_dram
        )
        # Working sets between cache levels interpolate strictly between.
        mid = alpha_L(FRANKLIN.l1_words * 3, FRANKLIN)
        assert FRANKLIN.lat_l1 < mid < FRANKLIN.lat_l2

    def test_working_set_drives_1d_vs_2d_gap(self):
        # The paper's explanation of 2D's higher computation time: random
        # accesses into n/pr (2D) cost more than into n/p (1D).
        n = 2**29
        p = 4096
        assert alpha_L(n / math.isqrt(p), FRANKLIN) > alpha_L(n / p, FRANKLIN)

    def test_cost_helpers_validate(self):
        with pytest.raises(ValueError):
            stream_cost(-1, FRANKLIN)
        with pytest.raises(ValueError):
            random_access_cost(-1, 10, FRANKLIN)
        with pytest.raises(ValueError):
            int_op_cost(-5, FRANKLIN)
        with pytest.raises(ValueError):
            alpha_L(-1, FRANKLIN)


class TestNetworkModel:
    def test_a2a_bandwidth_degrades_with_scale(self):
        # 3D torus: per-node all-to-all share shrinks ~ p^(-1/3).
        b_small = beta_a2a(FRANKLIN, 256, ranks_per_node=4)
        b_large = beta_a2a(FRANKLIN, 16384, ranks_per_node=4)
        assert b_large > 2 * b_small

    def test_allgather_degrades_slower_than_a2a(self):
        small, large = 256, 16384
        a2a_ratio = beta_a2a(FRANKLIN, large, 4) / beta_a2a(FRANKLIN, small, 4)
        ag_ratio = beta_ag(FRANKLIN, large, 4) / beta_ag(FRANKLIN, small, 4)
        assert ag_ratio < a2a_ratio

    def test_fewer_ranks_per_node_means_more_bandwidth(self):
        # The hybrid advantage: 1 rank per node owns the whole NIC.
        assert beta_a2a(FRANKLIN, 1024, 1) < beta_a2a(FRANKLIN, 1024, 4)

    def test_carver_fat_tree_no_degradation(self):
        assert beta_a2a(CARVER, 64, 8) == pytest.approx(
            beta_a2a(CARVER, 4096, 8)
        )

    def test_latency_terms(self):
        assert latency_a2a(FRANKLIN, 1024) == pytest.approx(1024 * FRANKLIN.net_latency)
        assert latency_tree(FRANKLIN, 1024) == pytest.approx(10 * FRANKLIN.net_latency)


class TestNetworkCostModel:
    def test_collective_kinds_priced(self):
        model = NetworkCostModel(FRANKLIN, total_ranks=64)
        for kind in ("alltoallv", "allgatherv", "allreduce", "bcast", "barrier"):
            assert model.cost(kind, 64, 1000.0, 1000.0) > 0
        with pytest.raises(ValueError, match="unknown collective"):
            model.cost("alltoallw", 4, 0, 0)

    def test_volume_increases_cost(self):
        model = NetworkCostModel(HOPPER, total_ranks=64)
        assert model.cost("alltoallv", 64, 1e6, 1e6) > model.cost(
            "alltoallv", 64, 1e3, 1e3
        )

    def test_threads_reduce_ranks_per_node(self):
        flat = NetworkCostModel(HOPPER, threads=1, total_ranks=1024)
        hybrid = NetworkCostModel(HOPPER, threads=6, total_ranks=1024)
        assert hybrid.ranks_per_node < flat.ranks_per_node
        assert hybrid.cost("alltoallv", 1024, 1e6, 1e6) < flat.cost(
            "alltoallv", 1024, 1e6, 1e6
        )

    def test_p2p_cost(self):
        model = NetworkCostModel(FRANKLIN, total_ranks=4)
        assert model.p2p_cost(0) == pytest.approx(FRANKLIN.net_latency)
        assert model.p2p_cost(1e6) > model.p2p_cost(1e3)

    def test_requires_machine(self):
        with pytest.raises(ValueError):
            NetworkCostModel(None)  # type: ignore[arg-type]


class _FakeComm:
    """Minimal clock-bearing stand-in for Charger unit tests."""

    def __init__(self):
        from repro.mpsim.clock import RankClock

        self.clock = RankClock()

    def charge_compute(self, seconds, **counters):
        self.clock.charge_compute(seconds, **counters)

    def count(self, **counters):
        self.clock.count(**counters)


class TestCharger:
    def test_disabled_records_counters_only(self):
        comm = _FakeComm()
        charger = Charger(comm, machine=None)
        charger.stream(1000, edges_scanned=500)
        charger.random(10, ws_words=1000)
        assert comm.clock.time == 0.0
        assert comm.clock.counters["edges_scanned"] == 500
        assert comm.clock.counters["random_accesses"] == 10

    def test_enabled_charges_time(self):
        comm = _FakeComm()
        charger = Charger(comm, machine=FRANKLIN)
        charger.stream(10**6)
        assert comm.clock.compute_time > 0

    def test_threads_divide_parallel_work(self):
        flat, hybrid = _FakeComm(), _FakeComm()
        # Bulk work (far above the parallel grain) gets the full speedup.
        Charger(flat, machine=FRANKLIN, threads=1).stream(10**9)
        Charger(hybrid, machine=FRANKLIN, threads=4).stream(10**9)
        assert hybrid.clock.compute_time < flat.clock.compute_time
        from repro.model.costmodel import DEFAULT_THREAD_EFFICIENCY

        assert flat.clock.compute_time / hybrid.clock.compute_time == pytest.approx(
            4 * DEFAULT_THREAD_EFFICIENCY, rel=0.01
        )

    def test_tiny_charges_gain_nothing_from_threads(self):
        # Below the parallel grain, threading a microscopic loop is a wash
        # (the fig-11 / high-diameter mechanism).
        flat, hybrid = _FakeComm(), _FakeComm()
        Charger(flat, machine=FRANKLIN, threads=1).stream(100)
        Charger(hybrid, machine=FRANKLIN, threads=4).stream(100)
        assert hybrid.clock.compute_time == pytest.approx(
            flat.clock.compute_time, rel=0.01
        )

    def test_serial_work_not_divided(self):
        comm = _FakeComm()
        charger = Charger(comm, machine=FRANKLIN, threads=4)
        charger.stream(10**6, parallel=False)
        reference = _FakeComm()
        Charger(reference, machine=FRANKLIN, threads=1).stream(10**6)
        assert comm.clock.compute_time == pytest.approx(reference.clock.compute_time)

    def test_thread_merge_only_with_threads(self):
        flat = _FakeComm()
        Charger(flat, machine=FRANKLIN, threads=1).thread_merge(1000)
        assert flat.clock.compute_time == 0.0
        hybrid = _FakeComm()
        Charger(hybrid, machine=FRANKLIN, threads=4).thread_merge(1000)
        assert hybrid.clock.compute_time > 0

    def test_sort_charges_nlogn(self):
        comm = _FakeComm()
        charger = Charger(comm, machine=FRANKLIN)
        charger.sort(1024)
        expected = 1024 * 10 / FRANKLIN.int_ops_per_sec
        assert comm.clock.compute_time == pytest.approx(expected)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Charger(_FakeComm(), threads=0)
        with pytest.raises(ValueError):
            Charger(_FakeComm(), thread_efficiency=0.0)


class TestAnalyticCosts:
    def test_gteps(self):
        assert gteps(1e9, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            gteps(1e9, 0.0)

    def test_1d_cost_structure(self):
        model = RmatVolumeModel()
        vol = model.volumes_1d(2**29, 16 * 2**29, p_cores=4096)
        costs = cost_1d(vol, 4096, FRANKLIN)
        assert costs.comp > 0 and costs.a2a > 0 and costs.sync > 0
        assert costs.total == pytest.approx(costs.comp + costs.comm)
        assert costs.ag == 0.0  # 1D has no expand phase

    def test_2d_cost_structure(self):
        model = RmatVolumeModel()
        vol = model.volumes_2d(2**29, 16 * 2**29, p_cores=4096)
        costs = cost_2d(vol, 4096, FRANKLIN)
        assert costs.ag > 0 and costs.a2a > 0 and costs.transpose > 0

    def test_2d_communicates_less_than_1d(self):
        # The paper's headline: 30-60% lower communication for 2D.
        model = RmatVolumeModel()
        n, m, p = 2**29, 16 * 2**29, 4096
        c1 = cost_1d(model.volumes_1d(n, m, p), p, FRANKLIN)
        c2 = cost_2d(model.volumes_2d(n, m, p), p, FRANKLIN)
        assert c2.comm < c1.comm

    def test_2d_computes_more_than_1d_on_franklin(self):
        # ... while paying more in local computation (larger working sets).
        model = RmatVolumeModel()
        n, m, p = 2**29, 16 * 2**29, 1024
        c1 = cost_1d(model.volumes_1d(n, m, p), p, FRANKLIN)
        c2 = cost_2d(model.volumes_2d(n, m, p), p, FRANKLIN)
        assert c2.comp > c1.comp

    def test_hybrid_reduces_both_components(self):
        model = RmatVolumeModel()
        n, m, p = 2**32, 16 * 2**32, 20000
        flat = cost_1d(model.volumes_1d(n, m, p), p, HOPPER)
        hybrid = cost_1d(model.volumes_1d(n, m, p, threads=6), p, HOPPER, threads=6)
        assert hybrid.comm < flat.comm

    def test_heap_vs_spa_kernels_differ(self):
        model = RmatVolumeModel()
        vol = model.volumes_2d(2**29, 16 * 2**29, 1024)
        spa = cost_2d(vol, 1024, HOPPER, spmsv_kernel="spa")
        heap = cost_2d(vol, 1024, HOPPER, spmsv_kernel="heap")
        assert spa.comp != heap.comp
        with pytest.raises(ValueError, match="unknown spmsv"):
            cost_2d(vol, 1024, HOPPER, spmsv_kernel="radix")


class TestVolumeModel:
    def test_survival_monotone_and_capped(self):
        model = RmatVolumeModel()
        survs = [model.survival(p) for p in (1, 16, 256, 4096, 10**6)]
        assert all(b >= a for a, b in zip(survs, survs[1:]))
        assert survs[-1] == 1.0
        with pytest.raises(ValueError):
            model.survival(0)

    def test_2d_fold_survival_uses_grid_side(self):
        # 2D's fold deduplicates among only sqrt(p) parties, so it ships
        # less than 1D at the same core count — the paper's key mechanism.
        model = RmatVolumeModel()
        n, m, p = 2**29, 16 * 2**29, 4096
        v1 = model.volumes_1d(n, m, p)
        v2 = model.volumes_2d(n, m, p)
        assert v2.a2a_words < v1.a2a_words

    def test_nlevels_grows_with_sparsity(self):
        model = RmatVolumeModel()
        assert model.nlevels(2**31, 4) > model.nlevels(2**29, 16) > model.nlevels(2**27, 64)

    def test_dispatch(self):
        model = RmatVolumeModel()
        assert model.volumes("1d", 2**20, 2**24, 64, threads=4).nlevels > 0
        assert model.volumes("2d", 2**20, 2**24, 64).ag_words > 0
        # A removed hybrid name fails instead of projecting as flat MPI.
        for name in ("serial", "1d-hybrid", "2d-dirop"):
            with pytest.raises(ValueError, match=f"unknown algorithm family '{name}'"):
                model.volumes(name, 2**20, 2**24, 64)

    def test_fit_dedup_curve_recovers_power_law(self):
        parties = np.array([4, 16, 64, 256])
        survival = 0.3 * parties**0.25
        s1, gamma = fit_dedup_curve(parties, survival)
        assert s1 == pytest.approx(0.3, rel=1e-6)
        assert gamma == pytest.approx(0.25, rel=1e-6)
        with pytest.raises(ValueError):
            fit_dedup_curve(np.array([4]), np.array([0.5]))


class TestMachineValidation:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError, match="must be positive"):
            FRANKLIN.with_overrides(nic_words_per_sec=0.0)
        with pytest.raises(ValueError, match="must be positive"):
            FRANKLIN.with_overrides(lat_dram=-1.0)

    def test_rejects_bad_topology(self):
        with pytest.raises(ValueError, match="exponent"):
            FRANKLIN.with_overrides(torus_bisection_exponent=2.0)
        with pytest.raises(ValueError, match="reference_nodes"):
            FRANKLIN.with_overrides(torus_reference_nodes=0)

    def test_rejects_bad_cores_and_tlb(self):
        with pytest.raises(ValueError, match="cores_per_node"):
            FRANKLIN.with_overrides(cores_per_node=0)
        with pytest.raises(ValueError, match="tlb_penalty"):
            FRANKLIN.with_overrides(tlb_penalty=0.5)

    def test_predefined_machines_valid(self):
        # Construction would have raised otherwise; touch all three.
        for machine in (FRANKLIN, HOPPER, CARVER):
            assert machine.nodes_for_cores(machine.cores_per_node) == 1
