"""Shape assertions on every experiment driver — the claims the paper's
tables/figures make must hold in our reproduction."""

import pytest

from repro.analysis import (
    ablation_double_parity,
    ablation_encoding_op,
    ablation_group_size,
    ablation_incremental,
    ablation_interval,
    ablation_rack_mapping,
    ablation_stripe_vs_single_root,
    apps_overhead,
    fig6_available_memory,
    fig8_top10_projection,
    fig10_restart_cycle,
    fig11_skt_efficiency,
    fig13_encoding_cost,
    table1_memory_breakdown,
    table3_method_comparison,
)
from repro.analysis.experiments import table2_node_configs, table3_live_miniature
from repro.ckpt import available_fraction_self
from repro.util import GiB


class TestFig6:
    def test_ordering_at_every_group_size(self):
        """Fig. 6: single > self > double at every group size, and self
        approaches half the memory from below."""
        for row in fig6_available_memory(group_sizes=(2, 3, 4, 8, 16, 32)):
            assert row["single"] > row["self"] > row["double"]
            assert row["self"] < 50.0

    def test_group16_values(self):
        row = [r for r in fig6_available_memory() if r["group_size"] == 16][0]
        assert row["self"] == pytest.approx(46.9, abs=0.1)
        assert row["double"] == pytest.approx(31.9, abs=0.1)


class TestTable1:
    def test_breakdown_sums(self):
        row = table1_memory_breakdown(workspace_bytes=2**30, group_size=16)
        assert row["total"] == row["A1+A2"] + row["B"] + row["C"] + row["D"]
        assert row["A1+A2"] == row["B"]
        assert row["C"] == row["D"] == row["A1+A2"] // 15

    def test_total_is_2mn_over_n_minus_1(self):
        """Table 1: total = 2MN/(N-1) — 46.9% of memory stays available at
        the paper's group size 16."""
        row = table1_memory_breakdown(workspace_bytes=GiB, group_size=16)
        assert row["total"] == 2 * GiB * 16 // 15
        assert 0.46 < row["available_fraction"] < 0.47

    def test_group8_leaves_seven_sixteenths(self):
        """Table 3 runs at group size 8: 7/16 = 43.75% available."""
        row = table1_memory_breakdown(workspace_bytes=4 * GiB, group_size=8)
        assert row["available_fraction"] == pytest.approx(7 / 16, abs=1e-9)


class TestTable2:
    def test_verbatim_values(self):
        """Table 2 verbatim: cores, peak GFLOPS, memory and p2p bandwidth
        per node; Tianhe-2 shares a port between twice the processes (the
        §6.6 observation behind Fig. 13) and has less memory per core."""
        by = {r["machine"]: r for r in table2_node_configs()}
        th1a, th2 = by["Tianhe-1A"], by["Tianhe-2"]
        assert th1a["cores"] == 12 and th2["cores"] == 24
        assert th1a["peak_gflops"] == 140.0
        assert th2["peak_gflops"] == pytest.approx(422.4, abs=0.1)
        assert th1a["mem_bytes"] == 48 * GiB and th2["mem_bytes"] == 64 * GiB
        assert th1a["p2p_bw_GBps"] == 6.9 and th2["p2p_bw_GBps"] == 7.1
        assert th2["procs_per_port"] == 2 * th1a["procs_per_port"]
        assert th1a["mem_bytes"] / th1a["cores"] > th2["mem_bytes"] / th2["cores"]


class TestFig8:
    def test_every_system_degrades_monotonically(self):
        for row in fig8_top10_projection():
            assert row["original"] > row["k=1/2"] > row["k=1/3"]

    def test_has_ten_systems(self):
        assert len(fig8_top10_projection()) == 10


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return table3_method_comparison()

    def test_method_order_and_names(self, rows):
        assert [r.method for r in rows] == [
            "Original HPL",
            "ABFT",
            "BLCR+HDD",
            "BLCR+SSD",
            "SCR+Memory",
            "SKT-HPL",
        ]

    def test_normalized_efficiency_ordering(self, rows):
        """The paper's headline ordering: SKT > SCR > BLCR+SSD > ABFT >
        BLCR+HDD (Table 3)."""
        eff = {r.method: r.normalized_efficiency for r in rows}
        assert (
            eff["SKT-HPL"]
            > eff["SCR+Memory"]
            > eff["BLCR+SSD"]
            > eff["ABFT"]
            > eff["BLCR+HDD"]
        )

    def test_skt_above_94pct(self, rows):
        eff = {r.method: r.normalized_efficiency for r in rows}
        assert eff["SKT-HPL"] > 0.94

    def test_skt_beats_scr_by_a_few_percent(self, rows):
        eff = {r.method: r.normalized_efficiency for r in rows}
        assert 0.005 < eff["SKT-HPL"] - eff["SCR+Memory"] < 0.06

    def test_available_memory_column(self, rows):
        mem = {r.method: r.available_mem_gb for r in rows}
        # paper: SCR 1.22 GB, SKT 1.75 GB of the 4 GB budget
        assert mem["SCR+Memory"] == pytest.approx(1.22, abs=0.03)
        assert mem["SKT-HPL"] == pytest.approx(1.75, abs=0.03)
        # the 43%+ improvement headline
        assert mem["SKT-HPL"] / mem["SCR+Memory"] > 1.4

    def test_survival_column(self, rows):
        survive = {r.method: r.survives_poweroff for r in rows}
        assert not survive["Original HPL"]
        assert not survive["ABFT"]
        assert survive["BLCR+HDD"]
        assert survive["BLCR+SSD"]
        assert survive["SCR+Memory"]
        assert survive["SKT-HPL"]

    def test_checkpoint_times_match_paper_magnitudes(self, rows):
        t = {r.method: r.ckpt_time_s for r in rows}
        # paper: 295.20 s HDD, 111.92 s SSD, 6.21 s SKT, 4.33 s SCR
        assert t["BLCR+HDD"] == pytest.approx(295.0, rel=0.1)
        assert t["BLCR+SSD"] == pytest.approx(112.0, rel=0.1)
        assert 2.0 < t["SCR+Memory"] < 8.0
        assert 3.0 < t["SKT-HPL"] < 10.0
        assert t["SKT-HPL"] > t["SCR+Memory"]  # bigger workspace to encode

    def test_problem_sizes_scale_with_memory(self, rows):
        n = {r.method: r.problem_size for r in rows}
        assert n["Original HPL"] > n["SKT-HPL"] > n["SCR+Memory"]
        assert n["Original HPL"] == pytest.approx(234240, rel=0.01)


class TestTable3Live:
    """Table 3 raced live: every method runs the real distributed HPL on
    the simulator; nothing here is model-derived."""

    @pytest.fixture(scope="class")
    def rows(self):
        return table3_live_miniature()

    def test_orderings_echo_the_paper(self, rows):
        """Table 3's orderings, measured: SKT-HPL > double > BLCR+HDD in
        efficiency; self-checkpoint < double < buddy in memory overhead."""
        eff = {r.method: r.normalized_efficiency for r in rows}
        mem = {r.method: r.overhead_bytes for r in rows}
        assert eff["Original HPL"] == 1.0
        assert eff["SKT-HPL (self)"] > eff["double"] > eff["BLCR+HDD"]
        assert mem["SKT-HPL (self)"] < mem["double"] < mem["buddy(2)"]

    def test_survival_column(self, rows):
        """Table 3's last column: everything but the unprotected original
        recovers after a node power-off."""
        survive = {r.method: r.survives_poweroff for r in rows}
        assert not survive.pop("Original HPL")
        assert set(survive) >= {"SKT-HPL (self)", "double", "buddy(2)", "BLCR+HDD", "BLCR+SSD"}
        assert all(survive.values()), survive


class TestFig10:
    def test_cycle_phases(self):
        """Fig. 10 on Tianhe-2: detect 63 s, replace 10 s, restart 9 s,
        a checkpoint of a few seconds (2 < checkpoint_s < 20; the paper
        measures 16) and a recovery a little longer than it."""
        t = fig10_restart_cycle()
        assert 2.0 < t.checkpoint_s < 20.0
        # Fig. 10 values: ckpt 16 s, detect 63 s, replace 10 s, restart 9 s,
        # recover 20 s; our modeled ckpt/recover must keep the ordering
        assert t.detect_s == 63.0
        assert t.replace_s == 10.0
        assert t.restart_s == 9.0
        assert t.recover_s > t.checkpoint_s  # recovery a little longer
        assert t.recover_s < 3 * t.checkpoint_s

    def test_live_line_is_pinned(self):
        """The live cycle's means are those of the closed ``ckpt`` /
        ``restore`` spans of one supervised run (``run_with_triggers``)."""
        from repro.analysis.experiments import render_fig10

        assert render_fig10(fig10_restart_cycle()).splitlines()[-1] == (
            "live small-scale cycle (traced, virtual time): checkpoint "
            "0.031 ms, recovery 0.022 ms"
        )


class TestFig11:
    def test_skt_efficiency_above_94pct_of_original(self):
        """§6.4: SKT-HPL achieves 97.8% (TH-1A) / 95.8% (TH-2) of the
        original HPL with near half the memory."""
        for row in fig11_skt_efficiency():
            assert row["skt_vs_original"] > 93.0
            assert row["skt"] < row["original"]

    def test_th1a_less_sensitive_than_th2(self):
        """Fig. 12's observation: memory impact is larger on Tianhe-2."""
        rows = {r["machine"]: r for r in fig11_skt_efficiency()}
        assert (
            rows["Tianhe-1A"]["skt_vs_original"]
            > rows["Tianhe-2"]["skt_vs_original"]
        )


    def test_paper_bands_and_memory_fractions(self):
        """§6.4: 97.81% of original on Tianhe-1A with 47% of memory, 95.79%
        on Tianhe-2 with 44% — the model lands in the 93–99% bands."""
        rows = {r["machine"]: r for r in fig11_skt_efficiency()}
        assert 94.0 < rows["Tianhe-1A"]["skt_vs_original"] < 99.5
        assert 93.0 < rows["Tianhe-2"]["skt_vs_original"] < 99.0
        assert rows["Tianhe-1A"]["memory_fraction"] == pytest.approx(47.0, abs=0.5)
        assert rows["Tianhe-2"]["memory_fraction"] == pytest.approx(44.0, abs=0.5)


class TestFig13:
    def test_shapes(self):
        rows = fig13_encoding_cost()
        th1a = {r["group_size"]: r for r in rows if r["machine"] == "Tianhe-1A"}
        th2 = {r["group_size"]: r for r in rows if r["machine"] == "Tianhe-2"}
        # encode grows slowly with group size on both machines
        for m in (th1a, th2):
            assert m[4]["encode_s"] < m[8]["encode_s"] < m[16]["encode_s"]
            assert m[16]["encode_s"] / m[4]["encode_s"] < 2.0
        # Tianhe-2 encodes slower despite smaller checkpoints
        for g in (4, 8, 16):
            assert th2[g]["ckpt_bytes"] < th1a[g]["ckpt_bytes"]
            assert th2[g]["encode_s"] > th1a[g]["encode_s"]


class TestAblations:
    def test_group_size_tradeoff(self):
        rows = ablation_group_size()
        mems = [r["available_mem_pct"] for r in rows]
        times = [r["encode_s"] for r in rows]
        rel = [r["p_system_ok"] for r in rows]
        assert mems == sorted(mems)  # bigger group, more memory
        assert times == sorted(times)  # ... slower encode
        assert rel == sorted(rel, reverse=True)  # ... less reliable

    def test_group_32_buys_under_two_points_over_16(self):
        """Why the paper picks 16: most of the memory benefit is already
        banked — doubling the group again adds under 2 points."""
        by = {r["group_size"]: r["available_mem_pct"] for r in ablation_group_size()}
        assert 0.0 < by[32] - by[16] < 2.0

    def test_interval_young_is_competitive(self):
        rows = ablation_interval()
        best = min(rows, key=lambda r: r["expected_runtime_s"])
        young = [r for r in rows if r["is_young_optimum"]][0]
        assert young["expected_runtime_s"] <= best["expected_runtime_s"] * 1.02

    def test_encoding_op_exactness(self):
        out = ablation_encoding_op(data_words=3 * 256, group_size=4)
        assert out["xor"]["max_error"] == 0.0
        assert 0.0 <= out["sum"]["max_error"] < 1e-9

    def test_stripe_beats_single_root(self):
        for row in ablation_stripe_vs_single_root():
            assert row["single_root_s"] > 2 * row["stripe_s"]

    def test_rack_mapping_trades_speed_for_rack_tolerance(self):
        """§3.3: the neighbour-preferring (block) mapping encodes fastest but
        a rack loss takes several of a group's stripes; spreading across
        racks caps exposure at one member per rack."""
        by = {r["strategy"]: r for r in ablation_rack_mapping()}
        assert by["block"]["encode_s"] < by["rack-spread"]["encode_s"]
        assert not by["block"]["survives_rack_loss"]
        assert by["rack-spread"]["survives_rack_loss"]
        assert by["rack-spread"]["max_group_members_per_rack"] == 1

    def test_incremental_loses_on_a_full_footprint(self):
        """§1: "incremental checkpoint methods are not efficient for this
        problem" — HPL dirties its whole footprint each interval, where
        incremental loses on time and memory; it wins only when sparse."""
        rows = ablation_incremental(dirty_strides=(1, 2, 8))
        full = next(r for r in rows if r["dirty_fraction"] == 1.0)
        sparse = min(rows, key=lambda r: r["dirty_fraction"])
        assert full["incremental_ckpt_s"] > full["self_ckpt_s"]
        assert full["incremental_overhead_bytes"] > full["self_overhead_bytes"]
        assert sparse["incremental_ckpt_s"] < sparse["self_ckpt_s"]

    def test_double_parity_equals_single_at_half_the_group(self):
        """The RAID-6 extension (§2.1): a second parity stripe costs memory,
        exactly as much as halving the single-parity group would."""
        for r in ablation_double_parity():
            assert r["self_rs_pct"] < r["self_pct"]
            assert r["self_rs_pct"] / 100 == pytest.approx(
                available_fraction_self(r["group_size"] // 2), abs=1e-12
            )


class TestAppsOverhead:
    def test_checkpoints_stay_cheap_on_library_kernels(self):
        """§6.4's >95% for SKT-HPL, as a shape on stencil / CG / n-body:
        in-memory checkpoints cost time but never half the run
        (0.5 < base / with_ckpt <= 1)."""
        rows = apps_overhead()
        assert len(rows) == 3
        for r in rows:
            assert 0.5 < r["base_s"] / r["with_ckpt_s"] <= 1.0, r["kernel"]
