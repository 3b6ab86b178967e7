"""Tests for group partitioning (§3.3) and the memory model (Table 1, Eqs 2-4),
and of the protocols' live allocation against that model."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt import (
    CheckpointManager,
    available_fraction_double,
    available_fraction_self,
    available_fraction_self_rs,
    available_fraction_single,
    group_reliability,
    memory_breakdown_self,
    partition_groups,
)
from repro.sim import Cluster, Job
from repro.util import GiB


class TestPartitioning:
    def test_stride_groups(self):
        layout = partition_groups(8, 4, strategy="stride")
        assert layout.groups == ((0, 2, 4, 6), (1, 3, 5, 7))
        assert layout.n_groups == 2 and layout.group_size == 4

    def test_block_groups(self):
        layout = partition_groups(8, 4, strategy="block")
        assert layout.groups == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_lookups(self):
        layout = partition_groups(8, 4, strategy="stride")
        assert layout.group_of(3) == 1
        assert layout.group_rank_of(3) == 1
        assert layout.group_rank_of(6) == 3
        with pytest.raises(KeyError):
            layout.group_of(99)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            partition_groups(10, 4)

    def test_group_size_floor(self):
        with pytest.raises(ValueError):
            partition_groups(8, 1)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            partition_groups(8, 4, strategy="chaotic")

    def test_stride_is_node_distinct_for_block_placement(self):
        # 8 ranks, 2 per node -> nodes [0,0,1,1,2,2,3,3]
        ranklist = [r // 2 for r in range(8)]
        layout = partition_groups(8, 4, strategy="stride", ranklist=ranklist)
        layout.validate_node_distinct(ranklist)

    def test_block_violates_node_distinctness(self):
        ranklist = [r // 2 for r in range(8)]
        layout = partition_groups(8, 4, strategy="block")
        with pytest.raises(ValueError, match="co-located"):
            layout.validate_node_distinct(ranklist)

    def test_topology_strategy_always_node_distinct(self):
        # awkward placement: 3 ranks on node0, 3 on node1, 2 on node2
        ranklist = [0, 0, 0, 1, 1, 1, 2, 2]
        layout = partition_groups(8, 2, strategy="topology", ranklist=ranklist)
        layout.validate_node_distinct(ranklist)
        assert sorted(r for g in layout.groups for r in g) == list(range(8))

    def test_topology_needs_ranklist(self):
        with pytest.raises(ValueError):
            partition_groups(8, 4, strategy="topology")

    @given(
        n_groups=st.integers(min_value=1, max_value=8),
        group_size=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_is_exact_cover(self, n_groups, group_size):
        n = n_groups * group_size
        for strategy in ("stride", "block"):
            layout = partition_groups(n, group_size, strategy=strategy)
            all_ranks = sorted(r for g in layout.groups for r in g)
            assert all_ranks == list(range(n))
            assert all(len(g) == group_size for g in layout.groups)


class TestReliability:
    def test_perfect_nodes(self):
        r = group_reliability(4, 8, 0.0)
        assert r["p_group_ok"] == 1.0 and r["p_system_ok"] == 1.0

    def test_smaller_groups_more_tolerable_fraction(self):
        r2 = group_reliability(2, 16, 0.01)
        r16 = group_reliability(16, 2, 0.01)
        assert r2["fraction_tolerable"] == 0.5  # paper: half the processes
        assert r16["fraction_tolerable"] < r2["fraction_tolerable"]

    def test_bigger_group_less_reliable(self):
        p4 = group_reliability(4, 1, 0.05)["p_group_ok"]
        p16 = group_reliability(16, 1, 0.05)["p_group_ok"]
        assert p16 < p4

    def test_validation(self):
        with pytest.raises(ValueError):
            group_reliability(4, 1, 1.5)
        with pytest.raises(ValueError):
            group_reliability(1, 1, 0.1)


class TestMemoryModel:
    @pytest.mark.parametrize(
        "n,single,self_,double",
        [
            (2, 1 / 3, 1 / 4, 1 / 5),
            (16, 15 / 31, 15 / 32, 15 / 47),
        ],
    )
    def test_paper_equations(self, n, single, self_, double):
        assert available_fraction_single(n) == pytest.approx(single)
        assert available_fraction_self(n) == pytest.approx(self_)
        assert available_fraction_double(n) == pytest.approx(double)

    def test_group16_headline_numbers(self):
        """Paper §3.3: group 16 gives 47%, close to the 50% bound; double
        gives ~30.5% (the SCR row of Table 3)."""
        assert available_fraction_self(16) == pytest.approx(0.47, abs=0.005)
        assert available_fraction_double(16) == pytest.approx(0.305, abs=0.015)

    @given(n=st.integers(min_value=2, max_value=1024))
    @settings(max_examples=60, deadline=None)
    def test_ordering_property(self, n):
        """single > self > double for every group size; self < 1/2."""
        s, f, d = (
            available_fraction_single(n),
            available_fraction_self(n),
            available_fraction_double(n),
        )
        assert s > f > d
        assert f < 0.5
        assert d < 1 / 3

    @given(n=st.integers(min_value=2, max_value=512))
    @settings(max_examples=40, deadline=None)
    def test_self_vs_double_improvement_near_50pct(self, n):
        """The headline: self-checkpoint adds almost 50% more available
        memory over double-checkpoint; exactly (N-1)/2N more."""
        gain = available_fraction_self(n) / available_fraction_double(n) - 1
        assert gain == pytest.approx((n - 1) / (2 * n))
        if n >= 8:
            assert gain >= 0.43

    def test_breakdown_matches_table1(self):
        bd = memory_breakdown_self(16 * GiB, 16)
        assert bd.workspace == bd.checkpoint == 16 * GiB
        assert bd.checksum_old == bd.checksum_new == 16 * GiB // 15
        assert bd.total == 2 * 16 * GiB * 16 // 15
        assert bd.available_fraction == pytest.approx(15 / 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            available_fraction_self(1)
        with pytest.raises(ValueError):
            memory_breakdown_self(0, 8)


def live_memory(method: str, group_size: int, array_len: int):
    """Commit ``array_len`` float64s under ``method`` on one group of
    ``group_size`` ranks; every rank's protocol object, in rank order."""

    def app(ctx):
        mgr = CheckpointManager(ctx, ctx.world, group_size=group_size, method=method)
        mgr.alloc("data", array_len)
        mgr.commit()
        return mgr.impl

    res = Job(Cluster(group_size), app, group_size, procs_per_node=1).run()
    assert res.completed
    return [res.rank_results[r] for r in range(group_size)]


#: the available-memory fraction each method's layout implements; buddy is
#: double at N = 2 and multilevel's memory level is double
FRACTION = {
    "self": available_fraction_self,
    "self-rs": available_fraction_self_rs,
    "single": available_fraction_single,
    "double": available_fraction_double,
    "buddy": available_fraction_double,
    "multilevel": available_fraction_double,
}

GROUP_SIZES = {
    "self": range(2, 17),
    "self-rs": range(4, 17),
    "single": range(2, 17),
    "double": range(2, 17),
    "multilevel": range(2, 17),
    "buddy": (2,),
}

ARRAY_LENS = (512, 4096, 4099)


class TestLiveMemory:
    """What the protocols allocate is what Eqs. 2-4 say, to the byte.

    With M = ``protected_bytes`` (the padded workspace ‖ A2 the encoding
    covers) and f the method's available fraction, a method keeps
    M (1/f - 1) bytes of copies and checksums beside the workspace; on top
    come the self methods' SHM shadow of A2 (B2: an 8-byte length header
    plus the A2 capacity) and the control segment (the magic and
    ``N_FLAGS`` epoch flags, 8 bytes each)."""

    @pytest.mark.parametrize(
        "method,n,array_len",
        [
            (method, n, array_len)
            for method, sizes in GROUP_SIZES.items()
            for n in sizes
            for array_len in ARRAY_LENS
        ],
    )
    def test_overhead_is_the_paper_equation(self, method, n, array_len):
        for impl in live_memory(method, n, array_len):
            m = impl.protected_bytes
            f = FRACTION[method](Fraction(n))
            b2 = 8 + impl.layout.a2_capacity if method.startswith("self") else 0
            ctrl = 8 * (1 + impl.N_FLAGS)
            assert impl.overhead_bytes == m * (1 / f - 1) + b2 + ctrl

    @pytest.mark.parametrize("method", ["disk-hdd", "disk-ssd"])
    def test_disk_holds_nothing_in_ram(self, method):
        for impl in live_memory(method, 4, 4096):
            assert impl.overhead_bytes == 0

    @pytest.mark.parametrize("n", [2, 4, 16])
    @pytest.mark.parametrize("array_len", ARRAY_LENS)
    def test_incremental_is_its_docstring_formula(self, n, array_len):
        """B (M) + C and C_undo (M/(N-1) each) + the undo buffer
        (all of M, whole pages) + its page index + control."""
        for impl in live_memory("incremental", n, array_len):
            m = impl.protected_bytes
            pages = -(-m // impl.PAGE_BYTES)
            undo = pages * impl.PAGE_BYTES
            undo_index = 8 * (1 + pages)
            ctrl = 8 * (1 + impl.N_FLAGS)
            assert impl.overhead_bytes == m + 2 * Fraction(m, n - 1) + undo + undo_index + ctrl
