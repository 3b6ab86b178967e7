"""Tests for the efficiency model, machine data, TOP500 data, and cost model."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import (
    TIANHE_1A,
    TIANHE_2,
    TOP10_NOV2016,
    EfficiencyModel,
    efficiency_at_memory_fraction,
    efficiency_lower_bound,
    fit_efficiency_model,
    problem_size_for_memory,
)
from repro.models.ckpt_cost import (
    checkpoint_size_per_process,
    encode_time,
    flush_time,
    recovery_time,
)
from repro.models.efficiency import fit_quality
from repro.models.top500 import average_gain_half_vs_third
from repro.util import GiB


class TestEfficiencyModel:
    def test_monotone_increasing_in_n(self):
        m = EfficiencyModel(a=1.2, b=5000)
        effs = [m.efficiency(n) for n in (1e3, 1e4, 1e5, 1e6)]
        assert effs == sorted(effs)

    def test_asymptote(self):
        m = EfficiencyModel(a=1.25, b=100)
        assert m.asymptote == pytest.approx(0.8)
        assert m.efficiency(1e12) == pytest.approx(0.8, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            EfficiencyModel(a=0.9, b=10)
        with pytest.raises(ValueError):
            EfficiencyModel(a=1.1, b=-1)
        with pytest.raises(ValueError):
            EfficiencyModel(a=1.1, b=1).efficiency(0)

    def test_fit_recovers_exact_parameters(self):
        m = EfficiencyModel(a=1.15, b=20000)
        sizes = np.linspace(3e4, 3e5, 10)
        fit = fit_efficiency_model(sizes, [m.efficiency(n) for n in sizes])
        assert fit.a == pytest.approx(1.15, rel=1e-9)
        assert fit.b == pytest.approx(20000, rel=1e-9)

    def test_fit_quality_r2(self):
        m = EfficiencyModel(a=1.15, b=20000)
        sizes = np.linspace(3e4, 3e5, 10)
        effs = [m.efficiency(n) for n in sizes]
        assert fit_quality(m, sizes, effs) == pytest.approx(1.0)

    def test_fit_input_validation(self):
        with pytest.raises(ValueError):
            fit_efficiency_model([100], [0.5])
        with pytest.raises(ValueError):
            fit_efficiency_model([100, 200], [0.5, 1.5])

    @given(
        a=st.floats(min_value=1.0, max_value=3.0),
        b=st.floats(min_value=0.0, max_value=1e6),
        n=st.floats(min_value=1.0, max_value=1e9),
    )
    @settings(max_examples=80, deadline=None)
    def test_efficiency_bounded_property(self, a, b, n):
        e = EfficiencyModel(a=a, b=b).efficiency(n)
        assert 0 < e <= 1.0

    def test_runtime_decreases_with_peak(self):
        m = EfficiencyModel(a=1.1, b=1000)
        assert m.runtime(1e5, 2e15) < m.runtime(1e5, 1e15)


class TestEq8:
    def test_full_memory_is_identity(self):
        assert efficiency_lower_bound(0.85, 1.0) == pytest.approx(0.85)

    def test_less_memory_less_efficiency(self):
        assert efficiency_lower_bound(0.85, 0.5) < 0.85
        assert efficiency_lower_bound(0.85, 1 / 3) < efficiency_lower_bound(0.85, 0.5)

    @given(
        e1=st.floats(min_value=0.05, max_value=0.99),
        k=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bound_is_a_true_lower_bound(self, e1, k):
        """Eq. 8 must bound the exact model value from below for any a>1."""
        for a in (1.01, 1.2, 2.0):
            if a * e1 >= 1.0:
                continue
            n1 = 1e5
            b = (1 - a * e1) * n1 / e1
            model = EfficiencyModel(a=a, b=b)
            exact = efficiency_at_memory_fraction(model, n1, k)
            bound = efficiency_lower_bound(e1, k)
            assert exact >= bound - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            efficiency_lower_bound(0.5, 0.0)
        with pytest.raises(ValueError):
            efficiency_lower_bound(1.5, 0.5)


class TestProblemSize:
    def test_matches_manual(self):
        assert problem_size_for_memory(8 * 100**2) == 100

    def test_table3_scale(self):
        """128 ranks x 4 GiB at 80% fill gives the paper's N~234240."""
        n = problem_size_for_memory(128 * 4 * GiB, 0.8)
        assert abs(n - 234240) / 234240 < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            problem_size_for_memory(0)


class TestMachines:
    def test_table2_values(self):
        assert TIANHE_1A.node.cores == 12
        assert TIANHE_1A.node.flops == pytest.approx(140e9)
        assert TIANHE_1A.node.mem_bytes == 48 * GiB
        assert TIANHE_2.node.cores == 24
        assert TIANHE_2.node.flops == pytest.approx(422.4e9)
        assert TIANHE_2.node.mem_bytes == 64 * GiB
        assert TIANHE_2.node.net.bandwidth_Bps == pytest.approx(7.1e9)

    def test_memory_per_core_ordering(self):
        """Table 2's observation: Tianhe-1A has MORE memory per core."""
        assert TIANHE_1A.node.mem_per_core > TIANHE_2.node.mem_per_core

    def test_nodes_for_ranks(self):
        assert TIANHE_2.nodes_for_ranks(24576) == 1024
        assert TIANHE_1A.nodes_for_ranks(1536) == 128


class TestTop500:
    def test_ten_systems(self):
        assert len(TOP10_NOV2016) == 10
        assert TOP10_NOV2016[0].name == "TaihuLight"

    def test_efficiencies_sane(self):
        for s in TOP10_NOV2016:
            assert 0.4 < s.efficiency < 1.0

    def test_projection_ordering(self):
        for s in TOP10_NOV2016:
            assert (
                s.projected_efficiency(1 / 3)
                < s.projected_efficiency(0.5)
                < s.efficiency
            )

    def test_average_gain_positive(self):
        """Fig. 8: more memory -> more efficiency, a multi-point average."""
        assert 2.0 < average_gain_half_vs_third() < 15.0


class TestCkptCost:
    def test_checkpoint_size_near_half_memory(self):
        """Fig. 13 right panel: ckpt is close to half the per-core memory
        and not very sensitive to group size."""
        sizes = [checkpoint_size_per_process(TIANHE_2, g) for g in (4, 8, 16)]
        for s in sizes:
            assert 0.35 * TIANHE_2.node.mem_per_core < s < 0.5 * TIANHE_2.node.mem_per_core
        assert max(sizes) / min(sizes) < 1.3

    def test_encode_time_grows_slowly(self):
        ts = [encode_time(TIANHE_2, g) for g in (4, 8, 16)]
        assert ts == sorted(ts)
        assert ts[-1] / ts[0] < 2.0

    def test_tianhe2_slower_than_tianhe1a(self):
        """Fig. 13 left panel: port sharing dominates."""
        assert encode_time(TIANHE_2, 8) > encode_time(TIANHE_1A, 8)

    def test_recovery_slower_than_encode(self):
        """§6.3: recovery (20 s) takes a little longer than checkpoint (16 s)."""
        for m in (TIANHE_1A, TIANHE_2):
            e, r = encode_time(m, 8), recovery_time(m, 8)
            assert e < r < 3 * e

    def test_flush_under_a_second_at_paper_scale(self):
        """§6.6: 'local overwriting time is normally less than one second'."""
        size = checkpoint_size_per_process(TIANHE_2, 16)
        assert flush_time(TIANHE_2, size) < 1.0
