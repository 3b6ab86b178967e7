"""Tests for the alpha-beta network cost model."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import NetworkModel, NetworkParams


@pytest.fixture
def model():
    return NetworkModel(NetworkParams(latency_s=1e-6, bandwidth_Bps=1e9))


class TestParams:
    def test_defaults_valid(self):
        NetworkParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_s": -1e-6},
            {"bandwidth_Bps": 0},
            {"procs_per_port": 0},
            # NaN passes a plain `< 0` check, and message and collective
            # clocks are set from these terms without a finite check: a
            # barrier job would complete with makespan NaN
            {"latency_s": float("nan")},
            {"latency_s": float("inf")},
            {"bandwidth_Bps": float("nan")},
            {"stripe_round_overhead": float("nan")},
            {"procs_per_port": float("nan")},
            {"procs_per_port": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NetworkParams(**kwargs)

    def test_port_sharing_divides_bandwidth(self):
        p = NetworkParams(bandwidth_Bps=24e9, procs_per_port=24)
        assert p.per_process_bandwidth_Bps == pytest.approx(1e9)


class TestP2P:
    def test_latency_plus_bandwidth(self, model):
        assert model.p2p_time(1_000_000) == pytest.approx(1e-6 + 1e-3)

    def test_contended_is_slower(self):
        m = NetworkModel(NetworkParams(bandwidth_Bps=1e9, procs_per_port=4))
        assert m.p2p_time(10**6, contended=True) > m.p2p_time(10**6)

    def test_zero_bytes_costs_latency(self, model):
        assert model.p2p_time(0) == pytest.approx(1e-6)


class TestCollectives:
    def test_bcast_log_scaling(self, model):
        assert model.bcast_time(1000, 16) == pytest.approx(
            4 * model.p2p_time(1000)
        )

    def test_single_proc_collectives_free(self, model):
        assert model.bcast_time(1000, 1) == 0.0
        assert model.allgather_time(1000, 1) == 0.0
        assert model.gather_time(1000, 1) == 0.0

    def test_allreduce_is_reduce_plus_bcast(self, model):
        assert model.allreduce_time(1000, 8) == pytest.approx(
            model.reduce_time(1000, 8) + model.bcast_time(1000, 8)
        )

    def test_gather_linear_in_ranks(self, model):
        assert model.gather_time(100, 9) == pytest.approx(8 * model.p2p_time(100))

    def test_barrier_latency_only(self, model):
        t4, t16 = model.barrier_time(4), model.barrier_time(16)
        assert 0 < t4 < t16 < 1e-3

    @given(
        nbytes=st.integers(min_value=8, max_value=2**30),
        nprocs=st.integers(min_value=2, max_value=4096),
    )
    def test_costs_positive_and_finite(self, nbytes, nprocs):
        m = NetworkModel(NetworkParams())
        for fn in (m.bcast_time, m.reduce_time):
            t = fn(nbytes, nprocs)
            assert 0 < t < 1e6


class TestStripeEncode:
    def test_grows_slowly_with_group_size(self, model):
        """Fig. 13: encode time grows slowly with group size."""
        m = 512 * 2**20
        t4 = model.stripe_encode_time(m, 4)
        t8 = model.stripe_encode_time(m, 8)
        t16 = model.stripe_encode_time(m, 16)
        assert t4 < t8 < t16
        # doubling the group size must not come close to doubling the time
        assert t16 / t4 < 1.5

    def test_port_sharing_dominates_group_size(self):
        """Fig. 13: Tianhe-2 encodes slower than Tianhe-1A despite smaller
        checkpoints, because 24 (vs 12) processes share one port."""
        th1a = NetworkModel(
            NetworkParams(bandwidth_Bps=6.9e9, procs_per_port=12)
        )
        th2 = NetworkModel(NetworkParams(bandwidth_Bps=7.1e9, procs_per_port=24))
        m1, m2 = 1.5 * 2**30, 1.1 * 2**30  # TH-1A ckpt even larger
        assert th2.stripe_encode_time(m2, 8) > th1a.stripe_encode_time(m1, 8)

    def test_single_root_worse_than_stripes(self, model):
        """The stripe layout avoids the root bottleneck (paper §2.1)."""
        m = 256 * 2**20
        for n in (4, 8, 16):
            assert model.single_root_encode_time(m, n) > model.stripe_encode_time(
                m, n
            ) / n  # per-root comparison
            # and N sequential single-root reduces are far worse
            assert n * model.single_root_encode_time(m, n) > model.stripe_encode_time(m, n)

    def test_degenerate_group(self, model):
        assert model.stripe_encode_time(1000, 1) == 0.0
