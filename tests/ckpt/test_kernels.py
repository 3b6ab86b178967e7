"""Equivalence, zero-copy and protocol tests for the GF(256) folds.

Each fold in :mod:`repro.ckpt.kernels` picks the table gather or the
bitsliced uint64 lanes by stripe size, and both must produce
byte-identical parity and reconstructions — the seeded randomized sweeps
here pin every path (the default split, and each algorithm forced on
every stripe through ``BITSLICE_MIN_BYTES``) against the table-gather
oracle across group sizes 4–12, stripe sizes down to one byte, and every
RAID-6 erasure combination; :class:`TestProtocolPaths` runs both
algorithms through the checkpoint protocols end to end.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.ckpt import kernels as K
from repro.ckpt.kernels import GF256, RSCodec
from repro.ckpt.stripes import _stripe_matrix
from repro.ckpt.stripes_rs import (
    build_parity,
    padded_size_rs,
    reconstruct_rs,
    verify_group_rs,
)
from repro.sim import Cluster, FailurePlan, Job, PhaseTrigger
from repro.util.rng import seeded_rng
from tests.ckpt.conftest import assert_final_state, make_app

#: stripe sizes: one byte, ragged (non-multiple-of-8), word-aligned,
#: non-power-of-two, and past the bitslice crossover
STRIPE_SIZES = (1, 7, 8, 24, 250, 1024)


def _data(rng, k, size):
    return [rng.integers(0, 256, size=size).astype(np.uint8) for _ in range(k)]


#: ``BITSLICE_MIN_BYTES`` that puts every stripe on the table gather
TABLE = 1 << 62
#: ``BITSLICE_MIN_BYTES`` that puts every stripe on the bitsliced lanes
LANES = 0
#: every fold path under equivalence test: name -> ``BITSLICE_MIN_BYTES``
PATHS = {"table": TABLE, "default": K.BITSLICE_MIN_BYTES, "lanes": LANES}
#: float64 words per rank in the protocol runs: with a group of 4 every
#: stripe of ``self`` and ``self-rs`` is past ``BITSLICE_MIN_BYTES``
PROTOCOL_ARRAY_LEN = 2048


class TestEncodeEquivalence:
    def test_rscodec_encode_matches_reference_everywhere(self, install):
        rng = seeded_rng(101)
        for k in range(2, 11):  # group sizes 4..12 -> 2..10 data stripes
            codec = RSCodec(k)
            for size in STRIPE_SIZES:
                bufs = _data(rng, k, size)
                want_p = np.empty(size, dtype=np.uint8)
                want_q = np.empty(size, dtype=np.uint8)
                K.xor_fold(bufs, want_p)
                K._gpow_fold_table(bufs, range(k), want_q)
                for path, min_bytes in PATHS.items():
                    install(min_bytes)
                    p, q = codec.encode(bufs)
                    assert np.array_equal(p, want_p), (path, k, size)
                    assert np.array_equal(q, want_q), (path, k, size)

    def test_gpow_fold_arbitrary_exponents(self, install):
        rng = seeded_rng(102)
        gf = GF256()
        for exps in ([0], [3], [0, 5], [2, 3, 9], [1, 4, 6, 11]):
            for size in (1, 13, 64, 4096):
                rows = _data(rng, len(exps), size)
                want = np.zeros(size, dtype=np.uint8)
                for r, e in zip(rows, exps):
                    gf.vec_mul_xor(gf.pow_g(e), r, want)
                for path, min_bytes in PATHS.items():
                    install(min_bytes)
                    out = np.empty(size, dtype=np.uint8)
                    K.gpow_fold(rows, exps, out)
                    assert np.array_equal(out, want), (path, exps, size)

    def test_scale_every_constant(self, install):
        rng = seeded_rng(103)
        gf = GF256()
        v = rng.integers(0, 256, size=4101).astype(np.uint8)
        for c in list(range(0, 16)) + [37, 128, 200, 255]:
            want = gf.vec_mul(c, v)
            for path, min_bytes in PATHS.items():
                install(min_bytes)
                out = np.empty_like(v)
                K.scale(c, v, out)
                assert np.array_equal(out, want), (path, c)
                # aliased out is explicitly supported
                aliased = v.copy()
                K.scale(c, aliased, aliased)
                assert np.array_equal(aliased, want), (path, c)

    def test_unaligned_views_and_ragged_tails(self):
        """The uint64 head / uint8 tail split must be byte-exact at any
        slice offset and any non-multiple-of-8 length."""
        rng = seeded_rng(104)
        base = rng.integers(0, 256, size=8192 + 3).astype(np.uint8)
        for offset, length in ((1, 8190), (3, 21), (5, 8), (2, 8189)):
            rows = [
                base[offset : offset + length],
                np.flip(base[: length]).copy(),
            ]
            want = np.empty(length, dtype=np.uint8)
            got = np.empty(length, dtype=np.uint8)
            K._gpow_fold_table(rows, [2, 7], want)
            K._gpow_fold_lanes(rows, [2, 7], got)
            assert np.array_equal(got, want), (offset, length)


class TestDecodeEquivalence:
    def test_every_erasure_combination_across_backends(self, install):
        rng = seeded_rng(105)
        for k in range(2, 11):
            sizes = (1, 24) if k != 6 else (1, 24, 4101)
            for size in sizes:
                bufs = _data(rng, k, size)
                codec = RSCodec(k)
                p, q = codec.encode(bufs)
                for path, min_bytes in PATHS.items():
                    install(min_bytes)
                    # single data loss: via both parities, P only, Q only
                    for x in range(k):
                        surv = {j: bufs[j] for j in range(k) if j != x}
                        for pp, qq in ((p, q), (p, None), (None, q)):
                            got = codec.decode(surv, pp, qq)
                            assert np.array_equal(got[x], bufs[x]), (
                                path, k, size, x, pp is None,
                            )
                    # double data loss
                    for x, y in itertools.combinations(range(k), 2):
                        surv = {
                            j: bufs[j] for j in range(k) if j not in (x, y)
                        }
                        got = codec.decode(surv, p, q)
                        assert np.array_equal(got[x], bufs[x]), (path, k, size)
                        assert np.array_equal(got[y], bufs[y]), (path, k, size)

    def test_decode_writes_through_out_views(self, install):
        rng = seeded_rng(106)
        k, size = 5, 40
        bufs = _data(rng, k, size)
        codec = RSCodec(k)
        p, q = codec.encode(bufs)
        for min_bytes in PATHS.values():
            install(min_bytes)
            target = np.zeros((2, size), dtype=np.uint8)
            outs = {1: target[0], 3: target[1]}
            surv = {j: bufs[j] for j in range(k) if j not in (1, 3)}
            got = codec.decode(surv, p, q, out=outs)
            assert got[1] is outs[1] and got[3] is outs[3]
            assert np.array_equal(target[0], bufs[1])
            assert np.array_equal(target[1], bufs[3])


class TestStripePathEquivalence:
    def test_build_parity_and_verify_across_group_sizes(self, install):
        rng = seeded_rng(107)
        for n in range(4, 13):
            size = padded_size_rs(257, n)
            bufs = _data(rng, n, size)
            install(TABLE)
            want = [(p.copy(), q.copy()) for p, q in build_parity(bufs, n)]
            for path, min_bytes in PATHS.items():
                install(min_bytes)
                got = build_parity(bufs, n)
                for m in range(n):
                    assert np.array_equal(got[m][0], want[m][0]), (path, n, m)
                    assert np.array_equal(got[m][1], want[m][1]), (path, n, m)
                assert verify_group_rs(bufs, want, n)
                corrupt = [(p.copy(), q.copy()) for p, q in want]
                corrupt[0] = (corrupt[0][0] ^ np.uint8(1), corrupt[0][1])
                assert not verify_group_rs(bufs, corrupt, n)

    def test_reconstruct_all_loss_patterns_across_backends(self, install):
        rng = seeded_rng(108)
        for n in (4, 7, 12):
            size = padded_size_rs(500, n)
            bufs = _data(rng, n, size)
            parity = build_parity(bufs, n)
            golden = [(p.copy(), q.copy()) for p, q in parity]
            subsets = list(itertools.combinations(range(n), 1)) + list(
                itertools.combinations(range(n), 2)
            )
            for path, min_bytes in PATHS.items():
                install(min_bytes)
                for miss in subsets:
                    surv = {j: bufs[j] for j in range(n) if j not in miss}
                    survp = {
                        j: golden[j] for j in range(n) if j not in miss
                    }
                    out = reconstruct_rs(surv, survp, list(miss), n)
                    for m in miss:
                        buf, (pp, qq) = out[m]
                        assert np.array_equal(buf, bufs[m]), (path, n, miss)
                        assert np.array_equal(pp, golden[m][0])
                        assert np.array_equal(qq, golden[m][1])


def _lose_and_restore(method, lost):
    """Kill the nodes ``lost`` (ranks of one group of 4) in the flush of
    the last checkpoint, restart onto spares, and restore: the rerun
    rebuilds the lost members' workspace and checksum segments and has
    no iteration left, so the rebuilt ``C`` / ``D`` are what it leaves."""
    app = make_app(method, group_size=4, array_len=PROTOCOL_ARRAY_LEN)
    cluster = Cluster(4, n_spares=2)
    plan = FailurePlan(
        [
            PhaseTrigger(
                node_id=lost[0],
                phase="ckpt.flush",
                occurrence=3,
                extra_nodes=lost[1:],
            )
        ]
    )
    job = Job(cluster, app, 4, procs_per_node=1, failure_plan=plan)
    first = job.run()
    assert first.aborted and set(first.failed_nodes) == set(lost)
    repl = cluster.replace_dead()
    ranklist = [repl.get(n, n) for n in job.ranklist]
    second = Job(cluster, app, 4, ranklist=ranklist).run()
    assert_final_state(second, 4)
    assert set(second.rank_results[0]["restore"].reconstructed) == set(lost)
    return {
        seg.name: seg.array.tobytes()
        for node in cluster.all_nodes()
        for seg in node.shm
        if seg.name.endswith((".C", ".D"))
    }


class TestProtocolPaths:
    """Both fold algorithms end to end through a checkpoint protocol:
    forcing every stripe onto the table gather and then onto the lanes
    must restore the same state and leave the same checksum bytes."""

    @pytest.mark.parametrize(
        "method, lost",
        [("self", (1,)), ("self-rs", (1, 2))],
        ids=["self-loses-1", "self-rs-loses-2"],
    )
    def test_table_and_lanes_restore_the_same_bytes(self, method, lost, install):
        segments = {}
        for path, min_bytes in (("lanes", LANES), ("table", TABLE)):
            install(min_bytes)
            segments[path] = _lose_and_restore(method, lost)
        assert len(segments["lanes"]) == 8  # C and D of every rank
        assert segments["lanes"] == segments["table"]


class TestZeroCopy:
    def test_stripe_matrix_is_a_view(self):
        buf = np.arange(64, dtype=np.uint8)
        mat = _stripe_matrix(buf, 4)
        assert mat.base is buf
        mat[2, 0] ^= 0xFF
        assert buf[32] == (32 ^ 0xFF)

    def test_build_parity_allocates_only_parity_matrices(self):
        """tracemalloc bound: the reshape-view encode path must not copy
        member buffers — peak allocation stays at the (N, 2, stripe)
        parity block plus per-call kernel scratch, far below one member
        copy.  (These stripes are past ``BITSLICE_MIN_BYTES``, so the
        bound is the lanes'; the table gather scales into a temporary
        per row.)"""
        n = 6
        size = padded_size_rs(96 * 1024, n)
        rng = seeded_rng(111)
        bufs = _data(rng, n, size)
        build_parity(bufs, n)  # warm caches (layout, codec, tables)
        stripe_size = size // (n - 2)
        parity_bytes = 2 * n * stripe_size
        tracemalloc.start()
        build_parity(bufs, n)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # one member buffer is `size` bytes; copying even one would blow
        # this bound (parity + lane scratch + slack)
        assert peak <= parity_bytes + 4 * stripe_size + 64 * 1024, (
            peak, parity_bytes, size,
        )

    def test_reconstruct_writes_through_contiguous_rebuilt_buffers(self):
        rng = seeded_rng(112)
        n = 6
        size = padded_size_rs(4096, n)
        bufs = _data(rng, n, size)
        parity = build_parity(bufs, n)
        surv = {j: bufs[j] for j in range(n) if j != 2}
        survp = {j: parity[j] for j in range(n) if j != 2}
        out = reconstruct_rs(surv, survp, [2], n)
        buf, _ = out[2]
        assert buf.flags["C_CONTIGUOUS"]
        assert buf.dtype == np.uint8 and buf.shape == (size,)
        assert np.array_equal(buf, bufs[2])
