"""Equivalence and zero-copy tests for the batched GF(256) kernels.

Every backend registered in :mod:`repro.ckpt.kernels` must produce
byte-identical parity and reconstructions — the seeded randomized sweeps
here pin batched (numpy, both the table and the forced-bitsliced paths)
against the reference oracle across group sizes 4–12, stripe sizes down
to one byte, and every RAID-6 erasure combination.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.ckpt import kernels as K
from repro.ckpt.raid6 import GF256, RSCodec
from repro.ckpt.stripes import _stripe_matrix
from repro.ckpt.stripes_rs import (
    build_parity,
    padded_size_rs,
    reconstruct_rs,
    verify_group_rs,
)
from repro.util.rng import seeded_rng

#: stripe sizes: one byte, ragged (non-multiple-of-8), word-aligned,
#: non-power-of-two, and past the bitslice crossover
STRIPE_SIZES = (1, 7, 8, 24, 250, 1024)


def _data(rng, k, size):
    return [rng.integers(0, 256, size=size).astype(np.uint8) for _ in range(k)]


def _all_backends():
    """One instance of every backend variant under equivalence test."""
    return [
        K.ReferenceKernels(),
        K.NumpyKernels(),
        K.NumpyKernels(bitslice_min_bytes=0),  # force the uint64 lanes
    ]


class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(K.BACKEND_ENV, raising=False)
        assert K.resolve_backend_name() == "numpy"

    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv(K.BACKEND_ENV, "reference")
        assert K.resolve_backend_name() == "reference"

    def test_explicit_name_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(K.BACKEND_ENV, "reference")
        assert K.resolve_backend_name("numpy") == "numpy"

    def test_unknown_name_is_an_error_naming_the_env_var(self, monkeypatch):
        monkeypatch.setenv(K.BACKEND_ENV, "turbo")
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            K.resolve_backend_name()

    def test_numba_unavailable_is_a_clear_error(self):
        """The compiled backend and ``auto`` are gone: asking for either
        is the same unknown-name error, listing what exists."""
        for name in ("numba", "auto"):
            with pytest.raises(ValueError, match="numpy, reference"):
                K.make_backend(name)

    def test_available_backends_listing(self):
        assert K.available_backends() == ["numpy", "reference"]

    def test_use_backend_installs(self, monkeypatch):
        monkeypatch.setenv(K.BACKEND_ENV, "numpy")  # so undo() restores it
        installed = K.use_backend("reference")
        assert K.get_kernels() is installed and installed.name == "reference"
        # recorded where worker processes started later will find it
        assert K.resolve_backend_name() == "reference"
        monkeypatch.undo()
        assert K.use_backend().name == K.resolve_backend_name()


class TestEncodeEquivalence:
    def test_rscodec_encode_matches_reference_everywhere(self):
        rng = seeded_rng(101)
        ref = K.ReferenceKernels()
        others = [K.NumpyKernels(), K.NumpyKernels(bitslice_min_bytes=0)]
        for k in range(2, 11):  # group sizes 4..12 -> 2..10 data stripes
            for size in STRIPE_SIZES:
                bufs = _data(rng, k, size)
                out_p = np.empty(size, dtype=np.uint8)
                out_q = np.empty(size, dtype=np.uint8)
                ref.encode_pq(bufs, out_p, out_q)
                for backend in others:
                    p = np.empty(size, dtype=np.uint8)
                    q = np.empty(size, dtype=np.uint8)
                    backend.encode_pq(bufs, p, q)
                    assert np.array_equal(p, out_p), (backend.name, k, size)
                    assert np.array_equal(q, out_q), (backend.name, k, size)

    def test_gpow_fold_arbitrary_exponents(self):
        rng = seeded_rng(102)
        gf = GF256()
        for exps in ([0], [3], [0, 5], [2, 3, 9], [1, 4, 6, 11]):
            for size in (1, 13, 64, 4096):
                rows = _data(rng, len(exps), size)
                want = np.zeros(size, dtype=np.uint8)
                for r, e in zip(rows, exps):
                    gf.vec_mul_xor(gf.pow_g(e), r, want)
                for backend in _all_backends():
                    out = np.empty(size, dtype=np.uint8)
                    backend.gpow_fold(rows, exps, out)
                    assert np.array_equal(out, want), (backend.name, exps, size)

    def test_scale_every_constant(self):
        rng = seeded_rng(103)
        gf = GF256()
        v = rng.integers(0, 256, size=4101).astype(np.uint8)
        for c in list(range(0, 16)) + [37, 128, 200, 255]:
            want = gf.vec_mul(c, v)
            for backend in _all_backends():
                out = np.empty_like(v)
                backend.scale(c, v, out)
                assert np.array_equal(out, want), (backend.name, c)
                # aliased out is explicitly supported
                aliased = v.copy()
                backend.scale(c, aliased, aliased)
                assert np.array_equal(aliased, want), (backend.name, c)

    def test_unaligned_views_and_ragged_tails(self):
        """The uint64 head / uint8 tail split must be byte-exact at any
        slice offset and any non-multiple-of-8 length."""
        rng = seeded_rng(104)
        ref = K.ReferenceKernels()
        forced = K.NumpyKernels(bitslice_min_bytes=0)
        base = rng.integers(0, 256, size=8192 + 3).astype(np.uint8)
        for offset, length in ((1, 8190), (3, 21), (5, 8), (2, 8189)):
            rows = [
                base[offset : offset + length],
                np.flip(base[: length]).copy(),
            ]
            want = np.empty(length, dtype=np.uint8)
            got = np.empty(length, dtype=np.uint8)
            ref.gpow_fold(rows, [2, 7], want)
            forced.gpow_fold(rows, [2, 7], got)
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
                for backend in _all_backends():
                    install(backend)
                    # single data loss: via both parities, P only, Q only
                    for x in range(k):
                        surv = {j: bufs[j] for j in range(k) if j != x}
                        for pp, qq in ((p, q), (p, None), (None, q)):
                            got = codec.decode(surv, pp, qq)
                            assert np.array_equal(got[x], bufs[x]), (
                                backend.name, k, size, x, pp is None,
                            )
                    # double data loss
                    for x, y in itertools.combinations(range(k), 2):
                        surv = {
                            j: bufs[j] for j in range(k) if j not in (x, y)
                        }
                        got = codec.decode(surv, p, q)
                        assert np.array_equal(got[x], bufs[x])
                        assert np.array_equal(got[y], bufs[y])

    def test_decode_writes_through_out_views(self, install):
        rng = seeded_rng(106)
        k, size = 5, 40
        bufs = _data(rng, k, size)
        codec = RSCodec(k)
        p, q = codec.encode(bufs)
        for backend in _all_backends():
            install(backend)
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
            install(K.ReferenceKernels())
            want = [(p.copy(), q.copy()) for p, q in build_parity(bufs, n)]
            for backend in _all_backends():
                install(backend)
                got = build_parity(bufs, n)
                for m in range(n):
                    assert np.array_equal(got[m][0], want[m][0]), (backend.name, n, m)
                    assert np.array_equal(got[m][1], want[m][1]), (backend.name, n, m)
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
            for backend in _all_backends():
                install(backend)
                for miss in subsets:
                    surv = {j: bufs[j] for j in range(n) if j not in miss}
                    survp = {
                        j: golden[j] for j in range(n) if j not in miss
                    }
                    out = reconstruct_rs(surv, survp, list(miss), n)
                    for m in miss:
                        buf, (pp, qq) = out[m]
                        assert np.array_equal(buf, bufs[m]), (backend.name, n, miss)
                        assert np.array_equal(pp, golden[m][0])
                        assert np.array_equal(qq, golden[m][1])


class TestZeroCopy:
    def test_stripe_matrix_is_a_view(self):
        buf = np.arange(64, dtype=np.uint8)
        mat = _stripe_matrix(buf, 4)
        assert mat.base is buf
        mat[2, 0] ^= 0xFF
        assert buf[32] == (32 ^ 0xFF)

    def test_build_parity_allocates_only_parity_matrices(self, install):
        """tracemalloc bound: the reshape-view encode path must not copy
        member buffers — peak allocation stays at the (N, 2, stripe)
        parity block plus per-call kernel scratch, far below one member
        copy.  (The bound is the numpy backend's; the reference oracle
        gathers into temporaries.)"""
        install(K.NumpyKernels())
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
