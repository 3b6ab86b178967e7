"""Tests for the cached stripe layout and codec reuse at ``m = 2``, and
the zero-copy contract of the (P, Q) paths."""

import numpy as np
import pytest

from repro.ckpt.raid6 import RSCodec, codec_for
from repro.ckpt.stripes import _stripe_matrix, layout_for
from repro.ckpt.stripes_rs import (
    build_parity,
    padded_size_rs,
    reconstruct_rs,
    verify_group_rs,
)
from repro.util.rng import seeded_rng


def _group(n, words_per_stripe=4, seed=0):
    rng = seeded_rng(seed)
    size = 8 * (n - 2) * words_per_stripe
    return [
        rng.integers(0, 256, size=size).astype(np.uint8) for _ in range(n)
    ]


def _row_of(layout):
    """``{(member, local stripe): slot row}`` — the inverse of the
    layout's per-row cells."""
    return {
        cell: row for row, (_, cells) in enumerate(layout.rows) for cell in cells
    }


class TestGroupLayout:
    def test_cached_identity(self):
        assert layout_for(6, 2) is layout_for(6, 2)
        assert layout_for(6, 2) is not layout_for(6, 1)
        assert codec_for(4, 2) is codec_for(4, 2)
        assert isinstance(codec_for(4, 2), RSCodec)

    def test_rows_partition_roles(self):
        for n in (4, 5, 6, 8):
            layout = layout_for(n, 2)
            for row, ((p, q), cells) in enumerate(layout.rows):
                assert q == (row + 1) % n and p == row % n
                assert [j for j, _ in cells] == sorted(set(range(n)) - {p, q})

    def test_every_member_hosts_n_minus_2_data_stripes(self):
        n = 6
        row_of = _row_of(layout_for(n, 2))
        for member in range(n):
            stripes = [s for (m, s) in row_of if m == member]
            assert sorted(stripes) == list(range(n - 2))

    def test_maps_are_mutually_inverse(self):
        """Each member hands out its stripes in row order, once each."""
        n = 7
        layout = layout_for(n, 2)
        row_of = _row_of(layout)
        assert len(row_of) == n * (n - 2)  # no (member, stripe) cell repeats
        for member in range(n):
            rows = [row_of[(member, s)] for s in range(n - 2)]
            assert rows == sorted(rows)
            assert all(member not in layout.rows[r][0] for r in rows)

    def test_row_roles_wrapper_matches_layout(self):
        """``n_stripes`` and the row table agree."""
        n = 5
        layout = layout_for(n, 2)
        assert layout.n_stripes == n - 2
        assert all(len(cells) == n - 2 for _, cells in layout.rows)

    def test_small_group_rejected(self):
        with pytest.raises(ValueError):
            layout_for(3, 2)
        with pytest.raises(ValueError):
            padded_size_rs(64, 3)


class TestVerifyShortCircuit:
    def test_clean_group_verifies(self):
        n = 6
        bufs = _group(n)
        parity = build_parity(bufs, n)
        assert verify_group_rs(bufs, parity, n)

    def test_corrupt_buffer_detected(self):
        n = 6
        bufs = _group(n)
        parity = build_parity(bufs, n)
        bufs[2][0] ^= 0xFF
        assert not verify_group_rs(bufs, parity, n)

    def test_returns_at_first_mismatching_row(self, monkeypatch):
        """A corrupted row-0 parity must be caught after one row's
        encode, not after materializing all N fresh parity pairs."""
        n = 6
        bufs = _group(n)
        parity = build_parity(bufs, n)
        p0, q0 = parity[0]
        parity[0] = (p0 ^ np.uint8(1), q0)  # corrupt P of row 0

        calls = {"n": 0}
        real_encode = RSCodec.encode

        def counting_encode(self, buffers, *outs):
            calls["n"] += 1
            return real_encode(self, buffers, *outs)

        monkeypatch.setattr(RSCodec, "encode", counting_encode)
        assert not verify_group_rs(bufs, parity, n)
        assert calls["n"] == 1


class TestZeroCopyStripes:
    """The zero-copy contract of the (P, Q) kernels: stripe access and
    parity unpacking are views, and the kernels never mutate inputs."""

    def test_stripe_is_a_view(self):
        buf = np.arange(64, dtype=np.uint8)
        s = _stripe_matrix(buf, 4)[1]
        assert np.shares_memory(s, buf)
        s[0] = 0xAA  # writes through to the buffer
        assert buf[16] == 0xAA

    def test_unpack_parity_returns_views(self):
        """A member's checksum segment splits into its (P, Q) stripes by
        a reshape — views of the segment, P first."""
        blob = np.arange(32, dtype=np.uint8)
        p, q = blob.reshape(2, -1)
        assert p.base is blob and q.base is blob
        np.testing.assert_array_equal(p, blob[:16])
        np.testing.assert_array_equal(q, blob[16:])

    def test_pack_unpack_parity_roundtrip(self):
        """The segment a protocol stores is ``block[member]`` flattened —
        P ‖ Q, without a pack copy — and feeding segments back rebuilds."""
        n = 5
        bufs = _group(n)
        parity = build_parity(bufs, n)
        blob = parity[2].reshape(-1)
        assert np.shares_memory(blob, parity)
        half = len(blob) // 2
        np.testing.assert_array_equal(blob[:half], parity[2][0])
        np.testing.assert_array_equal(blob[half:], parity[2][1])
        out = reconstruct_rs(
            {m: bufs[m] for m in range(n) if m != 2},
            {m: parity[m].reshape(-1).reshape(2, -1) for m in range(n) if m != 2},
            [2],
            n,
        )
        np.testing.assert_array_equal(out[2][1].reshape(-1), blob)

    def test_build_parity_does_not_mutate_buffers(self):
        n = 6
        bufs = _group(n)
        before = [b.copy() for b in bufs]
        build_parity(bufs, n)
        for b, orig in zip(bufs, before):
            np.testing.assert_array_equal(b, orig)

    def test_reconstruct_with_view_parity_matches_copies(self):
        """Recovery fed parity *views* of a checksum segment rebuilds
        byte-identically to recovery fed copies, and never writes through
        the views into survivor state."""
        n = 6
        bufs = _group(n)
        parity = build_parity(bufs, n)
        missing = [1, 4]

        def run(as_views):
            survivors, sp = {}, {}
            blobs = {}
            for m in range(n):
                if m in missing:
                    continue
                p, q = parity[m]
                blob = np.empty(p.nbytes + q.nbytes, dtype=np.uint8)
                blob[: p.nbytes] = p
                blob[p.nbytes :] = q
                blobs[m] = blob
                if as_views:
                    sp[m] = (blob[: p.nbytes], blob[p.nbytes :])
                else:
                    sp[m] = (blob[: p.nbytes].copy(), blob[p.nbytes :].copy())
                survivors[m] = bufs[m]
            out = reconstruct_rs(survivors, sp, missing, n)
            return out, blobs

        out_views, blobs = run(as_views=True)
        out_copies, _ = run(as_views=False)
        for m in missing:
            np.testing.assert_array_equal(out_views[m][0], bufs[m])
            np.testing.assert_array_equal(out_views[m][0], out_copies[m][0])
            np.testing.assert_array_equal(out_views[m][1][0], out_copies[m][1][0])
            np.testing.assert_array_equal(out_views[m][1][1], out_copies[m][1][1])
        # survivor parity blobs were read, never written
        for m, blob in blobs.items():
            p, q = parity[m]
            np.testing.assert_array_equal(blob[: p.nbytes], p)
            np.testing.assert_array_equal(blob[p.nbytes :], q)


class TestParityRebuild:
    """Regression tests for the lost-parity rebuild path: a failed
    member's (P, Q) pair must be re-encoded exactly — the old code
    silently returned zero-filled parity when the re-encode row loop
    missed a holder, which is now an assertion instead of a fallback."""

    @pytest.mark.parametrize("lost", range(6))
    def test_single_loss_rebuilds_exact_parity(self, lost):
        n = 6
        bufs = _group(n, seed=21)
        golden = build_parity(bufs, n)
        survivors = {m: bufs[m] for m in range(n) if m != lost}
        sp = {m: golden[m] for m in range(n) if m != lost}
        out = reconstruct_rs(survivors, sp, [lost], n)
        buf, (p, q) = out[lost]
        np.testing.assert_array_equal(buf, bufs[lost])
        np.testing.assert_array_equal(p, golden[lost][0])
        np.testing.assert_array_equal(q, golden[lost][1])
        assert p.any() or q.any()  # zero-filled fallback would be caught

    @pytest.mark.parametrize(
        "missing", [(0, 1), (2, 3), (4, 5), (0, 5), (1, 4)]
    )
    def test_double_loss_rebuilds_exact_parity(self, missing):
        """Includes adjacent pairs, where both parity rows a single
        stripe row needs (P on m, Q on m+1) are lost together."""
        n = 6
        bufs = _group(n, seed=22)
        golden = build_parity(bufs, n)
        survivors = {m: bufs[m] for m in range(n) if m not in missing}
        sp = {m: golden[m] for m in range(n) if m not in missing}
        out = reconstruct_rs(survivors, sp, list(missing), n)
        for m in missing:
            buf, (p, q) = out[m]
            np.testing.assert_array_equal(buf, bufs[m])
            np.testing.assert_array_equal(p, golden[m][0])
            np.testing.assert_array_equal(q, golden[m][1])
