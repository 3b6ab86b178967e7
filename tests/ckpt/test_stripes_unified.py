"""The one ``(N, m)`` erasure-code stack, tested once over m ∈ {1, 2}.

``golden_stripes.json`` holds what the two former stacks produced at the
commit before they were merged: the ``stripes_rs.row_roles`` tables and
sha256 digests of seeded parity bytes (xor, sum, (P, Q)) and of
reconstructions.  The unified layout / loops / codecs must reproduce them
bit for bit, and for *any* loss set either rebuild exactly or refuse —
never answer wrongly.
"""

import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt import GroupEncoder, kernels
from repro.ckpt.stripes import (
    build_parity,
    checksum_size,
    layout_for,
    padded_size,
    reconstruct_members,
    slot_of_stripe,
    stripe_in_slot,
    verify_parity,
)
from repro.sim import Cluster, Job, UnrecoverableError
from repro.util.rng import seeded_rng
from tests.ckpt.conftest import assert_final_state, make_app

GOLDEN = json.loads((Path(__file__).parent / "golden_stripes.json").read_text())

PARITIES = (1, 2)


def _sha(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _byte_group(n, size, seed):
    rng = seeded_rng(seed)
    return [rng.integers(0, 256, size=size).astype(np.uint8) for _ in range(n)]


def _float_group(n, size, seed):
    rng = seeded_rng(seed)
    return [rng.standard_normal(size // 8).view(np.uint8).copy() for _ in range(n)]


def _lose(bufs, block, lost, parity, op="xor"):
    n = len(bufs)
    return reconstruct_members(
        {j: bufs[j] for j in range(n) if j not in lost},
        {j: block[j] for j in range(n) if j not in lost},
        lost,
        n,
        parity,
        op,
    )


class TestGoldenLayout:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_single_parity_layout_is_the_papers_slot_mapping(self, n):
        """m = 1: row r is Fig. 1's slot r — checksum on process r, and
        process p's stripe s sits in slot ``slot_of_stripe(p, s)``."""
        layout = layout_for(n, 1)
        assert layout.n_stripes == n - 1
        for slot, (holders, cells) in enumerate(layout.rows):
            assert holders == (slot,)
            assert cells == tuple(
                (p, stripe_in_slot(p, slot)) for p in range(n) if p != slot
            )
            for p, s in cells:
                assert slot_of_stripe(p, s) == slot

    @pytest.mark.parametrize("n", range(4, 13))
    def test_double_parity_layout_is_the_former_row_roles_table(self, n):
        rows = [
            [p, q, [j for j, _ in cells]] for (p, q), cells in layout_for(n, 2).rows
        ]
        assert rows == GOLDEN["row_roles_m2"][str(n)]

    @pytest.mark.parametrize("m", PARITIES)
    def test_every_member_hands_out_each_stripe_once_in_row_order(self, m):
        for n in range(2 * m, 13):
            seen = {j: [] for j in range(n)}
            for holders, cells in layout_for(n, m).rows:
                assert len(set(holders)) == m and len(cells) == n - m
                for j, s in cells:
                    assert j not in holders
                    seen[j].append(s)
            assert all(v == list(range(n - m)) for v in seen.values())

    @pytest.mark.parametrize("m", PARITIES)
    def test_sizes(self, m):
        n = 2 * m + 2
        unit = 8 * (n - m)
        assert padded_size(1, n, m) == unit
        assert padded_size(unit + 1, n, m) == 2 * unit
        assert checksum_size(unit, n, m) == 8 * m
        with pytest.raises(ValueError):
            checksum_size(unit + 1, n, m)
        with pytest.raises(ValueError):
            padded_size(64, 2 * m - 1, m)


class TestGoldenBytes:
    """Seeded parity and reconstruction digests captured from the two
    separate stacks; "sum" pins the left-to-right float fold order."""

    @pytest.mark.parametrize("key", sorted(GOLDEN["digests"]["xor"]))
    @pytest.mark.parametrize("op", ["xor", "sum"])
    def test_single_parity(self, op, key):
        n, nbytes = map(int, key.split("x"))
        size = padded_size(nbytes, n)
        if op == "xor":
            bufs = _byte_group(n, size, 1000 + n)
        else:
            bufs = _float_group(n, size, 2000 + n)
        block = build_parity(bufs, 1, op)
        lost = n // 2
        buf, par = _lose(bufs, block, [lost], 1, op)[lost]
        assert [_sha(block[:, 0]), _sha([buf, par[0]])] == GOLDEN["digests"][op][key]

    @pytest.mark.parametrize("key", sorted(GOLDEN["digests"]["pq"]))
    def test_double_parity(self, key):
        n, nbytes = map(int, key.split("x"))
        bufs = _byte_group(n, padded_size(nbytes, n, 2), 3000 + n)
        block = build_parity(bufs, 2)
        lost = [1, n - 1]
        rebuilt = _lose(bufs, block, lost, 2)
        assert [
            _sha(block.reshape(2 * n, -1)),
            _sha([x for j in lost for x in (rebuilt[j][0], *rebuilt[j][1])]),
        ] == GOLDEN["digests"]["pq"][key]


class TestLossSetProperty:
    @given(
        m=st.sampled_from(PARITIES),
        extra=st.integers(min_value=0, max_value=6),
        words=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_layer_rebuilds_exactly_or_refuses(self, m, extra, words, seed, data):
        """<= m losses: bit-exact buffers *and* parity.  More: ValueError."""
        n = 2 * m + extra
        lost = data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n - 1, m + 2))
        )
        bufs = _byte_group(n, 8 * words * (n - m), seed)
        block = build_parity(bufs, m)
        assert verify_parity(bufs, block, m)
        if len(lost) > m:
            with pytest.raises(ValueError):
                _lose(bufs, block, sorted(lost), m)
            return
        rebuilt = _lose(bufs, block, sorted(lost), m)
        assert sorted(rebuilt) == sorted(lost)
        for j in lost:
            np.testing.assert_array_equal(rebuilt[j][0], bufs[j])
            np.testing.assert_array_equal(rebuilt[j][1], block[j])

    @pytest.mark.parametrize("m", PARITIES)
    def test_every_loss_set_of_a_small_group(self, m):
        n = 2 * m + 2
        bufs = _byte_group(n, 8 * 3 * (n - m), 7)
        block = build_parity(bufs, m)
        for size in range(1, m + 2):
            for lost in itertools.combinations(range(n), size):
                if size > m:
                    with pytest.raises(ValueError):
                        _lose(bufs, block, lost, m)
                    continue
                for j, (buf, par) in _lose(bufs, block, lost, m).items():
                    np.testing.assert_array_equal(buf, bufs[j])
                    np.testing.assert_array_equal(par, block[j])

    @pytest.mark.parametrize("m", PARITIES)
    def test_corruption_is_detected_in_data_and_in_every_parity(self, m):
        n = 6
        bufs = _byte_group(n, 8 * 2 * (n - m), 9)
        block = build_parity(bufs, m)
        bufs[3][5] ^= 1
        assert not verify_parity(bufs, block, m)
        bufs[3][5] ^= 1
        for j in range(m):
            bad = block.copy()
            bad[2, j, 0] ^= 1
            assert not verify_parity(bufs, bad, m)
        assert verify_parity(bufs, block, m)

    @given(
        method=st.sampled_from(["self", "self-rs"]),
        lost=st.sets(st.integers(0, 7), min_size=1, max_size=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_protocol_restores_exactly_or_is_unrecoverable(self, method, lost):
        """One 8-member group loses ``lost`` after its last checkpoint:
        within the method's tolerance the rerun ends bit-exact, beyond it
        every rank reports UnrecoverableError — never a wrong answer."""
        tolerance = {"self": 1, "self-rs": 2}[method]
        app = make_app(method, group_size=8)
        cluster = Cluster(8, n_spares=4)
        job = Job(cluster, app, 8, procs_per_node=1)
        assert job.run().completed
        for nid in lost:
            cluster.fail_node(nid)
        repl = cluster.replace_dead()
        res = Job(cluster, app, 8, ranklist=[repl.get(n, n) for n in job.ranklist]).run()
        if len(lost) <= tolerance:
            assert_final_state(res, 8)
            assert set(res.rank_results[0]["restore"].reconstructed) == lost
        else:
            assert not res.completed
            assert any(
                isinstance(e, UnrecoverableError) for e in res.rank_errors.values()
            )


class TestNoPackCopy:
    @pytest.mark.parametrize("m", PARITIES)
    def test_encode_result_is_a_view_of_the_parity_block(self, m):
        """What ``GroupEncoder.encode`` hands the protocol for its D
        segment is member r's slice of the one (N, m, stripe) block — no
        per-member pack buffer — laid out parity 0 first."""
        n = 2 * m + 2

        def main(ctx):
            flat = _byte_group(n, padded_size(5000, n, m), 40)[ctx.world.rank]
            return flat, GroupEncoder(ctx.world, parity=m).encode(flat).checksum

        res = Job(Cluster(n), main, n, procs_per_node=1).run()
        assert res.completed, res.rank_errors
        bufs = [res.rank_results[r][0] for r in range(n)]
        segments = [res.rank_results[r][1] for r in range(n)]
        want = build_parity(bufs, m)

        def root(a):
            while a.base is not None:
                a = a.base
            return a

        block = root(segments[0])
        assert block.shape == want.shape
        for r, seg in enumerate(segments):
            assert root(seg) is block and seg.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(seg, want[r].reshape(-1))

    @pytest.mark.parametrize("m", PARITIES)
    def test_build_and_segment_allocate_only_the_block(self, m, install):
        # the bound is the numpy backend's; the reference oracle gathers
        # into temporaries
        install(kernels.NumpyKernels())
        n = 6
        size = padded_size(96 * 1024, n, m)
        bufs = _byte_group(n, size, 41)
        build_parity(bufs, m)  # warm caches (layout, codec, tables)
        stripe = size // (n - m)
        tracemalloc.start()
        block = build_parity(bufs, m)
        segments = [block[r].reshape(-1) for r in range(n)]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert all(np.shares_memory(s, block) for s in segments)
        # the block, plus kernel lane scratch; packing a copy of each
        # member's segment would add another n * m * stripe
        assert peak <= n * m * stripe + 4 * stripe + 64 * 1024, (peak, stripe)
