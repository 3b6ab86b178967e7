"""Tests for GF(2^8) arithmetic and the RAID-6 double-erasure codec."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt import GF256, RSCodec


@pytest.fixture(scope="module")
def gf():
    return GF256()


class TestGF256:
    def test_mul_identity_and_zero(self, gf):
        for a in range(256):
            assert gf.mul(a, 1) == a
            assert gf.mul(a, 0) == 0

    def test_mul_commutative(self, gf):
        for a, b in [(3, 7), (255, 2), (100, 200)]:
            assert gf.mul(a, b) == gf.mul(b, a)

    def test_div_inverse(self, gf):
        for a in range(1, 256):
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.div(a, a) == 1

    def test_div_by_zero(self, gf):
        with pytest.raises(ZeroDivisionError):
            gf.div(5, 0)

    def test_generator_order(self, gf):
        """g = 2 generates the full multiplicative group (order 255)."""
        seen = set()
        for k in range(255):
            seen.add(gf.pow_g(k))
        assert len(seen) == 255

    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
        c=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=100, deadline=None)
    def test_distributive_property(self, gf, a, b, c):
        assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)

    @given(
        c=st.integers(min_value=0, max_value=255),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_vec_mul_matches_scalar(self, gf, c, seed):
        v = np.random.default_rng(seed).integers(0, 256, 32, dtype=np.uint8)
        out = gf.vec_mul(c, v)
        for x, y in zip(v[:8], out[:8]):
            assert gf.mul(c, int(x)) == int(y)

    def test_vec_mul_rejects_wrong_dtype(self, gf):
        with pytest.raises(TypeError):
            gf.vec_mul(3, np.zeros(4, np.float64))


def _data(n, size=64, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(n)]


class TestRSCodec:
    def test_group_size_bounds(self):
        with pytest.raises(ValueError):
            RSCodec(1)
        with pytest.raises(ValueError):
            RSCodec(256)

    def test_encode_shapes(self):
        codec = RSCodec(4)
        p, q = codec.encode(_data(4))
        assert p.shape == q.shape == (64,)

    def test_single_data_loss_via_p(self):
        codec = RSCodec(5)
        bufs = _data(5)
        p, q = codec.encode(bufs)
        for x in range(5):
            got = codec.decode({j: bufs[j] for j in range(5) if j != x}, p, None)
            np.testing.assert_array_equal(got[x], bufs[x])

    def test_single_data_loss_via_q(self):
        codec = RSCodec(5)
        bufs = _data(5)
        p, q = codec.encode(bufs)
        for x in range(5):
            got = codec.decode({j: bufs[j] for j in range(5) if j != x}, None, q)
            np.testing.assert_array_equal(got[x], bufs[x])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_every_double_data_loss(self, n):
        codec = RSCodec(n)
        bufs = _data(n, seed=n)
        p, q = codec.encode(bufs)
        for x, y in itertools.combinations(range(n), 2):
            survivors = {j: bufs[j] for j in range(n) if j not in (x, y)}
            got = codec.decode(survivors, p, q)
            np.testing.assert_array_equal(got[x], bufs[x])
            np.testing.assert_array_equal(got[y], bufs[y])

    def test_three_erasures_rejected(self):
        codec = RSCodec(5)
        bufs = _data(5)
        p, q = codec.encode(bufs)
        with pytest.raises(ValueError):
            codec.decode({0: bufs[0], 1: bufs[1]}, p, q)
        with pytest.raises(ValueError):
            codec.decode({j: bufs[j] for j in range(3)}, None, None)

    def test_two_data_losses_need_both_parities(self):
        codec = RSCodec(4)
        bufs = _data(4)
        p, q = codec.encode(bufs)
        with pytest.raises(ValueError):
            codec.decode({0: bufs[0], 1: bufs[1]}, p, None)

    def test_nothing_missing(self):
        codec = RSCodec(3)
        bufs = _data(3)
        p, q = codec.encode(bufs)
        assert codec.decode({j: bufs[j] for j in range(3)}, p, q) == {}

    def test_wrong_buffer_count_rejected(self):
        codec = RSCodec(4)
        with pytest.raises(ValueError):
            codec.encode(_data(3))

    @given(
        n=st.integers(min_value=2, max_value=10),
        size=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_double_erasure_property(self, n, size, seed, data):
        """Any two lost members of any group are exactly recoverable."""
        x = data.draw(st.integers(min_value=0, max_value=n - 1))
        y = data.draw(st.integers(min_value=0, max_value=n - 1))
        if x == y:
            return
        codec = RSCodec(n)
        bufs = _data(n, size=size, seed=seed)
        p, q = codec.encode(bufs)
        got = codec.decode(
            {j: bufs[j] for j in range(n) if j not in (x, y)}, p, q
        )
        np.testing.assert_array_equal(got[x], bufs[x])
        np.testing.assert_array_equal(got[y], bufs[y])


class TestCachedKernel:
    """Regressions for the cached 256x256 multiply table: the hot scale
    kernel must never rebuild a lookup table per call (the seed rebuilt a
    256-entry row on *every* vec_mul, dominating encode cost at protocol
    stripe sizes)."""

    def test_vec_mul_allocates_no_table(self, gf, monkeypatch):
        v = np.arange(64, dtype=np.uint8)

        def forbidden(*args, **kwargs):
            raise AssertionError(
                "vec_mul rebuilt a lookup table at call time"
            )

        # the per-call rebuild needed np.arange; the cached kernel may not
        monkeypatch.setattr(np, "arange", forbidden)
        got = gf.vec_mul(7, v)
        assert got.dtype == np.uint8 and len(got) == 64

    def test_mul_table_row_is_a_readonly_view(self, gf):
        row = gf._mul_table[7]
        assert row.base is gf._mul_table  # a view, not a fresh array
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1

    def test_mul_table_matches_scalar_mul(self, gf):
        for c in (0, 1, 2, 7, 255):
            row = gf._mul_table[c]
            for v in (0, 1, 3, 128, 255):
                assert int(row[v]) == gf.mul(c, v)

    def test_vec_mul_matches_scalar_mul(self, gf):
        v = np.arange(256, dtype=np.uint8)
        for c in (0, 1, 2, 29, 255):
            got = gf.vec_mul(c, v)
            assert got.tolist() == [gf.mul(c, int(x)) for x in v]

    def test_vec_mul_xor_accumulates_in_place(self, gf):
        v = np.arange(64, dtype=np.uint8)
        acc = np.full(64, 0x5A, dtype=np.uint8)
        expect = acc ^ gf.vec_mul(29, v)
        gf.vec_mul_xor(29, v, acc)
        assert np.array_equal(acc, expect)

    def test_vec_mul_xor_trivial_constants(self, gf):
        v = np.arange(32, dtype=np.uint8)
        acc = v.copy()
        gf.vec_mul_xor(0, v, acc)  # c=0: no-op
        assert np.array_equal(acc, v)
        gf.vec_mul_xor(1, v, acc)  # c=1: plain xor
        assert not acc.any()


class TestVecMulOut:
    """``GF256.vec_mul(c, v, out=...)`` must honor ``out`` for every
    constant — including the trivial ``c in (0, 1)`` short-circuits —
    and support ``out is v`` aliasing."""

    @pytest.fixture
    def gf(self):
        return GF256()

    @pytest.mark.parametrize("c", [0, 1, 2, 29, 142, 255])
    def test_out_is_written_and_returned(self, gf, c):
        v = np.arange(200, dtype=np.uint8)
        out = np.full(200, 0xEE, dtype=np.uint8)
        got = gf.vec_mul(c, v, out=out)
        assert got is out
        assert np.array_equal(out, gf.vec_mul(c, v))

    @pytest.mark.parametrize("c", [0, 1, 2, 29, 142, 255])
    def test_out_aliases_input(self, gf, c):
        v = np.arange(200, dtype=np.uint8)
        expect = gf.vec_mul(c, v)
        got = gf.vec_mul(c, v, out=v)
        assert got is v
        assert np.array_equal(v, expect)

    def test_input_untouched_when_out_is_separate(self, gf):
        v = np.arange(64, dtype=np.uint8)
        snapshot = v.copy()
        out = np.empty_like(v)
        for c in (0, 1, 37):
            gf.vec_mul(c, v, out=out)
            assert np.array_equal(v, snapshot)
