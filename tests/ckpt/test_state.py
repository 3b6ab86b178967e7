"""Tests for the flat state layout (the A1 array + A2 dict serialization)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt import StateLayout


@pytest.fixture
def layout():
    lay = StateLayout(a2_capacity=256)
    lay.add("m", (4, 4), np.float64)
    lay.freeze()
    return lay


class TestRegistration:
    def test_raw_size(self, layout):
        assert layout.raw_size == 16 * 8 + 8 + 256

    def test_duplicate_name_rejected(self):
        lay = StateLayout()
        lay.add("x", 4, np.float64)
        with pytest.raises(ValueError):
            lay.add("x", 4, np.float64)

    def test_second_array_rejected(self):
        """A layout holds one array; the error names the idiom that
        replaces a second one."""
        lay = StateLayout()
        lay.add("x", 4, np.float64)
        with pytest.raises(ValueError, match="take contiguous views"):
            lay.add("y", 4, np.float64)

    def test_numpy_integer_shape_accepted(self):
        lay = StateLayout()
        lay.add("x", np.int64(5), np.float64)
        assert lay.spec_of("x") == ((5,), np.dtype(np.float64))

    def test_add_after_freeze_rejected(self, layout):
        with pytest.raises(RuntimeError):
            layout.add("late", 4, np.float64)

    def test_pack_before_freeze_rejected(self):
        lay = StateLayout()
        lay.add("x", 4, np.float64)
        with pytest.raises(RuntimeError):
            lay.pack({"x": np.zeros(4)}, {})

    def test_tiny_a2_capacity_rejected(self):
        with pytest.raises(ValueError):
            StateLayout(a2_capacity=8)

    def test_spec_of(self, layout):
        assert layout.spec_of("m") == ((4, 4), np.dtype(np.float64))
        with pytest.raises(KeyError):
            layout.spec_of("ghost")


class TestRoundtrip:
    def test_pack_unpack(self, layout):
        arrays = {"m": np.arange(16, dtype=np.float64).reshape(4, 4)}
        local = {"it": 7, "pivots": [1, 2, 3]}
        flat = layout.pack(arrays, local)
        assert np.array_equal(flat[: 16 * 8], arrays["m"].view(np.uint8).reshape(-1))
        dst = {"m": np.zeros((4, 4))}
        out_local = layout.unpack_into(flat, dst)
        np.testing.assert_array_equal(dst["m"], arrays["m"])
        assert out_local == local

    def test_pack_with_padding(self, layout):
        arrays = {"m": np.ones((4, 4))}
        flat = layout.pack(arrays, {}, total_size=layout.raw_size + 40)
        assert len(flat) == layout.raw_size + 40
        assert np.all(flat[layout.raw_size :] == 0)

    def test_pack_into_existing_buffer(self, layout):
        """Packing into a dirty buffer leaves no stale byte behind: the A2
        tail and the pad are zeroed, everything else is overwritten."""
        arrays = {"m": np.ones((4, 4))}
        for size in (layout.raw_size, layout.raw_size + 40):
            buf = np.full(size, 0xEE, dtype=np.uint8)
            out = layout.pack(arrays, {"it": 3}, out=buf, total_size=size)
            assert out is buf
            fresh = layout.pack(arrays, {"it": 3}, total_size=size)
            np.testing.assert_array_equal(out, fresh)
            assert np.all(fresh[layout.a2_region][40:] == 0)
            assert np.all(fresh[layout.raw_size :] == 0)

    def test_pack_undersized_total_rejected(self, layout):
        arrays = {"m": np.ones((4, 4))}
        with pytest.raises(ValueError):
            layout.pack(arrays, {}, total_size=8)

    def test_shape_mismatch_rejected(self, layout):
        with pytest.raises(ValueError):
            layout.pack({"m": np.zeros((2, 2))}, {})

    def test_unpack_wrong_shape_rejected(self, layout):
        flat = layout.pack({"m": np.zeros((4, 4))}, {})
        with pytest.raises(ValueError):
            layout.unpack_into(flat, {"m": np.zeros((2, 8))})

    def test_unpack_noncontiguous_rejected(self, layout):
        flat = layout.pack({"m": np.zeros((4, 4))}, {})
        big = np.zeros((4, 8))
        view = big[:, ::2]  # non-contiguous 4x4
        with pytest.raises(ValueError, match="contiguous"):
            layout.unpack_into(flat, {"m": view})

    def test_a2_overflow_rejected(self, layout):
        arrays = {"m": np.zeros((4, 4))}
        with pytest.raises(ValueError, match="a2_capacity"):
            layout.pack(arrays, {"blob": b"x" * 1000})

    def test_a2_roundtrip_alone(self, layout):
        blob = layout.pack_a2({"k": (1, 2.5, "s")})
        assert layout.unpack_a2(blob) == {"k": (1, 2.5, "s")}

    def test_corrupt_a2_header_rejected(self, layout):
        blob = layout.pack_a2({})
        blob[:8] = 0xFF
        with pytest.raises(ValueError, match="corrupt"):
            layout.unpack_a2(blob)

    def test_a2_header_golden_bytes(self, layout):
        """The length header is pinned to explicit little-endian bytes:
        checkpoint images (and every fingerprint derived from them) must
        be byte-stable across platforms regardless of native endianness."""
        import pickle

        local = {"it": 7}
        blob = layout.pack_a2(local)
        n = len(pickle.dumps(local, protocol=pickle.HIGHEST_PROTOCOL))
        assert 0 < n < 256  # the golden header below assumes one byte
        expected_header = [n, 0, 0, 0, 0, 0, 0, 0]  # little-endian u64
        assert blob[:8].tolist() == expected_header
        assert int.from_bytes(blob[:8].tobytes(), "little") == n

    def test_a2_header_rejects_big_endian_spelling(self, layout):
        """A byte-swapped (big-endian) header is treated as corrupt, not
        silently decoded — the regression the endianness pin guards."""
        blob = layout.pack_a2({"k": 1})
        swapped = blob.copy()
        swapped[:8] = blob[:8][::-1]
        with pytest.raises(ValueError, match="corrupt"):
            layout.unpack_a2(swapped)

    @given(
        it=st.integers(min_value=-(2**40), max_value=2**40),
        vals=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, it, vals, seed):
        lay = StateLayout(a2_capacity=512)
        lay.add("a", 12, np.float64)
        lay.freeze()
        rng = np.random.default_rng(seed)
        arrays = {"a": rng.standard_normal(12)}
        local = {"it": it, "vals": vals}
        flat = lay.pack(arrays, local)
        dst = {"a": np.zeros(12)}
        out = lay.unpack_into(flat, dst)
        np.testing.assert_array_equal(dst["a"], arrays["a"])
        assert out == local
