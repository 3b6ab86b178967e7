"""Shared utilities: unit handling, deterministic RNG, table rendering."""

from repro.util.units import (
    GiB,
    KiB,
    MiB,
    fmt_bytes,
    fmt_seconds,
)
from repro.util.rng import block_rng, seeded_rng
from repro.util.tables import render_table

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "fmt_bytes",
    "fmt_seconds",
    "seeded_rng",
    "block_rng",
    "render_table",
]
