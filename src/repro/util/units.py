"""Byte/time unit constants and formatting.

All sizes in this codebase are plain ``int`` byte counts and all durations
are ``float`` seconds; these helpers exist only at the presentation and
configuration boundaries.
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB


def fmt_bytes(n: float) -> str:
    """Render a byte count using the largest binary unit that keeps the
    mantissa >= 1, e.g. ``fmt_bytes(3 * GiB) == '3.00GiB'``."""
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for suffix, factor in (("TiB", 1024**4), ("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if n >= factor:
            return f"{sign}{n / factor:.2f}{suffix}"
    return f"{sign}{n:.0f}B"


def fmt_seconds(t: float) -> str:
    """Render a duration compactly: microseconds below 1 ms, up to hours."""
    if t < 0:
        return "-" + fmt_seconds(-t)
    if t < 1e-3:
        return f"{t * 1e6:.1f}us"
    if t < 1.0:
        return f"{t * 1e3:.1f}ms"
    if t < 120.0:
        return f"{t:.2f}s"
    if t < 7200.0:
        return f"{t / 60.0:.1f}min"
    return f"{t / 3600.0:.2f}h"
