"""HPL problem configuration (the HPL.dat equivalent)."""

from __future__ import annotations

import numbers
from dataclasses import dataclass


def check_int(name: str, value: object) -> None:
    """Refuse a field that is not an integer (a ``bool`` included), naming
    the field: a float or a flag would otherwise fail deep inside a rank."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class HPLConfig:
    """Parameters of one HPL run.

    Attributes
    ----------
    n:
        Global problem size (the matrix is n x n).
    nb:
        Block size of the block-cyclic distribution and panel width.
    p, q:
        Process grid dimensions; ``p * q`` ranks are required.
    seed:
        Matrix generator seed.  HPL regenerates A and b from this fixed
        seed on restart (paper §5.2), so it is part of the configuration.
    """

    n: int
    nb: int
    p: int
    q: int
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("n", "nb", "p", "q", "seed"):
            check_int(name, getattr(self, name))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 1 <= self.nb <= self.n:
            raise ValueError("nb must be in [1, n]")
        if self.p < 1 or self.q < 1:
            raise ValueError("grid dims must be >= 1")
        if self.seed < 0:  # the block streams seed from its 32-bit words
            raise ValueError("seed must be >= 0")

    @property
    def n_ranks(self) -> int:
        return self.p * self.q

    @property
    def n_blocks(self) -> int:
        """Number of block rows/columns (panels)."""
        return -(-self.n // self.nb)

    @property
    def flops(self) -> float:
        """Nominal LU+solve operation count: 2/3 n^3 + 3/2 n^2 (the value
        HPL divides by runtime to report GFLOPS)."""
        n = float(self.n)
        return (2.0 / 3.0) * n**3 + 1.5 * n**2
