"""The November 2016 TOP500 top-10 — the systems of paper Fig. 8.

``rmax``/``rpeak`` are the official list values (PFlop/s); the officially
reported efficiency ``rmax/rpeak`` is the ``e1`` that Eq. 8 projects down
to reduced memory fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.models.efficiency import efficiency_lower_bound


@dataclass(frozen=True)
class Top500System:
    name: str
    rmax_pflops: float
    rpeak_pflops: float

    @property
    def efficiency(self) -> float:
        return self.rmax_pflops / self.rpeak_pflops

    def projected_efficiency(self, k: float) -> float:
        """Eq. 8 lower bound when only fraction ``k`` of memory is usable."""
        return efficiency_lower_bound(self.efficiency, k)


#: TOP500, November 2016 (the latest list at paper submission).
TOP10_NOV2016: List[Top500System] = [
    Top500System("TaihuLight", 93.015, 125.436),
    Top500System("Tianhe-2", 33.863, 54.902),
    Top500System("Titan", 17.590, 27.113),
    Top500System("Sequoia", 17.173, 20.133),
    Top500System("Cori", 14.015, 27.881),
    Top500System("Oakforest-PACS", 13.555, 24.914),
    Top500System("K", 10.510, 11.280),
    Top500System("Piz Daint", 9.779, 15.988),
    Top500System("Mira", 8.587, 10.066),
    Top500System("Trinity", 8.101, 11.079),
]


def average_gain_half_vs_third() -> float:
    """Fig. 8's headline: average efficiency gain (percentage points) from
    one third of the memory to one half — the paper reports ~12%."""
    gains = [
        s.projected_efficiency(0.5) - s.projected_efficiency(1.0 / 3.0)
        for s in TOP10_NOV2016
    ]
    return 100.0 * sum(gains) / len(gains)
