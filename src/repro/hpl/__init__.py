"""Distributed High-Performance Linpack on the simulated runtime.

A from-scratch right-looking LU factorization with partial pivoting on a
2-D block-cyclic process grid (the algorithm of the HPL benchmark, paper
§5.1), plus:

* :mod:`repro.hpl.skt` — SKT-HPL, the checkpoint-integrated variant that
  survives permanent node loss (the paper's artifact);
* :mod:`repro.hpl.abft` — the ABFT baseline maintaining checksum columns,
  which detects/corrects soft errors but cannot survive a node loss;
* :mod:`repro.hpl.daemon` — the master-node job daemon implementing the
  work-fail-detect-restart cycle of Fig. 10.
"""

from repro.hpl.config import HPLConfig
from repro.hpl.grid import BlockCyclicMap, ProcessGrid
from repro.hpl.matgen import generate_local_system
from repro.hpl.core import HPLResult, hpl_solve, hpl_main
from repro.hpl.skt import SKTConfig, SKTResult, skt_hpl_main
from repro.hpl.abft import ABFTResult, abft_hpl_main
from repro.hpl.daemon import DaemonReport, JobDaemon, RestartPolicy

__all__ = [
    "HPLConfig",
    "ProcessGrid",
    "BlockCyclicMap",
    "generate_local_system",
    "HPLResult",
    "hpl_solve",
    "hpl_main",
    "SKTConfig",
    "SKTResult",
    "skt_hpl_main",
    "ABFTResult",
    "abft_hpl_main",
    "DaemonReport",
    "JobDaemon",
    "RestartPolicy",
]
