"""repro — reproduction of "Self-Checkpoint: An In-Memory Checkpoint
Method Using Less Space and Its Practice on Fault-Tolerant HPL"
(Tang, Zhai, Yu, Chen, Zheng — PPoPP 2017).

Packages
--------
``repro.sim``
    Simulated cluster substrate: nodes with SHM and memory accounting, an
    MPI-like runtime (one rank runs at a time, ready queue FIFO in wake
    order; virtual clocks, alpha-beta network costing), failure injection,
    event tracing.
``repro.ckpt``
    The checkpoint protocols: self-checkpoint (the contribution), single /
    double / buddy / incremental / disk / multi-level baselines, group
    encoding (XOR, SUM, Reed-Solomon), grouping strategies, memory models,
    interval optima.
``repro.hpl``
    Distributed HPL (block-cyclic LU with partial pivoting), SKT-HPL,
    ABFT-HPL, and the master-node restart daemon.
``repro.apps``
    Additional fault-tolerant kernels (2-D stencil, conjugate gradients).
``repro.models``
    The paper's analytic models: HPL efficiency E(N)=N/(aN+b), machine
    specs, TOP500 data, checkpoint cost, reliability projections.
``repro.analysis``
    One driver per paper table/figure, ablations, endurance harness,
    report generation.

See README.md for a quickstart and DESIGN.md / EXPERIMENTS.md /
docs/PROTOCOLS.md for the reproduction methodology.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
