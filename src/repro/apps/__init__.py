"""Reusable fault-tolerant application kernels.

The paper positions self-checkpoint as "a general method and not tied to
any specified application" (§6.1); HPL is just the demanding showcase.
This package provides additional realistic SPMD kernels wired to the
checkpoint manager:

* :mod:`repro.apps.stencil` — 2-D Jacobi heat diffusion with halo exchange;
* :mod:`repro.apps.cg` — distributed conjugate gradients on a sparse SPD
  operator (allreduce-heavy, the iterative-solver shape ABFT papers target);
* :mod:`repro.apps.nbody` — all-pairs gravity with leapfrog integration
  (allgather-heavy, energy-conserving);
* :mod:`repro.apps.iterative` — the toy ``a += rank + 1`` loop with a
  closed-form answer: the protocol alone, which the chaos recipes, ``repro
  obs``, the sanitizer's clean run and the endurance harness all run.

Each kernel's ``*_main`` runs under :class:`repro.sim.Job` / the daemon and
resumes from checkpoints exactly like SKT-HPL.
"""

from repro.apps.cg import CGConfig, CGResult, cg_main
from repro.apps.iterative import IterativeConfig, iterative_answer_ok, iterative_main
from repro.apps.nbody import NBodyConfig, NBodyResult, nbody_main
from repro.apps.stencil import StencilConfig, StencilResult, stencil_main

__all__ = [
    "CGConfig",
    "CGResult",
    "cg_main",
    "IterativeConfig",
    "iterative_answer_ok",
    "iterative_main",
    "NBodyConfig",
    "NBodyResult",
    "nbody_main",
    "StencilConfig",
    "StencilResult",
    "stencil_main",
]
