"""A deliberately phase-violating checkpoint protocol (fixture).

tests/sancheck/test_flow.py asserts the exact findings (simlint's and
flow's) — keep the violations (and their count) in sync when editing:

* ``checkpoint()`` reaches unseeded RNG two ways: through the
  cross-module ``jitter()`` helper and through ``gen_block()``'s
  unseeded ``default_rng()`` *default argument*;
* ``try_restore()`` reaches the wall clock through ``stamp()``;
* ``try_restore()`` writes SHM twice before the ``allgather`` status
  exchange — once directly, once through ``_wipe()``;
* ``scribble()`` mutates SHM but no lifecycle root can reach it.
"""

import numpy as np

from helpers import jitter, stamp


class EvilCheckpoint:
    """Duck-typed protocol: defines ``checkpoint``/``try_restore``
    without subclassing ``Checkpointer`` — structural detection must
    still register it."""

    def __init__(self, ctx, comm):
        self.ctx = ctx
        self.comm = comm
        self._b = ctx.shm_create("b", 64).array
        self._ctrl = ctx.shm_create("ctrl", 8).array

    def gen_block(self, rng=np.random.default_rng()):
        return rng.standard_normal(4)

    def checkpoint(self):
        block = self.gen_block()
        self._b[0] = block[0] + jitter()
        self.comm.barrier()

    def try_restore(self):
        self._ctrl[0] = 1
        self._wipe()
        statuses = self.comm.allgather(stamp())
        self._b[0] = 0.0
        return bool(statuses)

    def _wipe(self):
        self._b[0] = 0.0

    def scribble(self):
        self._ctrl[1] = 2
