"""Exception hierarchy for the simulated runtime.

The split mirrors what real systems expose:

* :class:`NodeFailedError` is raised *inside* a rank whose node was powered
  off — the first casualty of a failure.
* :class:`JobAbortedError` is raised in every *other* rank at its next
  runtime interaction, reproducing the observation that "almost all current
  MPI implementations force the whole program to abort after a node failure
  is detected" (paper section 1).
"""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulator errors."""


class NodeFailedError(SimError):
    """The calling rank's node has been powered off."""

    def __init__(self, node_id: int, when: float):
        super().__init__(f"node {node_id} failed at t={when:.6f}s")
        self.node_id = node_id
        self.when = when


class JobAbortedError(SimError):
    """The job is aborting (some other rank's node failed)."""


class ShmError(SimError):
    """Invalid shared-memory operation (missing segment, name clash, ...)."""


class UnrecoverableError(SimError):
    """A restart found no consistent checkpoint state to recover from."""
