"""Simulated HPC substrate: nodes, SHM, network model, MPI-like runtime.

The paper runs on real MPI over Tianhe-1A/Tianhe-2.  This package provides a
deterministic stand-in: every MPI rank is a Python thread with a *virtual
clock*; communication primitives advance the clocks according to an
alpha-beta network model with port sharing; nodes own memory and SHM
segments; node "power-off" destroys a node's SHM and aborts the job, exactly
matching the failure semantics the paper depends on (section 2.3, 5.2).
"""

from repro.sim.errors import (
    JobAbortedError,
    NodeFailedError,
    ShmError,
    SimError,
    UnrecoverableError,
)
from repro.sim.netmodel import NetworkParams, NetworkModel
from repro.sim.node import Node, NodeSpec
from repro.sim.shm import ShmSegment, ShmStore
from repro.sim.cluster import Cluster
from repro.sim.failures import (
    FailurePlan,
    FiredTrigger,
    MTBFFailureGenerator,
    PhaseTrigger,
    TimeTrigger,
)
from repro.sim.mpi import Communicator, ReduceOp
from repro.sim.observer import MultiObserver, SimObserver, install_observer
from repro.sim.runtime import Job, JobResult, RankContext, RankExit
from repro.sim.topology import Topology, fail_rack

__all__ = [
    "SimError",
    "NodeFailedError",
    "JobAbortedError",
    "ShmError",
    "UnrecoverableError",
    "NetworkParams",
    "NetworkModel",
    "Node",
    "NodeSpec",
    "ShmSegment",
    "ShmStore",
    "Cluster",
    "FailurePlan",
    "FiredTrigger",
    "TimeTrigger",
    "PhaseTrigger",
    "MTBFFailureGenerator",
    "Communicator",
    "ReduceOp",
    "SimObserver",
    "MultiObserver",
    "install_observer",
    "Job",
    "JobResult",
    "RankContext",
    "RankExit",
    "Topology",
    "fail_rack",
]
