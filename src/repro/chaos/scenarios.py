"""Chaos scenarios: small supervised applications with a known right answer.

A :class:`ChaosScenario` is a *recipe*: a frozen ``(kind, kwargs)`` value,
pickleable and fingerprintable, that every campaign engine ships as is.
Every :meth:`ChaosScenario.make` call builds a fresh cluster and rank
main, because campaign runs mutate cluster state (dead nodes, consumed
spares) and each kill point must start from the same initial conditions.
The instance also carries a ``check``
predicate over the final :class:`~repro.sim.runtime.JobResult` — the
wrong-answer oracle: a run that *completes* but fails its check is the
worst possible verdict, silent corruption.

Two built-ins cover the protocol-only and full-application paths:

* :func:`selfckpt_scenario` — the iterative self-checkpointed app
  (:mod:`repro.apps.iterative`, which the endurance harness runs too); the
  oracle is the exact closed-form final value of every rank's array.
* :func:`skt_scenario` — SKT-HPL; the oracle is HPL's own scaled residual
  check on every rank (``SKTResult.hpl.passed``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.apps.iterative import IterativeConfig, iterative_answer_ok, iterative_main
from repro.ckpt.grouping import partition_groups
from repro.ckpt.manager import uses_groups
from repro.hpl.daemon import RestartPolicy
from repro.sim.cluster import Cluster
from repro.sim.runtime import JobResult

#: restart policy for campaign runs: the real detect/replace/restart costs
#: only stretch virtual time, so campaigns use token values and a restart
#: budget deep enough for multi-failure schedules
FAST_POLICY = RestartPolicy(detect_s=5.0, replace_s=1.0, restart_s=1.0, max_restarts=12)


@dataclass
class ScenarioInstance:
    """One freshly-built, runnable scenario (cluster + main + oracle)."""

    cluster: Cluster
    main: Callable[..., Any]
    n_ranks: int
    args: Tuple[Any, ...]
    procs_per_node: int
    policy: RestartPolicy
    check: Callable[[JobResult], bool]


@dataclass(frozen=True)
class ChaosScenario:
    """A scenario recipe: the pickleable ``(kind, kwargs)`` value every
    campaign engine ships; ``make()`` builds a fresh instance.

    ``kwargs`` are sorted ``(key, value)`` pairs — hashable and
    order-canonical — of JSON scalars and tuples, plus selfckpt's
    ``protocol_factory``: a module-level class or function, pickled (and
    fingerprinted) by reference.  The value is what a worker process or a
    shard executor unpickles and what :func:`~repro.par.cache.
    replay_fingerprint` hashes, so every scenario runs on every engine.
    """

    kind: str
    kwargs: Tuple[Tuple[str, Any], ...]

    @property
    def name(self) -> str:
        return self.kind

    @property
    def params(self) -> Dict[str, Any]:
        """The display dict reports and ``BENCH_chaos.json`` show."""
        kw = dict(self.kwargs)
        if self.kind == "skt-hpl":
            kw["grid"] = f"{kw['p']}x{kw['q']}"
        return {key: kw[key] for key in _PARAMS[self.kind]}

    @property
    def spec(self) -> "ChaosScenario":
        """The scenario itself: it is its own wire form."""
        return self

    def make(self) -> ScenarioInstance:
        kw = dict(self.kwargs)
        kw["policy"] = RestartPolicy(*kw["policy"])
        return _BUILDERS[self.kind](**kw)


def _scenario(kind: str, **kwargs: Any) -> ChaosScenario:
    return ChaosScenario(kind=kind, kwargs=tuple(sorted(kwargs.items())))


def _check_by_reference(protocol_factory: Any) -> None:
    """Raise unless ``protocol_factory`` is reachable as ``module.qualname``
    — the lookup pickle does — so the scenario can cross a process."""
    obj = sys.modules.get(getattr(protocol_factory, "__module__", None))
    for part in getattr(protocol_factory, "__qualname__", "<none>").split("."):
        obj = getattr(obj, part, None)
    if obj is not protocol_factory:
        raise ValueError(
            "protocol_factory must be a module-level class or function (a "
            "scenario pickles it by reference); got "
            f"{protocol_factory!r}, which is a lambda, a local definition "
            "or a partial"
        )


def _check_groups(
    n_nodes: int, n_ranks: int, procs_per_node: int, group_size: int, method: str
) -> None:
    """Raise here the :class:`ValueError` every rank's checkpoint manager
    would raise when it partitions the job's default rank placement: a
    group size that does not divide the world, or a group with two ranks
    on one node."""
    if uses_groups(method):
        ranklist = Cluster(n_nodes).default_ranklist(n_ranks, procs_per_node=procs_per_node)
        partition_groups(n_ranks, group_size, ranklist=ranklist)


def selfckpt_scenario(
    *,
    n_nodes: int = 2,
    procs_per_node: int = 1,
    group_size: int = 2,
    iters: int = 6,
    ckpt_every: int = 2,
    method: str = "self",
    op: str = "xor",
    n_spares: Optional[int] = None,
    policy: Optional[RestartPolicy] = None,
    protocol_factory: Optional[Callable[..., Any]] = None,
) -> ChaosScenario:
    """Iterative self-checkpointed app with a closed-form answer oracle.

    The app is :func:`repro.apps.iterative.iterative_main` at 1 s of
    modelled work per iteration; the correct final value of rank ``r``'s
    array is exactly ``iters * (r + 1)`` — any recovery that silently
    loses or corrupts an update is caught by the oracle, not just
    crashes.  ``protocol_factory`` swaps in a custom (possibly
    deliberately broken) protocol through
    :class:`~repro.ckpt.manager.CheckpointManager` — the regression tests
    use it to prove the kill matrix catches protocol bugs.

    Raises :class:`ValueError` for a shape with no node or no rank per
    node, for groups that do not divide the ranks or co-locate two of
    them — here, not in the first run's cluster, job or protocol — and
    for a ``protocol_factory`` that is not a module-level class or
    function.
    """
    if n_nodes < 1 or procs_per_node < 1:
        raise ValueError(
            "selfckpt needs n_nodes >= 1 and procs_per_node >= 1, got "
            f"n_nodes={n_nodes}, procs_per_node={procs_per_node}"
        )
    if protocol_factory is not None:
        _check_by_reference(protocol_factory)
    app = dict(
        iters=iters,
        ckpt_every=ckpt_every,
        method=method,
        group_size=group_size,
        op=op,
        protocol_factory=protocol_factory,
    )
    IterativeConfig(**app)  # its checks fail here, not in a replay
    _check_groups(n_nodes, n_nodes * procs_per_node, procs_per_node, group_size, method)
    return _scenario(
        "selfckpt",
        n_nodes=n_nodes,
        procs_per_node=procs_per_node,
        n_spares=n_spares if n_spares is not None else 4 * n_nodes + 4,
        policy=astuple(policy or FAST_POLICY),
        **app,
    )


def _selfckpt_instance(
    *,
    n_nodes: int,
    procs_per_node: int,
    n_spares: int,
    policy: RestartPolicy,
    **app: Any,
) -> ScenarioInstance:
    n_ranks = n_nodes * procs_per_node
    cfg = IterativeConfig(**app)

    def check(result: JobResult) -> bool:
        return iterative_answer_ok(cfg, result.rank_results, n_ranks)

    return ScenarioInstance(
        cluster=Cluster(n_nodes, n_spares=n_spares),
        main=iterative_main,
        n_ranks=n_ranks,
        args=(cfg,),
        procs_per_node=procs_per_node,
        policy=policy,
        check=check,
    )


def skt_scenario(
    *,
    n: int = 32,
    nb: int = 8,
    p: int = 2,
    q: int = 2,
    group_size: int = 2,
    interval_panels: int = 2,
    method: str = "self",
    seed: int = 42,
    procs_per_node: int = 1,
    n_spares: Optional[int] = None,
    policy: Optional[RestartPolicy] = None,
) -> ChaosScenario:
    """SKT-HPL under campaign fire; the oracle is HPL's residual check.

    A run that completes with a failed residual on any rank is classified
    ``wrong-answer`` — the "recovered into corrupt state" outcome the
    paper's Fig. 4 case analysis is meant to exclude.

    Raises :class:`ValueError` for an invalid HPL shape (``HPLConfig``'s
    checks), ``procs_per_node < 1``, or groups that do not divide the
    ranks or co-locate two of them.
    """
    from repro.hpl import HPLConfig, SKTConfig

    if procs_per_node < 1:
        raise ValueError(f"skt-hpl needs procs_per_node >= 1, got {procs_per_node}")
    cfg = SKTConfig(
        hpl=HPLConfig(n=n, nb=nb, p=p, q=q, seed=seed),
        method=method,
        group_size=group_size,
        interval_panels=interval_panels,
    )  # their checks fail here, not in a replay
    n_nodes = math.ceil(cfg.hpl.n_ranks / procs_per_node)
    _check_groups(n_nodes, cfg.hpl.n_ranks, procs_per_node, group_size, method)
    return _scenario(
        "skt-hpl",
        n=n,
        nb=nb,
        p=p,
        q=q,
        group_size=group_size,
        interval_panels=interval_panels,
        method=method,
        seed=seed,
        procs_per_node=procs_per_node,
        n_spares=n_spares if n_spares is not None else 4 * n_nodes + 4,
        policy=astuple(policy or FAST_POLICY),
    )


def _skt_instance(
    *,
    n: int,
    nb: int,
    p: int,
    q: int,
    seed: int,
    procs_per_node: int,
    n_spares: int,
    policy: RestartPolicy,
    **skt: Any,
) -> ScenarioInstance:
    from repro.hpl import HPLConfig, SKTConfig, skt_hpl_main

    cfg = HPLConfig(n=n, nb=nb, p=p, q=q, seed=seed)
    n_ranks = cfg.n_ranks

    def check(result: JobResult) -> bool:
        for r in range(n_ranks):
            res = result.rank_results.get(r)
            if res is None or not res.hpl.passed:
                return False
        return True

    return ScenarioInstance(
        cluster=Cluster(math.ceil(n_ranks / procs_per_node), n_spares=n_spares),
        main=skt_hpl_main,
        n_ranks=n_ranks,
        args=(SKTConfig(hpl=cfg, **skt),),
        procs_per_node=procs_per_node,
        policy=policy,
        check=check,
    )


#: kind -> instance builder(**kwargs with the policy rebuilt)
_BUILDERS: Dict[str, Callable[..., ScenarioInstance]] = {
    "selfckpt": _selfckpt_instance,
    "skt-hpl": _skt_instance,
}

#: kind -> the display keys of :attr:`ChaosScenario.params`, in order
_PARAMS: Dict[str, Tuple[str, ...]] = {
    "selfckpt": (
        "n_nodes", "procs_per_node", "group_size", "iters", "ckpt_every", "method", "op",
    ),
    "skt-hpl": (
        "n", "nb", "grid", "group_size", "interval_panels", "method", "seed",
        "procs_per_node",
    ),
}
