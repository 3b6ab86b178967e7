"""Chaos scenarios: small supervised applications with a known right answer.

A :class:`ChaosScenario` is a *recipe*: every :meth:`ChaosScenario.make`
call builds a fresh cluster and rank main, because campaign runs mutate
cluster state (dead nodes, consumed spares) and each kill point must start
from the same initial conditions.  The instance also carries a ``check``
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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.apps.iterative import IterativeConfig, iterative_answer_ok, iterative_main
from repro.hpl.daemon import RestartPolicy
from repro.par.spec import ScenarioSpec, register_scenario
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


@dataclass
class ChaosScenario:
    """A named scenario recipe; ``make()`` builds a fresh instance.

    ``spec`` is the pickleable :class:`~repro.par.spec.ScenarioSpec` a
    worker process rebuilds the scenario from; it is ``None`` when the
    recipe closes over something that cannot cross a process boundary
    (a ``protocol_factory`` closure), in which case the scenario is its
    own :attr:`recipe` and campaigns over it run in-process only.
    """

    name: str
    params: Dict[str, Any]
    factory: Callable[[], ScenarioInstance] = field(repr=False)
    spec: Optional[ScenarioSpec] = None

    def make(self) -> ScenarioInstance:
        return self.factory()

    @property
    def recipe(self) -> Any:
        """What a replay unit carries: the pickleable spec, else the
        scenario itself — in-process only and, fingerprint-less, uncached."""
        return self if self.spec is None else self.spec

    def build(self) -> "ChaosScenario":
        """Mirror of ``ScenarioSpec.build``: a scenario builds to itself."""
        return self


def _policy_fields(policy: RestartPolicy) -> Tuple[float, float, float, int]:
    return (
        policy.detect_s,
        policy.replace_s,
        policy.restart_s,
        policy.max_restarts,
    )


def _policy_from_fields(fields: Any) -> RestartPolicy:
    detect_s, replace_s, restart_s, max_restarts = fields
    return RestartPolicy(
        detect_s=float(detect_s),
        replace_s=float(replace_s),
        restart_s=float(restart_s),
        max_restarts=int(max_restarts),
    )


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
    node — here, not in the first run's cluster or job constructor.
    """
    if n_nodes < 1 or procs_per_node < 1:
        raise ValueError(
            "selfckpt needs n_nodes >= 1 and procs_per_node >= 1, got "
            f"n_nodes={n_nodes}, procs_per_node={procs_per_node}"
        )
    n_ranks = n_nodes * procs_per_node
    spares = n_spares if n_spares is not None else 4 * n_nodes + 4
    cfg = IterativeConfig(
        iters=iters,
        ckpt_every=ckpt_every,
        method=method,
        group_size=group_size,
        op=op,
        protocol_factory=protocol_factory,
    )

    def check(result: JobResult) -> bool:
        return iterative_answer_ok(cfg, result.rank_results, n_ranks)

    def factory() -> ScenarioInstance:
        return ScenarioInstance(
            cluster=Cluster(n_nodes, n_spares=spares),
            main=iterative_main,
            n_ranks=n_ranks,
            args=(cfg,),
            procs_per_node=procs_per_node,
            policy=policy or FAST_POLICY,
            check=check,
        )

    spec = None
    if protocol_factory is None:
        # everything else round-trips through a pickleable spec; a custom
        # protocol closure cannot, so such scenarios stay serial-only
        spec = ScenarioSpec.create(
            "selfckpt",
            n_nodes=n_nodes,
            procs_per_node=procs_per_node,
            group_size=group_size,
            iters=iters,
            ckpt_every=ckpt_every,
            method=method,
            op=op,
            n_spares=spares,
            policy=_policy_fields(policy or FAST_POLICY),
        )
    return ChaosScenario(
        name="selfckpt",
        params={
            "n_nodes": n_nodes,
            "procs_per_node": procs_per_node,
            "group_size": group_size,
            "iters": iters,
            "ckpt_every": ckpt_every,
            "method": method,
            "op": op,
        },
        factory=factory,
        spec=spec,
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
    checks) or ``procs_per_node < 1``.
    """
    from repro.hpl import HPLConfig, SKTConfig, skt_hpl_main

    if procs_per_node < 1:
        raise ValueError(f"skt-hpl needs procs_per_node >= 1, got {procs_per_node}")
    cfg = HPLConfig(n=n, nb=nb, p=p, q=q, seed=seed)
    scfg = SKTConfig(
        hpl=cfg,
        method=method,
        group_size=group_size,
        interval_panels=interval_panels,
    )
    n_ranks = cfg.n_ranks
    n_nodes = math.ceil(n_ranks / procs_per_node)
    spares = n_spares if n_spares is not None else 4 * n_nodes + 4

    def check(result: JobResult) -> bool:
        for r in range(n_ranks):
            res = result.rank_results.get(r)
            if res is None or not res.hpl.passed:
                return False
        return True

    def factory() -> ScenarioInstance:
        return ScenarioInstance(
            cluster=Cluster(n_nodes, n_spares=spares),
            main=skt_hpl_main,
            n_ranks=n_ranks,
            args=(scfg,),
            procs_per_node=procs_per_node,
            policy=policy or FAST_POLICY,
            check=check,
        )

    spec = ScenarioSpec.create(
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
        n_spares=spares,
        policy=_policy_fields(policy or FAST_POLICY),
    )
    return ChaosScenario(
        name="skt-hpl",
        params={
            "n": n,
            "nb": nb,
            "grid": f"{p}x{q}",
            "group_size": group_size,
            "interval_panels": interval_panels,
            "method": method,
            "seed": seed,
            "procs_per_node": procs_per_node,
        },
        factory=factory,
        spec=spec,
    )


# -- spec builders: how worker processes rebuild these scenarios --------------
def _selfckpt_from_spec(**kwargs: Any) -> ChaosScenario:
    kwargs = dict(kwargs)
    kwargs["policy"] = _policy_from_fields(kwargs["policy"])
    return selfckpt_scenario(**kwargs)


def _skt_from_spec(**kwargs: Any) -> ChaosScenario:
    kwargs = dict(kwargs)
    kwargs["policy"] = _policy_from_fields(kwargs["policy"])
    return skt_scenario(**kwargs)


register_scenario("selfckpt", _selfckpt_from_spec)
register_scenario("skt-hpl", _skt_from_spec)
