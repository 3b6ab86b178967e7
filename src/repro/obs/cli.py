"""``repro obs`` — instrumented runs, and queries over the trace store.

Usage::

    repro obs --scenario skt-hpl --fail-at panel:3 --out obs-out/
    repro obs run --scenario selfckpt --fail-at flush:2 --store obs.sqlite
    repro obs query --store obs.sqlite --verdict survived --name ckpt.flush
    repro obs query --store obs.sqlite --section summary --format jsonl

The bare form (no subcommand) is the original profile runner and stays
fully compatible: it writes a Perfetto-loadable ``trace.json``, a
``metrics.jsonl`` snapshot, the ASCII ``report.txt`` and a
machine-readable ``BENCH_obs.json`` into ``--out``.  ``run`` is the same
thing spelled explicitly, plus ``--store`` to also persist the run into
a :class:`~repro.obs.store.TraceStore`.  Exit status: 0 when the run's
campaign verdict is ``survived``, 1 for any other verdict (``not-fired``
included: a ``--fail-at`` that never fired is not a clean run), 2 for a
usage error — a shape no scenario can be built on (``--n 0``) and a
method that cannot be constructed on the requested shape included.

``query`` filters and aggregates the store (byte-stable tables or JSON
lines) and never writes to it; a bad ``--store``, ``--section``, ``--rank``
or ``--incarnation`` is one ``repro obs query:`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, NoReturn, Optional

from repro.ckpt import METHODS
from repro.obs.scenario import (
    SCENARIOS,
    parse_fail_at,
    run_scenario,
    store_run,
    summarize,
    write_artifacts,
)

SUBCOMMANDS = ("run", "query")


def _run_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description=(
            "Run an instrumented scenario and export spans/metrics "
            "(Chrome trace JSON, metrics JSON-lines, ASCII report, "
            "BENCH_obs.json)."
        ),
    )
    parser.add_argument(
        "--scenario",
        choices=SCENARIOS,
        default="skt-hpl",
        help="which application to run (default: skt-hpl)",
    )
    parser.add_argument(
        "--fail-at",
        default=None,
        metavar="PHASE[:K]",
        help="power off a node on the K-th announcement of PHASE "
        "(aliases: panel, flush, encode; e.g. 'panel:3')",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="matrix / workload seed"
    )
    parser.add_argument("--n", type=int, default=64, help="HPL problem size")
    parser.add_argument("--nb", type=int, default=8, help="HPL block size")
    parser.add_argument("--grid", default="2x2", help="process grid PxQ")
    parser.add_argument(
        "--method", choices=METHODS, default="self", help="checkpoint method"
    )
    parser.add_argument(
        "--group-size", type=int, default=4, help="checkpoint group size"
    )
    parser.add_argument(
        "--interval", type=int, default=2, help="checkpoint every K panels/iters"
    )
    parser.add_argument(
        "--out", default="obs-out", help="artifact directory (default: obs-out)"
    )
    parser.add_argument(
        "--store", default=None, metavar="DB",
        help="also ingest the run into this SQLite trace store",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="print the ASCII report without writing artifacts",
    )
    args = parser.parse_args(argv)

    try:
        p, q = (int(v) for v in args.grid.lower().split("x"))
    except ValueError:
        parser.error(f"--grid must look like PxQ, got {args.grid!r}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")

    try:
        parse_fail_at(args.fail_at)
    except ValueError as exc:
        parser.error(f"--fail-at: {exc}")

    from repro.chaos.campaign import VERDICT_SURVIVED, ChaosError

    try:
        run = run_scenario(
            args.scenario,
            fail_at=args.fail_at,
            seed=args.seed,
            n=args.n,
            nb=args.nb,
            p=p,
            q=q,
            group_size=args.group_size,
            interval_panels=args.interval,
            method=args.method,
            ckpt_every=args.interval,
        )
    except (ChaosError, ValueError) as err:
        print(f"repro obs: {err}", file=sys.stderr)
        return 2

    from repro.obs.report import render_report

    print(
        render_report(
            run.spans,
            run.registry,
            title=f"obs run report: {run.scenario} (seed {run.seed})",
        )
    )
    print()
    for line in summarize(run):
        print(line)

    if not args.report_only:
        paths = write_artifacts(run, args.out)
        for kind in sorted(paths):
            print(f"wrote {kind}: {paths[kind]}")

    if args.store is not None:
        from repro.obs.store import TraceStore

        with TraceStore(args.store) as store:
            run_id = store_run(store, run)
        print(f"stored run {run_id[:12]} in {args.store}")

    return 0 if run.verdict == VERDICT_SURVIVED else 1


def _parse_filter(args: argparse.Namespace):
    from repro.obs.query import QueryFilter

    def _csv(v: Optional[str]) -> tuple:
        return tuple(s.strip() for s in v.split(",") if s.strip()) if v else ()

    def _icsv(v: Optional[str]) -> tuple:
        return tuple(int(s) for s in _csv(v))

    return QueryFilter(
        kinds=_csv(args.kind),
        scenarios=_csv(args.scenario),
        methods=_csv(args.method),
        verdicts=_csv(args.verdict),
        campaign=args.campaign,
        label_like=args.label,
        names=_csv(args.name),
        ranks=_icsv(args.rank),
        incarnations=_icsv(args.incarnation),
    )


def _query_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs query",
        description=(
            "Filter and aggregate runs/spans/summaries across every "
            "campaign in a trace store (byte-stable output)."
        ),
    )
    parser.add_argument("--store", required=True, metavar="DB",
                        help="SQLite trace store to query")
    parser.add_argument("--kind", default=None,
                        help="run kinds (csv: kill,random,obs)")
    parser.add_argument("--scenario", default=None, help="scenario names (csv)")
    parser.add_argument("--method", default=None,
                        help="checkpoint methods (csv)")
    parser.add_argument("--verdict", default=None, help="verdicts (csv)")
    parser.add_argument("--campaign", default=None, help="exact campaign id")
    parser.add_argument("--label", default=None,
                        help="substring match on the attempt label")
    parser.add_argument("--name", default=None, help="span names (csv)")
    parser.add_argument("--rank", default=None, help="span ranks (csv of ints)")
    parser.add_argument("--incarnation", default=None,
                        help="span incarnations (csv of ints)")
    parser.add_argument(
        "--section", default="runs,spans,summary",
        help="which sections to emit (csv of runs,spans,summary)",
    )
    parser.add_argument(
        "--keys", default=None,
        help="restrict the summary section to these rollup keys (csv)",
    )
    parser.add_argument(
        "--format", choices=("table", "jsonl"), default="table",
        help="output format (default: table)",
    )
    args = parser.parse_args(argv)

    from repro.obs.query import SECTIONS, query_jsonl, query_report
    from repro.obs.store import NotATraceStore, TraceStore

    def usage_error(msg: str) -> NoReturn:
        """One line, no usage block: the message names the offending flag."""
        parser.exit(2, f"{parser.prog}: {msg}\n")

    try:
        flt = _parse_filter(args)
    except ValueError as err:
        usage_error(f"--rank / --incarnation take comma-separated integers ({err})")
    sections = tuple(s.strip() for s in args.section.split(",") if s.strip())
    if not sections or set(sections) - set(SECTIONS):
        usage_error(
            f"--section takes a csv of {','.join(SECTIONS)}, got {args.section!r}"
        )
    keys = (
        tuple(k.strip() for k in args.keys.split(",") if k.strip())
        if args.keys
        else None
    )
    try:
        store = TraceStore(args.store, readonly=True)
    except NotATraceStore as err:
        usage_error(str(err))
    with store:
        if args.format == "jsonl":
            sys.stdout.write(
                query_jsonl(store, flt, sections=sections, keys=keys)
            )
        else:
            print(query_report(store, flt, sections=sections, keys=keys))
    return 0


def obs_main(argv: Optional[List[str]] = None) -> int:
    """Dispatch on the first positional; bare flags mean ``run``.

    The original flag-only invocation (``repro obs --scenario ...``)
    predates the subcommands and must keep working — scripts and tests
    call it — so anything that does not start with a known subcommand
    falls through to the profile runner.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        sub, rest = argv[0], argv[1:]
        if sub == "run":
            return _run_main(rest)
        return _query_main(rest)
    return _run_main(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(obs_main())
