"""Command line of the benchmark.

Driver mode (what ``BENCHMARK.json`` ``command`` runs)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

measures one workload and prints one JSON object as the last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` the whole benchmark runs — an
untraced pass over all six workloads, then a traced pass — prints every
metric by name with its unit and writes a results JSON and a span file.
``compare A.json B.json`` and ``selftest`` are subcommands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from benchmarks.e2e import config


def _require_program() -> None:
    if not os.path.isdir(os.path.join(config.ROOT, "src", "repro")):
        print(f"e2e: no program to measure: {config.ROOT}/src/repro is missing",
              file=sys.stderr)
        sys.exit(2)


def _driver(args: argparse.Namespace) -> int:
    from benchmarks.e2e import report, rounds

    spec = config.load_benchmark_json()
    if args.trace:
        run = rounds.measure(args.workload, args.seed, args.seconds, trace=True)
        metrics, probe_spans = report.per_layer(run, args.seed)
        report.write_spans(run["spans"] + probe_spans, args.workload, args.seed)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        run = rounds.measure(args.workload, args.seed, args.seconds)
        metrics = rounds.end_to_end(run)
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"e2e: metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = rounds.failed_ops(run)
    for op in run["ops"]:
        for problem in op["problems"]:
            print(f"e2e: {args.workload}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(run["ops"]),
                "failed": failed,
                "metrics": {name: metrics[name] for name in wanted},
            }
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _require_program()
    # hidden child entry points (see rounds.run_child)
    if argv and argv[0] == "_round":
        from benchmarks.e2e import rounds

        return rounds.round_main(json.loads(argv[1]))
    if argv and argv[0] == "_probe":
        from benchmarks.e2e import probes

        return probes.probe_main(json.loads(argv[1]))
    if argv and argv[0] == "compare":
        from benchmarks.e2e import compare

        return compare.main(argv[1:])
    if argv and argv[0] == "selftest":
        from benchmarks.e2e import selftest

        return selftest.main(argv[1:])

    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(config.WORKLOADS),
                        help="measure one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="full benchmark: untraced runs per workload (default 3)")
    parser.add_argument("--out", default=config.TMP_DIR,
                        help="full benchmark: directory for the results and span files")
    parser.add_argument("--tag", default=None,
                        help="full benchmark: results file name stem (default: git SHA)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(config.load_benchmark_json()["run_seconds"])
    if args.workload:
        return _driver(args)
    from benchmarks.e2e import report

    return report.full_benchmark(args)
