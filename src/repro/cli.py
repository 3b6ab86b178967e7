"""Command-line interface: regenerate any paper table/figure from a shell.

Usage::

    python -m repro list
    python -m repro fig6
    python -m repro table3
    python -m repro all          # every target once (slow: live power-off checks)
    python -m repro report       # the same artifacts as one markdown document
    python -m repro check --all  # sanitizer suite (lint, flow)
    python -m repro obs --scenario skt-hpl --fail-at panel:3  # profile run
    python -m repro obs query --store out/obs.sqlite   # cross-run queries
    python -m repro chaos --smoke                # kill-matrix campaign
    python -m repro chaos --smoke --obs summary  # campaign + trace store

Each target prints the same ASCII table the corresponding benchmark emits;
the targets are the rows of :data:`repro.analysis.report.CATALOGUE`.
``check`` delegates to the :mod:`repro.sancheck` suite and exits non-zero
on any finding.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "check":
        from repro.sancheck.cli import check_main

        return check_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.obs.cli import obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.chaos.cli import chaos_main

        return chaos_main(argv[1:])

    from repro.analysis.report import build_report, render_target, targets

    names = sorted(targets() + ["report"])
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate tables/figures of 'Self-Checkpoint' (PPoPP'17); "
            "'repro check' runs the sanitizer suite."
        ),
    )
    parser.add_argument(
        "target",
        choices=names + ["list", "all", "check", "obs", "chaos"],
        help="which experiment to run ('check' = sanitizer suite, "
        "'obs' = instrumented profile run / trace-store queries, "
        "'chaos' = fault-injection campaign)",
    )
    args = parser.parse_args(argv)

    if args.target == "list":
        for name in names:
            print(name)
    elif args.target == "all":
        for name in targets():
            print(f"== {name} ==")
            print(render_target(name))
            print()
    elif args.target == "report":
        print(build_report(include_slow=True))
    else:
        print(render_target(args.target))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
