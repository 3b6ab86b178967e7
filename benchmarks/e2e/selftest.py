"""``selftest``: the benchmark checking itself, at miniature sizes (< 30 s).

* ``BENCHMARK.json`` keeps the contract: exact keys, name and unit
  alphabets, 2-8 workloads, <= 16 end-to-end and <= 128 per-layer metrics,
  bounds <= 0.25, ``setup_s`` present;
* a run emits every metric ``BENCHMARK.json`` names, under names of the
  allowed alphabet;
* the span file is a forest: every parent exists, children lie inside
  their parents;
* the traced and untraced chaos paths write the same artifact bytes;
* the checks bite: a deliberately broken protocol, injected through
  ``CheckpointManager(protocol_factory=...)``, makes ops fail.
"""

from __future__ import annotations

import re
import time
from typing import Any, Dict, List

from benchmarks.e2e import config, hosttrace, report, rounds

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def contract_problems(spec: Dict[str, Any]) -> List[str]:
    bad: List[str] = []
    if set(spec) != KEYS:
        bad.append(f"keys {sorted(spec)} != {sorted(KEYS)}")
        return bad
    if spec["paths"] != ["benchmarks/e2e"]:
        bad.append(f"paths {spec['paths']}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        bad.append("run_seconds not a whole number in 1..60")
    if not 2 <= len(spec["workloads"]) <= 8:
        bad.append(f"{len(spec['workloads'])} workloads")
    if [w["name"] for w in spec["workloads"]] != list(config.WORKLOADS):
        bad.append("workloads differ from config.WORKLOADS")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            bad.append(f"workload entry {w.get('name')}")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        bad.append(f"{len(spec['end_to_end'])} end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        bad.append(f"{len(spec['per_layer'])} per-layer metrics")
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in spec[k]]
    bad += [f"name {n!r} outside the alphabet" for n in names if not NAME.match(n)]
    bad += [f"name {n!r} used twice" for n in sorted(set(names)) if names.count(n) > 1]
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            bad.append(f"end-to-end entry {m.get('name')}")
        elif not 0 <= m["bound"] <= 0.25:
            bad.append(f"end-to-end {m['name']}: bound {m['bound']}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            bad.append(f"per-layer entry {m.get('name')}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m.get("unit", "")) or m.get("better") not in ("lower", "higher"):
            bad.append(f"metric {m.get('name')}: unit/better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        bad.append("setup_s missing or not (s, lower)")
    return bad


def main(argv: List[str]) -> int:
    t0 = time.time()
    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    spec = config.load_benchmark_json()
    problems = contract_problems(spec)
    check(not problems, f"BENCHMARK.json keeps the contract {problems or ''}")

    run = rounds.measure("ckpt_tiny", 0, 0.3, mini=True)
    e2e = rounds.end_to_end(run)
    declared = [m["name"] for m in spec["end_to_end"]]
    check(set(declared) <= set(e2e), "untraced run emits every end-to-end metric")
    check(all(m["value"] > 0 for m in e2e.values()), "end-to-end metrics are never 0")
    check(rounds.failed_ops(run) == 0, "healthy protocols pass every check")

    traced = rounds.measure("chaos_serial", 0, 0.3, trace=True, mini=True)
    layer, probe_spans = report.per_layer(traced, 0, mini=True)
    declared = [m["name"] for m in spec["per_layer"]]
    missing = sorted(set(declared) - set(layer))
    check(not missing, f"traced run emits every per-layer metric {missing or ''}")
    extra = sorted(set(layer) - set(declared))
    check(not extra, f"every emitted per-layer metric is declared {extra or ''}")
    check(all(NAME.match(n) for n in layer), "emitted names match [A-Za-z0-9_.-]+")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    wrong = sorted(n for n in layer if n in units and layer[n]["unit"] != units[n])
    check(not wrong, f"emitted units equal the declared ones {wrong or ''}")
    check(rounds.failed_ops(traced) == 0, "traced chaos ops pass every check")
    check(len({op["digest"] for op in traced["ops"]}) == 1,
          "traced and untraced chaos paths write identical artifacts")

    bulk = rounds.measure("ckpt_bulk", 0, 0.3, trace=True, mini=True)
    spans = report.keyed_spans(traced["spans"] + bulk["spans"] + probe_spans)
    forest = hosttrace.forest_problems(spans)
    check(len(spans) > 20 and not forest, f"{len(spans)} spans form a forest {forest[:3] or ''}")
    mains = [s for s in spans if s["name"] == "rank0.main"]
    check(bool(mains) and all(s["parent"] is not None for s in mains),
          "rank 0's spans hang under JobDaemon.run")

    broken = rounds.measure("ckpt_tiny", 0, 0.3, mini=True, broken=True)
    n_failed = rounds.failed_ops(broken)
    check(n_failed > 0, f"a silently corrupting protocol fails ops "
                        f"({n_failed}/{len(broken['ops'])} failed)")

    print(f"selftest: {len(failures)} failure(s) in {time.time() - t0:.1f} s")
    return 1 if failures else 0

