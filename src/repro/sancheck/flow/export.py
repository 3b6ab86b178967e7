"""Finding exporters shared by every sancheck analysis.

Two machine formats ride next to the ASCII report:

* **JSONL** — one JSON object per finding, fixed key order, sorted by
  the canonical finding key; byte-stable across runs and trivially
  diffable.
* **SARIF 2.1.0** — the static-analysis interchange format GitHub code
  scanning ingests; the ``check-deep`` CI job uploads it as an artifact.

Both exporters accept findings from either sancheck tool (simlint,
flow) — the rule vocabulary is namespaced ``tool/rule``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

from repro.sancheck.findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-sancheck"
TOOL_VERSION = "1.0.0"

_SARIF_LEVEL = {"error": "error", "warning": "warning", "note": "note"}


def finding_to_dict(f: Finding) -> Dict[str, object]:
    """Stable JSON shape of one finding (fixed key order)."""
    return {
        "tool": f.tool,
        "rule": f.rule,
        "severity": f.severity,
        "file": f.file,
        "line": f.line,
        "message": f.message,
    }


def to_jsonl(findings: Sequence[Finding]) -> str:
    lines = [
        json.dumps(finding_to_dict(f), sort_keys=False)
        for f in sorted(findings, key=Finding.sort_key)
    ]
    return "".join(line + "\n" for line in lines)


def to_sarif(findings: Sequence[Finding]) -> dict:
    ordered = sorted(findings, key=Finding.sort_key)
    rule_ids: List[str] = []
    for f in ordered:
        rid = f"{f.tool}/{f.rule}"
        if rid not in rule_ids:
            rule_ids.append(rid)
    results = []
    for f in ordered:
        result: Dict[str, object] = {
            "ruleId": f"{f.tool}/{f.rule}",
            "level": _SARIF_LEVEL.get(f.severity, "error"),
            "message": {"text": f.message},
        }
        if f.file:
            result["locations"] = [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.file},
                        "region": {"startLine": max(f.line, 1)},
                    }
                }
            ]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "informationUri": "https://example.invalid/repro",
                        "rules": [{"id": rid} for rid in rule_ids],
                    }
                },
                "results": results,
            }
        ],
    }


def write_jsonl(path: Path, findings: Sequence[Finding]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(to_jsonl(findings), encoding="utf-8")


def write_sarif(path: Path, findings: Sequence[Finding]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(
        json.dumps(to_sarif(findings), indent=2) + "\n",
        encoding="utf-8",
    )
