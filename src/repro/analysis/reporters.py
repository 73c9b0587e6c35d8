"""Text and JSON reporters for lint results.

The JSON shape is schema-stable (pinned by
``tests/test_analysis_cli.py``): CI uploads it as an artifact and
downstream tooling may diff runs, so a key is renamed or removed only
together with a :data:`JSON_SCHEMA_VERSION` bump.
"""

from __future__ import annotations

import json

from repro.analysis.checkers import all_rules
from repro.analysis.engine import LintReport

#: Bumped when the JSON report's meaning changes incompatibly
#: (2: the lint baseline and its ``suppressed.baseline`` and
#: ``stale_baseline`` keys are gone).
JSON_SCHEMA_VERSION = 2


def render_text(report: LintReport) -> str:
    lines = [finding.format_text() for finding in report.findings]
    summary = (f"{report.files_scanned} file(s) scanned, "
               f"{len(report.findings)} finding(s)")
    if report.pragma_suppressed:
        summary += f" ({report.pragma_suppressed} pragma-allowed)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "rules": [
            {"id": spec.id, "summary": spec.summary,
             "motivation": spec.motivation}
            for spec in all_rules() if spec.id in report.rules
        ],
        "files_scanned": report.files_scanned,
        "findings": [f.to_dict() for f in report.findings],
        "suppressed": {"pragma": report.pragma_suppressed},
        "exit_code": 1 if report.findings else 0,
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def render_rule_list() -> str:
    lines = [f"{'rule':24s} {'motivation':28s} summary",
             "-" * 78]
    for spec in all_rules():
        lines.append(f"{spec.id:24s} {spec.motivation:28s} "
                     f"{spec.summary}")
    return "\n".join(lines)
