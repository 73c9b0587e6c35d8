"""``python -m repro lint``: argument wiring and exit codes.

Exit codes: 0 clean (after pragma suppression), 1 findings, 2
usage/configuration errors (via ``ReproError`` in ``repro.__main__``).
"""

from __future__ import annotations

import argparse

from repro.analysis.engine import run_lint
from repro.analysis.reporters import (
    render_json,
    render_rule_list,
    render_text,
)


def add_lint_parser(sub) -> None:
    """Attach the ``lint`` subparser (called from ``repro.__main__``)."""
    lint = sub.add_parser(
        "lint",
        help="run the repo-invariant static analysis "
             "(determinism, asyncio-safety, crypto boundaries, "
             "wire-schema parity)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to scan "
                           "(default: src/repro)")
    lint.add_argument("--rule", action="append", default=[],
                      metavar="ID",
                      help="run only this rule id (repeatable; "
                           "see --list-rules)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="report format (json is schema-stable; "
                           "CI uploads it as an artifact)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(render_rule_list())
        return 0
    report = run_lint(paths=args.paths or None,
                      rules=args.rule or None)
    if args.format == "json":
        print(render_json(report), end="")
    else:
        print(render_text(report))
    return 1 if report.findings else 0
