"""The lint engine: discover -> parse -> check -> suppress.

One :func:`run_lint` call parses every Python file under the scanned
roots once, hands each :class:`FileContext` to every selected AST
checker, runs the project-level (reflective) checkers once, then
filters the raw findings through per-line pragmas.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.analysis.checkers import CHECKER_REGISTRY, FileContext, all_rules
from repro.analysis.findings import Finding
from repro.analysis.pragmas import is_allowed, parse_pragmas

#: Default scan roots, relative to the repo root.
DEFAULT_ROOTS = ("src/repro",)


def repo_root() -> Path:
    """The repository root, derived from the installed package
    location (``src/repro/...`` -> two parents up from ``repro``)."""
    import repro

    return Path(repro.__file__).resolve().parents[2]


def available_rule_ids() -> List[str]:
    return [spec.id for spec in all_rules()]


@dataclass
class LintReport:
    """Findings surviving pragma suppression, plus bookkeeping."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    pragma_suppressed: int = 0
    rules: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def _iter_python_files(roots: Sequence[Path]) -> Iterable[Path]:
    for root in roots:
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(
                d for d in dirnames
                if d != "__pycache__" and not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield Path(dirpath) / name


def _relpath(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root)
    except ValueError:
        rel = path
    return str(rel).replace(os.sep, "/")


def run_lint(paths: Optional[Sequence[str]] = None,
             rules: Optional[Sequence[str]] = None,
             root: Optional[str] = None) -> LintReport:
    """Run the selected checkers and return pragma-filtered findings.

    ``paths``: files/directories to scan (default: ``src/repro``
    under the repo root).  ``rules``: restrict to these rule ids
    (default: all).  ``root``: repo root override for relative paths.
    """
    base = Path(root).resolve() if root else repo_root()
    selected: Optional[FrozenSet[str]] = None
    if rules:
        known = set(available_rule_ids())
        unknown = sorted(set(rules) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown rule id(s) {', '.join(unknown)}; available: "
                f"{', '.join(sorted(known))}")
        selected = frozenset(rules)

    scan_roots = [Path(p) if os.path.isabs(p) else base / p
                  for p in (paths or DEFAULT_ROOTS)]
    for scan_root in scan_roots:
        if not scan_root.exists():
            raise ConfigurationError(
                f"lint path {str(scan_root)!r} does not exist")

    checkers = []
    active_rules: List[str] = []
    for cls in CHECKER_REGISTRY.values():
        checker = cls()
        ids = [r for r in checker.rule_ids()
               if selected is None or r in selected]
        if ids:
            checkers.append(checker)
            active_rules.extend(ids)

    raw: List[Finding] = []
    pragma_maps: Dict[str, Dict[int, FrozenSet[str]]] = {}
    files_scanned = 0
    for path in _iter_python_files(scan_roots):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise ConfigurationError(
                f"cannot parse {path}: {exc}") from None
        relpath = _relpath(path, base)
        lines = source.splitlines()
        pragma_maps[relpath] = parse_pragmas(lines)
        ctx = FileContext(relpath=relpath, tree=tree, lines=lines)
        files_scanned += 1
        for checker in checkers:
            for finding in checker.check_file(ctx):
                if selected is None or finding.rule in selected:
                    raw.append(finding)

    for checker in checkers:
        for finding in checker.check_project(str(base)):
            if selected is None or finding.rule in selected:
                raw.append(finding)

    report = LintReport(files_scanned=files_scanned,
                        rules=sorted(active_rules))
    for finding in sorted(raw, key=Finding.sort_key):
        allowed = pragma_maps.get(finding.path)
        if allowed is None:
            # Project-checker finding in a file outside the scanned
            # set: load its pragmas lazily so suppressions work the
            # same everywhere.
            target = base / finding.path
            try:
                allowed = parse_pragmas(
                    target.read_text(encoding="utf-8").splitlines())
            except OSError:
                allowed = {}
            pragma_maps[finding.path] = allowed
        if is_allowed(allowed, finding.line, finding.rule):
            report.pragma_suppressed += 1
        else:
            report.findings.append(finding)
    return report
