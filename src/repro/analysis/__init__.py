"""repro.analysis: repo-specific invariant linting.

An AST-based (stdlib ``ast``, zero dependencies) static-analysis pass
that encodes this repo's hard-won invariants as machine-checked
rules, so the bug classes past PRs fixed by hand -- process-salted
seeds (PR 3), garbage-collected send tasks (PR 2), frozen-dataclass
memo mutation (PR 6) -- fail CI instead of flaking a sweep a week
later.

Checkers (see the README's "Static analysis" section for the full
catalog):

- **determinism**: wall-clock/global-RNG/builtin-``hash()`` reads in
  sim-reachable layers (the layer map lives in
  :mod:`repro.analysis.layers`);
- **asyncio-safety**: dangling ``create_task``, ``get_event_loop``,
  blocking calls inside ``async def``;
- **frozen-mutation**: ``object.__setattr__`` outside the sanctioned
  memo sites;
- **crypto-boundary**: key-material reaches and ``hashlib`` digests
  outside ``repro.crypto``;
- **quorum-arithmetic**: bare ``2f+1``-style literals outside named
  quorum helpers;
- **wire-schema**: reflective ``to_wire``/``from_wire``/decode-table
  parity for every message dataclass.

Surface: ``python -m repro lint [--rule ID] [--format json]``;
programmatic entry is :func:`run_lint`.  Per-line pragmas
(``# repro: allow[rule-id]``) sanction exceptions in place; every other
finding fails the run.
"""

from repro.analysis.checkers import (
    CHECKER_REGISTRY,
    Checker,
    FileContext,
    RuleSpec,
    all_rules,
    register_checker,
)
from repro.analysis.engine import (
    DEFAULT_ROOTS,
    LintReport,
    available_rule_ids,
    repo_root,
    run_lint,
)
from repro.analysis.findings import Finding

__all__ = [
    "CHECKER_REGISTRY",
    "Checker",
    "FileContext",
    "RuleSpec",
    "register_checker",
    "all_rules",
    "available_rule_ids",
    "Finding",
    "LintReport",
    "run_lint",
    "repo_root",
    "DEFAULT_ROOTS",
]
