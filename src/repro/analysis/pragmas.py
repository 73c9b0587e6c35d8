"""Per-line pragma suppressions: ``# repro: allow[rule-id]``.

A pragma sanctions one finding at one site, in the code itself, where
reviewers see it (the scenario runner's ``wall_seconds`` stopwatch, the
sweep cache's content-address hash).  It is the only suppression: any
other finding fails ``python -m repro lint``.

Syntax::

    wall_start = time.perf_counter()  # repro: allow[wall-clock]
    # repro: allow[digest-outside-crypto] -- cache key, not protocol
    digest = hashlib.sha256(blob).hexdigest()

- Several ids may be listed: ``allow[wall-clock,global-random]``.
- ``allow[*]`` suppresses every rule on the line (use sparingly).
- A pragma on a *comment-only* line covers the next code line, for
  statements that don't leave room for a trailing comment.
- Trailing prose after the closing bracket is ignored, so pragmas can
  carry their own justification.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List

_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\- ]+)\]")

#: Sentinel meaning "every rule".
ALLOW_ALL = "*"


def parse_pragmas(lines: List[str]) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line number -> rule ids allowed on that line.

    Comment-only pragma lines forward their allowance to the next
    line (chains of comment lines forward through to the first code
    line), and also keep it for themselves so a finding *on* the
    comment line is covered either way.
    """
    allowed: Dict[int, FrozenSet[str]] = {}
    carry: FrozenSet[str] = frozenset()
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        here: FrozenSet[str] = frozenset()
        if match:
            here = frozenset(
                token.strip() for token in match.group(1).split(",")
                if token.strip())
        combined = here | carry
        if combined:
            allowed[lineno] = combined
        stripped = text.strip()
        if stripped.startswith("#"):
            # Comment-only line: forward to the next line.
            carry = combined
        else:
            carry = frozenset()
    return allowed


def is_allowed(allowed: Dict[int, FrozenSet[str]], line: int,
               rule: str) -> bool:
    ids = allowed.get(line)
    if not ids:
        return False
    return rule in ids or ALLOW_ALL in ids
