"""Finding: one rule violation at one source location.

Findings are plain frozen dataclasses so reporters and tests can
compare them by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    ``path`` is repo-root-relative with forward slashes (stable across
    machines and OSes, so JSON reports diff cleanly).
    ``line``/``col`` are 1-based/0-based as in :mod:`ast`.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format_text(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"[{self.rule}] {self.message}")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
