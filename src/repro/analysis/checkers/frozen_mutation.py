"""Frozen-mutation checker: ``object.__setattr__`` stays corralled.

The perf memos (canonical-bytes, digest, and envelope verify-verdict
caches, and the payload an envelope's signed bytes parse to) mutate
frozen message dataclasses through
``object.__setattr__`` at exactly one sanctioned site per memo, each
keyed by content hash so mutation cannot resurrect stale entries.
That design only holds if those remain the *only* sites: a stray
``object.__setattr__`` on a frozen message elsewhere silently breaks
the immutability arguments the signing and dedup layers rest on.

The rule: ``object.__setattr__(obj, attr, value)`` is allowed only in
the ``crypto``/``messages`` layers *and* only when ``attr`` is one of
the known memo attributes (by constant string or by the module-level
name that holds it).  Everything else -- including a sanctioned
attribute written from the wrong layer -- is a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.checkers.base import (
    Checker,
    FileContext,
    Finding,
    RuleSpec,
    dotted_name,
    register_checker,
)
from repro.analysis.layers import frozen_mutation_layer

#: Constant attribute values of the sanctioned memo slots.
ALLOWED_MEMO_ATTRS = frozenset({
    "_repro_verify_memo",      # messages.base: SignedPayload._checked
    "payload",                 # messages.base: SignedPayload.bind
    "_repro_payload_memo",     # messages.base: SignedPayload.bind
    "_repro_canonical_memo",   # crypto.digest: canonical-bytes memo
    "_repro_digest_memo",      # crypto.digest: hexdigest memo
})

#: Module-level constant names holding those values (the real call
#: sites pass the name, not the literal).
ALLOWED_MEMO_NAMES = frozenset({
    "_VERIFY_MEMO", "_PAYLOAD", "_PAYLOAD_MEMO", "_BYTES_MEMO",
    "_DIGEST_MEMO",
})


@register_checker
class FrozenMutationChecker(Checker):
    name = "frozen-mutation"
    RULES = (
        RuleSpec("frozen-mutation",
                 "object.__setattr__ outside the sanctioned "
                 "crypto/messages memo sites",
                 "PR 6 content-hash memos"),
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        layer_ok = frozen_mutation_layer(ctx.relpath)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if dotted_name(node.func) != "object.__setattr__":
                continue
            attr = node.args[1] if len(node.args) >= 2 else None
            if layer_ok and self._is_memo_attr(attr):
                continue
            label = self._attr_label(attr)
            if not layer_ok:
                why = ("only the crypto/messages memo layers may "
                       "mutate frozen instances")
            else:
                why = ("attribute is not an allowlisted memo slot "
                       f"({', '.join(sorted(ALLOWED_MEMO_ATTRS))})")
            yield ctx.finding(
                "frozen-mutation", node,
                f"object.__setattr__({label}) on a frozen instance: "
                f"{why}")

    @staticmethod
    def _is_memo_attr(attr) -> bool:
        if isinstance(attr, ast.Constant) and \
                attr.value in ALLOWED_MEMO_ATTRS:
            return True
        return isinstance(attr, ast.Name) and \
            attr.id in ALLOWED_MEMO_NAMES

    @staticmethod
    def _attr_label(attr) -> str:
        if isinstance(attr, ast.Constant):
            return repr(attr.value)
        if isinstance(attr, ast.Name):
            return attr.id
        return "<dynamic attribute>"
