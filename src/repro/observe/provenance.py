"""Instruction provenance: which rule chain produced each node.

Every rewrite application (and every definitional FPIR expansion or
generic residue mapping in the lowerer) records a
:class:`ProvenanceEntry` against the *new* structure it created.  Entries
link to the entry of the node they replaced, so following ``parent``
pointers recovers the full lift → lower chain that turned a source
subtree into an emitted instruction — the data behind ``--explain``.

Keying is by hash-consed node identity (structurally equal expressions
are the same object), so lookups survive memoized rewriting: a rule that
fired once on a shared subtree annotates every occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.expr import Expr
from ..ir.traversal import subexpressions

__all__ = ["Provenance", "ProvenanceEntry"]


@dataclass(frozen=True)
class ProvenanceEntry:
    """One production step: ``rule`` (from ``source``) fired in ``phase``.

    ``parent`` is the entry of the node this step consumed, forming a
    chain back to the original source expression.
    """

    phase: str
    rule: str
    source: str
    parent: Optional["ProvenanceEntry"] = None

    def chain(self) -> List["ProvenanceEntry"]:
        """The full production chain, earliest step first."""
        steps: List[ProvenanceEntry] = []
        cur: Optional[ProvenanceEntry] = self
        while cur is not None:
            steps.append(cur)
            cur = cur.parent
        steps.reverse()
        return steps

    def describe(self) -> str:
        """Human-readable chain, e.g. ``lift:lift-absd -> lower:arm-uabd``."""
        return " -> ".join(f"{e.phase}:{e.rule}" for e in self.chain())


class Provenance:
    """Node → production-step map for one compilation."""

    def __init__(self) -> None:
        self._by_node: Dict[Expr, ProvenanceEntry] = {}

    def record(
        self, phase: str, rule: str, source: str, before: Expr, after: Expr
    ) -> None:
        """Attribute the structure ``after`` introduced to ``rule``.

        Only nodes that are *new* — present in ``after`` but not in
        ``before`` — are attributed; subtrees the rule merely moved (bound
        through wildcards) keep whatever provenance they already had.
        Leaves are never attributed: constants and variables are shared
        process-wide by hash-consing and carry no instruction.  Both trees
        are walked once per distinct node: every node gets this one entry,
        so a repeated occurrence could add nothing.
        """
        entry = ProvenanceEntry(
            phase=phase,
            rule=rule,
            source=source,
            parent=self._by_node.get(before),
        )
        before_nodes = set(subexpressions(before))
        by_node = self._by_node
        for node in subexpressions(after):
            if not node.children or node in before_nodes:
                continue
            if node not in by_node:
                by_node[node] = entry
        # A rule may rewrite to an existing subtree (pure reordering);
        # still claim the root so the chain stays connected.
        if after.children and after not in by_node:
            by_node[after] = entry

    def inherit(self, old: Expr, new: Expr) -> None:
        """Carry ``old``'s production step over to its rebuilt form.

        Rewriting reconstructs a node whenever a child changes
        (``with_children``); the rebuilt node is the *same* production
        step with updated operands, so it keeps the original entry.
        Without this the chain would break at every interior rebuild.
        """
        if new is old:
            return
        entry = self._by_node.get(old)
        if entry is not None and new not in self._by_node:
            self._by_node[new] = entry

    # -- queries -------------------------------------------------------
    def entry(self, node: Expr) -> Optional[ProvenanceEntry]:
        """The last production step for ``node``, if any was recorded."""
        return self._by_node.get(node)

    def chain(self, node: Expr) -> List[ProvenanceEntry]:
        """Full production chain for ``node`` (empty for source nodes)."""
        e = self._by_node.get(node)
        return e.chain() if e is not None else []

    def rules_for(self, node: Expr) -> List[str]:
        """The rule names in ``node``'s chain, earliest first."""
        return [e.rule for e in self.chain(node)]

    def describe(self, node: Expr) -> str:
        """``lift:ruleA -> lower:ruleB`` for ``node`` (may be empty)."""
        e = self._by_node.get(node)
        return e.describe() if e is not None else ""

    def __len__(self) -> int:
        return len(self._by_node)

    def __contains__(self, node: Expr) -> bool:
        return node in self._by_node
