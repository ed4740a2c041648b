"""E-graph lifting: equality saturation + lowest-cost extraction.

The greedy TRS of §3.2 commits to the first (cheapest-output) rule at
every node and never backtracks, so it can strand an expression in a
local cost minimum: firing a small rule at a child may destroy the larger
pattern a later rule needed.  This module adds an alternative lift
strategy that keeps *every* discovered form:

* an **e-graph** stores equivalence classes (e-classes) of terms; each
  e-class holds e-nodes — an operator plus child e-class ids — deduped by
  a hash-cons keyed on canonical child ids (congruence closure via a
  rebuild after unions that re-keys only the e-nodes they touched);
* **saturation** repeatedly concretizes every e-node with its children's
  current best representatives, runs the rule index over the resulting
  term, and unions each rewrite output into the e-node's class.  No cost
  gate is applied during exploration (that is the point — locally
  worsening steps are allowed); termination comes from rule/iteration/
  node budgets instead of well-foundedness;
* **extraction** then selects the lowest-cost concrete term per e-class
  under the existing lexicographic target-agnostic cost model, by
  fixed-point relaxation (sound for this model because lexicographic
  order over additive components is translation-invariant, so per-child
  minima compose into parent minima).  :meth:`EGraph.top_terms`
  generalizes this to the K cheapest distinct terms per class, which
  gives the lifter a small *candidate set* instead of a single answer.
  Both relax costs, not terms: the same additivity gives a candidate's
  cost before it is built, so only the terms they keep are built, and
  :meth:`EGraph.top_terms` builds only the asked-for class's.

The strategy is *anchored to greedy*: the greedy fixed point is seeded
into the e-graph and unioned with the root class before saturation, so
the extracted cost is never above greedy's.  Without a scorer, the
greedy term is returned unless extraction found something strictly
cheaper under the target-agnostic model.  With a ``scorer`` (the
pipeline wires in "lower the candidate and count simulated cycles"),
the candidate set is ranked by ``(score, agnostic cost, greedy-first)``
— so the result is never worse than greedy in scored cycles, never
worse in agnostic cost on a cycle tie, and byte-identical to greedy
when nothing strictly better exists.  This is where the e-graph pays
off: the agnostic cost is only a proxy, and keeping every equal-or-
near-cost form alive until a target model can judge them is exactly
what the greedy TRS cannot do.

Matching is representative-based (each e-node is concretized once per
iteration with best child terms) rather than full e-matching over the
cross-product of class members; this is deliberately incomplete but
deterministic and cheap, and in practice finds the cross-child-ordering
escapes that greedy misses.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.expr import Expr
from .costs import Cost, cost, local_cost
from .index import RuleIndex
from .rule import Rule, RuleContext

__all__ = ["EGraph", "EGraphLifter", "SaturationStats"]


class _ENode:
    """One operator application over e-class ids.

    ``template`` is the concrete :class:`Expr` that first produced this
    e-node; rebuilding a term for this node is
    ``template.with_children(best child terms)``, which also carries the
    non-child fields (types, constant values, var names) along.
    ``reason`` records the rule application that introduced the node
    (``None`` for seeded nodes) as ``(rule, before, after)``.  ``local``
    is the template's :func:`~repro.trs.costs.local_cost`: a term this
    node builds costs ``local`` plus its child terms' costs.
    """

    __slots__ = ("template", "child_cids", "cid", "reason", "local")

    def __init__(
        self,
        template: Expr,
        child_cids: Tuple[int, ...],
        cid: int,
        reason: Optional[Tuple[Rule, Expr, Expr]],
    ):
        self.template = template
        self.child_cids = child_cids
        self.cid = cid
        self.reason = reason


class SaturationStats:
    """Shape of one saturation run (for telemetry and tests)."""

    __slots__ = ("iterations", "enodes", "eclasses", "applications", "saturated")

    def __init__(self, iterations, enodes, eclasses, applications, saturated):
        self.iterations = iterations
        self.enodes = enodes
        self.eclasses = eclasses
        self.applications = applications
        self.saturated = saturated


class EGraph:
    """E-classes over hash-consed e-nodes with congruence closure.

    Class ids are small ints; union keeps the *smaller* root id as the
    representative, which together with in-order e-node iteration makes
    every operation deterministic (no object-identity or hash-order
    dependence).
    """

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._enodes: List[_ENode] = []
        #: canonical key -> e-node index
        self._hashcons: Dict[tuple, int] = {}
        #: interned Expr -> cid at the time it was added (find() refreshes)
        self._expr_cid: Dict[Expr, int] = {}
        #: root cid -> ids of the e-nodes with a child in that class
        self._users: Dict[int, List[int]] = {}
        #: e-nodes whose key a union since the last rebuild made stale
        self._stale: List[int] = []

    # -- union-find ----------------------------------------------------
    def find(self, cid: int) -> int:
        parent = self._parent
        while parent[cid] != cid:
            parent[cid] = parent[parent[cid]]
            cid = parent[cid]
        return cid

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if rb < ra:
            ra, rb = rb, ra
        self._parent[rb] = ra
        users = self._users.pop(rb, None)
        if users:
            self._users.setdefault(ra, []).extend(users)
            self._stale.extend(users)
        return ra

    # -- construction --------------------------------------------------
    def _canon_key(self, enode: _ENode) -> tuple:
        t = enode.template
        kids = iter(enode.child_cids)
        parts: List[object] = [type(t)]
        for f in t._fields:
            v = getattr(t, f)
            if isinstance(v, Expr):
                parts.append(self.find(next(kids)))
            else:
                parts.append(("v", v))
        return tuple(parts)

    def add(
        self,
        expr: Expr,
        reason: Optional[Tuple[Rule, Expr, Expr]] = None,
    ) -> int:
        """Insert ``expr`` (recursively); returns its e-class id."""
        cached = self._expr_cid.get(expr)
        if cached is not None:
            return self.find(cached)
        child_cids = tuple(self.add(c) for c in expr.children)
        probe = _ENode(expr, child_cids, -1, reason)
        key = self._canon_key(probe)
        nid = self._hashcons.get(key)
        if nid is not None:
            cid = self.find(self._enodes[nid].cid)
        else:
            cid = len(self._parent)
            self._parent.append(cid)
            probe.cid = cid
            probe.local = local_cost(expr)
            nid = len(self._enodes)
            self._enodes.append(probe)
            self._hashcons[key] = nid
            for ccid in set(child_cids):
                self._users.setdefault(ccid, []).append(nid)
        self._expr_cid[expr] = cid
        return cid

    def rebuild(self) -> None:
        """Restore congruence after unions.

        A union makes stale only the keys of its merged-away class's
        users, so only those are re-keyed; a key that collides with an
        e-node of another class merges the two, and so on until no union
        happens.  The result is the congruence closure whatever the
        order, with each class's minimum id as its root.  Stale keys stay
        in the hashcons, but each names a merged-away class, which
        :meth:`find` never returns, so no lookup hits one.
        """
        enodes = self._enodes
        hashcons = self._hashcons
        while self._stale:
            todo = sorted(set(self._stale))
            self._stale = []
            for nid in todo:
                en = enodes[nid]
                other = hashcons.setdefault(self._canon_key(en), nid)
                if other != nid:
                    self.union(enodes[other].cid, en.cid)

    # -- analysis ------------------------------------------------------
    def n_classes(self) -> int:
        return len({self.find(c) for c in range(len(self._parent))})

    def best_terms(self) -> Dict[int, Tuple[Cost, Expr, int]]:
        """Lowest-cost concrete term per e-class, by fixed-point
        relaxation; maps root cid -> (cost, term, e-node index).

        The relaxation runs on costs alone.  An e-node's cost is its
        local cost plus its child classes' best costs: the cost is
        additive, and each class holds terms of one type, so that is the
        cost of the term the node would build.  Each class builds its
        winning term once, after the fixed point, from its children's
        winning terms.
        """
        find = self.find
        best: Dict[int, Tuple[Cost, int]] = {}
        changed = True
        while changed:
            changed = False
            for nid, en in enumerate(self._enodes):
                w, r, n = en.local
                for ccid in en.child_cids:
                    b = best.get(find(ccid))
                    if b is None:
                        break
                    cw, cr, cn = b[0]
                    w += cw
                    r += cr
                    n += cn
                else:
                    c = (w, r, n)
                    cid = find(en.cid)
                    cur = best.get(cid)
                    if cur is None or c < cur[0]:
                        best[cid] = (c, nid)
                        changed = True

        terms: Dict[int, Expr] = {}

        def build(cid: int) -> Expr:
            term = terms.get(cid)
            if term is None:
                en = self._enodes[best[cid][1]]
                term = (
                    en.template
                    if not en.child_cids
                    else en.template.with_children(
                        [build(find(c)) for c in en.child_cids]
                    )
                )
                terms[cid] = term
            return term

        return {cid: (c, build(cid), nid) for cid, (c, nid) in best.items()}

    def top_terms(
        self,
        k: int,
        root: int,
        max_passes: int = 12,
        max_combos: int = 24,
    ) -> Tuple[List[Tuple[Cost, Expr]], Dict[Expr, int]]:
        """The K cheapest distinct concrete terms of the class ``root``.

        K-best relaxation: each pass takes every e-node over (a bounded
        cross product of) its children's current K-best entries and
        inserts any new entry that beats its class's current K-th cost.
        Returns ``([(cost, term)] ascending, term -> e-node id)`` — the
        second map remembers which e-node built each term and subterm,
        so :meth:`reasons_for_term` can attribute rule provenance.

        New cost-equal entries stop entering once the K-th slot is filled
        with a cheaper-or-equal cost, and cyclic derivations strictly grow
        the node-count cost component, so the relaxation converges;
        ``max_passes`` is a defensive cap only.

        The relaxation builds no term.  An entry is a derivation: its
        cost (the e-node's local cost plus its child entries' costs), its
        e-node and its child entries.  Distinct entries of a class stand
        for distinct terms, so an entry is new unless its class holds one
        with the same canonical key and child entries.  A combo that
        cannot beat the K-th cost fails again later, since that cost only
        falls, and an e-node none of whose child lists changed since its
        last visit is skipped: its combos are the ones it already tried.
        Only ``root``'s entries, and those under them, become terms.
        """
        find = self.find
        enodes = self._enodes
        #: class -> K-best [(cost, entry id)], ascending
        tops: Dict[int, List[Tuple[Cost, int]]] = {}
        #: entry id -> (e-node id, child entry ids)
        entries: List[Tuple[int, Tuple[int, ...]]] = []
        #: (class, canonical key, child entry ids) of every entry so far
        seen: set = set()
        keys: Dict[int, tuple] = {}
        #: inserts so far; the count at each class's latest insert and
        #: at each e-node's latest visit
        inserts = 0
        changed_at: Dict[int, int] = {}
        visited_at: Dict[int, int] = {}

        for _ in range(max_passes):
            changed = False
            for nid, en in enumerate(enodes):
                kid_cids = [find(ccid) for ccid in en.child_cids]
                last = visited_at.get(nid)
                if last is not None and all(
                    [changed_at[ccid] <= last for ccid in kid_cids]
                ):
                    continue
                lists: List[List[Tuple[Cost, int]]] = []
                for ccid in kid_cids:
                    kid_list = tops.get(ccid)
                    if kid_list is None:
                        break
                    lists.append(kid_list)
                else:
                    visited_at[nid] = inserts
                    cid = find(en.cid)
                    lw, lr, ln = en.local
                    # product() copies the lists before the first insert
                    for combo in itertools.islice(
                        itertools.product(*lists), max_combos
                    ):
                        w, r, n = lw, lr, ln
                        for (cw, cr, cn), _ in combo:
                            w += cw
                            r += cr
                            n += cn
                        c = (w, r, n)
                        lst = tops.get(cid)
                        if lst is not None and len(lst) >= k and not (
                            c < lst[-1][0]
                        ):
                            continue
                        kids = tuple([e for _, e in combo])
                        key = keys.get(nid)
                        if key is None:
                            key = keys[nid] = self._canon_key(en)
                        key = (cid, key, kids)
                        if key in seen:
                            continue
                        seen.add(key)
                        if lst is None:
                            lst = tops[cid] = []
                        # ids ascend, so this keeps equal costs in order
                        bisect.insort(lst, (c, len(entries)))
                        entries.append((nid, kids))
                        del lst[k:]
                        inserts += 1
                        changed_at[cid] = inserts
                        changed = True
            if not changed:
                break

        terms: Dict[int, Expr] = {}
        builder: Dict[Expr, int] = {}

        def build(eid: int) -> Expr:
            term = terms.get(eid)
            if term is None:
                nid, kids = entries[eid]
                template = enodes[nid].template
                term = (
                    template.with_children([build(e) for e in kids])
                    if kids
                    else template
                )
                terms[eid] = term
                builder.setdefault(term, nid)
            return term

        return [(c, build(eid)) for c, eid in tops.get(root, ())], builder

    def reasons_on_path(
        self, root: int, best: Dict[int, Tuple[Cost, Expr, int]]
    ) -> List[Tuple[Rule, Expr, Expr]]:
        """Rule applications that built the extracted term for ``root``:
        the ``reason`` of every chosen e-node reachable from the root's
        best choice, in deterministic (e-node id) order."""
        seen = set()
        reasons: List[Tuple[int, Tuple[Rule, Expr, Expr]]] = []
        stack = [self.find(root)]
        while stack:
            cid = stack.pop()
            if cid in seen:
                continue
            seen.add(cid)
            b = best.get(cid)
            if b is None:
                continue
            en = self._enodes[b[2]]
            if en.reason is not None:
                reasons.append((b[2], en.reason))
            stack.extend(self.find(c) for c in en.child_cids)
        reasons.sort(key=lambda pair: pair[0])
        return [r for _, r in reasons]

    def reasons_for_term(
        self, term: Expr, builder: Dict[Expr, int]
    ) -> List[Tuple[Rule, Expr, Expr]]:
        """Rule applications behind a :meth:`top_terms` candidate: the
        ``reason`` of the e-node that built each subterm, deduped, in
        deterministic (e-node id) order."""
        reasons: Dict[int, Tuple[Rule, Expr, Expr]] = {}
        stack = [term]
        visited = set()
        while stack:
            t = stack.pop()
            if t in visited:
                continue
            visited.add(t)
            nid = builder.get(t)
            if nid is not None:
                reason = self._enodes[nid].reason
                if reason is not None:
                    reasons[nid] = reason
            stack.extend(t.children)
        return [reasons[nid] for nid in sorted(reasons)]

    # -- saturation ----------------------------------------------------
    def saturate(
        self,
        index: RuleIndex,
        ctx: Optional[RuleContext] = None,
        max_iters: int = 6,
        max_enodes: int = 3000,
        max_apps: int = 12000,
    ) -> SaturationStats:
        """Explore with the rule index under budgets; no cost gating.

        Each iteration concretizes every existing e-node with its
        children's current best terms, applies every index candidate, and
        unions the outputs in.  Stops when an iteration adds no new
        equality (saturated) or when a budget trips.

        ``rule.apply`` is pure for a fixed ``ctx``, so the rewrites each
        concretized term admits are computed once per call and replayed
        when a later iteration concretizes the same term; applications
        are still counted, and budgets checked, one at a time.

        A class's winning e-node already has its concretization: the
        class's best term, built from the same child terms unless a union
        earlier in the iteration moved one of its child classes.
        """
        ctx = ctx if ctx is not None else RuleContext()
        matches: Dict[Expr, List[Tuple[Rule, Expr]]] = {}
        apps = 0
        saturated = False
        iters = 0
        for _ in range(max_iters):
            iters += 1
            changed = False
            best = self.best_terms()
            winners = {nid: term for _, term, nid in best.values()}
            n_start = len(self._enodes)
            exhausted = False
            for nid in range(n_start):
                en = self._enodes[nid]
                kids: List[Expr] = []
                ok = True
                for ccid in en.child_cids:
                    b = best.get(self.find(ccid))
                    if b is None:
                        ok = False
                        break
                    kids.append(b[1])
                if not ok:
                    continue
                rep = winners.get(nid)
                if rep is None or list(rep.children) != kids:
                    rep = (
                        en.template
                        if not en.child_cids
                        else en.template.with_children(kids)
                    )
                cid = self.find(en.cid)
                # Match against the best-representative concretization
                # *and* the e-node's original template: once a child
                # class's best becomes the lifted form, parent patterns
                # over the original child shape would otherwise never be
                # tried again — the exact greedy local minimum this
                # strategy exists to escape.
                terms = (rep,) if rep is en.template else (rep, en.template)
                for term in terms:
                    found = matches.get(term)
                    if found is None:
                        found = matches[term] = [
                            (rule, out)
                            for rule in index.candidates(term)
                            if (out := rule.apply(term, ctx)) is not None
                        ]
                    for rule, out in found:
                        apps += 1
                        out_cid = self.add(out, reason=(rule, term, out))
                        if self.find(out_cid) != self.find(cid):
                            self.union(cid, out_cid)
                            changed = True
                        if apps >= max_apps or len(self._enodes) >= max_enodes:
                            exhausted = True
                            break
                    if exhausted:
                        break
                if exhausted:
                    break
            self.rebuild()
            if exhausted:
                break
            if not changed:
                saturated = True
                break
        return SaturationStats(
            iterations=iters,
            enodes=len(self._enodes),
            eclasses=self.n_classes(),
            applications=apps,
            saturated=saturated,
        )


class EGraphLifter:
    """Greedy-anchored equality-saturation lift over an existing engine.

    Runs the engine's greedy rewrite first (identical to the default
    strategy, including its trace), seeds the e-graph with both the
    original and the greedy fixed point, saturates under budgets, and
    extracts:

    * without ``scorer``: returns the greedy term unless extraction found
      a term with *strictly* lower target-agnostic cost;
    * with ``scorer`` (term -> comparable, lower is better; ``None`` for
      un-scorable candidates): the ``extract_k`` cheapest distinct root
      candidates are ranked by ``(score, agnostic cost)`` with greedy
      winning every tie — never worse than greedy under the scorer, never
      agnostically costlier on a score tie, byte-identical when nothing
      strictly better exists.
    """

    def __init__(
        self,
        engine,
        max_iters: int = 6,
        max_enodes: int = 3000,
        max_apps: int = 12000,
        extract_k: int = 8,
    ):
        self.engine = engine
        self.max_iters = max_iters
        self.max_enodes = max_enodes
        self.max_apps = max_apps
        self.extract_k = extract_k

    def rewrite(
        self,
        expr: Expr,
        ctx: Optional[RuleContext] = None,
        obs=None,
        scorer: Optional[Callable[[Expr], object]] = None,
    ):
        greedy = self.engine.rewrite(expr, ctx, obs=obs)

        graph = EGraph()
        root = graph.add(expr)
        graph.union(root, graph.add(greedy.expr))
        graph.rebuild()
        stats = graph.saturate(
            self.engine.index,
            ctx,
            max_iters=self.max_iters,
            max_enodes=self.max_enodes,
            max_apps=self.max_apps,
        )
        greedy_cost = cost(greedy.expr)

        if obs is not None:
            obs.egraph_stats(
                self.engine.name,
                iterations=stats.iterations,
                enodes=stats.enodes,
                eclasses=stats.eclasses,
                applications=stats.applications,
                saturated=stats.saturated,
            )

        if scorer is None:
            best = graph.best_terms()
            chosen = best.get(graph.find(root))
            if chosen is None or not (chosen[0] < greedy_cost):
                return self._result(greedy.expr, greedy.applications, stats)
            return self._result(
                chosen[1],
                list(greedy.applications)
                + self._record(graph.reasons_on_path(root, best), obs),
                stats,
            )

        tops, builder = graph.top_terms(self.extract_k, graph.find(root))
        candidates = [(c, term) for c, term in tops if term is not greedy.expr]
        # Greedy is the anchor: a candidate must strictly beat it on the
        # scorer, or tie the scorer with strictly lower agnostic cost.
        greedy_score = scorer(greedy.expr)
        if greedy_score is None:
            return self._result(greedy.expr, greedy.applications, stats)
        best_term = greedy.expr
        best_key = (greedy_score, greedy_cost)
        for c, term in candidates:
            score = scorer(term)
            if score is None:
                continue
            key = (score, c)
            if key < best_key:
                best_key = key
                best_term = term
        if best_term is greedy.expr:
            return self._result(greedy.expr, greedy.applications, stats)
        return self._result(
            best_term,
            list(greedy.applications)
            + self._record(
                graph.reasons_for_term(best_term, builder), obs
            ),
            stats,
        )

    def _record(self, reasons, obs) -> List[Tuple[str, Expr, Expr]]:
        """Turn e-graph reasons into trace entries (+ provenance)."""
        entries = []
        for rule, before, after in reasons:
            entries.append((rule.name, before, after))
            if obs is not None:
                obs.provenance.record(
                    self.engine.name, rule.name, rule.source, before, after
                )
        return entries

    def _result(self, expr, applications, stats):
        from .rewriter import RewriteResult

        result = RewriteResult(expr, applications)
        result.egraph = stats
        return result
