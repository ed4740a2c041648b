"""E-graph invariants: union-find, congruence closure, extraction.

The e-graph must be *sound* (extraction only returns terms provably equal
to the root) and *deterministic* (same inputs, same ids, same extracted
term — no hash-order or object-identity dependence); saturation must
respect its budgets.  The lifter contract on top: with no scorer, the
e-graph strategy is anchored to greedy and never returns an agnostically
costlier term.
"""

import itertools

import pytest

from repro.analysis import BoundsAnalyzer, BoundsContext
from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.traversal import subexpressions
from repro.ir.types import U8, U16
from repro.lifting import Lifter
from repro.lifting.canonicalize import canonicalize
from repro.trs.costs import cost
from repro.trs.egraph import EGraph, EGraphLifter, SaturationStats
from repro.workloads import WORKLOADS, by_name


def _ab(t=U16):
    return h.var("a", t), h.var("b", t)


class TestUnionFind:
    def test_add_is_hash_consed(self):
        g = EGraph()
        a, b = _ab()
        assert g.add(E.Add(a, b)) == g.add(E.Add(a, b))
        assert g.add(a) != g.add(b)

    def test_union_merges_and_keeps_min_root(self):
        g = EGraph()
        a, b = _ab()
        ca, cb = g.add(a), g.add(b)
        root = g.union(ca, cb)
        assert root == min(ca, cb)
        assert g.find(ca) == g.find(cb) == root

    def test_congruence_closure_after_rebuild(self):
        # union(a, b) must make Add(a, x) and Add(b, x) congruent.
        g = EGraph()
        a, b = _ab()
        x = h.var("x", U16)
        fa = g.add(E.Add(a, x))
        fb = g.add(E.Add(b, x))
        assert g.find(fa) != g.find(fb)
        g.union(g.add(a), g.add(b))
        g.rebuild()
        assert g.find(fa) == g.find(fb)

    def test_rebuild_cascades(self):
        # Congruence at one level must propagate to parents.
        g = EGraph()
        a, b = _ab()
        x = h.var("x", U16)
        gfa = g.add(E.Mul(E.Add(a, x), x))
        gfb = g.add(E.Mul(E.Add(b, x), x))
        g.union(g.add(a), g.add(b))
        g.rebuild()
        assert g.find(gfa) == g.find(gfb)


class TestExtraction:
    def test_best_terms_picks_cheaper_member(self):
        g = EGraph()
        a, b = _ab()
        big = E.Add(E.Mul(a, h.const(U16, 1)), b)
        small = E.Add(a, b)
        root = g.add(big)
        g.union(root, g.add(small))
        g.rebuild()
        best = g.best_terms()
        got_cost, got_term, _nid = best[g.find(root)]
        assert got_term == small
        assert got_cost == cost(small) < cost(big)

    def test_top_terms_ascending_and_bounded(self):
        g = EGraph()
        a, b = _ab()
        root = g.add(E.Add(E.Mul(a, h.const(U16, 1)), b))
        g.union(root, g.add(E.Add(a, b)))
        g.union(root, g.add(E.Add(b, a)))
        g.rebuild()
        lst, builder = g.top_terms(2, g.find(root))
        assert len(lst) <= 2
        costs = [c for c, _ in lst]
        assert costs == sorted(costs)
        # K-best must include the single best.
        assert lst[0][1] == g.best_terms()[g.find(root)][1]
        # Every returned term has a builder e-node for provenance.
        assert all(t in builder for _, t in lst)

    def test_determinism(self):
        def build():
            g = EGraph()
            expr = canonicalize(by_name("sobel3x3").expr)
            root = g.add(expr)
            g.saturate(Lifter().engine.index, max_iters=2)
            best = g.best_terms()
            return root, best[g.find(root)][1]

        (r1, t1), (r2, t2) = build(), build()
        assert r1 == r2
        assert t1 == t2


class TestSaturation:
    def test_budgets_are_respected(self):
        g = EGraph()
        g.add(canonicalize(by_name("gaussian3x3").expr))
        stats = g.saturate(
            Lifter().engine.index, max_iters=1, max_apps=5, max_enodes=50
        )
        assert stats.iterations == 1
        assert stats.applications <= 5
        assert not stats.saturated

    @pytest.mark.parametrize("name", ["add", "mul", "sobel3x3", "matmul"])
    def test_suite_cells_saturate_within_default_budgets(self, name):
        g = EGraph()
        g.add(canonicalize(by_name(name).expr))
        stats = g.saturate(Lifter().engine.index)
        assert stats.saturated
        assert stats.enodes < 3000 and stats.applications < 12000


class TestEGraphLifter:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_never_agnostically_worse_than_greedy(self, name):
        lifter = Lifter()
        expr = canonicalize(by_name(name).expr)
        greedy = lifter.engine.rewrite(expr).expr
        eg = EGraphLifter(lifter.engine).rewrite(expr).expr
        assert cost(eg) <= cost(greedy)

    def test_scorer_anchor_never_loses(self):
        # A scorer that hates everything must leave greedy untouched.
        lifter = Lifter()
        expr = canonicalize(by_name("softmax").expr)
        greedy = lifter.engine.rewrite(expr).expr
        eg = EGraphLifter(lifter.engine).rewrite(
            expr, scorer=lambda term: 0 if term is greedy else 10**9
        )
        assert eg.expr is greedy

    def test_unscorable_candidates_are_skipped(self):
        lifter = Lifter()
        expr = canonicalize(by_name("l2norm").expr)
        greedy = lifter.engine.rewrite(expr).expr
        eg = EGraphLifter(lifter.engine).rewrite(
            expr, scorer=lambda term: 1 if term is greedy else None
        )
        assert eg.expr is greedy

    def test_result_carries_saturation_stats(self):
        lifter = Lifter()
        expr = canonicalize(by_name("add").expr)
        res = EGraphLifter(lifter.engine).rewrite(expr)
        assert res.egraph.iterations >= 1
        assert res.egraph.enodes >= 1

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            Lifter(strategy="quantum")


# -- from-scratch reference loops -------------------------------------
# best_terms, top_terms, saturate and rebuild as they were before they
# learned to skip work already done (unchanged child terms, tried child
# combos, terms matched in an earlier iteration, keys no union touched).
# The incremental versions must return exactly what these do.


def _ref_rebuild(g):
    """Re-key every e-node until no class merges."""
    while True:
        merged = False
        fresh = {}
        for nid, en in enumerate(g._enodes):
            key = g._canon_key(en)
            other = fresh.get(key)
            if other is None:
                fresh[key] = nid
                continue
            a = g.find(g._enodes[other].cid)
            b = g.find(en.cid)
            if a != b:
                g.union(a, b)
                merged = True
        g._hashcons = fresh
        g._stale = []
        if not merged:
            return


def _merges_left(g):
    """How many e-nodes one round of :func:`_ref_rebuild` would merge
    into another class, without merging them."""
    first = {}
    left = 0
    for en in g._enodes:
        cid = g.find(en.cid)
        left += first.setdefault(g._canon_key(en), cid) != cid
    return left


def _ref_best_terms(g, cost_fn=cost):
    best = {}
    changed = True
    while changed:
        changed = False
        for nid, en in enumerate(g._enodes):
            kids = []
            ok = True
            for ccid in en.child_cids:
                b = best.get(g.find(ccid))
                if b is None:
                    ok = False
                    break
                kids.append(b[1])
            if not ok:
                continue
            term = (
                en.template
                if not en.child_cids
                else en.template.with_children(kids)
            )
            c = cost_fn(term)
            cid = g.find(en.cid)
            cur = best.get(cid)
            if cur is None or c < cur[0]:
                best[cid] = (c, term, nid)
                changed = True
    return best


def _ref_top_terms(g, k, cost_fn=cost, max_passes=12, max_combos=24,
                   passing=None):
    """``passing``, if given, collects every ``(e-node, child terms)``
    whose term beat its class's K-th cost when it was tried."""
    tops, seen, builder = {}, {}, {}

    def insert(cid, term, nid, kids=()):
        s = seen.setdefault(cid, set())
        c = cost_fn(term)
        lst = tops.setdefault(cid, [])
        if len(lst) >= k and not (c < lst[-1][0]):
            return False
        if passing is not None:
            passing.add((nid, tuple(kids)))
        if term in s:
            return False
        s.add(term)
        builder.setdefault(term, nid)
        lst.append((c, term))
        lst.sort(key=lambda pair: pair[0])
        del lst[k:]
        return True

    for _ in range(max_passes):
        changed = False
        for nid, en in enumerate(g._enodes):
            cid = g.find(en.cid)
            if not en.child_cids:
                if insert(cid, en.template, nid):
                    changed = True
                continue
            lists = []
            ok = True
            for ccid in en.child_cids:
                lst = tops.get(g.find(ccid))
                if not lst:
                    ok = False
                    break
                lists.append([t for _, t in lst])
            if not ok:
                continue
            combos = itertools.islice(itertools.product(*lists), max_combos)
            for combo in combos:
                term = en.template.with_children(list(combo))
                if insert(cid, term, nid, combo):
                    changed = True
        if not changed:
            break
    return tops, builder


def _ref_saturate(g, index, ctx, max_iters=6, max_enodes=3000,
                  max_apps=12000, cost_fn=cost):
    apps = 0
    saturated = False
    iters = 0
    for _ in range(max_iters):
        iters += 1
        changed = False
        best = _ref_best_terms(g, cost_fn)
        exhausted = False
        for nid in range(len(g._enodes)):
            en = g._enodes[nid]
            kids = []
            ok = True
            for ccid in en.child_cids:
                b = best.get(g.find(ccid))
                if b is None:
                    ok = False
                    break
                kids.append(b[1])
            if not ok:
                continue
            rep = (
                en.template
                if not en.child_cids
                else en.template.with_children(kids)
            )
            cid = g.find(en.cid)
            terms = (rep,) if rep is en.template else (rep, en.template)
            for term in terms:
                for rule in index.candidates(term):
                    out = rule.apply(term, ctx)
                    if out is None:
                        continue
                    apps += 1
                    out_cid = g.add(out, reason=(rule, term, out))
                    if g.find(out_cid) != g.find(cid):
                        g.union(cid, out_cid)
                        changed = True
                    if apps >= max_apps or len(g._enodes) >= max_enodes:
                        exhausted = True
                        break
                if exhausted:
                    break
            if exhausted:
                break
        _ref_rebuild(g)
        if exhausted:
            break
        if not changed:
            saturated = True
            break
    return SaturationStats(iters, len(g._enodes), g.n_classes(), apps,
                           saturated)


def _seeded_graph(lifter, name, rebuild=None):
    """The e-graph EGraphLifter saturates for a suite kernel: its
    canonical form unioned with greedy's fixed point; plus the lift's
    bounds context and root class.  ``rebuild`` replaces
    ``EGraph.rebuild`` for the seeding union."""
    wl = by_name(name)
    expr = canonicalize(wl.expr)
    ctx = BoundsContext(BoundsAnalyzer(wl.var_bounds))
    greedy = lifter.engine.rewrite(expr, ctx).expr
    g = EGraph()
    root = g.add(expr)
    g.union(root, g.add(greedy))
    (rebuild or EGraph.rebuild)(g)
    return g, ctx, root


def _shape(g):
    return (
        [(en.template, en.child_cids, en.reason) for en in g._enodes],
        [g.find(c) for c in range(len(g._parent))],
    )


def _stats(s):
    return (s.iterations, s.enodes, s.eclasses, s.applications, s.saturated)


def _check_rebuilds(monkeypatch):
    """Make every ``EGraph.rebuild`` check that it left nothing for the
    full re-key loop to merge, and that the hashcons maps every e-node's
    canonical key to an e-node of its class (``add`` relies on that);
    returns a one-item list counting the rebuilds."""
    calls = [0]
    real = EGraph.rebuild

    def rebuild(self):
        real(self)
        calls[0] += 1
        assert _merges_left(self) == 0
        for en in self._enodes:
            nid = self._hashcons[self._canon_key(en)]
            assert self.find(self._enodes[nid].cid) == self.find(en.cid)

    monkeypatch.setattr(EGraph, "rebuild", rebuild)
    return calls


class TestIncrementalMatchesFromScratch:
    @pytest.fixture(scope="class")
    def lifter(self):
        return Lifter()

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_saturate_and_extraction(self, lifter, name, monkeypatch):
        index = lifter.engine.index
        rebuilds = _check_rebuilds(monkeypatch)
        g, ctx, root = _seeded_graph(lifter, name)
        ref, ref_ctx, _ = _seeded_graph(lifter, name, rebuild=_ref_rebuild)
        stats = g.saturate(index, ctx)
        assert _stats(stats) == _stats(_ref_saturate(ref, index, ref_ctx))
        assert _shape(g) == _shape(ref)
        assert rebuilds[0] == 1 + stats.iterations

        assert g.best_terms() == _ref_best_terms(g)
        tops, builder = g.top_terms(8, g.find(root))
        ref_tops, ref_builder = _ref_top_terms(g, 8)
        assert tops == ref_tops[g.find(root)]
        assert builder == _ref_builder_of(tops, ref_builder)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_budget_tripping_saturate(self, lifter, name, monkeypatch):
        index = lifter.engine.index
        rebuilds = _check_rebuilds(monkeypatch)
        g, ctx, _ = _seeded_graph(lifter, name)
        ref, ref_ctx, _ = _seeded_graph(lifter, name, rebuild=_ref_rebuild)
        stats = g.saturate(index, ctx, max_apps=5)
        ref_stats = _ref_saturate(ref, index, ref_ctx, max_apps=5)
        assert stats.saturated or stats.applications == 5
        assert _stats(stats) == _stats(ref_stats)
        assert _shape(g) == _shape(ref)
        assert rebuilds[0] == 1 + stats.iterations


def _count_with_children(monkeypatch):
    """A one-item list counting ``with_children`` calls."""
    calls = [0]
    real = E.Expr.with_children

    def with_children(self, new_children):
        calls[0] += 1
        return real(self, new_children)

    monkeypatch.setattr(E.Expr, "with_children", with_children)
    return calls


class TestCostFirstExtraction:
    """Extraction runs on costs and builds only the terms it keeps; the
    invariants that make that exact hold on every suite e-graph."""

    @pytest.fixture(scope="class")
    def lifter(self):
        return Lifter()

    def _saturated(self, lifter, name):
        g, ctx, root = _seeded_graph(lifter, name)
        g.saturate(lifter.engine.index, ctx)
        return g, g.find(root)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_best_terms_builds_once_per_class(
        self, lifter, name, monkeypatch
    ):
        g, _ = self._saturated(lifter, name)
        calls = _count_with_children(monkeypatch)
        best = g.best_terms()
        assert calls[0] <= len(best)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_top_terms_builds_only_passing_combos(
        self, lifter, name, monkeypatch
    ):
        g, root = self._saturated(lifter, name)
        passing = set()
        _ref_top_terms(g, 8, passing=passing)
        calls = _count_with_children(monkeypatch)
        g.top_terms(8, root)
        assert calls[0] <= len(passing)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_each_class_has_one_type(self, lifter, name):
        # A node's cost over its children's best terms is its local cost
        # plus theirs only if those terms have its template's child types.
        g, _ = self._saturated(lifter, name)
        best = g.best_terms()
        for en in g._enodes:
            assert en.template.type == best[g.find(en.cid)][1].type
            for child, ccid in zip(en.template.children, en.child_cids):
                assert child.type == best[g.find(ccid)][1].type

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_entry_costs_are_term_costs(self, lifter, name):
        g, _ = self._saturated(lifter, name)
        for c, term, _nid in g.best_terms().values():
            assert c == cost(term)
        for cid in _classes(g):
            for c, term in g.top_terms(8, cid)[0]:
                assert c == cost(term)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_root_only_top_terms_match_reference(self, lifter, name):
        # Asked for any class as its root, top_terms returns that class's
        # K-best list of the all-classes reference, and each term it
        # built has the reference's builder e-node.
        g, _ = self._saturated(lifter, name)
        ref_tops, ref_builder = _ref_top_terms(g, 8)
        for cid in _classes(g):
            lst, builder = g.top_terms(8, cid)
            assert lst == ref_tops.get(cid, [])
            assert builder == _ref_builder_of(lst, ref_builder)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_top_terms_builds_only_the_roots_terms(
        self, lifter, name, monkeypatch
    ):
        # One with_children per distinct interior subterm of the root's
        # candidates: no other class's terms are built.
        g, root = self._saturated(lifter, name)
        calls = _count_with_children(monkeypatch)
        lst, _ = g.top_terms(8, root)
        assert lst
        subterms = {s for _, t in lst for s in subexpressions(t)}
        assert calls[0] <= sum(1 for s in subterms if s.children)


def _classes(g):
    """Every class root, ascending."""
    return sorted({g.find(c) for c in range(len(g._parent))})


def _ref_builder_of(candidates, ref_builder):
    """The reference builder, cut to the candidates' distinct subterms:
    exactly the terms a root-only ``top_terms`` builds."""
    return {
        s: ref_builder[s]
        for _, t in candidates
        for s in subexpressions(t)
    }
