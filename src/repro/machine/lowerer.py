"""The lowering pass: FPIR -> target instructions (§3.3).

For each backend, lowering is a top-down greedy TRS over the target's rule
set (fused mappings fire before their components are consumed), followed by
definitional expansion for FPIR ops the target has no rule for ("we provide
efficient lowering from the FPIR instruction to multiple target
instructions" — the compound rules are part of the rule set; this expansion
is the final fallback), followed by generic mapping of the residual core IR.

The result is a pure target-instruction tree (plus inputs/constants), which
:mod:`repro.machine.simulator` can execute and cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis import BoundsAnalyzer, BoundsContext
from ..fpir.ops import FPIRInstr
from ..fpir.semantics import expand
from ..ir import expr as E
from ..ir.traversal import transform_bottom_up_memo
from ..lifting.canonicalize import fold_constants
from ..passes import Pass, PassContext
from ..targets import Target, TargetOp, is_lowered
from ..trs.rewriter import RewriteEngine
from ..trs.rule import Rule

__all__ = ["Lowerer", "LowerMemos", "LowerPass", "LoweringError"]


def _find_fpir(expr: E.Expr) -> Optional[E.Expr]:
    """First FPIR node in ``expr``, visiting each distinct subtree once."""
    seen = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, FPIRInstr):
            return node
        stack.extend(node.children)
    return None


class LoweringError(RuntimeError):
    """The expression could not be fully lowered for this target."""


class LowerMemos:
    """Per-node memos that several lowerings under one analyzer share.

    Constant folding, the TRS pass, definitional expansion and generic
    residue mapping are each pure per node for a fixed rulebase and
    bounds analyzer, so lowering many near-identical trees (the e-graph
    lift's candidates) through one set of memos does each subtree's work
    once.  An entry is written only after its step completed, so a
    lowering that raises leaves only valid entries behind.
    """

    __slots__ = ("fold", "rewrite", "expand", "residue")

    def __init__(self) -> None:
        self.fold: Dict[E.Expr, E.Expr] = {}
        self.rewrite: Dict[E.Expr, E.Expr] = {}
        self.expand: Dict[E.Expr, E.Expr] = {}
        self.residue: Dict[E.Expr, E.Expr] = {}


class Lowerer:
    """Configurable per-target lowering TRS.

    ``use_synthesized`` / ``exclude_sources`` mirror the lifter: they drive
    the Figure 7 ablation and the §5 leave-one-out protocol.  ``rake_mode``
    prepends the oracle-only rules (swizzle co-optimization and global
    reorderings) that model Rake's richer search space.
    """

    def __init__(
        self,
        target: Target,
        use_synthesized: bool = True,
        exclude_sources: Iterable[str] = (),
        rake_mode: bool = False,
        extra_rules: Iterable[Rule] = (),
    ):
        self.target = target
        # The use_synthesized/exclude filters apply to the *checked-in*
        # rule sets; explicitly-passed extra_rules are the caller's
        # responsibility (e.g. freshly-learned rules under evaluation).
        builtin: List[Rule] = []
        if rake_mode:
            builtin += target.rake_extra_rules
        builtin += target.lowering_rules
        if not use_synthesized:
            builtin = [r for r in builtin if not r.is_synthesized]
        excluded = set(exclude_sources)
        if excluded:
            builtin = [r for r in builtin if not r.excluded_by(excluded)]
        rules = list(extra_rules) + builtin
        self.engine = RewriteEngine(rules, strategy="top_down", name="lower")

    # ------------------------------------------------------------------
    def lower(
        self, expr: E.Expr, analyzer: Optional[BoundsAnalyzer] = None
    ) -> E.Expr:
        """Lower a (typically lifted) expression to target instructions."""
        return self.lower_with_stats(expr, analyzer)[0]

    def lower_with_stats(
        self,
        expr: E.Expr,
        analyzer: Optional[BoundsAnalyzer] = None,
        obs=None,
        memos: Optional[LowerMemos] = None,
    ) -> Tuple[E.Expr, Dict[str, int]]:
        """Lower; also return counters (rule applications, iterations).

        All three per-iteration steps — constant folding, the TRS, and
        definitional expansion — are pure for a fixed context, so each
        keeps a memo dict alive across the (up to 64) iterations: regions
        that already converged are never re-traversed.

        ``memos`` shares those memos, and one for the residue mapping,
        with earlier lowerings under the same ``analyzer``; the counters
        then cover only work no earlier lowering did.  Without it each
        call starts with fresh memos.

        ``obs`` is an optional :class:`~repro.observe.Observation`: rule
        firings, memo-cache hit rates, lowering iterations and the
        expansion/residue provenance all land in it when present.
        """
        ctx = BoundsContext(
            analyzer if analyzer is not None else BoundsAnalyzer()
        )
        stats = {"rewrites": 0, "iterations": 0, "expansions": 0}
        if memos is not None:
            fold_memo = memos.fold
            rewrite_memo = memos.rewrite
            expand_memo = memos.expand
        else:
            fold_memo = {}
            rewrite_memo = {} if obs is None else obs.memo("lower")
            expand_memo = {}

        def expand_fpir(n: E.Expr) -> Optional[E.Expr]:
            if isinstance(n, FPIRInstr):
                stats["expansions"] += 1
                out = expand(n)
                if obs is not None and out is not None:
                    obs.expansion("expand", type(n).__name__, n, out)
                return out
            return None

        inherit = None if obs is None else obs.provenance.inherit
        current = expr
        for _ in range(64):
            stats["iterations"] += 1
            # Fold constants exposed by expansion (e.g. widened shift
            # amounts) so they stay broadcast operands, not instructions.
            current = fold_constants(
                current, memo=fold_memo, on_rebuild=inherit
            )
            result = self.engine.rewrite(
                current, ctx, memo=rewrite_memo, obs=obs
            )
            current = result.expr
            stats["rewrites"] += len(result.applications)
            leftover = _find_fpir(current)
            if leftover is None:
                break
            # Fallback: one definitional step for every rule-less FPIR
            # node, then retry the TRS (the expansion may expose rules).
            expanded = transform_bottom_up_memo(
                current,
                expand_fpir,
                expand_memo,
                on_rebuild=None if obs is None else obs.provenance.inherit,
            )
            if expanded is current or expanded == current:
                raise LoweringError(
                    f"{self.target.name}: FPIR residue would not expand: "
                    f"{leftover}"
                )
            current = expanded
        else:
            raise LoweringError(
                f"{self.target.name}: lowering did not converge"
            )

        if obs is not None:
            obs.metrics.histogram(
                "lowering_iterations", target=self.target.name
            ).observe(stats["iterations"])
        return self._map_residue(current, obs=obs, memos=memos), stats

    # ------------------------------------------------------------------
    def _map_residue(
        self, expr: E.Expr, obs=None, memos: Optional[LowerMemos] = None
    ) -> E.Expr:
        """Generic-map all remaining core IR nodes, bottom-up, each
        distinct node once (through ``memos`` when given, else through
        fresh memos): a shared subtree is folded and mapped once, not
        once per occurrence."""
        inherit = None if obs is None else obs.provenance.inherit
        if memos is None:
            memos = LowerMemos()
        expr = fold_constants(expr, memo=memos.fold, on_rebuild=inherit)
        mapper = self.target.generic

        if obs is None:

            def map_node(node: E.Expr):
                if isinstance(node, (TargetOp, E.Var, E.Const)):
                    return None
                return mapper.map_node(node)

        else:

            def map_node(node: E.Expr):
                if isinstance(node, (TargetOp, E.Var, E.Const)):
                    return None
                out = mapper.map_node(node)
                obs.expansion("generic", out.spec.name, node, out)
                return out

        lowered = transform_bottom_up_memo(
            expr, map_node, memos.residue, on_rebuild=inherit
        )
        if not is_lowered(lowered):
            bad = next(
                n
                for n in lowered.walk()
                if not isinstance(n, (TargetOp, E.Var, E.Const))
            )
            raise LoweringError(
                f"{self.target.name}: node survived lowering: {bad!r}"
            )
        return lowered


class LowerPass(Pass):
    """Pipeline stage wrapping a :class:`Lowerer`.

    Bounds facts derived on the source remain valid on the lifted form,
    but the cache is keyed structurally; a fresh analyzer is built from
    ``ctx.var_bounds`` so FPIR-aware transfer functions apply.
    """

    name = "lower"

    def __init__(self, lowerer: Lowerer):
        self.lowerer = lowerer

    def run(self, expr: E.Expr, ctx: PassContext) -> E.Expr:
        lowered, stats = self.lowerer.lower_with_stats(
            expr, BoundsAnalyzer(ctx.var_bounds), obs=ctx.observe
        )
        ctx.extras["lowering"] = stats
        ctx.rewrites += stats["rewrites"]
        return lowered
