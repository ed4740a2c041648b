"""Term-rewriting engine: patterns, matching, rules, costs, rewriter,
rule index, and the e-graph lift strategy."""

from .._lazy import lazy_exports
from .costs import Cost, OP_RANK, cost  # noqa: F401
from .index import RuleIndex  # noqa: F401
from .matcher import Match, instantiate, match  # noqa: F401
from .pattern import (  # noqa: F401
    ConstWild,
    PConst,
    TNarrow,
    TVar,
    TWiden,
    TWithSign,
    TypeEnv,
    TypePattern,
    Wild,
    resolve_type,
)
from .rewriter import RewriteEngine, RewriteError, RewriteResult  # noqa: F401
from .rule import Rule, RuleContext  # noqa: F401

# only the e-graph lift strategy saturates
__getattr__, __dir__ = lazy_exports(globals(), {
    name: ".egraph" for name in ("EGraph", "EGraphLifter", "SaturationStats")
})
