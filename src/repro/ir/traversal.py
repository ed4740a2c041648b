"""Tree traversal and rewriting utilities shared by every pass.

These are deliberately small, generic combinators; the term-rewriting engine
(:mod:`repro.trs`) composes them into its greedy bottom-up fixed-point loop.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

from .expr import Expr, Var

__all__ = [
    "transform_bottom_up",
    "transform_bottom_up_memo",
    "transform_top_down",
    "substitute_vars",
    "count_nodes",
    "subexpressions",
    "contains",
]


def transform_bottom_up(
    expr: Expr,
    fn: Callable[[Expr], Optional[Expr]],
    on_rebuild: Optional[Callable[[Expr, Expr], None]] = None,
) -> Expr:
    """Rebuild ``expr`` post-order, applying ``fn`` at every node.

    ``fn`` receives a node whose children have already been transformed and
    returns a replacement, or ``None`` to keep the node unchanged.

    ``on_rebuild(old, new)`` is invoked whenever a node is reconstructed
    with transformed children (used by provenance tracking to carry
    metadata across the rebuild); the branch costs nothing on the default
    ``None`` path except when a rebuild actually happens.
    """
    new_children = [
        transform_bottom_up(c, fn, on_rebuild) for c in expr.children
    ]
    if any(n is not o for n, o in zip(new_children, expr.children)):
        rebuilt = expr.with_children(new_children)
        if on_rebuild is not None:
            on_rebuild(expr, rebuilt)
        expr = rebuilt
    replaced = fn(expr)
    return expr if replaced is None else replaced


def transform_bottom_up_memo(
    expr: Expr,
    fn: Callable[[Expr], Optional[Expr]],
    memo: Dict[Expr, Expr],
    on_rebuild: Optional[Callable[[Expr, Expr], None]] = None,
) -> Expr:
    """:func:`transform_bottom_up` with per-subtree memoization.

    Valid whenever ``fn`` is a pure function of the node it receives: the
    transform of a subtree is then itself pure, so results cached in
    ``memo`` can be reused across repeated occurrences of a subtree and
    across fixpoint passes (a subtree mapped to itself is in normal form
    and is never re-traversed).  With hash-consed expressions the lookups
    are effectively by identity.
    """
    cached = memo.get(expr)
    if cached is not None:
        return cached
    kids = expr.children
    cur = expr
    if kids:
        new_kids = [
            transform_bottom_up_memo(c, fn, memo, on_rebuild) for c in kids
        ]
        if any(n is not o for n, o in zip(new_kids, kids)):
            cur = expr.with_children(new_kids)
            if on_rebuild is not None:
                on_rebuild(expr, cur)
    replaced = fn(cur)
    result = cur if replaced is None else replaced
    memo[expr] = result
    return result


def transform_top_down(
    expr: Expr, fn: Callable[[Expr], Optional[Expr]]
) -> Expr:
    """Apply ``fn`` at the root first, then recurse into the result."""
    replaced = fn(expr)
    if replaced is not None:
        expr = replaced
    new_children = [transform_top_down(c, fn) for c in expr.children]
    if any(n is not o for n, o in zip(new_children, expr.children)):
        expr = expr.with_children(new_children)
    return expr


def substitute_vars(expr: Expr, env: Dict[str, Expr]) -> Expr:
    """Replace each :class:`Var` whose name is in ``env``."""

    def repl(node: Expr) -> Optional[Expr]:
        if isinstance(node, Var):
            return env.get(node.name)
        return None

    return transform_bottom_up(expr, repl)


def count_nodes(expr: Expr) -> int:
    """Number of IR nodes (alias of :attr:`Expr.size`, kept for clarity)."""
    return expr.size


def subexpressions(expr: Expr, max_size: Optional[int] = None) -> Iterator[Expr]:
    """Yield every distinct subtree, optionally capped by node count.

    The order is :meth:`Expr.walk`'s post-order, keeping each subtree's
    first occurrence.  The walk is iterative and never enters a subtree it
    has already yielded, so its work is linear in the number of distinct
    nodes, even where shared subtrees make the occurrence count
    exponential.

    This is the enumeration primitive behind §4.1's "all sub-expressions of
    size up to 10 IR nodes".
    """
    seen = set()
    stack = [(expr, iter(expr.children))]
    while stack:
        node, kids = stack[-1]
        for child in kids:
            if child not in seen:
                stack.append((child, iter(child.children)))
                break
        else:
            stack.pop()
            seen.add(node)
            if max_size is None or node.size <= max_size:
                yield node


def contains(expr: Expr, needle: Expr) -> bool:
    """True if ``needle`` occurs as a subtree of ``expr``."""
    return any(node == needle for node in expr.walk())
