"""Generic lowering of core IR operations to per-ISA vector instructions.

Every ISA can execute plain adds, shifts, compares, selects and casts; this
module turns the residue of the rule-based lowering (whatever no fused or
direct FPIR mapping consumed) into target instructions, using per-ISA
mnemonic and cost tables.  It is also, by construction, the *entire*
instruction selector of the LLVM baseline for patterns LLVM doesn't know —
the paper's point is precisely that a selector with only these generic
mappings leaves the fixed-point instructions unused.

Element-width legalization happens here: an operation at a width the ISA
does not support natively (e.g. 64-bit lanes on HVX, or any 128-bit
intermediate) raises :class:`UnsupportedType`, matching the paper's report
that "HVX does not support [64-bit types] and LLVM fails to compile".
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..ir import expr as E
from ..ir.types import ScalarType
from .isa import InstrSpec, TargetDesc, TargetOp, target_op

__all__ = ["GenericMapper", "UnsupportedType", "CostTable"]


class UnsupportedType(Exception):
    """The ISA has no native (nor modelled emulated) form for this op."""


#: kind -> cost, or kind -> callable(bits) -> cost
CostTable = Dict[str, object]

_KIND_BY_CLASS = {
    E.Add: "add",
    E.Sub: "sub",
    E.Mul: "mul",
    E.Div: "div",
    E.Mod: "mod",
    E.Min: "min",
    E.Max: "max",
    E.BitAnd: "and",
    E.BitOr: "or",
    E.BitXor: "xor",
    E.Shl: "shl",
    E.Shr: "shr",
    E.Neg: "neg",
    E.Not: "not",
    E.LT: "cmp",
    E.LE: "cmp",
    E.GT: "cmp",
    E.GE: "cmp",
    E.EQ: "cmp",
    E.NE: "cmp",
    E.Select: "select",
}


class GenericMapper:
    """Maps residual core-IR nodes onto an ISA's generic instructions."""

    def __init__(
        self,
        desc: TargetDesc,
        costs: CostTable,
        mnemonic: Callable[[str, ScalarType], str],
    ):
        self.desc = desc
        self.costs = costs
        self.mnemonic = mnemonic
        self._cache: Dict[Tuple, InstrSpec] = {}

    # ------------------------------------------------------------------
    def _cost(self, kind: str, bits: int) -> float:
        c = self.costs.get(kind)
        if c is None:
            raise UnsupportedType(
                f"{self.desc.name}: no generic mapping for {kind}"
            )
        return c(bits) if callable(c) else float(c)

    def _check_width(self, t: ScalarType, where: str) -> None:
        if t.is_bool:
            return
        if t.bits > self.desc.max_elem_bits:
            raise UnsupportedType(
                f"{self.desc.name}: {t.bits}-bit lanes are not supported "
                f"({where}); widen-and-emulate is not available"
            )

    # ------------------------------------------------------------------
    def spec_for(self, node: E.Expr) -> InstrSpec:
        """The generic instruction implementing this core-IR node."""
        if isinstance(node, E.Cast):
            return self._cast_spec(node.value.type, node.to)
        if isinstance(node, E.Reinterpret):
            return self._reinterpret_spec(node.value.type, node.to)
        kind = _KIND_BY_CLASS.get(type(node))
        if kind is None:
            raise UnsupportedType(
                f"{self.desc.name}: cannot generically map "
                f"{type(node).__name__}"
            )
        # Comparisons and selects operate at the data width, not bool's.
        data_type = node.type
        if isinstance(node, E.CmpOp):
            data_type = node.a.type
        elif isinstance(node, E.Select):
            data_type = node.t.type
        self._check_width(data_type, kind)
        for c in node.children:
            if isinstance(c.type, ScalarType):
                self._check_width(c.type, kind)
        key = (kind, data_type, type(node).__name__)
        spec = self._cache.get(key)
        if spec is None:
            spec = self.desc.spec(
                name=self.mnemonic(kind, data_type),
                cost=self._cost(kind, data_type.bits),
                semantics=_semantics_for(node),
            )
            self._cache[key] = spec
        return spec

    def map_node(self, node: E.Expr) -> TargetOp:
        """Replace a core-IR node (children already lowered) in place."""
        spec = self.spec_for(node)
        return target_op(spec, node.type, *node.children)

    # ------------------------------------------------------------------
    def _cast_spec(self, src: ScalarType, dst: ScalarType) -> InstrSpec:
        self._check_width(src, "cast")
        self._check_width(dst, "cast")
        if dst.bits > src.bits:
            kind = "widen_s" if src.signed else "widen_u"
        elif dst.bits < src.bits:
            kind = "narrow"
        else:
            kind = "reinterpret"
        key = ("cast", src, dst)
        spec = self._cache.get(key)
        if spec is None:
            spec = self.desc.spec(
                name=self.mnemonic(kind, dst)
                + f".{src.code}_{dst.code}",
                cost=self._cost(kind, max(src.bits, dst.bits)),
                semantics=lambda a, _d=dst: E.Cast(_d, a),
                elem_bits=dst.bits if kind == "narrow" else None,
            )
            self._cache[key] = spec
        return spec

    def _reinterpret_spec(self, src: ScalarType, dst: ScalarType) -> InstrSpec:
        key = ("reinterpret", src, dst)
        spec = self._cache.get(key)
        if spec is None:
            spec = self.desc.spec(
                name=f"bitcast.{src.code}_{dst.code}",
                cost=0.0,
                semantics=lambda a, _d=dst: E.Reinterpret(_d, a),
            )
            self._cache[key] = spec
        return spec


def _semantics_for(node: E.Expr) -> Callable[..., E.Expr]:
    cls = type(node)
    if issubclass(cls, (E.BinaryOp,)):
        return lambda a, b, _c=cls: _c(a, b)
    if cls is E.Neg:
        return lambda a: E.Neg(a)
    if cls is E.Not:
        return lambda a: E.Not(a)
    if cls is E.Select:
        return lambda c, t, f: E.Select(c, t, f)
    raise UnsupportedType(f"no semantics builder for {cls.__name__}")
