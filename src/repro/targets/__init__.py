"""Target backends: x86 AVX2, ARM Neon, Hexagon HVX (§2, §3.3)."""

from dataclasses import dataclass, field
from typing import List

from ..trs.rule import Rule
from . import arm as _arm
from . import hvx as _hvx
from . import powerpc as _ppc
from . import riscv as _riscv
from . import wasm as _wasm
from . import x86 as _x86
from .generic import GenericMapper, UnsupportedType  # noqa: F401
from .isa import (  # noqa: F401
    InstrSpec,
    TargetDesc,
    TargetOp,
    is_lowered,
    target_op,
)

__all__ = [
    "Target",
    "ARM",
    "X86",
    "HVX",
    "WASM",
    "RISCV",
    "POWERPC",
    "PAPER_TARGETS",
    "ALL_TARGETS",
    "by_name",
    "TargetOp",
    "InstrSpec",
    "TargetDesc",
    "UnsupportedType",
    "is_lowered",
    "target_op",
]


@dataclass(frozen=True)
class Target:
    """Everything the compiler needs to know about one backend."""

    desc: TargetDesc
    generic: GenericMapper = field(compare=False)
    lowering_rules: List[Rule] = field(compare=False)
    #: Rake's search-only moves; Rake has backends for ARM and HVX only
    #: (§5, footnote 3)
    rake_extra_rules: List[Rule] = field(default_factory=list, compare=False)

    @property
    def name(self) -> str:
        return self.desc.name

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Target {self.name}>"


ARM = Target(_arm.DESC, _arm.GENERIC, _arm.LOWERING_RULES, _arm.RAKE_EXTRA_RULES)
X86 = Target(_x86.DESC, _x86.GENERIC, _x86.LOWERING_RULES)
HVX = Target(_hvx.DESC, _hvx.GENERIC, _hvx.LOWERING_RULES, _hvx.RAKE_EXTRA_RULES)
#: §8 extension backends (not part of the paper's evaluation, but
#: demonstrating FPIR's portability story: "developers have adopted FPIR
#: for all of Halide's CPU backends")
WASM = Target(_wasm.DESC, _wasm.GENERIC, _wasm.LOWERING_RULES)
RISCV = Target(_riscv.DESC, _riscv.GENERIC, _riscv.LOWERING_RULES)
POWERPC = Target(_ppc.DESC, _ppc.GENERIC, _ppc.LOWERING_RULES)

#: the paper's three evaluation targets
PAPER_TARGETS = (X86, ARM, HVX)
ALL_TARGETS = {t.name: t for t in (X86, ARM, HVX, WASM, RISCV, POWERPC)}


def by_name(name: str) -> Target:
    """Look up a target by name ('x86-avx2', 'arm-neon', 'hexagon-hvx')."""
    try:
        return ALL_TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown target {name!r}; available: {sorted(ALL_TARGETS)}"
        ) from None
