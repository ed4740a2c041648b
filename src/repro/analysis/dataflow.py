"""Straight-line dataflow over linearized machine programs.

The lowered form of a compiled program is a tree/DAG of target
instructions; :func:`repro.machine.program.linearize` turns it into a
straight-line register program (one :class:`AsmLine` per distinct value).
PITCHFORK only compiles already-vectorized expressions, so every program
here is straight-line, and each analysis is one sweep over the listing:

* :class:`MachineProgram` — an indexed def/use view of the listing;
* :func:`def_use_chains` — one forward scan;
* :func:`liveness` — one backward sweep from the program's result;
* :func:`register_pressure` — a max-live-values report built on
  liveness, surfaced via ``CompiledProgram.register_pressure()`` and
  the machine-lint RunReport.

Values tracked are *names*: virtual registers (``v3.i16``) defined by a
line, and program inputs (free variables), which occupy a register from
the program's entry.  Broadcast constants (``#7``) are not tracked — they
live in pre-loaded registers whose lifetime is the whole loop, uniformly
for every program, so they never change a comparison between programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "MachineInstr",
    "MachineProgram",
    "DefUse",
    "def_use_chains",
    "LivenessResult",
    "liveness",
    "PressureReport",
    "register_pressure",
]


# ----------------------------------------------------------------------
# Program view
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineInstr:
    """One line of a linearized program, with resolved defs and uses.

    ``dst`` is the virtual register the line defines; ``uses`` are the
    value names the line reads (registers and input variables — constant
    operands are dropped, see the module docstring).  ``node`` is the
    expression node behind the line when the program came from a lowered
    tree (``None`` for hand-built fixtures).
    """

    index: int
    dst: str
    mnemonic: str
    uses: Tuple[str, ...]
    node: Any = None


@dataclass
class MachineProgram:
    """An indexed, analyzable view of a linearized register program."""

    instrs: List[MachineInstr]
    #: value names live at entry (the program's input variables)
    inputs: FrozenSet[str] = frozenset()

    @classmethod
    def from_expr(cls, lowered) -> "MachineProgram":
        """Build the view from a lowered expression tree/DAG."""
        # Imported lazily: analysis must stay importable without pulling
        # the machine/targets layers in (workloads.base -> analysis).
        from ..ir.expr import Const, free_vars
        from ..machine.program import linearize_with_nodes

        inputs = frozenset(v.name for v in free_vars(lowered))
        instrs: List[MachineInstr] = []
        for index, (line, node) in enumerate(linearize_with_nodes(lowered)):
            # Operand strings align 1:1 with children; Var operands are
            # the variable name, register operands the vreg name, and
            # Const operands ("#7") are dropped from the use set.
            uses = tuple(
                operand
                for child, operand in zip(node.children, line.operands)
                if not isinstance(child, Const)
            )
            instrs.append(
                MachineInstr(
                    index=index,
                    dst=line.dst,
                    mnemonic=line.mnemonic,
                    uses=uses,
                    node=node,
                )
            )
        return cls(instrs=instrs, inputs=inputs)

    @classmethod
    def from_lines(
        cls, lines: Sequence[Tuple[str, str, Sequence[str]]],
        inputs: Sequence[str] = (),
    ) -> "MachineProgram":
        """Build from raw ``(dst, mnemonic, uses)`` triples (fixtures)."""
        return cls(
            instrs=[
                MachineInstr(i, dst, mnemonic, tuple(uses))
                for i, (dst, mnemonic, uses) in enumerate(lines)
            ],
            inputs=frozenset(inputs),
        )

    def __len__(self) -> int:
        return len(self.instrs)

    @property
    def result(self) -> Optional[str]:
        """The program's output register (the last definition)."""
        return self.instrs[-1].dst if self.instrs else None

    def def_index(self, name: str) -> Optional[int]:
        """Index of the line defining ``name`` (None for inputs/unknown)."""
        for ins in self.instrs:
            if ins.dst == name:
                return ins.index
        return None


# ----------------------------------------------------------------------
# Analyses
# ----------------------------------------------------------------------
@dataclass
class DefUse:
    """Where one value is defined and everywhere it is used."""

    name: str
    #: defining instruction index; None for program inputs
    def_index: Optional[int]
    uses: List[int] = field(default_factory=list)

    @property
    def is_dead(self) -> bool:
        """Defined but never read (inputs are never 'dead')."""
        return self.def_index is not None and not self.uses


def def_use_chains(program: MachineProgram) -> Dict[str, DefUse]:
    """def-use chains for every register and input of the program."""
    chains: Dict[str, DefUse] = {
        name: DefUse(name=name, def_index=None) for name in program.inputs
    }
    for ins in program.instrs:
        for use in ins.uses:
            chain = chains.get(use)
            if chain is None:
                # A use with no visible def: recorded with def_index=None
                # so machine lint (M001) can flag it.
                chain = DefUse(name=use, def_index=None)
                chains[use] = chain
            chain.uses.append(ins.index)
        existing = chains.get(ins.dst)
        if existing is None or existing.def_index is None and ins.dst not in program.inputs:
            chains[ins.dst] = DefUse(
                name=ins.dst,
                def_index=ins.index,
                uses=existing.uses if existing is not None else [],
            )
    return chains


@dataclass
class LivenessResult:
    """Per-instruction live sets (program-order ``in``/``out``)."""

    live_in: List[FrozenSet[str]]
    live_out: List[FrozenSet[str]]

    def live_across(self, index: int) -> FrozenSet[str]:
        """Values live while instruction ``index`` executes: its inputs,
        its result, and everything carried across it."""
        return self.live_in[index] | self.live_out[index]


def liveness(program: MachineProgram) -> LivenessResult:
    """May-liveness of every value at every program point: one backward
    sweep, starting from the result, the only value live at exit."""
    live_in: List[FrozenSet[str]] = []
    live_out: List[FrozenSet[str]] = []
    live = frozenset((program.result,)) if program.instrs else frozenset()
    for ins in reversed(program.instrs):
        live_out.append(live)
        live = (live - {ins.dst}) | frozenset(ins.uses)
        live_in.append(live)
    return LivenessResult(live_in=live_in[::-1], live_out=live_out[::-1])


@dataclass
class PressureReport:
    """Max-live-values profile of one linearized program.

    ``max_live`` counts every simultaneously-live value (virtual
    registers plus still-needed inputs) at the hottest instruction —
    the lower bound on architectural registers a spill-free schedule of
    this program order needs.
    """

    max_live: int
    #: instruction index where the peak occurs (first of ties; -1 empty)
    at_index: int
    #: live-value count per instruction (while it executes)
    timeline: List[int]
    #: names live at the peak, for reports
    peak_values: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_live": self.max_live,
            "at_index": self.at_index,
            "timeline": list(self.timeline),
            "peak_values": sorted(self.peak_values),
        }

    def format_line(self) -> str:
        return (
            f"register pressure: {self.max_live} values live at peak "
            f"(instruction {self.at_index} of {len(self.timeline)})"
        )


def register_pressure(program: MachineProgram) -> PressureReport:
    """Max-live register-pressure report for one program."""
    if not program.instrs:
        return PressureReport(max_live=0, at_index=-1, timeline=[])
    live = liveness(program)
    timeline = [
        len(live.live_across(i)) for i in range(len(program.instrs))
    ]
    peak = max(timeline)
    at = timeline.index(peak)
    return PressureReport(
        max_live=peak,
        at_index=at,
        timeline=timeline,
        peak_values=tuple(sorted(live.live_across(at))),
    )
