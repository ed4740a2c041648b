"""Straight-line dataflow: program view, analyses, pressure report.

The brute-force test pins the liveness sweep against a per-name
recomputation (scan forward from each point for a use before a
redefinition) at every instruction of the lowered programs of all 48
paper cells — the two formulations only agree when the transfer, the
result-is-live-at-exit boundary and the program-order bookkeeping are
all right.
"""

import pytest

from repro.analysis.dataflow import (
    MachineProgram,
    def_use_chains,
    liveness,
    register_pressure,
)
from repro.pipeline import pitchfork_compile
from repro.targets import PAPER_TARGETS, by_name as target_by_name
from repro.workloads import WORKLOADS, by_name


@pytest.fixture
def diamond():
    """t0 = a+b; t1 = t0*t0 (a value used twice, an input dying early)."""
    return MachineProgram.from_lines(
        [
            ("t0", "add", ["a", "b"]),
            ("t1", "mul", ["t0", "t0"]),
        ],
        inputs=["a", "b"],
    )


class TestMachineProgram:
    def test_from_expr_matches_listing(self):
        wl = by_name("sobel3x3")
        prog = pitchfork_compile(
            wl.expr, target_by_name("arm-neon"), var_bounds=wl.var_bounds
        )
        view = MachineProgram.from_expr(prog.lowered)
        lines = prog.linearized()
        assert len(view) == len(lines)
        assert [i.dst for i in view.instrs] == [l.dst for l in lines]
        assert view.result == lines[-1].dst
        # Every use is either an input or defined strictly earlier.
        for ins in view.instrs:
            for use in ins.uses:
                if use not in view.inputs:
                    assert view.def_index(use) < ins.index

    def test_const_operands_are_not_uses(self):
        p = MachineProgram.from_lines(
            [("t0", "shl", ["a"])], inputs=["a"]
        )
        assert p.instrs[0].uses == ("a",)

    def test_result_of_empty_program(self):
        assert MachineProgram(instrs=[]).result is None


class TestCannedAnalyses:
    def test_def_use_chains(self, diamond):
        chains = def_use_chains(diamond)
        assert chains["a"].def_index is None
        assert chains["a"].uses == [0]
        assert chains["t0"].def_index == 0
        assert chains["t0"].uses == [1, 1]
        assert not chains["t1"].uses  # the result: no reader, not dead
        assert chains["t1"].is_dead  # ...as a raw chain property

    def test_liveness(self, diamond):
        live = liveness(diamond)
        assert live.live_in[0] == frozenset({"a", "b"})
        assert live.live_out[0] == frozenset({"t0"})
        assert live.live_out[1] == frozenset({"t1"})
        assert live.live_across(0) == frozenset({"a", "b", "t0"})

    def test_redefinition_kills(self):
        p = MachineProgram.from_lines(
            [
                ("t0", "add", ["a", "a"]),
                ("t0", "mul", ["t0", "t0"]),
            ],
            inputs=["a"],
        )
        live = liveness(p)
        assert "t0" not in live.live_in[0]

    def test_register_pressure(self, diamond):
        report = register_pressure(diamond)
        assert report.max_live == 3  # a, b, t0 across instruction 0
        assert report.at_index == 0
        assert report.timeline == [3, 2]
        assert report.peak_values == ("a", "b", "t0")
        assert "3 values live at peak" in report.format_line()
        assert register_pressure(MachineProgram(instrs=[])).max_live == 0


# ----------------------------------------------------------------------
# Liveness == brute force at every instruction of the paper matrix
# ----------------------------------------------------------------------
_CELLS = [(w, t.name) for w in WORKLOADS for t in PAPER_TARGETS]


def _brute_live_in(program, name, index):
    """Is ``name`` live entering ``index``?  Scan forward for a use
    before a redefinition — the definition of liveness, no sweep."""
    for ins in program.instrs[index:]:
        if name in ins.uses:
            return True
        if ins.dst == name:
            return False
    return name == program.result


def test_liveness_matches_brute_force():
    assert len(_CELLS) == 48
    for wl_name, target_name in _CELLS:
        wl = by_name(wl_name)
        program = MachineProgram.from_expr(pitchfork_compile(
            wl.expr, target_by_name(target_name), var_bounds=wl.var_bounds
        ).lowered)
        live = liveness(program)
        names = set(program.inputs) | {i.dst for i in program.instrs}
        for index in range(len(program)):
            where = f"{wl_name}@{target_name} instruction {index}"
            assert live.live_in[index] == frozenset(
                n for n in names if _brute_live_in(program, n, index)
            ), f"{where}: live-in mismatch"
            assert live.live_out[index] == frozenset(
                n for n in names if _brute_live_in(program, n, index + 1)
            ), f"{where}: live-out mismatch"
