"""The central correctness theorem of the whole system:

    simulate(lower(lift(e)), inputs) == interpret(e, inputs)

for every workload, on every target, for both PITCHFORK and the LLVM
baseline — the "verified lowering" the paper leaves as future work (§6),
made checkable here because every target instruction has executable
semantics.
"""

import pytest

from repro.analysis import BoundsAnalyzer
from repro.interp import evaluate
from repro.pipeline import (
    LLVMCompileError,
    llvm_compile,
    pitchfork_compile,
)
from repro.targets import ARM, HVX, X86, TargetOp, is_lowered
from repro.workloads import WORKLOADS, by_name

TARGETS = [X86, ARM, HVX]


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
@pytest.mark.parametrize("name", WORKLOADS)
class TestPitchforkEndToEnd:
    def test_lower_executes_exactly(self, name, target):
        wl = by_name(name)
        prog = pitchfork_compile(wl.expr, target, var_bounds=wl.var_bounds)
        assert is_lowered(prog.lowered)
        env = wl.random_env(lanes=24, seed=101)
        assert prog.run(env) == evaluate(wl.expr, env)

    def test_leave_one_out_still_correct(self, name, target):
        wl = by_name(name)
        prog = pitchfork_compile(
            wl.expr,
            target,
            var_bounds=wl.var_bounds,
            exclude_sources={f"synth:{name}"},
        )
        env = wl.random_env(lanes=16, seed=102)
        assert prog.run(env) == evaluate(wl.expr, env)

    def test_hand_only_still_correct(self, name, target):
        wl = by_name(name)
        prog = pitchfork_compile(
            wl.expr, target, var_bounds=wl.var_bounds, use_synthesized=False
        )
        env = wl.random_env(lanes=16, seed=103)
        assert prog.run(env) == evaluate(wl.expr, env)


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
@pytest.mark.parametrize("name", WORKLOADS)
def test_llvm_baseline_end_to_end(name, target):
    wl = by_name(name)
    prog = llvm_compile(wl.expr, target, var_bounds=wl.var_bounds)
    # §5.1: exactly the 64-bit benchmarks fail on HVX, and the compile
    # retries them with the q31 substitution.
    substituted = target is HVX and name in (
        "depthwise_conv", "matmul", "mul"
    )
    assert prog.compiler == ("llvm+q31sub" if substituted else "llvm")
    assert (prog.q31_retry is not None) == substituted
    assert is_lowered(prog.lowered)
    env = wl.random_env(lanes=24, seed=104)
    assert prog.run(env) == evaluate(wl.expr, env)


def test_llvm_fails_on_hvx_64bit_without_substitution():
    # The plain attempt must still fail first (§5.1); llvm_compile then
    # returns the substituted program.
    from repro.machine.llvm_baseline import LLVMBaseline

    wl = by_name("mul")
    with pytest.raises(LLVMCompileError):
        LLVMBaseline(HVX).compile(wl.expr, BoundsAnalyzer(wl.var_bounds))
    prog = llvm_compile(wl.expr, HVX, var_bounds=wl.var_bounds)
    assert prog.compiler == "llvm+q31sub"
    assert "64-bit lanes are not supported" in prog.q31_retry


@pytest.mark.parametrize("target", [ARM, HVX], ids=lambda t: t.name)
@pytest.mark.parametrize("name", ["sobel3x3", "add", "camera_pipe", "mul"])
def test_rake_end_to_end(name, target):
    from repro.pipeline import rake_compile

    wl = by_name(name)
    prog = rake_compile(wl.expr, target, var_bounds=wl.var_bounds)
    env = wl.random_env(lanes=16, seed=105)
    assert prog.run(env) == evaluate(wl.expr, env)


def test_rake_rejects_x86():
    from repro.machine.rake_oracle import RakeSelector

    with pytest.raises(ValueError):
        RakeSelector(X86)


class TestInstructionSelectionQuality:
    """Calibration assertions tying codegen to Figure 3."""

    def test_sobel_kernel_arm_uses_umlal(self):
        wl = by_name("sobel3x3")
        prog = pitchfork_compile(wl.expr, ARM)
        assert "umlal" in prog.instructions

    def test_sobel_arm_uses_uabd(self):
        wl = by_name("sobel3x3")
        prog = pitchfork_compile(wl.expr, ARM)
        assert "uabd" in prog.instructions

    def test_sobel_hvx_uses_vmpa_acc_and_vsat(self):
        wl = by_name("sobel3x3")
        prog = pitchfork_compile(wl.expr, HVX)
        assert "vmpa.acc" in prog.instructions
        assert "vsat" in prog.instructions

    def test_sobel_x86_absd_uses_psubus_trick(self):
        wl = by_name("sobel3x3")
        prog = pitchfork_compile(wl.expr, X86)
        assert "vpsubus" in prog.instructions
        assert "vpor" in prog.instructions

    def test_llvm_misses_absd_on_arm(self):
        wl = by_name("sobel3x3")
        prog = llvm_compile(wl.expr, ARM)
        assert "uabd" not in prog.instructions

    def test_quantized_requant_single_instruction(self):
        wl = by_name("mul")
        assert "sqrdmulh" in pitchfork_compile(wl.expr, ARM).instructions
        assert (
            "vmpy:rnd:sat"
            in pitchfork_compile(wl.expr, HVX).instructions
        )

    def test_fully_connected_x86_uses_vpmaddwd_and_vpmulhw(self):
        wl = by_name("fully_connected")
        instrs = pitchfork_compile(
            wl.expr, X86, var_bounds=wl.var_bounds
        ).instructions
        assert "vpmaddwd" in instrs
        assert "vpmulhw" in instrs

    def test_camera_pipe_uses_rounding_average(self):
        wl = by_name("camera_pipe")
        assert "vpavg" in pitchfork_compile(wl.expr, X86).instructions
        assert "urhadd" in pitchfork_compile(wl.expr, ARM).instructions
        assert "vavg:rnd" in pitchfork_compile(wl.expr, HVX).instructions

    def test_pitchfork_never_slower_than_llvm(self):
        for name in WORKLOADS:
            wl = by_name(name)
            for target in TARGETS:
                pf = pitchfork_compile(
                    wl.expr, target, var_bounds=wl.var_bounds
                )
                ll = llvm_compile(wl.expr, target, var_bounds=wl.var_bounds)
                assert pf.cost().total <= ll.cost().total + 1e-9, (
                    name,
                    target.name,
                )
