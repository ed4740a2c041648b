"""LLVM-baseline behaviour tests, calibrated against Figure 3."""

import pytest

from repro import fpir as F
from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.types import I16, U8, U16
from repro.machine.llvm_baseline import (
    LLVMBaseline,
    expand_intrinsics,
    llvm_midend,
)
from repro.pipeline import llvm_compile, pitchfork_compile
from repro.targets import ARM, HVX, X86

a = h.var("a", U8)
b = h.var("b", U8)


class TestMidend:
    def test_strength_reduction_mul_pow2(self):
        out = llvm_midend(h.u16(a) * 2)
        assert isinstance(out, E.Shl)

    def test_non_pow2_mul_untouched(self):
        out = llvm_midend(h.u16(a) * 6)
        assert isinstance(out, E.Mul)

    def test_select_minmax_recognized(self):
        out = llvm_midend(h.select(E.LT(a, b), a, b))
        assert out == E.Min(a, b)


class TestExpansion:
    def test_fpir_fully_expanded(self):
        out = expand_intrinsics(F.Absd(a, b))
        assert not any(isinstance(n, F.FPIRInstr) for n in out.walk())

    def test_saturating_add_kept_as_intrinsic(self):
        # footnote 9: explicit saturating_add lowers via llvm.uadd.sat
        out = expand_intrinsics(F.SaturatingAdd(a, b))
        assert isinstance(out, F.SaturatingAdd)

    def test_nested_expansion(self):
        out = expand_intrinsics(F.RoundingMulShr(
            h.var("x", I16), h.var("y", I16), h.const(I16, 15)
        ))
        assert not any(isinstance(n, F.FPIRInstr) for n in out.walk())


class TestFigure3Calibration:
    """LLVM matches some patterns and misses others, per Figure 3."""

    def test_llvm_arm_matches_widening_add(self):
        # Fig 3a: LLVM does use uaddl
        prog = llvm_compile(h.u16(a) + h.u16(b), ARM)
        assert "uaddl" in prog.instructions

    def test_llvm_arm_strength_reduces_away_umlal(self):
        # Fig 3a: mul-by-2 becomes ushll; no umlal
        kernel = h.u16(a) + h.u16(b) * 2 + h.u16(h.var("c", U8))
        prog = llvm_compile(kernel, ARM)
        assert "umlal" not in prog.instructions
        assert "ushll" in prog.instructions

    def test_pitchfork_arm_gets_umlal_on_same_kernel(self):
        kernel = h.u16(a) + h.u16(b) * 2 + h.u16(h.var("c", U8))
        prog = pitchfork_compile(kernel, ARM)
        assert "umlal" in prog.instructions

    def test_llvm_misses_saturating_narrow(self):
        # Fig 3c: LLVM emits min + truncate, not uqxtn / vpackuswb / vsat
        w = h.var("w", U16)
        expr = h.u8(h.minimum(w, 255))
        for target, miss in ((ARM, "uqxtn"), (HVX, "vsat"), (X86, "vpackus")):
            instrs = llvm_compile(expr, target).instructions
            assert miss not in instrs, target.name

    def test_pitchfork_hits_saturating_narrow(self):
        w = h.var("w", U16)
        expr = h.u8(h.minimum(w, 255))
        assert "uqxtn" in pitchfork_compile(expr, ARM).instructions
        # x86/HVX need the bounds proof; full-range u16 input defeats it,
        # falling back to min+pack exactly like LLVM:
        assert "vpackus" not in pitchfork_compile(expr, X86).instructions

    def test_predicated_pack_with_bounds(self):
        # With a provable bound (the Fig 3c situation after a widening
        # sum of u8 data), PITCHFORK uses the single pack instruction.
        # (a plain saturating add would fuse further, to vpaddusb, so use
        # a weighted sum that only the pack rule can narrow)
        expr = h.u8(h.minimum(h.u16(a) * 3 + h.u16(b), 255))
        assert "vpackus" in pitchfork_compile(expr, X86).instructions

    def test_saturating_add_fuses_past_the_pack(self):
        expr = h.u8(h.minimum(h.u16(a) + h.u16(b), 255))
        assert pitchfork_compile(expr, X86).instructions == ["vpaddus"]

    def test_llvm_hvx_matches_vmpa(self):
        # Fig 3a: LLVM finds the non-accumulating vmpa on HVX
        kernel = h.u16(a) + h.u16(b) * 2 + h.u16(h.var("c", U8))
        prog = llvm_compile(kernel, HVX)
        assert "vmpa" in prog.instructions
        assert "vmpa.acc" not in prog.instructions

    def test_llvm_abs_matched(self):
        x = h.var("x", h.I8)
        expr = h.select(E.GT(x, 0), x, -x)
        assert "abs" in llvm_compile(expr, ARM).instructions

    def test_substituted_compile_tagged(self):
        from repro.workloads import by_name

        wl = by_name("mul")
        prog = llvm_compile(wl.expr, HVX, var_bounds=wl.var_bounds)
        assert prog.compiler == "llvm+q31sub"
        assert "q31_mulr_seq" in prog.instructions

    def test_q31_lifter_is_built_once(self, monkeypatch):
        # The retry's lifter belongs to the (cached) baseline, so
        # Figure 6 charges LLVM for the lift, not for building a lifter.
        from repro.lifting.lifter import Lifter
        from repro.workloads import by_name

        wl = by_name("mul")
        llvm_compile(wl.expr, HVX, var_bounds=wl.var_bounds)
        built = []
        init = Lifter.__init__

        def spy(self, *args, **kwargs):
            built.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Lifter, "__init__", spy)
        prog = llvm_compile(wl.expr, HVX, var_bounds=wl.var_bounds)
        assert prog.compiler == "llvm+q31sub"
        assert built == []

    def test_q31_retry_is_charged_to_one_compile(self, monkeypatch):
        # Both attempts run inside the one LLVM compile's spans, so its
        # stats (and Figure 6) charge the §5.1 retry to LLVM.
        from repro.observe import Observation
        from repro.pipeline import LLVMCompiler
        from repro.workloads import by_name

        obs = Observation()
        open_spans = []
        compile_once = LLVMBaseline.compile

        def spy(self, expr, analyzer=None):
            open_spans.append(
                [sp.name for sp in obs.tracer.spans if not sp.closed]
            )
            return compile_once(self, expr, analyzer)

        monkeypatch.setattr(LLVMBaseline, "compile", spy)
        wl = by_name("mul")
        prog = LLVMCompiler(HVX).compile(wl.expr, wl.var_bounds, trace=obs)
        assert open_spans == [["compile", "pass:select"]] * 2
        assert prog.compiler == "llvm+q31sub"
