"""Rake-oracle tests: search behaviour and the paper-shaped properties."""

import pytest

from repro import rulesets
from repro.analysis import BoundsAnalyzer
from repro.ir import builders as h
from repro.lifting import Lifter
from repro.machine.rake_oracle import (
    RAKE_SWIZZLE_DISCOUNT,
    RAKE_TARGETS,
    RakeSelector,
)
from repro.machine.simulator import cost_cycles
from repro.machine.lowerer import Lowerer
from repro.pipeline import pitchfork_compile, rake_compile
from repro.targets import ALL_TARGETS, ARM, HVX
from repro.workloads import by_name


class TestSearch:
    def test_never_worse_than_greedy(self):
        """The oracle starts from the greedy completion, so it can only
        improve on PITCHFORK (under its own cost model)."""
        for name in ("sobel3x3", "add", "gaussian7x7", "camera_pipe"):
            wl = by_name(name)
            for target in (ARM, HVX):
                lifted = Lifter().lift(
                    wl.expr, BoundsAnalyzer(wl.var_bounds)
                ).expr
                selector = RakeSelector(target)
                greedy = Lowerer(
                    target, rulesets.pitchfork(target).lower
                ).lower(
                    lifted, BoundsAnalyzer(wl.var_bounds)
                )
                greedy_cost = cost_cycles(
                    greedy, target,
                    swizzle_discount=selector.swizzle_discount,
                ).total
                _, best = selector.best_lowering(
                    lifted, BoundsAnalyzer(wl.var_bounds)
                )
                assert best <= greedy_cost + 1e-9, (name, target.name)

    def test_explores_states(self):
        wl = by_name("sobel3x3")
        lifted = Lifter().lift(wl.expr, BoundsAnalyzer()).expr
        selector = RakeSelector(ARM)
        selector.best_lowering(lifted)
        assert selector.states_explored > 0

    def test_deterministic(self):
        wl = by_name("add")
        p1 = rake_compile(wl.expr, HVX, var_bounds=wl.var_bounds)
        p2 = rake_compile(wl.expr, HVX, var_bounds=wl.var_bounds)
        assert p1.lowered == p2.lowered

    def test_swizzle_discount_only_on_hvx(self):
        assert RakeSelector(HVX).swizzle_discount == RAKE_SWIZZLE_DISCOUNT
        assert RakeSelector(ARM).swizzle_discount == 0.0

    @pytest.mark.parametrize(
        "name", ["x86-avx2", "wasm-simd128", "riscv-rvv", "powerpc-vsx"])
    def test_targets_without_a_backend_rejected(self, name):
        assert RAKE_TARGETS == ("arm-neon", "hexagon-hvx")
        with pytest.raises(ValueError, match="arm-neon, hexagon-hvx"):
            RakeSelector(ALL_TARGETS[name])
        with pytest.raises(ValueError, match=f"no {name} backend"):
            rake_compile(by_name("add").expr, ALL_TARGETS[name])


class TestPaperShape:
    def test_rake_leads_on_hvx_swizzle_heavy_benchmarks(self):
        """§5.1: Rake's swizzle optimization matters most on matmul-like
        kernels; the gap there must exceed sobel's."""
        gaps = {}
        for name in ("matmul", "sobel3x3"):
            wl = by_name(name)
            pf = pitchfork_compile(wl.expr, HVX, var_bounds=wl.var_bounds)
            rk = rake_compile(wl.expr, HVX, var_bounds=wl.var_bounds)
            gaps[name] = pf.cost().total / rk.cost().total
        assert gaps["matmul"] > gaps["sobel3x3"]

    def test_rake_matches_pitchfork_on_arm_sobel(self):
        """§2.2: 'PITCHFORK delivers matching runtime performance on the
        Sobel filter on ARM'."""
        wl = by_name("sobel3x3")
        pf = pitchfork_compile(wl.expr, ARM, var_bounds=wl.var_bounds)
        rk = rake_compile(wl.expr, ARM, var_bounds=wl.var_bounds)
        assert rk.cost().total == pytest.approx(pf.cost().total)

    def test_rake_compile_time_exceeds_pitchfork(self):
        import time

        wl = by_name("sobel3x3")

        def best_of(fn, n=3):
            best = float("inf")
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        pf = best_of(lambda: pitchfork_compile(
            wl.expr, ARM, var_bounds=wl.var_bounds))
        rake = best_of(lambda: rake_compile(
            wl.expr, ARM, var_bounds=wl.var_bounds))
        assert rake > pf
