"""The in-process workloads: one fresh child process per run.

``run.py`` starts this script once per set-up sample.  The child imports
``repro``, warms a :class:`~repro.session.CompilerSession` for the
workload's targets and lift strategy, and prints one ``READY`` line; the
parent times spawn-to-``READY`` as ``setup_s``.  A set-up-only child
exits there; the measured child goes on to run the workload and prints
its result as one JSON line.

Every op is closed loop with one caller.  A run is whole rounds, each
the workload's full op set in a seeded order, until ``--seconds`` have
passed (and at least :attr:`suite.Workload.min_rounds`).  Each op's
latency is scaled to the reference host speed (:class:`suite.HostSpeed`).
Each op's output is checked as it returns, and every distinct output
once more after the timed phase (the ``oracle`` methods).

With ``--trace 1`` the child runs the timed phase twice, half the time
each: untraced, then traced through :class:`spans.SpanRecorder` spans
around each layer's public entry points — the four ``Pass.run`` calls,
``CompiledProgram.cost`` and ``.assembly``, or ``verify_rule``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

_T_START = time.perf_counter()

from spans import SpanRecorder, self_times  # noqa: E402
from suite import (  # noqa: E402
    ROOT, VERIFY_BACKEND, VERIFY_SETTINGS, WORKLOADS, HostSpeed, Workload,
    closed_loop_metrics,
)
from repro.interp import evaluate_reference  # noqa: E402
from repro.ir.expr import Var, free_vars  # noqa: E402
from repro.ir.traversal import substitute_vars  # noqa: E402
from repro.lifting import HAND_RULES, SYNTHESIZED_RULES  # noqa: E402
from repro.observe import MetricsRegistry, Observation  # noqa: E402
from repro.passes import PassContext  # noqa: E402
from repro.pipeline import (  # noqa: E402
    CompiledProgram,
    PitchforkCompiler,
    pitchfork_compile,
)
from repro.session import CompilerSession  # noqa: E402
from repro.targets import by_name as target_by_name  # noqa: E402
from repro.verify import verify_rule  # noqa: E402
from repro.workloads import WORKLOADS as SUITE, by_name  # noqa: E402

_T_IMPORTED = time.perf_counter()

#: ``Pass.name`` -> the layer its span is named after
PASS_LAYERS = {
    "canonicalize": "lifting.canonicalize",
    "lift": "lifting.lift",
    "lower": "machine.lower",
    "backend": "machine.backend",
}
VERIFY_ARGS = dict(VERIFY_SETTINGS, backend=VERIFY_BACKEND)
LANES = 64


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the timed loop
# ----------------------------------------------------------------------
class Phase:
    """Latencies and busy time of the whole rounds that fill ``seconds``.

    ``run_op`` returns the op's outputs; ``check`` judges them outside
    the op's latency but inside the busy time.  Each op's latency is
    kept with its start, and scaled to the reference speed by the
    :class:`suite.HostSpeed` probes taken between ops.  Rounds are
    numbered from ``first_round`` so a second phase gets fresh inputs.
    """

    def __init__(self, first_round: int = 0) -> None:
        self.first_round = first_round
        self.rounds = 0
        #: (start, wall seconds) per op
        self.samples: list = []
        #: wall seconds of ops and checks, probes and input preparation
        #: left out
        self.busy_s = 0.0
        self.speed = HostSpeed()

    def run(self, seconds: float, min_rounds: int, make_round, run_op,
            check) -> "Phase":
        start = time.perf_counter()
        self.speed.probe()
        while (self.rounds < min_rounds
               or time.perf_counter() - start < seconds):
            ops = make_round(self.first_round + self.rounds)
            for op in ops:
                self.speed.between_ops()
                t0 = time.perf_counter()
                out = run_op(op)
                t1 = time.perf_counter()
                self.samples.append((t0, t1 - t0))
                check(*out)
                self.busy_s += time.perf_counter() - t0
            self.rounds += 1
        self.speed.probe()
        return self

    @property
    def ops(self) -> int:
        return len(self.samples)

    def metrics(self, wl: Workload) -> dict:
        """With one caller, the loop is busy for the sum of the ops'
        latencies."""
        lat = [self.speed.scale(t, s) for t, s in self.samples]
        return closed_loop_metrics(lat, sum(lat), wl.tail_q)


def layer_ms_per_op(rec: SpanRecorder, ops: int, speed: HostSpeed) -> dict:
    """Per layer span name: self milliseconds per op at reference
    speed."""
    own = self_times(rec.spans)
    out: dict = {}
    for s in rec.spans:
        if s.parent is not None:
            out[s.name] = out.get(s.name, 0.0) + speed.scale(s.start,
                                                             own[s.sid])
    return {name: 1e3 * t / ops for name, t in out.items()}


def unattributed_share(rec: SpanRecorder, wall_s: float) -> float:
    """1 - (self time of every layer span) / end-to-end wall time."""
    own = self_times(rec.spans)
    layers = sum(own[s.sid] for s in rec.spans if s.parent is not None)
    return 1.0 - layers / wall_s


# ----------------------------------------------------------------------
# compile workloads
# ----------------------------------------------------------------------
def renamed(wl, suffix: str):
    """The workload's expression and bounds with every variable renamed."""
    env = {v.name: Var(v.type, v.name + suffix) for v in free_vars(wl.expr)}
    bounds = {k + suffix: b for k, b in wl.var_bounds.items()}
    return substitute_vars(wl.expr, env), bounds, suffix


def signature(prog, cycles):
    return cycles, tuple(prog.instructions)


class CompileRun:
    """compile-suite / compile-fresh / compile-egraph."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.cells = [(w, t) for w in SUITE for t in wl.targets]
        #: cell -> (signature, program, rename suffix) of its first compile
        self.first: dict = {}
        self.failed = 0
        self.attempted = 0

    def make_round(self, r: int):
        rng = random.Random(f"{self.seed}/{r}")
        cells = list(self.cells)
        rng.shuffle(cells)
        ops = []
        for w, t in cells:
            wl = by_name(w)
            if self.wl.fresh:
                expr, bounds, sfx = renamed(wl, f"_{rng.getrandbits(40):x}")
            else:
                expr, bounds, sfx = wl.expr, wl.var_bounds, ""
            ops.append(((w, t), target_by_name(t), expr, bounds, sfx))
        return ops

    def check(self, cell, prog, cycles, sfx) -> None:
        """Every compile of a cell must equal the run's first one."""
        self.attempted += 1
        sig = signature(prog, cycles)
        first = self.first.get(cell)
        if first is None:
            self.first[cell] = (sig, prog, sfx)
        elif first[0] != sig:
            self.failed += 1

    def op(self, op):
        cell, target, expr, bounds, sfx = op
        prog = pitchfork_compile(expr, target, var_bounds=bounds,
                                 lift_strategy=self.wl.lift_strategy)
        cycles = prog.cost().total
        prog.assembly()
        return cell, prog, cycles, sfx

    # -- traced ------------------------------------------------------
    def traced_setup(self):
        self.rec = SpanRecorder()
        self.nodes_out = dict.fromkeys(PASS_LAYERS.values(), 0)
        self.rewrites = dict.fromkeys(PASS_LAYERS.values(), 0)
        self.compilers = {
            t: PitchforkCompiler(target_by_name(t),
                                 lift_strategy=self.wl.lift_strategy)
            for t in self.wl.targets
        }
        # one untimed round warms the per-shape memos of these compilers
        for op in self.make_round(-1):
            self.traced_op(op)
        self.rec = SpanRecorder()
        self.nodes_out = dict.fromkeys(PASS_LAYERS.values(), 0)
        self.rewrites = dict.fromkeys(PASS_LAYERS.values(), 0)

    def traced_op(self, op):
        """The pipeline one pass at a time, each in its layer's span."""
        cell, target, expr, bounds, sfx = op
        rec = self.rec
        with rec.span("bench.op"):
            ctx = PassContext(target=target, var_bounds=bounds)
            e = expr
            for p in self.compilers[target.name].passes.passes:
                layer = PASS_LAYERS[p.name]
                before = ctx.rewrites
                with rec.span(layer):
                    e = p.run(e, ctx)
                self.rewrites[layer] += ctx.rewrites - before
                self.nodes_out[layer] += e.size
            prog = CompiledProgram(
                source=expr, lifted=ctx.extras.get("lifted"), lowered=e,
                target=target, compiler="pitchfork",
            )
            with rec.span("machine.cost"):
                cycles = prog.cost().total
            with rec.span("machine.listing"):
                prog.assembly()
        return cell, prog, cycles, sfx

    def counts(self) -> dict:
        """Rule-engine counts, once per distinct cell, per op.

        Every round holds each cell once, so the op-mix weighting is
        uniform over cells.
        """
        totals: dict = {}

        def add(key, v):
            totals[key] = totals.get(key, 0) + v

        for w, t in self.cells:
            wl = by_name(w)
            reg = MetricsRegistry()
            pitchfork_compile(wl.expr, target_by_name(t),
                              var_bounds=wl.var_bounds,
                              lift_strategy=self.wl.lift_strategy,
                              trace=Observation.quiet(metrics=reg))
            for c in reg.counters():
                lab = dict(c.labels)
                if c.name in ("match_index", "memo"):
                    add((c.name, lab.get("phase"), lab["outcome"]), c.value)
                elif c.name == "rule_fired":
                    add("rule_fired", c.value)
                elif c.name == "egraph_applications":
                    add("egraph_applications", c.value)
            for h in reg.histograms():
                if h.name in ("egraph_enodes", "egraph_iterations"):
                    add(h.name, h.total)
        n = len(self.cells)

        def ratio(hit, miss):
            return hit / (hit + miss) if hit + miss else 0.0

        mi_hit = sum(v for k, v in totals.items()
                     if k[:1] == ("match_index",) and k[2] == "hit")
        mi_all = sum(v for k, v in totals.items()
                     if k[:1] == ("match_index",))
        out = {
            "trs.match_index.hit_ratio": mi_hit / mi_all if mi_all else 0.0,
            "trs.match_index.consulted_per_op": mi_all / n,
            "trs.rules_fired_per_op": totals.get("rule_fired", 0) / n,
            "egraph.enodes_per_op": totals.get("egraph_enodes", 0) / n,
            "egraph.iterations_per_op":
                totals.get("egraph_iterations", 0) / n,
            "egraph.applications_per_op":
                totals.get("egraph_applications", 0) / n,
        }
        for phase in ("lift", "lower"):
            hit = totals.get(("memo", phase, "hit"), 0)
            miss = totals.get(("memo", phase, "miss"), 0)
            out[f"trs.memo.hit_ratio.{phase}"] = ratio(hit, miss)
            out[f"trs.memo.lookups_per_op.{phase}"] = (hit + miss) / n
        return out

    # -- after the timed phase -----------------------------------------
    def oracle(self) -> dict:
        """Untimed output checks; returns the quality sums."""
        baseline = load_cycles_baseline()
        cycles_sum = instr_sum = 0.0
        for (w, t), (sig, prog, sfx) in sorted(self.first.items()):
            wl = by_name(w)
            # lane-exact against the reference interpreter
            env = {k + sfx: v for k, v in
                   wl.random_env(lanes=LANES, seed=self.seed).items()}
            self.attempted += 1
            if prog.run(env) != evaluate_reference(prog.source, env):
                self.failed += 1
            if sfx:
                # renaming must not change the output
                base = pitchfork_compile(wl.expr, target_by_name(t),
                                         var_bounds=wl.var_bounds,
                                         lift_strategy=self.wl.lift_strategy)
                self.attempted += 1
                if signature(base, base.cost().total) != sig:
                    self.failed += 1
            # modelled cycles never above the checked-in ratchet
            limit = baseline.get(f"{w}|{t}", {}).get(self.wl.lift_strategy)
            if limit is not None:
                self.attempted += 1
                if sig[0] > limit:
                    self.failed += 1
            cycles_sum += sig[0]
            instr_sum += len(sig[1])
        return {
            "quality.modelled_cycles_sum": cycles_sum,
            "quality.instructions_sum": instr_sum,
        }


def load_cycles_baseline() -> dict:
    with open(os.path.join(ROOT, "benchmarks", "cycles_baseline.json")) as fh:
        return json.load(fh)["cells"]


# ----------------------------------------------------------------------
# verify-rules
# ----------------------------------------------------------------------
def unsound_mutants():
    """Three rules the verifier must reject, in the shapes of the
    verifier's own unit tests."""
    from repro import fpir as F
    from repro.ir import expr as E
    from repro.trs.pattern import ConstWild, PConst, TVar, TWiden, Wild
    from repro.trs.rule import Rule

    T = TVar("T", max_bits=32)
    return [
        Rule("mutant-add-as-saturating-add",
             E.Add(Wild("x", T), Wild("y", T)),
             F.SaturatingAdd(Wild("x", T), Wild("y", T))),
        Rule("mutant-shl-missing-range-predicate",
             E.Shl(E.Cast(TWiden(T), Wild("x", T)),
                   ConstWild("c0", TWiden(T))),
             F.WideningShl(Wild("x", T),
                           PConst(TVar("T"), lambda c: c["c0"]))),
        Rule("mutant-never-satisfiable-predicate",
             E.Add(Wild("x", T), ConstWild("c0", T)),
             E.Add(Wild("x", T), ConstWild("c0", T)),
             predicate=lambda m, ctx: False),
    ]


class VerifyRun:
    """verify-rules: every lifting rule plus the mutants, per seed."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.cases = ([(r, True) for r in HAND_RULES + SYNTHESIZED_RULES]
                      + [(r, False) for r in unsound_mutants()])
        self.failed = 0
        self.attempted = 0
        self.points = 0
        self.combos = 0

    def make_round(self, r: int):
        cases = list(self.cases)
        random.Random(f"{self.seed}/{r}").shuffle(cases)
        # round r verifies under seed + r, so each round's samples differ
        return [(rule.name, rule, sound, self.seed + r)
                for rule, sound in cases]

    def check(self, report, sound) -> None:
        self.attempted += 1
        if report.ok != sound:
            self.failed += 1
        self.points += report.checked_points
        self.combos += report.checked_combos

    def op(self, op):
        _, rule, sound, seed = op
        return verify_rule(rule, seed=seed, **VERIFY_ARGS), sound

    def traced_setup(self):
        self.rec = SpanRecorder()
        self.points = self.combos = 0

    def traced_op(self, op):
        _, rule, sound, seed = op
        with self.rec.span("bench.op"):
            with self.rec.span("verify.rule_verifier"):
                report = verify_rule(rule, seed=seed, **VERIFY_ARGS)
        return report, sound

    def oracle(self) -> dict:
        return {}


# ----------------------------------------------------------------------
# the child's main
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        n for n, w in WORKLOADS.items() if w.kind != "serve"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-prefix", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true",
                    help="let a run end after one round")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    t_warm = time.perf_counter()
    CompilerSession().warm_up(
        targets=list(wl.targets) or None,
        lift_strategies=(wl.lift_strategy,),
    )
    ready = {
        "import_s": _T_IMPORTED - _T_START,
        "warm_up_s": time.perf_counter() - t_warm,
    }
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        return 0

    run = (CompileRun if wl.kind == "compile" else VerifyRun)(wl, args.seed)
    min_rounds = 1 if args.smoke else wl.min_rounds
    metrics: dict = {}
    if not args.trace:
        phase = Phase().run(args.seconds, min_rounds, run.make_round,
                            run.op, run.check)
        metrics.update(phase.metrics(wl))
        ops = phase.ops
    else:
        untraced = Phase().run(args.seconds / 2, min_rounds,
                               run.make_round, run.op, run.check)
        run.traced_setup()
        traced = Phase(first_round=untraced.rounds).run(
            args.seconds / 2, min_rounds, run.make_round, run.traced_op,
            run.check)
        ops = traced.ops
        metrics["bench.trace_overhead"] = (
            traced.metrics(wl)["ops_per_s"] / untraced.metrics(wl)["ops_per_s"])
        metrics["bench.unattributed_share"] = unattributed_share(
            run.rec, traced.busy_s)
        metrics["bench.host_slowdown"] = traced.speed.slowdown
        for name, ms in layer_ms_per_op(run.rec, ops, traced.speed).items():
            metrics[f"{name}.ms_per_op"] = ms
        if wl.kind == "compile":
            for layer in PASS_LAYERS.values():
                metrics[f"{layer}.nodes_out"] = run.nodes_out[layer] / ops
            for layer in ("lifting.lift", "machine.lower"):
                metrics[f"{layer}.rewrites_per_op"] = run.rewrites[layer] / ops
            metrics.update(run.counts())
        else:
            verify_s = metrics["verify.rule_verifier.ms_per_op"] * ops / 1e3
            metrics["verify.points_per_op"] = run.points / ops
            metrics["verify.combos_per_op"] = run.combos / ops
            metrics["verify.points_per_s"] = run.points / verify_s
        if args.trace_prefix:
            run.rec.write(args.trace_prefix + ".trace.json",
                          args.trace_prefix + ".summary.json",
                          traced.busy_s)
            print(run.rec.format_summary(traced.busy_s), file=sys.stderr)
    metrics.update(run.oracle())
    metrics["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps({
        "attempted": run.attempted,
        "failed": run.failed,
        "ops": ops,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
