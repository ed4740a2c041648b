"""The instrumented pass pipeline: ``Pass`` protocol + ``PassManager``.

PITCHFORK's online path is a short, fixed sequence — canonicalize, lift,
lower, downstream backend passes — that used to be hard-wired into
``pipeline.py``.  This module turns it into data: a :class:`PassManager`
runs an ordered list of :class:`Pass` objects over an expression, timing
each one by its tracer span and recording rewrite counts and node counts
into a :class:`CompileStats`, which the compiled program carries and the
CLI and benchmarks can print.

The manager is deliberately generic: a pass is anything with a ``name``
and a ``run(expr, ctx)`` method returning the transformed expression.
Shared per-compile state (the target, variable bounds, byproducts such as
the lifted FPIR form) travels in a :class:`PassContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..observe.tracer import Tracer

__all__ = [
    "Pass",
    "PassContext",
    "PassManager",
    "PassStats",
    "CompileStats",
    "PassVerificationError",
]


class PassVerificationError(Exception):
    """A pass produced an ill-formed tree (``verify_each`` mode).

    Carries the name of the offending pass and the well-formedness
    diagnostics (:class:`repro.lint.Diagnostic`) found in its output, so
    a miscompile is localized to the pass boundary where it happened
    instead of surfacing as a wrong golden output three passes later.
    """

    def __init__(self, pass_name: str, diagnostics):
        self.pass_name = pass_name
        self.diagnostics = list(diagnostics)
        lines = "\n  ".join(str(d) for d in self.diagnostics)
        super().__init__(
            f"pass '{pass_name}' broke IR well-formedness "
            f"({len(self.diagnostics)} violation"
            f"{'s' if len(self.diagnostics) != 1 else ''}):\n  {lines}"
        )


class Pass:
    """One stage of the compile pipeline.

    Subclasses set ``name`` and implement :meth:`run`.  A pass reports how
    much rewriting it did by incrementing ``ctx.rewrites``; the manager
    snapshots the counter around each pass to attribute the delta.
    """

    name: str = "<unnamed>"

    def run(self, expr, ctx: "PassContext"):
        """Transform ``expr`` and return the result (may be ``expr``)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Pass {self.name}>"


@dataclass
class PassContext:
    """Per-compile state shared by the passes of one pipeline run."""

    target: Optional[Any] = None
    var_bounds: Optional[Dict[str, Any]] = None
    #: byproducts passes want to expose (lifted form, rules used, backend
    #: pass statistics); keyed by pass-chosen names
    extras: Dict[str, Any] = field(default_factory=dict)
    #: running rewrite-application counter, incremented by passes
    rewrites: int = 0
    #: optional :class:`~repro.observe.Observation`; when set, passes
    #: thread rule telemetry and provenance into it and the manager's
    #: spans go on its tracer (None = the uninstrumented default)
    observe: Optional[Any] = None


@dataclass(frozen=True)
class PassStats:
    """What one pass did: wall time, rewrites, node counts."""

    name: str
    seconds: float
    rewrites: int
    nodes_in: int
    nodes_out: int


@dataclass
class CompileStats:
    """Per-pass breakdown of one compilation."""

    passes: List[PassStats] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def rewrites(self) -> int:
        return sum(p.rewrites for p in self.passes)

    def __getitem__(self, name: str) -> PassStats:
        for p in self.passes:
            if p.name == name:
                return p
        raise KeyError(name)

    def format_table(self) -> str:
        """Human-readable per-pass breakdown (CLI / benchmark reports)."""
        header = (
            f"{'pass':<14} {'ms':>8} {'rewrites':>9} "
            f"{'nodes in':>9} {'nodes out':>10}"
        )
        lines = [header]
        for p in self.passes:
            lines.append(
                f"{p.name:<14} {p.seconds * 1000:>8.2f} {p.rewrites:>9} "
                f"{p.nodes_in:>9} {p.nodes_out:>10}"
            )
        total = (
            f"{'total':<14} {self.total_seconds * 1000:>8.2f} "
            f"{self.rewrites:>9}"
        )
        if self.passes:
            # Aggregate node flow: what the pipeline consumed/emitted.
            total += (
                f" {self.passes[0].nodes_in:>9}"
                f" {self.passes[-1].nodes_out:>10}"
            )
        lines.append(total)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (trace export, BENCH_fig6.json)."""
        return {
            "total_seconds": self.total_seconds,
            "rewrites": self.rewrites,
            "passes": [
                {
                    "name": p.name,
                    "seconds": p.seconds,
                    "rewrites": p.rewrites,
                    "nodes_in": p.nodes_in,
                    "nodes_out": p.nodes_out,
                }
                for p in self.passes
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompileStats":
        """Rebuild from a :meth:`to_dict` payload (fabric round-trip)."""
        return cls(
            passes=[
                PassStats(
                    name=p["name"],
                    seconds=p["seconds"],
                    rewrites=p["rewrites"],
                    nodes_in=p["nodes_in"],
                    nodes_out=p["nodes_out"],
                )
                for p in data.get("passes", ())
            ],
            total_seconds=data.get("total_seconds", 0.0),
        )


class PassManager:
    """Runs an ordered pass list, timing and instrumenting each pass.

    ``verify_each`` opts into LLVM-``-verify-each``-style validation: the
    input tree and every pass's output are re-checked by the IR
    well-formedness verifier (:func:`repro.lint.verify_expr`) — and, once
    target instructions appear in the tree, by the machine-program lint
    (:func:`repro.lint.machine_check`) — and a violation raises
    :class:`PassVerificationError` naming the pass that introduced it.
    Off by default — the disabled path costs one ``if`` per pass.
    """

    def __init__(self, passes: Sequence[Pass], verify_each: bool = False):
        self.passes: List[Pass] = list(passes)
        self.verify_each = verify_each
        if verify_each:
            # Bind once; repro.lint only imports ir/fpir (no cycle).
            from ..lint import machine_check, verify_expr

            self._verify = verify_expr
            self._machine_check = machine_check

    def _check(self, expr, where: str) -> None:
        diagnostics = list(self._verify(expr))
        if not diagnostics:
            # Once target ops appear (post-lowering), also run the
            # machine-level lint (M-codes: def-before-use, semantics
            # width/arity agreement, residual unlowered nodes, ...).
            machine = getattr(self, "_machine_check", None)
            if machine is not None:
                diagnostics = machine(expr)
        if diagnostics:
            raise PassVerificationError(where, diagnostics)

    def run(
        self, expr, ctx: Optional[PassContext] = None
    ) -> Tuple[Any, CompileStats]:
        """Run every pass in order; returns (result, stats).

        The run is one ``compile`` span and every pass one nested
        ``pass:<name>`` span whose args record its node counts and
        rewrites.  Those spans are the only clock: each
        :class:`PassStats` time and :attr:`CompileStats.total_seconds`
        are read off them.  They go on ``ctx.observe``'s tracer when it
        records (and the per-pass times also feed its ``pass_seconds``
        histogram); otherwise on a private :class:`Tracer` that lives
        for this run only.
        """
        ctx = ctx if ctx is not None else PassContext()
        obs = ctx.observe
        tracer = (
            obs.tracer if obs is not None and obs.tracer.enabled
            else Tracer()
        )
        verify = self.verify_each
        stats = CompileStats()
        with tracer.span(
            "compile", target=getattr(ctx.target, "name", None),
            nodes=expr.size,
        ) as root:
            if verify:
                # A pre-broken input is the caller's bug, not the first
                # pass's; check it separately so blame lands correctly.
                self._check(expr, "<input>")
            for p in self.passes:
                nodes_in = expr.size
                rewrites_before = ctx.rewrites
                with tracer.span(
                    f"pass:{p.name}", nodes_in=nodes_in
                ) as span:
                    expr = p.run(expr, ctx)
                    span.args["nodes_out"] = expr.size
                    span.args["rewrites"] = ctx.rewrites - rewrites_before
                seconds = span.duration_us / 1e6
                if obs is not None:
                    obs.metrics.histogram(
                        "pass_seconds", stage=p.name
                    ).observe(seconds)
                if verify:
                    self._check(expr, p.name)
                stats.passes.append(
                    PassStats(
                        name=p.name,
                        seconds=seconds,
                        rewrites=span.args["rewrites"],
                        nodes_in=nodes_in,
                        nodes_out=span.args["nodes_out"],
                    )
                )
        stats.total_seconds = root.duration_us / 1e6
        # Fold the per-pass breakdown into the root span.
        root.args["stats"] = stats.to_dict()
        return expr, stats
