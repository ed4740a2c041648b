"""Reusable warm compiler session: the one run context of a command.

A :class:`CompilerSession` bundles what every ``python -m repro``
command needs and what a fresh process otherwise pays for cold:

* **run context** — ``jobs``, an optional
  :class:`~repro.fabric.ResultCache`, an optional
  :class:`~repro.observe.MetricsRegistry` and phase
  :class:`~repro.observe.Tracer` (both present exactly when a
  ``--report`` artifact was requested), and the ``--trace`` tracer
  (present exactly when ``--trace`` was given).
  :meth:`CompilerSession.from_args` builds it once from the shared CLI
  options; ``main()`` hands it to the command and closes it when the
  command ends.  Every sweep takes the session and runs its cells
  through :meth:`CompilerSession.run_tasks`, so the cache, the sinks
  and the worker pool reach each one the same way.
* **one fan-out** — at ``jobs > 1`` the session owns one
  :class:`~repro.fabric.WorkerPool`, forked on first use and shared by
  every sweep of the command; at ``jobs=1`` every task runs inline.
* **warm state** — :meth:`warm_up` pre-builds the compiler for each
  requested target (rule engines + discrimination-tree indexes, cached
  process-wide by :func:`repro.pipeline.pitchfork_compile`) and runs one
  small compile per target so the per-shape match memos and hash-cons
  arena are populated.  A long-lived process — the ``repro serve``
  daemon — does this once and serves every later request from the warm
  caches; it builds its pool only *after* warm-up, so the forked
  workers inherit the same state.

The session is also where the CLI's ``compile`` listing text is
produced (:func:`compile_listing`), so the daemon's ``compile`` replies
are byte-identical to the one-shot CLI output by construction.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any, Dict, Optional, Sequence

__all__ = [
    "CompilerSession",
    "compile_cell",
    "compile_listing",
]


def compile_listing(prog, workload_name: str, show_fpir: bool = False,
                    explain: bool = False) -> str:
    """The ``repro compile`` listing block for one compiled program.

    This is the *single* formatter behind both the one-shot CLI and the
    daemon's ``compile`` replies — the byte-identity contract between
    them lives here, not in two parallel f-strings.
    """
    lines = [f"== {workload_name} on {prog.target.name}"]
    if show_fpir:
        lines.append(f"-- lifted FPIR:\n{prog.lifted}")
    lines.append(
        f"-- PITCHFORK ({prog.cost().total:.1f} modelled cycles/vec):"
    )
    lines.append(prog.explain() if explain else prog.assembly())
    return "\n".join(lines)


def compile_cell(
    workload_name: str,
    target_name: str,
    use_synthesized: bool = True,
    lift_strategy: str = "greedy",
) -> Dict[str, Any]:
    """Compile one (workload, target) cell to a JSON-shaped reply.

    The body of the fabric ``compile`` job kind and of the daemon's
    ``compile`` op: deterministic given the expression, target and
    rulebase fingerprints, hence cacheable.  ``listing`` is exactly the
    text the one-shot CLI prints for the same request (see
    :func:`compile_listing`).
    """
    from .pipeline import pitchfork_compile
    from .targets import by_name as target_by_name
    from .workloads import by_name

    wl = by_name(workload_name)
    target = target_by_name(target_name)
    prog = pitchfork_compile(
        wl.expr,
        target,
        var_bounds=wl.var_bounds,
        use_synthesized=use_synthesized,
        lift_strategy=lift_strategy,
    )
    return {
        "workload": wl.name,
        "target": target.name,
        "listing": compile_listing(prog, wl.name),
        "cycles": prog.cost().total,
        "instructions": len(prog.instructions),
    }


class CompilerSession:
    """Warm compiler state + the shared run context of one invocation.

    A default session runs inline, uncached and unobserved.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        metrics=None,
        phase_tracer=None,
        tracer=None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.metrics = metrics
        #: root spans are the report's phases; never handed to the fabric
        self.phase_tracer = phase_tracer
        #: the ``--trace`` tracer, which every sweep's task spans join
        self.tracer = tracer
        self._pool = None
        self._warmed = False

    # -- construction --------------------------------------------------
    @classmethod
    def from_args(cls, args) -> "CompilerSession":
        """Build the session from the shared CLI options.

        Covers the fabric options (``--jobs``/``--cache``/
        ``--cache-dir``/``--no-cache``), the eval backend
        (``--eval-backend``, applied process-wide so job params and
        incidental ``evaluate()`` calls see it), the report tools (phase
        tracer + registry exist exactly when ``--report`` was given —
        the disabled-path-pays-nothing contract) and the ``--trace``
        tracer.  Options a command does not define simply default.
        """
        cache = None
        if (
            (getattr(args, "cache", False) or getattr(args, "cache_dir", None))
            and not getattr(args, "no_cache", False)
        ):
            from .fabric import ResultCache

            cache = ResultCache(root=getattr(args, "cache_dir", None))
        backend = getattr(args, "eval_backend", None)
        if backend is not None:
            from .interp import set_default_backend

            set_default_backend(backend)
        from .observe import MetricsRegistry, Tracer

        report = getattr(args, "report", None)
        return cls(
            jobs=getattr(args, "jobs", 1),
            cache=cache,
            metrics=MetricsRegistry() if report else None,
            phase_tracer=Tracer() if report else None,
            tracer=Tracer() if getattr(args, "trace", None) else None,
        )

    # -- warm state ----------------------------------------------------
    def warm_up(
        self,
        targets: Optional[Sequence[str]] = None,
        lift_strategies: Sequence[str] = ("greedy",),
    ) -> Dict[str, Any]:
        """Pre-build the warm state a long-lived process serves from.

        For each (target, lift strategy) pair this constructs the
        pipeline compiler — rule registries, rewrite engines and their
        discrimination-tree indexes, all cached process-wide — and runs
        one small compile so the hash-cons arena, per-shape candidate
        memos and bounds caches are populated.  Idempotent; returns a
        summary dict (``seconds`` is 0.0 on repeat calls).
        """
        from . import rulesets
        from . import targets as T
        from .pipeline import pitchfork_compile
        from .workloads import WORKLOADS, by_name

        names = (
            list(targets)
            if targets
            else [t.name for t in T.PAPER_TARGETS]
        )
        if self._warmed:
            return {"seconds": 0.0, "targets": names, "warmed": True}
        t0 = time.perf_counter()
        seed_wl = by_name("add" if "add" in WORKLOADS else WORKLOADS[0])
        for name in names:
            target = T.by_name(name)
            for strategy in lift_strategies:
                pitchfork_compile(
                    seed_wl.expr,
                    target,
                    var_bounds=seed_wl.var_bounds,
                    lift_strategy=strategy,
                )
        self._warmed = True
        seconds = time.perf_counter() - t0
        if self.metrics is not None:
            self.metrics.histogram("session_warm_up_seconds").observe(
                seconds
            )
        return {
            "seconds": seconds,
            "targets": names,
            "strategies": list(lift_strategies),
            "rules": len(rulesets.pitchfork().lift),
            "warmed": False,
        }

    # -- compilation ---------------------------------------------------
    def compile(
        self,
        workload_name: str,
        target_name: str,
        use_synthesized: bool = True,
        lift_strategy: str = "greedy",
        trace=None,
        verify_each: bool = False,
    ):
        """Compile one workload for one target through the warm caches."""
        from .pipeline import pitchfork_compile
        from .targets import by_name as target_by_name
        from .workloads import by_name

        wl = by_name(workload_name)
        return pitchfork_compile(
            wl.expr,
            target_by_name(target_name),
            var_bounds=wl.var_bounds,
            use_synthesized=use_synthesized,
            trace=trace,
            verify_each=verify_each,
            lift_strategy=lift_strategy,
        )

    # -- fabric --------------------------------------------------------
    def ensure_pool(self):
        """The session's persistent :class:`~repro.fabric.WorkerPool`.

        Created on first use (``jobs > 1`` only); its workers fork from
        this process as it stands then, so a daemon warms up first.
        ``None`` when the session runs inline (``jobs=1``).
        """
        if self.jobs == 1:
            return None
        if self._pool is None:
            from .fabric import WorkerPool

            self._pool = WorkerPool(self.jobs)
        return self._pool

    def run_tasks(self, specs):
        """Run a sweep's tasks in this run context: the session's cache,
        metrics and tracer, and its pool (inline at ``jobs=1``).
        Results come back in input order (:func:`repro.fabric.run_tasks`).
        """
        from .fabric import run_tasks

        return run_tasks(specs, cache=self.cache, metrics=self.metrics,
                         tracer=self.tracer, pool=self.ensure_pool())

    # -- observability -------------------------------------------------
    def phase(self, name: str):
        """A report phase — one root span on the phase tracer — when a
        report was requested, else a free no-op."""
        return (
            self.phase_tracer.span(name)
            if self.phase_tracer is not None
            else nullcontext()
        )

    def write_report(self, path: Optional[str], command: str,
                     extra=None) -> None:
        """Emit the ``--report`` artifact if one was requested; its span
        summary is the session tracer's."""
        if not path:
            return
        from .observe import RunReport

        RunReport.collect(
            command,
            phases=self.phase_tracer,
            metrics=self.metrics,
            tracer=self.tracer,
            cache=self.cache,
            extra=extra,
        ).write(path)
        print(f"wrote run report to {path}")

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release the persistent pool (if one was ever created)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CompilerSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CompilerSession jobs={self.jobs} "
            f"cache={'on' if self.cache else 'off'} "
            f"{'warm' if self._warmed else 'cold'}>"
        )
