"""Built-in job kinds for the execution fabric.

Each kind is the body of one *cell* of a matrix-shaped sweep, written so
a worker process can run it from the :class:`~repro.fabric.scheduler.TaskSpec`
descriptor alone: workloads are rebuilt from the workload registry,
targets from the target registry, rules from the rule registries —
nothing heavyweight crosses the process boundary, and every return value
is plain JSON data.

Cacheable kinds declare their content components (``cache_parts``):
serialized expression + rulebase fingerprint + target name, so a cached
cell survives exactly until any semantic input changes (the repro
version is mixed into every key by the cache itself).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .fingerprint import (
    eval_backend_fingerprint,
    expr_fingerprint,
    pipeline_rules_fingerprint,
    rule_fingerprint,
)
from .scheduler import TaskSpec, job_kind, worker_observation

__all__ = ["resolve_ruleset", "resolve_rule", "VERIFY_RULESETS"]


def _worker_trace(metrics=None):
    """An :class:`~repro.observe.Observation` wired to this task's
    :class:`~repro.fabric.scheduler.WorkerObservation`, or ``None``.

    ``None`` (no observation requested for the sweep) keeps the compile
    pipeline on its uninstrumented path.  When the sweep observes, the
    returned bundle records spans on the worker tracer (shipped home in
    ``TaskResult.spans``) and counters into ``metrics`` — the worker's
    own registry by default (shipped home in ``TaskResult.metrics``), or
    a caller-supplied private registry for kinds like ``coverage`` whose
    snapshot is the (cacheable) task *value*.
    """
    wo = worker_observation()
    if wo is None:
        return None
    from ..observe import Observation

    return Observation(
        tracer=wo.tracer,
        metrics=metrics if metrics is not None else wo.metrics,
        rule_events=False,
    )


# ----------------------------------------------------------------------
# Rule resolution (shared by verification jobs and their cache parts)
# ----------------------------------------------------------------------
#: label -> loader for every ruleset batch verification can address
VERIFY_RULESETS = ("lifting-hand", "lifting-synth")


def resolve_ruleset(label: str):
    """The rule list behind a ruleset label.

    ``lifting-hand`` / ``lifting-synth`` name the two lifting rule sets;
    any target name addresses that target's lowering rules.
    """
    from ..lifting import HAND_RULES, SYNTHESIZED_RULES

    if label == "lifting-hand":
        return HAND_RULES
    if label == "lifting-synth":
        return SYNTHESIZED_RULES
    from ..targets import by_name

    return by_name(label).lowering_rules


def resolve_rule(label: str, rule_name: str):
    """Look one rule up by (ruleset label, rule name)."""
    for r in resolve_ruleset(label):
        if r.name == rule_name:
            return r
    raise KeyError(f"no rule {rule_name!r} in ruleset {label!r}")


# ----------------------------------------------------------------------
# coverage — one (workload, target) compile with rule telemetry
# ----------------------------------------------------------------------
def _coverage_parts(spec: TaskSpec) -> Tuple[str, ...]:
    from ..workloads import by_name

    wl_name, target_name = spec.key
    use_synthesized, lift_strategy = spec.params
    return (
        expr_fingerprint(by_name(wl_name).expr),
        target_name,
        pipeline_rules_fingerprint(
            target_name, use_synthesized, lift_strategy=lift_strategy
        ),
    )


@job_kind("coverage", cacheable=True, cache_parts=_coverage_parts)
def _run_coverage_cell(spec: TaskSpec) -> dict:
    """Compile one cell with rule telemetry; return the full registry
    snapshot (the parent merges cells in input order).

    The snapshot is deliberately the task *value* — not the worker
    side-channel — so a cache hit replays the cell's counters exactly.
    Spans still ride the worker tracer when the sweep traces.
    """
    from ..observe import MetricsRegistry, Observation
    from ..pipeline import pitchfork_compile
    from ..targets import by_name as target_by_name
    from ..workloads import by_name

    wl_name, target_name = spec.key
    use_synthesized, lift_strategy = spec.params
    wl = by_name(wl_name)
    registry = MetricsRegistry()
    trace = _worker_trace(metrics=registry)
    pitchfork_compile(
        wl.expr,
        target_by_name(target_name),
        var_bounds=wl.var_bounds,
        use_synthesized=use_synthesized,
        trace=trace
        if trace is not None
        else Observation.quiet(metrics=registry),
        lift_strategy=lift_strategy,
    )
    return registry.to_dict()


# ----------------------------------------------------------------------
# compile — one (workload, target) compile returning the CLI listing
# ----------------------------------------------------------------------
@job_kind("compile", cacheable=True, cache_parts=_coverage_parts)
def _run_compile_cell(spec: TaskSpec) -> dict:
    """Compile one cell and return the listing + modelled cycles.

    The daemon's ``compile`` op: shares the coverage kind's cache parts
    (same key/params shape, same semantic inputs), and the ``listing``
    field is byte-identical to the one-shot CLI output by construction
    (:func:`repro.session.compile_cell`).
    """
    from ..session import compile_cell

    wl_name, target_name = spec.key
    use_synthesized, lift_strategy = spec.params
    return compile_cell(
        wl_name,
        target_name,
        use_synthesized=use_synthesized,
        lift_strategy=lift_strategy,
    )


# ----------------------------------------------------------------------
# machinelint — M-code lint + translation validation of one compiled cell
# ----------------------------------------------------------------------
@job_kind("machinelint", cacheable=True, cache_parts=_coverage_parts)
def _run_machinelint_cell(spec: TaskSpec) -> dict:
    """Compile one (workload, target) cell, lint the lowered program,
    validate the interval translation and profile register pressure.

    Shares the coverage kind's cache parts: the lint verdict depends on
    exactly the same semantic inputs (source expression + rulebase
    fingerprints + target), so a cached cell stays valid until a rule or
    workload changes.
    """
    from ..lint.machinelint import machine_cell

    wl_name, target_name = spec.key
    use_synthesized, lift_strategy = spec.params
    return machine_cell(
        wl_name,
        target_name,
        use_synthesized=use_synthesized,
        lift_strategy=lift_strategy,
    )


# ----------------------------------------------------------------------
# verify-rule — bounded verification of one rewrite rule
# ----------------------------------------------------------------------
def _verify_parts(spec: TaskSpec) -> Tuple[str, ...]:
    label, rule_name = spec.key
    *_budget, backend = spec.params
    return (
        rule_fingerprint(resolve_rule(label, rule_name)),
        eval_backend_fingerprint(backend),
    )


@job_kind("verify-rule", cacheable=True, cache_parts=_verify_parts)
def _run_verify_rule(spec: TaskSpec) -> dict:
    # Resolved through the package (not bound at import) so tests can
    # monkeypatch ``repro.verify.verify_rule``.
    from .. import verify as verify_mod

    label, rule_name = spec.key
    seed, max_type_combos, max_const_samples, max_points, backend = (
        spec.params
    )
    report = verify_mod.verify_rule(
        resolve_rule(label, rule_name),
        seed=seed,
        max_type_combos=max_type_combos,
        max_const_samples=max_const_samples,
        max_points=max_points,
        backend=backend,
    )
    wo = worker_observation()
    if wo is not None:
        wo.metrics.counter(
            "verify_rules",
            ruleset=label,
            outcome="ok" if report.ok else "failed",
        ).inc()
        wo.metrics.histogram("verify_points", ruleset=label).observe(
            getattr(report, "checked_points", 0)
        )
    # Duck-typed rather than ``report.to_dict()`` so stub verifiers
    # (tests monkeypatch ``repro.verify.verify_rule``) only need the
    # ``ok``/``counterexample`` surface the CLI historically consumed.
    return {
        "rule_name": getattr(report, "rule_name", rule_name),
        "ok": report.ok,
        "checked_combos": getattr(report, "checked_combos", 0),
        "checked_points": getattr(report, "checked_points", 0),
        "counterexample": report.counterexample,
        "notes": list(getattr(report, "notes", ())),
    }


# ----------------------------------------------------------------------
# compile-time — one Figure 6 cell (never cached: it measures wall time)
# ----------------------------------------------------------------------
@job_kind("compile-time")
def _run_compile_time_cell(spec: TaskSpec) -> dict:
    from ..evaluation.compile_time import measure_one
    from ..targets import by_name as target_by_name
    from ..workloads import by_name

    wl_name, target_name = spec.key
    repeats, lift_strategy = spec.params
    r = measure_one(
        by_name(wl_name),
        target_by_name(target_name),
        repeats=repeats,
        lift_strategy=lift_strategy,
    )
    # The timed compiles themselves stay uninstrumented (observation
    # overhead is part of what Figure 6 measures); the *measurements*
    # feed the worker registry so a sweep-wide report can quote
    # p50/p99 compile latency per flow.
    wo = worker_observation()
    if wo is not None:
        wo.metrics.histogram(
            "compile_seconds", flow="llvm", target=target_name
        ).observe(r.llvm_seconds)
        wo.metrics.histogram(
            "compile_seconds", flow="pitchfork", target=target_name
        ).observe(r.pitchfork_seconds)
    return {
        "llvm_seconds": r.llvm_seconds,
        "pitchfork_seconds": r.pitchfork_seconds,
        "stats": None if r.stats is None else r.stats.to_dict(),
    }


# ----------------------------------------------------------------------
# runtime — one Figure 5 cell (modelled cycles: deterministic, cacheable)
# ----------------------------------------------------------------------
def _runtime_parts(spec: TaskSpec) -> Tuple[str, ...]:
    from ..workloads import by_name

    wl_name, target_name = spec.key
    _with_rake, leave_one_out, lift_strategy, backend = spec.params
    wl = by_name(wl_name)
    exclude = (f"synth:{wl.name}",) if leave_one_out else ()
    return (
        expr_fingerprint(wl.expr),
        target_name,
        pipeline_rules_fingerprint(
            target_name,
            True,
            exclude_sources=exclude,
            lift_strategy=lift_strategy,
        ),
        eval_backend_fingerprint(backend),
    )


@job_kind("runtime", cacheable=True, cache_parts=_runtime_parts)
def _run_runtime_cell(spec: TaskSpec) -> dict:
    from ..evaluation.runtime import run_one
    from ..targets import by_name as target_by_name
    from ..workloads import by_name

    wl_name, target_name = spec.key
    with_rake, leave_one_out, lift_strategy, backend = spec.params
    r = run_one(
        by_name(wl_name),
        target_by_name(target_name),
        with_rake=with_rake,
        leave_one_out=leave_one_out,
        lift_strategy=lift_strategy,
        eval_backend=backend,
        trace=_worker_trace(),
    )
    return {
        "llvm_cycles": r.llvm_cycles,
        "pitchfork_cycles": r.pitchfork_cycles,
        "rake_cycles": r.rake_cycles,
        "llvm_substituted": r.llvm_substituted,
        "verified": r.verified,
    }


# ----------------------------------------------------------------------
# ablation — one Figure 7 cell (modelled cycles: deterministic, cacheable)
# ----------------------------------------------------------------------
def _ablation_parts(spec: TaskSpec) -> Tuple[str, ...]:
    from ..workloads import by_name

    wl_name, target_name = spec.key
    return (
        expr_fingerprint(by_name(wl_name).expr),
        target_name,
        pipeline_rules_fingerprint(target_name, True),
        pipeline_rules_fingerprint(target_name, False),
        # ablation evaluates through the process-default backend
        eval_backend_fingerprint(None),
    )


@job_kind("ablation", cacheable=True, cache_parts=_ablation_parts)
def _run_ablation_cell(spec: TaskSpec) -> dict:
    from ..evaluation.ablation import ablate_one
    from ..targets import by_name as target_by_name
    from ..workloads import by_name

    wl_name, target_name = spec.key
    r = ablate_one(
        by_name(wl_name),
        target_by_name(target_name),
        trace=_worker_trace(),
    )
    return {
        "hand_only_cycles": r.hand_only_cycles,
        "full_cycles": r.full_cycles,
        "verified": r.verified,
    }


# ----------------------------------------------------------------------
# synthesize-lift — SyGuS search for one corpus entry (§4.1)
# ----------------------------------------------------------------------
#: per-process corpus memo so a worker extracts each corpus once
_CORPUS_MEMO: Dict[Tuple, List] = {}


def corpus_for(workload_names: Tuple[str, ...], max_lhs_size: int):
    """The deterministic §4.1 corpus for a named workload set, memoized
    per process (workers re-derive it instead of unpickling it)."""
    key = (workload_names, max_lhs_size)
    corpus = _CORPUS_MEMO.get(key)
    if corpus is None:
        from ..synthesis.corpus import extract_corpus
        from ..workloads import by_name

        corpus = extract_corpus(
            [by_name(n) for n in workload_names], max_size=max_lhs_size
        )
        _CORPUS_MEMO[key] = corpus
    return corpus


def _synth_parts(spec: TaskSpec) -> Tuple[str, ...]:
    (index,) = spec.key
    workload_names, max_lhs_size, _max_rhs_size, backend = spec.params
    entry = corpus_for(workload_names, max_lhs_size)[int(index)]
    return (
        expr_fingerprint(entry.expr),
        eval_backend_fingerprint(backend),
    )


@job_kind("synthesize-lift", cacheable=True, cache_parts=_synth_parts)
def _run_synthesize_lift(spec: TaskSpec) -> dict:
    """Run the enumerative search for one corpus entry.

    The found right-hand side travels back as its s-expression text; the
    parent reloads it and recomputes costs (both deterministic), keeping
    interned trees out of the result channel.  The rare RHS the
    serializer cannot express is flagged so the parent can redo that
    entry inline.
    """
    from ..synthesis.sygus import synthesize_lift
    from ..trs.serialize import SerializationError, dump_expr

    (index,) = spec.key
    workload_names, max_lhs_size, max_rhs_size, backend = spec.params
    entry = corpus_for(workload_names, max_lhs_size)[int(index)]
    result = synthesize_lift(
        entry.expr, max_size=max_rhs_size, backend=backend
    )
    wo = worker_observation()
    if wo is not None:
        wo.metrics.counter(
            "synth_searches",
            outcome="found" if result is not None else "exhausted",
        ).inc()
        if result is not None:
            wo.metrics.histogram("synth_candidates_explored").observe(
                result.candidates_explored
            )
    if result is None:
        return {"found": False}
    try:
        rhs_text = dump_expr(result.rhs)
    except SerializationError:
        return {"found": True, "unserializable": True}
    return {
        "found": True,
        "rhs": rhs_text,
        "candidates_explored": result.candidates_explored,
    }
