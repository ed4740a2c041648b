"""Built-in job kinds for the execution fabric.

Each kind is the body of one *cell* of a matrix-shaped sweep, written so
a worker process can run it from the :class:`~repro.fabric.scheduler.TaskSpec`
descriptor alone: workloads are rebuilt from the workload registry,
targets from the target registry, rules from the rule registries —
nothing heavyweight crosses the process boundary, and every return value
is plain JSON data.

A kind that takes parameters declares them once, as a
:class:`~repro.fabric.scheduler.JobParams` class beside its body whose
field names are the daemon's wire names.

Every kind is called as ``fn(spec, obs)``.  ``obs`` is the task's own
:class:`~repro.observe.Observation` when the sweep observes, else
``None``; it is the only way telemetry leaves a task (the scheduler
ships its registry snapshot and spans home).  The return value carries
the result alone, so a cache hit replays data, never measurements.

Cacheable kinds declare their content components (``cache_parts``):
serialized expression + rulebase fingerprint + target name, so a cached
cell survives exactly until any semantic input changes (the repro
version is mixed into every key by the cache itself).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from ..interp.backend import BACKENDS, get_default_backend
from ..lifting.lifter import LIFT_STRATEGIES
from ..rulesets import rule_set, rule_sets
from .fingerprint import (
    baseline_rules_fingerprint,
    eval_backend_fingerprint,
    expr_fingerprint,
    pipeline_rules_fingerprint,
    rule_fingerprint,
    workload_fingerprint,
)
from .scheduler import JobParams, TaskSpec, job_kind, param

__all__ = [
    "CellParams", "CompileTimeParams", "RuntimeParams", "SynthParams",
    "VerifyParams", "VERIFY_RULESETS", "cell_specs", "resolve_rule",
]


def _lift_strategy():
    return param("greedy", choices=LIFT_STRATEGIES)


def _eval_backend():
    return param(factory=get_default_backend, choices=BACKENDS)


def cell_specs(kind: str, params, workload_names: Optional[Sequence[str]],
               targets: Sequence) -> List[TaskSpec]:
    """One ``kind`` task per workload × target cell, in figure order.

    ``workload_names`` (``None``: the whole suite) are resolved through
    :func:`repro.workloads.by_name`, so an unknown name raises its
    ``ValueError``; whatever order they come in, the cells follow the
    suite's, and each ``targets`` entry's in turn.
    """
    from ..workloads import WORKLOADS, by_name

    wanted = (
        set(WORKLOADS) if workload_names is None
        else {by_name(name).name for name in workload_names}
    )
    return [
        TaskSpec(kind, (name, target.name), params)
        for name in WORKLOADS if name in wanted
        for target in targets
    ]


# ----------------------------------------------------------------------
# Rule resolution (shared by verification jobs and their cache parts)
# ----------------------------------------------------------------------
#: the rule sets batch verification addresses: every shipped set, the
#: lifting sets and each target's lowering set (a target op evaluates
#: through its spec's semantics)
VERIFY_RULESETS = tuple(rs.name for rs in rule_sets())


@functools.lru_cache(maxsize=None)
def _rule_index(label: str) -> Dict[str, object]:
    """Rule name -> the first rule of that name in a ruleset, built
    once per process: the rule registries never change once imported."""
    index: Dict[str, object] = {}
    for r in rule_set(label).rules:
        index.setdefault(r.name, r)
    return index


def resolve_rule(label: str, rule_name: str):
    """Look one rule up by (ruleset label, rule name)."""
    index = _rule_index(label)
    try:
        return index[rule_name]
    except KeyError:
        raise KeyError(
            f"no rule {rule_name!r} in ruleset {label!r}"
        ) from None


# ----------------------------------------------------------------------
# coverage — one (workload, target) compile with rule telemetry
# ----------------------------------------------------------------------
class CellParams(JobParams):
    """Params of the ``coverage``, ``compile`` and ``machinelint`` kinds."""

    use_synthesized: bool = True
    lift_strategy: str = _lift_strategy()


def _cell_parts(spec: TaskSpec) -> Tuple[str, ...]:
    wl_name, target_name = spec.key
    p = spec.params
    return (
        workload_fingerprint(wl_name),
        target_name,
        pipeline_rules_fingerprint(
            target_name, p.use_synthesized, (), p.lift_strategy
        ),
    )


@job_kind("coverage", cache_parts=_cell_parts, params=CellParams)
def _run_coverage_cell(spec: TaskSpec, obs) -> List[list]:
    """Compile one cell with rule telemetry; return its fire table.

    The value is the sorted ``[phase, rule, source, fires]`` rows read
    off the compile's ``rule_fired`` counters — the data the coverage
    report prints, so a cache hit replays exactly that.  Everything
    else the compile records stays on ``obs``.
    """
    from ..observe import Observation
    from ..pipeline import pitchfork_compile
    from ..targets import by_name as target_by_name
    from ..workloads import by_name

    wl_name, target_name = spec.key
    wl = by_name(wl_name)
    trace = obs if obs is not None else Observation.quiet()
    pitchfork_compile(
        wl.expr,
        target_by_name(target_name),
        var_bounds=wl.var_bounds,
        use_synthesized=spec.params.use_synthesized,
        trace=trace,
        lift_strategy=spec.params.lift_strategy,
    )
    rows = []
    for c in trace.metrics.counters("rule_fired"):
        labels = dict(c.labels)
        rows.append(
            [labels["phase"], labels["rule"], labels["source"], c.value]
        )
    return sorted(rows)


# ----------------------------------------------------------------------
# compile — one (workload, target) compile returning the CLI listing
# ----------------------------------------------------------------------
@job_kind("compile", cache_parts=_cell_parts, params=CellParams)
def _run_compile_cell(spec: TaskSpec, obs) -> dict:
    """Compile one cell and return the listing + modelled cycles.

    The daemon's ``compile`` op: shares the coverage kind's cache parts
    (same key and params, same semantic inputs), and the ``listing``
    field is byte-identical to the one-shot CLI output by construction
    (:func:`repro.session.compile_cell`).  Compiles unobserved.
    """
    from ..session import compile_cell

    wl_name, target_name = spec.key
    return compile_cell(
        wl_name,
        target_name,
        use_synthesized=spec.params.use_synthesized,
        lift_strategy=spec.params.lift_strategy,
    )


# ----------------------------------------------------------------------
# machinelint — M-code lint + translation validation of one compiled cell
# ----------------------------------------------------------------------
@job_kind("machinelint", cache_parts=_cell_parts, params=CellParams)
def _run_machinelint_cell(spec: TaskSpec, obs) -> dict:
    """Compile one (workload, target) cell, lint the lowered program,
    validate the interval translation and profile register pressure.

    Shares the coverage kind's cache parts: the lint verdict depends on
    exactly the same semantic inputs (source expression + rulebase
    fingerprints + target), so a cached cell stays valid until a rule or
    workload changes.  Compiles unobserved.
    """
    from ..lint.machinelint import machine_cell

    wl_name, target_name = spec.key
    return machine_cell(
        wl_name,
        target_name,
        use_synthesized=spec.params.use_synthesized,
        lift_strategy=spec.params.lift_strategy,
    )


# ----------------------------------------------------------------------
# verify-rule — bounded verification of one rewrite rule
# ----------------------------------------------------------------------
class VerifyParams(JobParams):
    """The seed and budgets of ``repro rules --verify``.  A budget below
    one gives a verdict on no samples, which a cache would keep."""

    seed: int = 0
    max_type_combos: int = param(6, minimum=1)
    max_const_samples: int = param(4, minimum=1)
    max_points: int = param(400, minimum=1)
    eval_backend: str = _eval_backend()


def _verify_parts(spec: TaskSpec) -> Tuple[str, ...]:
    label, rule_name = spec.key
    return (
        rule_fingerprint(resolve_rule(label, rule_name)),
        eval_backend_fingerprint(spec.params.eval_backend),
    )


@job_kind("verify-rule", cache_parts=_verify_parts, params=VerifyParams)
def _run_verify_rule(spec: TaskSpec, obs) -> dict:
    # Resolved through the package (not bound at import) so tests can
    # monkeypatch ``repro.verify.verify_rule``.
    from .. import verify as verify_mod

    label, rule_name = spec.key
    p = spec.params
    report = verify_mod.verify_rule(
        resolve_rule(label, rule_name),
        seed=p.seed,
        max_type_combos=p.max_type_combos,
        max_const_samples=p.max_const_samples,
        max_points=p.max_points,
        backend=p.eval_backend,
    )
    if obs is not None:
        obs.metrics.counter(
            "verify_rules",
            ruleset=label,
            outcome="ok" if report.ok else "failed",
        ).inc()
        obs.metrics.histogram("verify_points", ruleset=label).observe(
            report.checked_points
        )
    return report.to_dict()


# ----------------------------------------------------------------------
# compile-time — one Figure 6 cell (never cached: it measures wall time)
# ----------------------------------------------------------------------
class CompileTimeParams(JobParams):
    """A Figure 6 cell keeps each flow's fastest of ``repeats`` runs."""

    repeats: int = param(3, minimum=1)
    lift_strategy: str = _lift_strategy()


@job_kind("compile-time", params=CompileTimeParams)
def _run_compile_time_cell(spec: TaskSpec, obs) -> dict:
    from ..evaluation.compile_time import measure_one
    from ..targets import by_name as target_by_name
    from ..workloads import by_name

    wl_name, target_name = spec.key
    r = measure_one(
        by_name(wl_name),
        target_by_name(target_name),
        repeats=spec.params.repeats,
        lift_strategy=spec.params.lift_strategy,
    )
    # The timed compiles themselves stay uninstrumented (observation
    # overhead is part of what Figure 6 measures); the *measurements*
    # feed the task's registry so a sweep-wide report can quote
    # p50/p99 compile latency per flow.
    if obs is not None:
        obs.metrics.histogram(
            "compile_seconds", flow="llvm", target=target_name
        ).observe(r.llvm.total_seconds)
        obs.metrics.histogram(
            "compile_seconds", flow="pitchfork", target=target_name
        ).observe(r.pitchfork.total_seconds)
    return {"llvm": r.llvm.to_dict(), "pitchfork": r.pitchfork.to_dict()}


# ----------------------------------------------------------------------
# runtime — one Figure 5 cell (modelled cycles: deterministic, cacheable)
# ----------------------------------------------------------------------
class RuntimeParams(JobParams):
    """Figure 5's cell sets both flags; the defaults leave them off (see
    :func:`repro.serve.protocol.to_task_spec` for why)."""

    with_rake: bool = False
    leave_one_out: bool = False
    lift_strategy: str = _lift_strategy()
    eval_backend: str = _eval_backend()


def _runtime_parts(spec: TaskSpec) -> Tuple[str, ...]:
    """A cell reports the cycles of up to three compilers, so its key
    hashes the rules of each one it runs."""
    from ..machine.rake_oracle import RAKE_TARGETS

    wl_name, target_name = spec.key
    p = spec.params
    exclude = (f"synth:{wl_name}",) if p.leave_one_out else ()
    parts = (
        workload_fingerprint(wl_name),
        target_name,
        pipeline_rules_fingerprint(
            target_name, True, exclude, p.lift_strategy
        ),
        baseline_rules_fingerprint("llvm", target_name),
        eval_backend_fingerprint(p.eval_backend),
    )
    if p.with_rake and target_name in RAKE_TARGETS:
        parts += (baseline_rules_fingerprint("rake", target_name),)
    return parts


@job_kind("runtime", cache_parts=_runtime_parts, params=RuntimeParams)
def _run_runtime_cell(spec: TaskSpec, obs) -> dict:
    from ..evaluation.runtime import run_one
    from ..targets import by_name as target_by_name
    from ..workloads import by_name

    wl_name, target_name = spec.key
    p = spec.params
    r = run_one(
        by_name(wl_name),
        target_by_name(target_name),
        with_rake=p.with_rake,
        leave_one_out=p.leave_one_out,
        lift_strategy=p.lift_strategy,
        eval_backend=p.eval_backend,
        trace=obs,
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
    wl_name, target_name = spec.key
    return (
        workload_fingerprint(wl_name),
        target_name,
        pipeline_rules_fingerprint(target_name, True),
        pipeline_rules_fingerprint(target_name, False),
        # ablation evaluates through the process-default backend
        eval_backend_fingerprint(None),
    )


@job_kind("ablation", cache_parts=_ablation_parts)
def _run_ablation_cell(spec: TaskSpec, obs) -> dict:
    from ..evaluation.ablation import ablate_one
    from ..targets import by_name as target_by_name
    from ..workloads import by_name

    wl_name, target_name = spec.key
    r = ablate_one(
        by_name(wl_name),
        target_by_name(target_name),
        trace=obs,
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


class SynthParams(JobParams):
    """The corpus (named workloads, left-hand side bound) and the
    right-hand side bound of one SyGuS search."""

    workload_names: Tuple[str, ...]
    max_lhs_size: int
    max_rhs_size: int
    eval_backend: str = _eval_backend()


def _synth_parts(spec: TaskSpec) -> Tuple[str, ...]:
    (index,) = spec.key
    p = spec.params
    entry = corpus_for(p.workload_names, p.max_lhs_size)[int(index)]
    return (
        expr_fingerprint(entry.expr),
        eval_backend_fingerprint(p.eval_backend),
    )


@job_kind("synthesize-lift", cache_parts=_synth_parts, params=SynthParams)
def _run_synthesize_lift(spec: TaskSpec, obs) -> dict:
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
    p = spec.params
    entry = corpus_for(p.workload_names, p.max_lhs_size)[int(index)]
    result = synthesize_lift(
        entry.expr, max_size=p.max_rhs_size, backend=p.eval_backend
    )
    if obs is not None:
        obs.metrics.counter(
            "synth_searches",
            outcome="found" if result is not None else "exhausted",
        ).inc()
        if result is not None:
            obs.metrics.histogram("synth_candidates_explored").observe(
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
