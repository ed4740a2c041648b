"""The offline synthesis driver: Figure 1's bottom half, end to end.

Runs the full §4 pipeline over the benchmark corpus:

1. extract candidate left-hand sides from the workloads (§4.1 corpus);
2. synthesize cheaper FPIR right-hand sides (enumerative SyGuS, §4.1);
3. generalize each concrete pair into a symbolic, predicated rule (§4.3)
   and verify it;
4. (optionally) mine lowering pairs against the Rake oracle (§4.2).

The checked-in rule set in :mod:`repro.lifting.synthesized` and the
``synth:*``-tagged lowering rules are curated outputs of this pipeline;
``examples/rule_synthesis_demo.py`` runs it live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..session import CompilerSession
from ..trs.rule import Rule
from ..workloads import Workload, all_workloads
from .corpus import CorpusEntry, extract_corpus
from .generalize import GeneralizationError, generalize_pair
from .sygus import SynthesisResult, synthesize_lift

__all__ = ["SynthesisRun", "synthesize_lifting_rules"]


@dataclass
class SynthesisRun:
    """Everything the offline pipeline produced."""

    corpus_size: int = 0
    pairs: List[SynthesisResult] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)
    failed_generalizations: int = 0

    def summary(self) -> str:
        return (
            f"corpus: {self.corpus_size} candidate LHSs; "
            f"synthesized pairs: {len(self.pairs)}; "
            f"verified generalized rules: {len(self.rules)}; "
            f"failed generalizations: {self.failed_generalizations}"
        )


def _registry_names(wl_list: List[Workload]) -> Optional[Tuple[str, ...]]:
    """The names that rebuild ``wl_list`` from the workload registry, or
    None when a workload is not the registry's own (an ad-hoc one)."""
    from ..workloads import by_name

    names = tuple(w.name for w in wl_list)
    try:
        if all(by_name(n) is w for n, w in zip(names, wl_list)):
            return names
    except ValueError:
        pass
    return None


def _search_corpus(
    names: Optional[Tuple[str, ...]],
    corpus: List[CorpusEntry],
    max_lhs_size: int,
    max_rhs_size: int,
    session: CompilerSession,
) -> List[Optional[SynthesisResult]]:
    """Run the per-entry SyGuS search, as the ``session``'s fabric tasks
    when the workloads are the registry's ``names`` (inline at
    ``jobs=1``), so its cache, metrics and tracer see every search.

    Only the search itself (the expensive, embarrassingly-parallel part)
    is a task; generalization and rule naming stay serial in the caller
    so the produced rules are identical to the all-inline pipeline.
    Tasks return each found RHS as s-expression text; the caller
    re-derives costs (deterministic).  Entries whose RHS the serializer
    cannot express — and any infrastructure failure — are redone inline,
    so a degraded fabric degrades to the serial pipeline, never to a
    gap.  Both paths evaluate on the process-default backend.
    """

    def inline(entry: CorpusEntry) -> Optional[SynthesisResult]:
        return synthesize_lift(entry.expr, max_size=max_rhs_size)

    if names is None:  # ad-hoc workloads: a task cannot rebuild them
        return [inline(entry) for entry in corpus]

    from ..fabric import TaskSpec
    from ..fabric.jobs import SynthParams
    from ..trs.costs import cost
    from ..trs.serialize import load_expr

    params = SynthParams(workload_names=names, max_lhs_size=max_lhs_size,
                         max_rhs_size=max_rhs_size)
    specs = [
        TaskSpec(
            "synthesize-lift",
            key=(str(i),),
            params=params,
        )
        for i in range(len(corpus))
    ]
    out: List[Optional[SynthesisResult]] = []
    fabric_results = session.run_tasks(specs)
    for res, entry in zip(fabric_results, corpus):
        if not res.ok:
            out.append(inline(entry))
        elif not res.value.get("found"):
            out.append(None)
        elif res.value.get("unserializable"):
            out.append(inline(entry))
        else:
            rhs = load_expr(res.value["rhs"])
            out.append(
                SynthesisResult(
                    lhs=entry.expr,
                    rhs=rhs,
                    lhs_cost=cost(entry.expr),
                    rhs_cost=cost(rhs),
                    candidates_explored=res.value["candidates_explored"],
                )
            )
    return out


def synthesize_lifting_rules(
    workloads: Optional[Iterable[Workload]] = None,
    max_lhs_size: int = 6,
    max_rhs_size: int = 4,
    max_candidates: Optional[int] = None,
    generalize: bool = True,
    session: Optional[CompilerSession] = None,
) -> SynthesisRun:
    """Run the §4.1 + §4.3 pipeline and return verified lifting rules.

    ``max_lhs_size`` is kept below the paper's 10 by default to bound the
    demo's running time; the full setting works, just slower.  When the
    workloads are the registry's, the per-entry SyGuS searches run as
    the ``session``'s fabric tasks (see :func:`_search_corpus`), in its
    worker pool if it has one, observed by its metrics and tracer; the
    produced rules are identical either way.
    """
    run = SynthesisRun()
    wl_list = (
        list(workloads) if workloads is not None else list(all_workloads())
    )
    names = _registry_names(wl_list)
    if names is None:
        corpus = extract_corpus(wl_list, max_size=max_lhs_size)
    else:  # the corpus the tasks read, extracted once per process
        from ..fabric.jobs import corpus_for

        corpus = corpus_for(names, max_lhs_size)
    run.corpus_size = len(corpus)
    if max_candidates is not None:
        corpus = corpus[:max_candidates]

    results = _search_corpus(
        names, corpus, max_lhs_size, max_rhs_size,
        session or CompilerSession(),
    )
    seen_rule_shapes = set()
    for entry, result in zip(corpus, results):
        if result is None:
            continue
        run.pairs.append(result)
        if not generalize:
            continue
        shape = (repr(result.lhs), repr(result.rhs))
        if shape in seen_rule_shapes:
            continue
        seen_rule_shapes.add(shape)
        try:
            rule = generalize_pair(
                result.lhs,
                result.rhs,
                name=f"synth-{entry.source}-{len(run.rules)}",
                source=f"synth:{entry.source}",
            )
        except GeneralizationError:
            run.failed_generalizations += 1
            continue
        run.rules.append(rule)
    return run
