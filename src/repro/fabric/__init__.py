"""The execution fabric: parallel fan-out + content-addressed caching.

Every matrix-shaped job in the repo — the Figure 6 compile-time sweep,
the 16-workload x 3-target coverage sweep, batch rule verification,
synthesis fingerprinting — is a grid of independent cells.  This package
gives them one execution layer:

* :mod:`~repro.fabric.scheduler` — a deterministic scheduler whose one
  fan-out is a :class:`WorkerPool`: given one, every task runs in its
  workers; given none, every task runs inline.  Tasks are
  ``(kind, key, params)`` *descriptors*; workers rebuild the real inputs
  from process-local registries, results merge in input order, and a
  crashed worker fails only its own cell.
* :mod:`~repro.fabric.cache` — a persistent content-addressed result
  cache (default ``.repro-cache/``) keyed by serialized expression +
  target + rulebase fingerprint + repro version, with a bounded
  in-memory tier of the results it has read back.
* :mod:`~repro.fabric.fingerprint` — the content fingerprints behind the
  cache keys (expressions via :mod:`repro.trs.serialize`, rules with
  predicate bytecode included).
* :mod:`~repro.fabric.jobs` — the built-in job kinds (coverage cells,
  rule verification, Figure 5/6/7 cells, SyGuS searches) and
  :func:`~repro.fabric.jobs.cell_specs`, the one builder of a
  workload × target task list.

Consumers take a :class:`~repro.session.CompilerSession`
(:func:`repro.evaluation.coverage.run_coverage`,
:func:`repro.verify.batch_verify_rules`, ...) and run their tasks
through :meth:`~repro.session.CompilerSession.run_tasks`, which brings
the session's cache, metrics, tracer and pool; the CLI exposes
``--jobs N`` on the sweep subcommands and ``python -m repro cache
{stats,clear,fingerprint}`` for cache maintenance.  ``jobs=1`` stays the
default: no pool, every task inline.
"""

from . import jobs  # noqa: F401  (job-kind registration side effects)
from .cache import ResultCache, default_cache_dir, encode_value
from .fingerprint import (
    digest,
    eval_backend_fingerprint,
    expr_fingerprint,
    pipeline_rules_fingerprint,
    predicate_fingerprint,
    repro_version,
    rule_fingerprint,
    rulebase_fingerprint,
)
from .scheduler import (
    JobKind,
    TaskResult,
    TaskSpec,
    WorkerPool,
    account_result,
    cached_result,
    execute_tasks,
    get_job_kind,
    job_kind,
    lookup_task,
    run_tasks,
    task_key,
)

__all__ = [
    "JobKind",
    "ResultCache",
    "TaskResult",
    "TaskSpec",
    "WorkerPool",
    "account_result",
    "cached_result",
    "default_cache_dir",
    "digest",
    "encode_value",
    "eval_backend_fingerprint",
    "execute_tasks",
    "expr_fingerprint",
    "get_job_kind",
    "job_kind",
    "lookup_task",
    "pipeline_rules_fingerprint",
    "predicate_fingerprint",
    "repro_version",
    "rule_fingerprint",
    "rulebase_fingerprint",
    "run_tasks",
    "task_key",
]
