"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compile     compile a benchmark (or the Figure 3 cases) and show the
            selected instructions for one or all targets; ``--trace``
            writes a Chrome-trace JSON, ``--explain`` annotates every
            instruction with the rule chain that produced it,
            ``--verify-each`` validates the IR after every pass
evaluate    regenerate a paper figure's data table (fig3/fig5/fig6/fig7)
workloads   list the benchmark suite
rules       list/verify the rule sets
coverage    compile the suite with rule telemetry; report per-rule fire
            counts and flag dead rules (synthesis-feedback candidates)
lint        statically lint every rulebase (stable L1xx diagnostic
            codes; errors fail, warnings ratchet against a baseline);
            ``--machine`` lints every lowered program (M-codes) and
            proves interval translation validation over the suite
            matrix, ``--targets`` lints the shipped ISA tables (T-codes)
synthesize  run the §4 offline pipeline over chosen benchmarks
cache       inspect/clear the persistent result cache; print the
            rulebase fingerprint (CI cache keys)
serve       long-lived compile-as-a-service daemon: line-delimited
            JSON requests (compile/evaluate/coverage/verify-rule/lint)
            batched onto warm compiler state; Prometheus /metrics
client      thin client for the serve daemon (scripting and CI)

Sweep-shaped commands (evaluate, coverage, rules --verify, lint
--coverage, synthesize) run on the execution fabric: ``--jobs N`` fans
cells out over worker processes, ``--cache`` persists content-addressed
cell results under ``.repro-cache/`` (or ``--cache-dir``/$REPRO_CACHE_DIR).
Reports are byte-identical whatever ``--jobs`` is, and caching never
changes a result — keys include the expression, target, rulebase
fingerprint, and repro version, so any semantic change is a miss.

Every command also takes ``--report out.json`` to emit a
schema-versioned run report (environment + rulebase fingerprints, phase
timings, metrics snapshot, span summary, cache stats); ``python -m
repro report show FILE`` summarizes one.  ``coverage --trace FILE``
writes a merged cross-process Chrome trace of the sweep.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import targets as T
from .fabric.jobs import CompileTimeParams
from .lifting import LIFT_STRATEGIES
from .passes import PassVerificationError
from .pipeline import llvm_compile, rake_compile
from .session import CompilerSession
from .workloads import WORKLOADS, by_name


def _add_lift_strategy_arg(p) -> None:
    """``--lift-strategy`` for commands that run the pitchfork pipeline."""
    p.add_argument("--lift-strategy", choices=LIFT_STRATEGIES,
                   default="greedy", dest="lift_strategy",
                   help="lift search: 'greedy' (the §3.2 TRS, default) "
                        "or 'egraph' (equality saturation + lowest-"
                        "cost extraction; never costlier in modelled "
                        "cycles)")


def _add_eval_backend_arg(p) -> None:
    """``--eval-backend`` for commands that evaluate expressions."""
    from .interp import BACKENDS

    p.add_argument("--eval-backend", choices=list(BACKENDS),
                   default=None, dest="eval_backend",
                   help="expression-evaluation backend: 'closure' (one "
                        "Python closure per node), 'numpy' (one ndarray "
                        "op per node), or 'auto' (default: "
                        "dispatch per call on the lane count)")


def _repeats(text: str) -> int:
    """``--repeats``, checked by Figure 6's params before any cell runs."""
    try:
        return CompileTimeParams(repeats=int(text)).repeats
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_fabric_args(p) -> None:
    """``--jobs`` / ``--cache`` / ``--cache-dir`` for sweep commands
    and the daemon."""
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the sweep (serve: forked "
                        "after warm-up); default 1 runs in-process")
    p.add_argument("--cache", action="store_true",
                   help="persist per-cell results in the content-"
                        "addressed cache and reuse them across runs")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="cache directory (implies --cache; default "
                        ".repro-cache or $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="force caching off even if --cache/--cache-dir "
                        "was given")


def _add_report_arg(p) -> None:
    """``--report FILE`` for commands that can emit a run report."""
    p.add_argument("--report", metavar="FILE", dest="report",
                   help="write a schema-versioned run-report JSON (env "
                        "+ rulebase fingerprints, phase timings, "
                        "metrics snapshot, span summary, cache stats); "
                        "summarize it with 'python -m repro report show'")


def _target_list(name: str):
    if name == "all":
        return list(T.PAPER_TARGETS)
    if name == "every":
        return list(T.ALL_TARGETS.values())
    return [T.by_name(name)]


def _print_stats(prog) -> None:
    print(f"-- per-pass breakdown ({prog.compiler}):")
    print(prog.stats.format_table())
    print(f"   {prog.register_pressure().format_line()}")


def cmd_compile(args) -> int:
    from .session import compile_listing

    wl = by_name(args.workload)
    session = CompilerSession.from_args(args)
    registry = session.metrics
    observing = bool(args.trace) or args.explain or registry is not None
    tracer = None
    if args.trace or registry is not None:
        from .observe import Tracer

        tracer = Tracer()
    for target in _target_list(args.target):
        print(f"== {wl.name} on {target.name}")
        obs = None
        if observing:
            from .observe import Observation

            # One tracer spans every target; provenance/metrics are
            # per-compile (hash-consed nodes recur across targets) —
            # except under --report, whose registry aggregates the run.
            obs = (
                Observation(tracer=tracer, metrics=registry)
                if tracer is not None
                else Observation.quiet(metrics=registry)
            )
        try:
            with session.phase(f"compile:{target.name}"):
                pf = session.compile(
                    wl.name, target.name, trace=obs,
                    verify_each=args.verify_each,
                    lift_strategy=args.lift_strategy,
                )
            # The listing body comes from the same formatter the daemon's
            # ``compile`` replies use — the byte-identity contract.  The
            # header was already printed (it must precede a verify
            # failure), so strip the formatter's copy of it.
            listing = compile_listing(
                pf, wl.name, show_fpir=args.show_fpir, explain=args.explain
            )
            print(listing.split("\n", 1)[1])
            if args.stats:
                _print_stats(pf)
            if args.compare:
                ll = llvm_compile(wl.expr, target, var_bounds=wl.var_bounds,
                                  verify_each=args.verify_each)
                if ll.q31_retry is not None:
                    print(f"-- LLVM: failed to compile ({ll.q31_retry}); "
                          f"retrying with the §5.1 q31 substitution")
                speed = ll.cost().total / pf.cost().total
                print(f"-- LLVM ({ll.cost().total:.1f} cycles/vec; "
                      f"PITCHFORK is {speed:.2f}x faster):")
                print(ll.assembly())
                if args.stats:
                    _print_stats(ll)
            if args.rake and target.name in ("arm-neon", "hexagon-hvx"):
                rk = rake_compile(wl.expr, target, var_bounds=wl.var_bounds,
                                  verify_each=args.verify_each)
                print(f"-- Rake oracle ({rk.cost().total:.1f} cycles/vec):")
                print(rk.assembly())
                if args.stats:
                    _print_stats(rk)
        except PassVerificationError as exc:
            print(f"VERIFY-EACH FAILED on {target.name}: {exc}",
                  file=sys.stderr)
            return 1
        print()
    if tracer is not None and args.trace:
        tracer.write_chrome_trace(args.trace)
        print(f"wrote Chrome trace to {args.trace} "
              f"({len(tracer.spans)} spans, "
              f"{len(tracer.instants)} rule events); load it in "
              f"chrome://tracing or ui.perfetto.dev")
    session.write_report(args.report, "compile", tracer=tracer)
    return 0


def cmd_evaluate(args) -> int:
    session = CompilerSession.from_args(args)
    jobs, cache = session.jobs, session.cache
    registry = session.metrics
    extra = {}
    if args.figure == "all":
        from .evaluation.report import build_full_report

        with session.phase("evaluate:all"):
            report = build_full_report(
                with_rake=not args.no_rake, compile_repeats=args.repeats,
                jobs=jobs, cache=cache, metrics=registry,
            )
        if args.write:
            with open(args.write, "w") as fh:
                fh.write(report)
            print(f"wrote {args.write}")
        else:
            print(report)
        session.write_report(args.report, "evaluate")
        return 0
    if args.figure == "fig3":
        from .evaluation import run_codegen_comparison

        with session.phase("evaluate:fig3"):
            print(run_codegen_comparison())
    elif args.figure == "fig5":
        from .evaluation import run_runtime_evaluation

        with session.phase("evaluate:fig5"):
            ev = run_runtime_evaluation(
                with_rake=not args.no_rake, jobs=jobs, cache=cache,
                lift_strategy=args.lift_strategy, metrics=registry,
            )
        print(ev.format_table())
        extra["geomean_speedup"] = {
            t: ev.geomean_speedup(t)
            for t in sorted({r.target for r in ev.results})
        }
    elif args.figure == "fig6":
        from .evaluation import run_compile_time_evaluation

        with session.phase("evaluate:fig6"):
            ev = run_compile_time_evaluation(
                repeats=args.repeats, jobs=jobs,
                lift_strategy=args.lift_strategy, metrics=registry,
            )
        print(ev.format_table())
    elif args.figure == "fig7":
        from .evaluation import run_ablation

        with session.phase("evaluate:fig7"):
            ev = run_ablation(jobs=jobs, cache=cache, metrics=registry)
        print(ev.format_table())
    session.write_report(args.report, "evaluate", extra=extra)
    return 0


def cmd_workloads(args) -> int:
    for name in WORKLOADS:
        wl = by_name(name)
        print(f"{wl.name:<16} [{wl.category:<6}] {wl.expr.size:>3} nodes  "
              f"{wl.description}")
    return 0


def cmd_rules(args) -> int:
    from .lifting import HAND_RULES, SYNTHESIZED_RULES

    sets = [("lifting (hand)", HAND_RULES),
            ("lifting (synthesized)", SYNTHESIZED_RULES)]
    for target in T.ALL_TARGETS.values():
        sets.append((f"lowering ({target.name})", target.lowering_rules))
    total = 0
    for label, rules in sets:
        print(f"-- {label}: {len(rules)} rules")
        total += len(rules)
        if args.verbose:
            for r in rules:
                tag = "" if r.source == "hand" else f"   [{r.source}]"
                print(f"   {r.name:<40} {r.lhs} -> {r.rhs}{tag}")
    print(f"total: {total} rules")
    session = CompilerSession.from_args(args)
    if args.verify:
        from .verify import batch_verify_rules

        failures = 0
        checked = 0
        # Only lifting rules have full executable semantics on both
        # sides (lowering RHS are target ops); say so rather than
        # silently skipping.  The batch runs on the fabric (one task per
        # rule) but reports in registry order, so this output is
        # byte-identical for any --jobs.
        batches = [
            ("lifting-hand", "lifting (hand)", HAND_RULES),
            ("lifting-synth", "lifting (synthesized)", SYNTHESIZED_RULES),
        ]
        with session.phase("verify-rules"):
            verify_results = batch_verify_rules(
                [b[0] for b in batches], jobs=session.jobs,
                cache=session.cache, metrics=session.metrics,
            )
        results = iter(verify_results)
        for _label, display, rules in batches:
            print(f"-- verifying {display}")
            for r in rules:
                _, report = next(results)
                checked += 1
                verdict = "ok  " if report.ok else "FAIL"
                print(f"{verdict} {r.name:<44} [{r.source}]")
                if not report.ok:
                    failures += 1
                    print(f"     counterexample: {report.counterexample}")
        print(f"(lowering rule sets are not sample-verified: their "
              f"right-hand sides are target instructions; "
              f"see 'python -m repro lint' for the static checks)")
        print(f"verification: {checked} rules checked, "
              + ("all OK" if not failures
                 else f"{failures} FAILED"))
        session.write_report(args.report, "rules",
                             extra={"rules_checked": checked,
                                    "verify_failures": failures})
        return 1 if failures else 0
    session.write_report(args.report, "rules",
                         extra={"rules_total": total})
    return 0


def cmd_coverage(args) -> int:
    from .evaluation.coverage import run_coverage

    session = CompilerSession.from_args(args)
    jobs, cache = session.jobs, session.cache
    tracer = None
    if args.trace:
        from .observe import Tracer

        tracer = Tracer()
    with session.phase("coverage-sweep"):
        report = run_coverage(
            targets=_target_list(args.target), jobs=jobs, cache=cache,
            metrics=session.metrics, tracer=tracer,
            lift_strategy=args.lift_strategy,
        )
    print(report.format_table(verbose=args.verbose))
    if tracer is not None:
        tracer.write_chrome_trace(args.trace)
        lanes = {sp.pid or tracer.pid for sp in tracer.spans}
        print(f"wrote Chrome trace to {args.trace} "
              f"({len(tracer.spans)} spans across {len(lanes)} process "
              f"lanes); load it in chrome://tracing or ui.perfetto.dev")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}")
    session.write_report(args.report, "coverage", tracer=tracer,
                         extra={"cell_failures": len(report.failures),
                                "dead_rules": len(report.dead)})
    if report.failures:
        # A cell that failed to compile under-reports fire counts; that
        # must fail loudly, not masquerade as dead rules.
        return 1
    dead_hand = {r.name for r in report.dead_hand_rules}
    if args.baseline:
        # Ratchet mode (CI): fail only on hand-written rules that are
        # dead AND not already recorded as known coverage gaps.  The
        # baseline may cover dead synthesized rules too, so staleness is
        # judged against ALL dead rules, not just the hand-written ones.
        from .lint import apply_ratchet

        ratchet = apply_ratchet(
            dead_hand, args.baseline,
            stale_against={r.name for r in report.dead},
        )
        if ratchet.stale:
            print("baseline rules now fire (trim the baseline): "
                  + ", ".join(ratchet.stale))
        if ratchet.new:
            print("hand-written rules newly dead (not in "
                  f"{args.baseline}):")
            for name in ratchet.new:
                print(f"   {name}")
            return 1
        return 0
    return 1 if dead_hand else 0


def _lint_backend(args) -> int:
    """``lint --machine`` / ``lint --targets``: the post-lowering layer.

    ``--machine`` sweeps the workload x target matrix on the fabric —
    every lowered program is M-code linted, translation-validated
    through the interval engine, and pressure-profiled.  ``--targets``
    lints the shipped ISA tables (T-codes), cross-checking spec
    reachability against the sweep's emitted mnemonics when both run.
    """
    from .lint import apply_ratchet, lint_all_targets, run_machine_lint

    session = CompilerSession.from_args(args)
    machine_report = None
    target_report = None
    diagnostics = []
    extra = {}
    if args.machine:
        with session.phase("machine-lint"):
            machine_report = run_machine_lint(
                jobs=session.jobs, cache=session.cache
            )
        diagnostics.extend(machine_report.diagnostics)
        extra["machine_cells"] = len(machine_report.cells)
        extra["machine_cell_failures"] = len(machine_report.failures)
        extra["contained_cells"] = machine_report.contained_cells
        extra["register_pressure"] = machine_report.max_pressure()
    if args.targets:
        emitted = (
            machine_report.emitted_mnemonics()
            if machine_report is not None else None
        )
        with session.phase("target-lint"):
            target_report = lint_all_targets(emitted=emitted)
        diagnostics.extend(target_report.diagnostics)
        extra["isa_specs"] = sum(target_report.spec_counts.values())

    if args.format == "json":
        import json

        payload = {}
        if machine_report is not None:
            payload["machine"] = machine_report.to_dict()
        if target_report is not None:
            payload["targets"] = target_report.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        if machine_report is not None:
            print(machine_report.format_text(verbose=args.verbose))
        if target_report is not None:
            print(target_report.format_text())

    errors = [d for d in diagnostics if d.severity == "error"]
    warnings = [d for d in diagnostics if d.severity == "warning"]
    extra["lint_errors"] = len(errors)
    extra["lint_warnings"] = len(warnings)
    session.write_report(args.report, "lint", extra=extra)

    if machine_report is not None and machine_report.failures:
        # A cell that failed to compile was never linted; that must
        # fail loudly, not read as a clean matrix.
        return 1
    if errors:
        return 1
    if args.baseline:
        ratchet = apply_ratchet(
            {d.key for d in warnings}, args.baseline
        )
        for line in ratchet.format_lines(label="lint warning"):
            print(line)
        if not ratchet.ok:
            return 1
    return 0


def cmd_lint(args) -> int:
    from .lint import lint_all_rulebases

    if args.machine or args.targets:
        return _lint_backend(args)

    session = CompilerSession.from_args(args)
    fires = None
    if args.coverage:
        # Cross-check L105 shadowing claims against reality: a rule that
        # fires in the suite sweep is demonstrably not shadowed.
        from .evaluation.coverage import run_coverage

        with session.phase("coverage-sweep"):
            cov = run_coverage(
                targets=_target_list("all"), jobs=session.jobs,
                cache=session.cache, metrics=session.metrics,
            )
        fires = {r.name: r.fires for r in cov.rows}
    with session.phase("lint"):
        report = lint_all_rulebases(coverage_fires=fires)

    if args.format == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())

    session.write_report(args.report, "lint",
                         extra={"lint_errors": len(report.errors),
                                "lint_warnings": len(report.warnings)})

    if report.errors:
        return 1
    if args.baseline:
        # Ratchet mode (CI): fail only on warnings NOT already recorded
        # as known issues; report stale entries so the file shrinks.
        from .lint import apply_ratchet

        ratchet = apply_ratchet(
            {d.key for d in report.warnings}, args.baseline
        )
        for line in ratchet.format_lines(label="lint warning"):
            print(line)
        if not ratchet.ok:
            return 1
    return 0


def cmd_synthesize(args) -> int:
    from .synthesis import synthesize_lifting_rules

    names = list(args.benchmarks) or list(WORKLOADS[:4])
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(
            f"error: unknown benchmark{'s' if len(unknown) > 1 else ''}: "
            + ", ".join(unknown),
            file=sys.stderr,
        )
        print("valid workloads: " + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    wls = [by_name(n) for n in names]
    session = CompilerSession.from_args(args)
    with session.phase("synthesize"):
        run = synthesize_lifting_rules(
            workloads=wls,
            max_lhs_size=args.max_lhs_size,
            max_candidates=args.max_candidates,
            jobs=session.jobs,
            cache=session.cache,
            metrics=session.metrics,
        )
    print(run.summary())
    for rule in run.rules:
        print(f"  {rule.lhs}  ->  {rule.rhs}   [{rule.source}]")
    if args.out:
        from .trs.serialize import dump_rules

        with open(args.out, "w") as fh:
            fh.write(dump_rules(run.rules))
        print(f"wrote {len(run.rules)} rules to {args.out}")
    session.write_report(args.report, "synthesize",
                         extra={"corpus_size": run.corpus_size,
                                "synthesized_pairs": len(run.pairs),
                                "verified_rules": len(run.rules)})
    return 0


def cmd_report_show(args) -> int:
    """Print a human summary of one run-report JSON."""
    from .observe import load_report

    try:
        doc = load_report(args.report_file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"command: {doc['command']}  (schema {doc['schema_version']})")
    print(f"argv: {' '.join(doc['argv'])}")
    env = doc.get("env", {})
    print(f"env: python {env.get('python')} on {env.get('platform')}")
    for p in doc.get("phases", ()):
        print(f"phase {p['name']:<24} {p['seconds']:9.3f}s")
    m = doc.get("metrics") or {}
    print(f"metrics: {len(m.get('counters', []))} counters, "
          f"{len(m.get('histograms', []))} histograms")
    spans = doc.get("spans") or {}
    if spans.get("span_count"):
        print(f"spans: {spans['span_count']} across "
              f"{len(spans.get('pids', []))} process(es); critical path "
              f"{spans.get('critical_path_us', 0.0) / 1e6:.3f}s: "
              + " > ".join(
                  s["name"] for s in spans.get("critical_path", [])[:6]
              ))
    cache = doc.get("cache") or {}
    if cache:
        print(f"cache: {cache.get('hits', 0)} hits "
              f"({cache.get('memory_hits', 0)} from memory), "
              f"{cache.get('misses', 0)} misses, "
              f"{cache.get('stores', 0)} stores "
              f"({cache.get('store_errors', 0)} failed)")
    return 0


def cmd_cache(args) -> int:
    from .fabric import ResultCache

    cache = ResultCache(root=args.cache_dir)
    if args.action == "stats":
        s = cache.stats()
        kib = s["bytes"] / 1024.0
        print(f"cache root: {s['root']}")
        print(f"entries: {s['entries']} ({kib:.1f} KiB)")
        kind_bytes = s.get("kind_bytes", {})
        for kind, n in s["by_kind"].items():
            kind_kib = kind_bytes.get(kind, 0) / 1024.0
            print(f"   {kind:<16} {n:>6}  {kind_kib:>9.1f} KiB")
        if s["corrupt"]:
            print(f"corrupt entries: {s['corrupt']}")
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
    elif args.action == "fingerprint":
        # One digest over every paper target's full pipeline rulebase
        # plus the repro version — exactly the inputs that address
        # cached results, so it's the right CI cache key.
        from .fabric import (
            digest,
            pipeline_rules_fingerprint,
            repro_version,
        )

        print(
            digest(
                repro_version(),
                *(
                    pipeline_rules_fingerprint(t.name)
                    for t in T.PAPER_TARGETS
                ),
            )
        )
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .serve import ServeDaemon

    session = CompilerSession.from_args(args)
    daemon = ServeDaemon(
        session=session,
        batch_window_s=args.batch_window_ms / 1000.0,
        max_batch=args.max_batch,
        report_path=args.report,
        trace_path=args.trace,
    )
    try:
        return asyncio.run(
            daemon.run(
                host=args.host,
                port=args.port,
                unix=args.unix,
                metrics_port=args.metrics_port,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        return 0


def cmd_client(args) -> int:
    import json

    from .serve import ServeClient, ServeError

    try:
        client = ServeClient(
            host=args.host, port=args.port, unix=args.unix,
            timeout=args.timeout,
        )
    except (OSError, ValueError) as exc:
        print(f"error: cannot connect to daemon: {exc}", file=sys.stderr)
        return 2
    with client:
        try:
            if args.action == "ping":
                print(json.dumps(client.ping(), sort_keys=True))
            elif args.action == "shutdown":
                client.shutdown()
                print("daemon draining")
            elif args.action == "cache-stats":
                print(json.dumps(
                    client.cache_stats(), indent=2, sort_keys=True
                ))
            elif args.action == "compile":
                # Same output contract as the one-shot `repro compile`:
                # listing per target, blank line after each.
                requests = [
                    ("compile", {
                        "workload": args.workload,
                        "target": target.name,
                        "lift_strategy": args.lift_strategy,
                    })
                    for target in _target_list(args.target)
                ]
                failures = 0
                for reply in client.batch(
                    requests, deadline_s=args.deadline
                ):
                    if reply.get("ok"):
                        print(reply["result"]["listing"])
                        print()
                    else:
                        err = reply["error"]
                        print(f"error [{err['code']}]: {err['message']}",
                              file=sys.stderr)
                        failures += 1
                return 1 if failures else 0
            elif args.action == "request":
                # Raw frames (args or stdin), replies in arrival order —
                # the scripting escape hatch for every other op.
                lines = (
                    sys.stdin if args.frame == ["-"] else args.frame
                )
                frames = [
                    json.loads(line) for line in lines if line.strip()
                ]
                for frame in frames:
                    client.send(frame)
                for _ in frames:
                    print(json.dumps(client.recv(), sort_keys=True))
        except ServeError as exc:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError:
            raise  # stdout closed early: main() exits quietly
        except (ConnectionError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


def _add_client_conn_args(p) -> None:
    """Where the daemon lives, shared by every ``client`` action."""
    p.add_argument("--host", default="127.0.0.1",
                   help="daemon host (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None, metavar="N",
                   help="daemon TCP port")
    p.add_argument("--unix", metavar="PATH",
                   help="daemon unix socket path (instead of --port)")
    p.add_argument("--timeout", type=float, default=60.0, metavar="S",
                   help="socket timeout in seconds (default 60)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PITCHFORK reproduction: fixed-point instruction "
        "selection via lift-then-lower term rewriting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a benchmark")
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("--target", default="all",
                   help="target name, 'all' (paper targets) or 'every'")
    p.add_argument("--compare", action="store_true",
                   help="also show the LLVM baseline")
    p.add_argument("--rake", action="store_true",
                   help="also run the Rake oracle (ARM/HVX)")
    p.add_argument("--show-fpir", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print the per-pass timing/rewrite breakdown")
    p.add_argument("--trace", metavar="FILE",
                   help="write a Chrome-trace-viewer JSON of the "
                        "compilation (spans + rule events)")
    p.add_argument("--explain", action="store_true",
                   help="annotate each instruction with the lift/lower "
                        "rule chain that produced it")
    p.add_argument("--verify-each", action="store_true",
                   help="validate IR well-formedness after every pass; "
                        "a violation names the offending pass and "
                        "exits non-zero")
    _add_lift_strategy_arg(p)
    _add_report_arg(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("evaluate", help="regenerate a paper figure")
    p.add_argument("figure",
                   choices=["fig3", "fig5", "fig6", "fig7", "all"])
    p.add_argument("--no-rake", action="store_true")
    p.add_argument("--repeats", type=_repeats,
                   default=CompileTimeParams.repeats)
    p.add_argument("--write", help="write the report to a file")
    _add_lift_strategy_arg(p)
    _add_eval_backend_arg(p)
    _add_fabric_args(p)
    _add_report_arg(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("workloads", help="list the benchmark suite")
    p.set_defaults(fn=cmd_workloads)

    p = sub.add_parser("rules", help="list/verify the rule sets")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--verify", action="store_true")
    _add_eval_backend_arg(p)
    _add_fabric_args(p)
    _add_report_arg(p)
    p.set_defaults(fn=cmd_rules)

    p = sub.add_parser(
        "coverage",
        help="report per-rule fire counts over the benchmark suite",
    )
    p.add_argument("--target", default="all",
                   help="target name, 'all' (paper targets) or 'every'")
    p.add_argument("--verbose", action="store_true",
                   help="list the fire count of every rule")
    p.add_argument("--json", metavar="FILE",
                   help="also write the report as JSON")
    p.add_argument("--baseline", metavar="FILE",
                   help="known-dead rule names (one per line); exit "
                        "non-zero only for dead hand-written rules NOT "
                        "in this file (CI ratchet)")
    p.add_argument("--trace", metavar="FILE",
                   help="write a merged cross-process Chrome-trace JSON "
                        "of the sweep (one lane per worker pid)")
    _add_lift_strategy_arg(p)
    _add_fabric_args(p)
    _add_report_arg(p)
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser(
        "lint",
        help="statically lint rulebases, lowered machine programs, and "
             "ISA tables (stable diagnostic codes)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--baseline", metavar="FILE",
                   help="known lint warnings (one diagnostic key per "
                        "line); exit non-zero for warnings NOT in this "
                        "file (CI ratchet); errors always fail")
    p.add_argument("--coverage", action="store_true",
                   help="run the coverage sweep and drop shadowing "
                        "(L105) findings for rules that demonstrably "
                        "fire")
    p.add_argument("--machine", action="store_true",
                   help="lint the lowered program of every workload x "
                        "target cell (M-codes: def-before-use, "
                        "semantics width/arity, dead code) and prove "
                        "interval translation validation; skips the "
                        "rulebase lint")
    p.add_argument("--targets", action="store_true",
                   help="lint the shipped ISA tables (T-codes: "
                        "duplicate mnemonics, non-positive costs, "
                        "untypeable or unreachable specs); with "
                        "--machine, spec reachability is cross-checked "
                        "against the sweep's emitted mnemonics")
    p.add_argument("--verbose", action="store_true",
                   help="with --machine: per-cell instruction counts, "
                        "register pressure and intervals")
    _add_fabric_args(p)
    _add_report_arg(p)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("synthesize", help="run the §4 offline pipeline")
    # Names are validated in cmd_synthesize (an empty list must be legal
    # for the default set, which argparse ``choices`` cannot express).
    p.add_argument("benchmarks", nargs="*", metavar="benchmark",
                   help="benchmarks to mine (default: first four); see "
                        "'workloads' for valid names")
    p.add_argument("--max-lhs-size", type=int, default=6)
    p.add_argument("--max-candidates", type=int, default=60)
    p.add_argument("--out", help="write learned rules to a rule file")
    _add_eval_backend_arg(p)
    _add_fabric_args(p)
    _add_report_arg(p)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser(
        "report",
        help="inspect run reports (--report artifacts)",
    )
    rsub = p.add_subparsers(dest="action", required=True)
    pr = rsub.add_parser(
        "show", help="summarize one run-report JSON"
    )
    pr.add_argument("report_file", metavar="REPORT")
    pr.set_defaults(fn=cmd_report_show)

    p = sub.add_parser(
        "serve",
        help="run the compile-as-a-service daemon: line-delimited JSON "
             "requests over TCP or a unix socket, batched onto warm "
             "compiler state",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0, metavar="N",
                   help="TCP port (default 0: pick a free port and "
                        "print it)")
    p.add_argument("--unix", metavar="PATH",
                   help="serve on a unix socket instead of TCP")
    p.add_argument("--batch-window-ms", type=float, default=2.0,
                   metavar="MS", dest="batch_window_ms",
                   help="how long to wait for concurrent requests to "
                        "coalesce into one fabric batch (default 2ms; "
                        "0 disables the wait)")
    p.add_argument("--max-batch", type=int, default=64, metavar="N",
                   help="largest request batch per fabric dispatch "
                        "(default 64)")
    p.add_argument("--metrics-port", type=int, default=None,
                   metavar="N", dest="metrics_port",
                   help="also serve GET /metrics (Prometheus text "
                        "exposition) and /healthz on this HTTP port "
                        "(0: pick a free port)")
    p.add_argument("--trace", metavar="FILE",
                   help="on shutdown, write a Chrome trace of every "
                        "batch (worker spans merged onto the daemon "
                        "timeline)")
    _add_fabric_args(p)
    _add_report_arg(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running serve daemon (scripting/CI)",
    )
    _add_client_conn_args(p)
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="per-request deadline_s to attach (seconds)")
    csub = p.add_subparsers(dest="action", required=True)
    pc = csub.add_parser("ping", help="round-trip liveness check")
    pc = csub.add_parser(
        "compile",
        help="compile a benchmark via the daemon (output is byte-"
             "identical to 'python -m repro compile')",
    )
    pc.add_argument("workload", choices=WORKLOADS)
    pc.add_argument("--target", default="all",
                    help="target name, 'all' (paper targets) or "
                         "'every'")
    _add_lift_strategy_arg(pc)
    pc = csub.add_parser("cache-stats",
                         help="the daemon's result-cache stats")
    pc = csub.add_parser("shutdown",
                         help="ask the daemon to drain and exit")
    pc = csub.add_parser(
        "request",
        help="send raw JSON request frames ('-' reads them from stdin)",
    )
    pc.add_argument("frame", nargs="+",
                    help="JSON request frames, one per argument; a "
                         "single '-' reads frames from stdin (one per "
                         "line)")
    p.set_defaults(fn=cmd_client)

    p = sub.add_parser(
        "cache",
        help="inspect/clear the persistent result cache",
    )
    p.add_argument("action", choices=["stats", "clear", "fingerprint"],
                   help="stats: entry counts per job kind; clear: "
                        "delete every entry; fingerprint: print the "
                        "combined rulebase fingerprint (CI cache key)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="cache directory (default .repro-cache or "
                        "$REPRO_CACHE_DIR)")
    p.set_defaults(fn=cmd_cache)

    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return status
    except BrokenPipeError:
        # Downstream closed stdout early (`repro ... | head`).  Point
        # stdout at devnull so the interpreter's exit-time flush doesn't
        # warn, and exit quietly like other CLIs.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
