"""The verifier's process-wide cache of compiled program pairs.

:func:`verify_rule` compiles each type assignment's two templates once
per process and keeps the compiled pair, keyed on both sides, the type
assignment, the wildcards' resolved types and the resolved backend, in a
bounded LRU.  A warm cache must give every report a cold one gives, must
never run a program compiled for another backend, must be emptied by
anything that changes what a compiled program means, and must keep no
template alive.
"""

import gc
import json
import sys
import threading
import weakref
from pathlib import Path

import pytest

import repro.verify.rule_verifier as rule_verifier
from repro import fpir as F
from repro.interp import (
    clear_compile_cache,
    get_default_backend,
    register_handler,
    set_default_backend,
)
from repro.interp import evaluator as _ev
from repro.ir import expr as E
from repro.trs.pattern import ConstWild, PConst, TVar, TWiden, Wild
from repro.trs.rule import Rule
from repro.verify import verify_rule
from tests.verify.test_golden_edge_reports import mismatched as edge_mismatches
from tests.verify.test_golden_reports import BUDGETS, RULES, SEEDS, golden_key

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_reports.json").read_text()
)


@pytest.fixture(autouse=True)
def cold_programs():
    """Each test starts on an empty cache and leaves none behind."""
    rule_verifier._clear_programs()
    yield
    rule_verifier._clear_programs()


def report(name, seed, backend=None):
    got = verify_rule(RULES[name], seed=seed, backend=backend, **BUDGETS)
    return json.loads(json.dumps(got.to_dict()))


def spy_compiles(monkeypatch):
    """Record ``(root, backend)`` of every compile the verifier makes,
    holding each root weakly."""
    compiles = []
    real = rule_verifier.compile_for_backend

    def recording(expr, backend=None):
        compiles.append((weakref.ref(expr), backend))
        return real(expr, backend)

    monkeypatch.setattr(rule_verifier, "compile_for_backend", recording)
    return compiles


@pytest.mark.parametrize("backend", ["closure", "numpy", "auto"])
def test_reports_are_the_same_cold_and_warm(monkeypatch, backend):
    cold = {golden_key(n, s): report(n, s, backend)
            for n in sorted(RULES) for s in SEEDS}
    assert not edge_mismatches(backend)
    assert len(rule_verifier._PROGRAMS) > 0
    compiles = spy_compiles(monkeypatch)
    warm = {golden_key(n, s): report(n, s, backend)
            for n in sorted(RULES) for s in SEEDS}
    assert cold == warm == GOLDEN
    assert not edge_mismatches(backend)
    assert compiles == []  # the warm passes ran the kept programs


def test_an_entry_answers_only_its_own_backend(monkeypatch):
    rule = "lift-widening-add"
    report(rule, 0, "numpy")
    compiles = spy_compiles(monkeypatch)
    assert report(rule, 0, "closure") == GOLDEN[golden_key(rule, 0)]
    # the closure call compiled its own pair per type assignment
    combos = GOLDEN[golden_key(rule, 0)]["checked_combos"]
    assert [b for _, b in compiles] == ["closure"] * 2 * combos
    # and so does a call that leaves the backend to the process default
    previous = set_default_backend("auto")
    try:
        del compiles[:]
        report(rule, 0)
        assert {b for _, b in compiles} == {"closure", "numpy"}
        assert len(compiles) == 2 * 2 * combos
        set_default_backend("numpy")
        del compiles[:]
        report(rule, 1)
        assert compiles == []  # the numpy entries of the first call
    finally:
        set_default_backend(previous)
    assert get_default_backend() == previous


def test_clear_compile_cache_empties_it(monkeypatch):
    rule = "lift-widening-add"
    report(rule, 0)
    assert rule_verifier._PROGRAMS
    clear_compile_cache()
    assert not rule_verifier._PROGRAMS
    compiles = spy_compiles(monkeypatch)
    assert report(rule, 0) == GOLDEN[golden_key(rule, 0)]
    assert compiles


def test_register_handler_drops_stale_programs():
    # A handler that evaluates every widening_add to 0 makes the rule
    # unsound; a program compiled before the registration would still
    # evaluate it as the instruction's semantics and pass it.
    rule = "lift-widening-add"
    assert report(rule, 0)["ok"]
    try:
        register_handler(F.WideningAdd,
                         lambda node, kids: [0] * len(kids[0]))
        assert not report(rule, 0)["ok"]
    finally:
        _ev._HANDLERS.pop(F.WideningAdd, None)
        clear_compile_cache()
    assert report(rule, 0) == GOLDEN[golden_key(rule, 0)]


def test_eviction_keeps_reports(monkeypatch):
    monkeypatch.setattr(rule_verifier, "PROGRAM_CACHE_ENTRIES", 4)
    sizes = []
    for name in sorted(RULES):
        assert report(name, 1) == GOLDEN[golden_key(name, 1)]
        sizes.append(len(rule_verifier._PROGRAMS))
    assert max(sizes) == 4
    # the first rule's pairs were evicted long ago: it compiles again
    compiles = spy_compiles(monkeypatch)
    first = sorted(RULES)[0]
    assert report(first, 0) == GOLDEN[golden_key(first, 0)]
    assert compiles


def test_threads_share_the_cache(monkeypatch):
    # The daemon verifies on several pump threads.  Six threads with a
    # short switch interval, over a cache small enough to evict all the
    # time: every report matches, and the bound holds throughout.
    monkeypatch.setattr(rule_verifier, "PROGRAM_CACHE_ENTRIES", 8)
    names = sorted(RULES)
    got, sizes = {}, []

    def work(thread):
        for name in names[thread % 3::3]:
            for seed in SEEDS:
                got[golden_key(name, seed), thread] = report(name, seed,
                                                             "numpy")
                with rule_verifier._PROGRAMS_LOCK:
                    sizes.append(len(rule_verifier._PROGRAMS))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 2 * len(GOLDEN)
    assert {key for key, _ in got} == set(GOLDEN)
    assert all(r == GOLDEN[key] for (key, _), r in got.items())
    assert max(sizes) <= 8


def leak_rules():
    """Rules with wildcard names no other test uses, so no expression
    alive elsewhere can share an interned node with their templates."""
    T = TVar("T", max_bits=32)
    x, y = Wild("leak_x", T), Wild("leak_y", T)
    c0 = ConstWild("leak_c0", T)
    return [
        Rule("widening-add",
             E.Add(E.Cast(TWiden(T), x), E.Cast(TWiden(T), y)),
             F.WideningAdd(x, y)),
        Rule("add-commutes", E.Add(x, c0), E.Add(c0, x)),
        Rule("shl-is-mul", E.Shl(x, c0),
             E.Mul(x, PConst(T, lambda c: 1 << c["leak_c0"])),
             predicate=lambda m, ctx: (0 <= m.consts["leak_c0"]
                                       < m.tenv["T"].bits)),
    ]


@pytest.mark.parametrize("backend", ["closure", "numpy", "auto"])
def test_no_template_survives_verification(monkeypatch, backend):
    compiles = spy_compiles(monkeypatch)
    for rule in leak_rules():
        assert verify_rule(rule, seed=0, backend=backend, **BUDGETS).ok
    gc.collect()
    assert compiles and rule_verifier._PROGRAMS
    assert [ref for ref, _ in compiles if ref() is not None] == []
