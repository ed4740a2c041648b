"""Distinct-node traversals: each shared subtree is visited once.

``subexpressions`` walks a program's distinct nodes in ``walk()``'s
post-order without entering a subtree it has already yielded, and the
cycle scorer's ``cost_cycles``, ``instruction_count`` and ``is_lowered``
read programs through it.  Each must give what its per-occurrence
``walk()`` reference below gives, and stay linear on a chain whose
occurrence count is exponential.  So must lowering, which folds and
maps the residue once per distinct node.
"""

import math
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ir import expr as E
from repro.ir.traversal import subexpressions
from repro.ir.types import U8, U16
from repro.machine.lowerer import Lowerer
from repro.machine.simulator import (
    _node_elem_bits,
    cost_cycles,
    instruction_count,
)
from repro.observe import Observation
from repro.pipeline import pitchfork_compile
from repro.targets import ALL_TARGETS, ARM, TargetOp, is_lowered
from repro.workloads import WORKLOADS, by_name


# -- per-occurrence references -----------------------------------------
def ref_subexpressions(expr, max_size=None):
    seen = set()
    out = []
    for node in expr.walk():
        if node in seen:
            continue
        seen.add(node)
        if max_size is None or node.size <= max_size:
            out.append(node)
    return out


def ref_per_instruction(program, target):
    L = target.desc.natural_lanes
    R = target.desc.register_bits
    seen = {}
    detail = []
    for node in program.walk():
        if node in seen:
            continue
        seen[node] = None
        if isinstance(node, TargetOp):
            issues = max(1, math.ceil(L * _node_elem_bits(node) / R))
            detail.append((node.spec.name, issues, node.spec.cost))
    return detail


def ref_instruction_count(program):
    seen = set()
    n = 0
    for node in program.walk():
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, TargetOp):
            n += 1
    return n


def ref_is_lowered(expr):
    return all(
        isinstance(n, (TargetOp, E.Const, E.Var)) for n in expr.walk()
    )


def check_against_references(program, target):
    assert list(subexpressions(program)) == ref_subexpressions(program)
    for cap in (1, 3, 10):
        assert list(subexpressions(program, max_size=cap)) == (
            ref_subexpressions(program, max_size=cap)
        )
    breakdown = cost_cycles(program, target)
    assert breakdown.per_instruction == ref_per_instruction(program, target)
    assert instruction_count(program) == ref_instruction_count(program)
    assert is_lowered(program) == ref_is_lowered(program)


# -- the 96 cells under both lift strategies ----------------------------
@pytest.mark.parametrize("strategy", ["greedy", "egraph"])
@pytest.mark.parametrize("target_name", sorted(ALL_TARGETS))
def test_lowered_suite_programs_match_references(target_name, strategy):
    target = ALL_TARGETS[target_name]
    for name in WORKLOADS:
        wl = by_name(name)
        prog = pitchfork_compile(
            wl.expr, target, var_bounds=wl.var_bounds,
            lift_strategy=strategy,
        )
        check_against_references(prog.lowered, target)
        assert list(subexpressions(wl.expr)) == ref_subexpressions(wl.expr)


# -- random programs with shared subtrees -------------------------------
_OPS = (E.Add, E.Sub, E.Min, E.Max, E.BitAnd, E.Mul)
#: keeps the per-occurrence references cheap
_MAX_OCCURRENCES = 4000


@st.composite
def shared_programs(draw):
    """A program built bottom-up from a pool of earlier nodes, so later
    nodes share earlier subtrees; each node is mapped to an ARM
    instruction or left as core IR, and casts move between u8 and u16."""
    pools = {
        U8: [E.Var(U8, "x"), E.Const(U8, draw(st.integers(0, 255)))],
        U16: [E.Var(U16, "w")],
    }
    root = pools[U8][0]
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, len(_OPS)),  # len(_OPS): a cast
            st.booleans(),  # u8 or u16
            st.integers(0, 3),  # operands: how far back in the pool
            st.integers(0, 3),
            st.booleans(),  # map to an instruction
        ),
        min_size=1,
        max_size=40,
    ))
    for op, wide, i, j, mapped in steps:
        t = U16 if wide else U8
        pool = pools[t]
        a = pool[-1 - i % len(pool)]
        if op == len(_OPS):
            t = U8 if wide else U16
            node = E.Cast(t, a)
        else:
            node = _OPS[op](a, pool[-1 - j % len(pool)])
        if node.size > _MAX_OCCURRENCES:
            continue
        if mapped:
            node = ARM.generic.map_node(node)
        pools[t].append(node)
        root = node
    return root


@settings(max_examples=150, deadline=None)
@given(shared_programs())
def test_shared_programs_match_references(program):
    check_against_references(program, ARM)


# -- a chain with 2**40 occurrences --------------------------------------
def test_self_shared_chain_is_linear():
    t = E.Var(U8, "x")
    for _ in range(40):
        t = ARM.generic.map_node(E.Add(t, t))
    assert t.size == 2 ** 41 - 1
    got = {}

    def run():
        breakdown = cost_cycles(t, ARM)
        got["instructions"] = len(breakdown.per_instruction)
        got["count"] = instruction_count(t)
        got["lowered"] = is_lowered(t)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(1.0)
    assert not worker.is_alive(), "distinct-node traversal took over 1 s"
    assert got == {"instructions": 40, "count": 40, "lowered": True}


def shared_chain(depth):
    """``t = t + t``, ``depth`` times over a u8 input."""
    t = E.Var(U8, "x")
    for _ in range(depth):
        t = E.Add(t, t)
    return t


def test_lowering_a_self_shared_chain_is_linear():
    # 2**19 - 1 occurrences: mapped once per occurrence, this took
    # seconds
    t = shared_chain(18)
    got = {}

    def run():
        lowered = Lowerer(ARM).lower(t)
        got["count"] = instruction_count(lowered)
        got["lowered"] = is_lowered(lowered)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(1.0)
    assert not worker.is_alive(), "lowering a shared chain took over 1 s"
    assert got == {"count": 18, "lowered": True}


def test_generic_expansions_count_distinct_nodes():
    obs = Observation()
    Lowerer(ARM).lower_with_stats(shared_chain(6), obs=obs)
    generic = {dict(c.labels)["op"]: c.value
               for c in obs.metrics.counters("expansion")
               if dict(c.labels)["kind"] == "generic"}
    assert generic == {"add.16b": 6}
