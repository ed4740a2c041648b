"""Golden e-graph lift: every cell's extracted form, listing and cycles.

``golden_egraph.json`` holds, for all 16 workloads on all 6 targets
compiled with ``lift_strategy="egraph"``, the printed lifted form, the
instruction mnemonics, the modelled cycles and the sorted lift rules
used.  ``benchmarks/cycles_baseline.json`` only bounds the cycles from
above, so an extraction change that picked a different candidate of
equal cost would pass it; this fixture pins the candidate itself.  It
was recorded before extraction moved from terms to costs and is never
regenerated: the extraction's visit order and strict ``<`` must keep
every cell.
"""

import json
from pathlib import Path

import pytest

from repro.ir.printer import to_string
from repro.pipeline import pitchfork_compile
from repro.targets import ALL_TARGETS
from repro.workloads import WORKLOADS, by_name

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_egraph.json").read_text()
)


def test_golden_covers_full_matrix():
    assert set(GOLDEN) == {
        f"{name}|{target}" for name in WORKLOADS for target in ALL_TARGETS
    }


@pytest.mark.parametrize("target_name", sorted(ALL_TARGETS))
@pytest.mark.parametrize("name", WORKLOADS)
def test_egraph_cell_matches_golden(name, target_name):
    wl = by_name(name)
    golden = GOLDEN[f"{name}|{target_name}"]
    prog = pitchfork_compile(
        wl.expr,
        ALL_TARGETS[target_name],
        var_bounds=wl.var_bounds,
        lift_strategy="egraph",
    )
    assert to_string(prog.lifted) == golden["lifted"]
    assert prog.instructions == golden["instructions"]
    assert prog.cost().total == golden["cycles"]
    assert sorted(prog.lift_rules_used) == golden["lift_rules_used"]
