"""Golden baselines: the LLVM and Rake flows' listings, cycles and tags.

``golden_baselines.json`` holds, for ``llvm_compile`` on all 16
workloads x 6 targets and ``rake_compile`` on the 32 ARM/HVX cells, the
compiler tag, the assembly listing and the modelled cycles.  Figure 5's
ratios see these programs only through their cycles; this fixture pins
the programs themselves.  It was recorded before the two flows became
pass pipelines and is never regenerated.  Three LLVM cells take the
§5.1 q31 substitution (``llvm+q31sub``): depthwise_conv, matmul and mul
on HVX.
"""

import json
from pathlib import Path

import pytest

from repro.pipeline import llvm_compile, rake_compile
from repro.targets import ALL_TARGETS, ARM, HVX
from repro.workloads import WORKLOADS, by_name

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_baselines.json").read_text()
)
RAKE_TARGETS = {t.name: t for t in (ARM, HVX)}
CELLS = [
    ("llvm", name, target) for name in WORKLOADS for target in ALL_TARGETS
] + [
    ("rake", name, target) for name in WORKLOADS for target in RAKE_TARGETS
]


def test_golden_covers_both_flows():
    assert set(GOLDEN) == {"|".join(cell) for cell in CELLS}
    substituted = sorted(
        key for key, cell in GOLDEN.items()
        if cell["compiler"] == "llvm+q31sub"
    )
    assert substituted == [
        f"llvm|{name}|hexagon-hvx"
        for name in ("depthwise_conv", "matmul", "mul")
    ]


@pytest.mark.parametrize(
    "flow,name,target_name", CELLS, ids=["|".join(c) for c in CELLS]
)
def test_cell_matches_golden(flow, name, target_name):
    wl = by_name(name)
    compile_fn = llvm_compile if flow == "llvm" else rake_compile
    prog = compile_fn(
        wl.expr, ALL_TARGETS[target_name], var_bounds=wl.var_bounds
    )
    golden = GOLDEN[f"{flow}|{name}|{target_name}"]
    assert prog.compiler == golden["compiler"]
    assert prog.assembly() == golden["listing"]
    assert prog.cost().total == golden["cycles"]
