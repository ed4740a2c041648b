"""What a process loads.

A package's ``__init__`` imports what every user of the package runs
and exports its optional parts through a PEP 562 ``__getattr__``, so a
compile loads the compile path alone: not the fabric, the daemon, the
evaluation, the e-graph or the baselines.  Each check starts a fresh
interpreter, since this one has imported everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
E2E = REPO / "benchmarks" / "e2e"

#: what a greedy compile and its cost never run
OFF_THE_COMPILE_PATH = (
    "repro.fabric", "repro.serve", "repro.evaluation", "repro.lint",
    "repro.synthesis", "repro.verify.batch", "repro.analysis.dataflow",
    "repro.observe.report", "repro.trs.egraph",
    "repro.machine.llvm_baseline", "repro.machine.rake_oracle",
    "multiprocessing", "numpy",
)

COMPILE = """
from repro.pipeline import pitchfork_compile
from repro.targets import ARM
from repro.workloads import by_name
wl = by_name("add")
pitchfork_compile(wl.expr, ARM, var_bounds=wl.var_bounds).cost()
"""

#: target ops built through repro.targets, evaluated through repro.interp
EVAL_TARGET_OPS = """
from repro.interp import evaluate
from repro.ir.expr import Const, Var
from repro.ir.types import I16, U8, U16
from repro.targets import arm, target_op, x86
a, b, acc, x = Var(U8, "a"), Var(U8, "b"), Var(U16, "acc"), Var(I16, "x")
env = {"a": [0, 255, 7, 128], "b": [255, 255, 3, 2],
       "acc": [65535, 0, 9, 1000], "x": [-32768, 32767, 5, -3]}
programs = [
    target_op(arm.UMLAL, U16, acc, a, b),
    target_op(arm.UMLSL, U16, acc, a, b),
    target_op(x86.VPMULHRSW, I16, x, Const(I16, 16384)),
]
print(json.dumps([evaluate(p, env, lanes=4) for p in programs]))
"""


def _run(code: str):
    """``(stdout lines, loaded module names)`` of a fresh interpreter
    that ran ``code``, with the sources and the benchmark's modules on
    its path and the default evaluation backend."""
    script = (f"import json, sys\n{code}\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), str(E2E)]))
    env.pop("REPRO_EVAL_BACKEND", None)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         cwd=str(REPO), capture_output=True, text=True,
                         check=True).stdout.splitlines()
    return out[:-1], set(json.loads(out[-1]))


def _off_path(loaded):
    return sorted(m for m in OFF_THE_COMPILE_PATH if m in loaded)


def test_import_repro_loads_no_subpackage():
    _, loaded = _run("import repro")
    assert sorted(m for m in loaded if m.startswith("repro")) == [
        "repro", "repro._lazy"]


def test_package_exports_resolve_on_first_use():
    out, loaded = _run(
        "import repro, repro.verify, repro.trs\n"
        "print(repro.pitchfork_compile.__module__,"
        " repro.verify.batch_verify_rules.__module__,"
        " repro.trs.EGraphLifter.__module__,"
        " 'pitchfork_compile' in dir(repro))")
    assert out == ["repro.pipeline repro.verify.batch repro.trs.egraph True"]
    assert {"repro.fabric", "repro.verify.batch"} <= loaded


def test_greedy_compile_loads_only_the_compile_path():
    _, loaded = _run(COMPILE)
    assert _off_path(loaded) == []


def test_benchmark_child_imports_load_only_what_it_runs():
    # the in-process benchmark child's imports and its greedy warm-up
    _, loaded = _run(
        "import inproc\n"
        "inproc.CompilerSession().warm_up(lift_strategies=('greedy',))")
    assert _off_path(loaded) == []


def test_target_ops_evaluate_without_the_machine_layer():
    alone, loaded = _run(EVAL_TARGET_OPS)
    assert "repro.machine" not in loaded
    with_machine, _ = _run("import repro.machine\n" + EVAL_TARGET_OPS)
    assert alone == with_machine
    umlal, umlsl, q15 = json.loads(alone[0])
    assert umlal == [(acc + a * b) % 65536 for acc, a, b in
                     zip([65535, 0, 9, 1000], [0, 255, 7, 128],
                         [255, 255, 3, 2])]
    assert umlsl == [(acc - a * b) % 65536 for acc, a, b in
                     zip([65535, 0, 9, 1000], [0, 255, 7, 128],
                         [255, 255, 3, 2])]
    assert q15 == [-16384, 16384, 3, -1]
