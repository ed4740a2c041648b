"""Compile-time analyses: interval (bounds) inference for predicated
rules, plus straight-line dataflow over linearized machine programs
(:mod:`repro.analysis.dataflow`: def-use chains, liveness, register
pressure)."""

from .._lazy import lazy_exports
from .intervals import BoundsAnalyzer, BoundsContext, Interval  # noqa: F401

# dataflow serves the listing tools (--stats, lint --machine), not the
# compile itself
__getattr__, __dir__ = lazy_exports(globals(), {
    name: ".dataflow" for name in (
        "MachineProgram", "PressureReport", "def_use_chains", "liveness",
        "register_pressure",
    )
})
