"""Compile-time analyses: interval (bounds) inference for predicated
rules, plus straight-line dataflow over linearized machine programs
(:mod:`repro.analysis.dataflow`: def-use chains, liveness, register
pressure)."""

from .dataflow import (  # noqa: F401
    MachineProgram,
    PressureReport,
    def_use_chains,
    liveness,
    register_pressure,
)
from .intervals import BoundsAnalyzer, BoundsContext, Interval  # noqa: F401
