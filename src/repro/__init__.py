"""SMART — Smart Macro Design Advisor.

A from-scratch reproduction of *"Macro-Driven Circuit Design Methodology for
High-Performance Datapaths"* (M. Nemani, V. Tiwari, DAC 2000): a macro
topology database, a posynomial/geometric-programming transistor sizer with
path pruning, and the advisory flow that explores topologies against designer
constraints — plus the simulation substrates (static timing, switch-level
transient, power estimation) the original relied on commercial tools for.

Quickstart::

    from repro import SmartAdvisor, MacroSpec, DesignConstraints

    advisor = SmartAdvisor()
    report = advisor.advise(
        MacroSpec("mux", width=8, output_load=30.0),
        DesignConstraints(delay=120.0, cost="area"),
    )
    print(report.render())
"""

import gc

from .core import (
    AdvisorReport,
    CandidateResult,
    DesignConstraints,
    SmartAdvisor,
    TradeoffCurve,
    TradeoffPoint,
    area_delay_curve,
    explore_topologies,
)
from . import obs
from .cache import SizingCache
from .macros import MacroDatabase, MacroGenerator, MacroSpec, default_database
from .models import GENERIC_130, GENERIC_180, ModelLibrary, Technology
from .parallel import SweepPoint, SweepResult, build_grid, run_sweep
from .sizing import DelaySpec, SizingError, SizingResult, SmartSizer

from ._version import __version__  # noqa: E402

# The modules imported above (this package, numpy, scipy, networkx: some
# 60,000 tracked containers) live as long as the process.  Moving them to
# the collector's permanent generation means a full collection walks only
# what the program allocated since: about 2 ms per full collection on a
# 2-vCPU Xeon instead of about 25 ms, a pause that otherwise lands on
# whichever call happens to trip the collector.
gc.freeze()

__all__ = [
    "obs",
    "SizingCache",
    "SweepPoint",
    "SweepResult",
    "build_grid",
    "run_sweep",
    "SmartAdvisor",
    "AdvisorReport",
    "CandidateResult",
    "DesignConstraints",
    "TradeoffCurve",
    "TradeoffPoint",
    "area_delay_curve",
    "explore_topologies",
    "MacroSpec",
    "MacroGenerator",
    "MacroDatabase",
    "default_database",
    "Technology",
    "GENERIC_180",
    "GENERIC_130",
    "ModelLibrary",
    "SmartSizer",
    "SizingResult",
    "SizingError",
    "DelaySpec",
    "__version__",
]
