"""Per-arc interval enclosures: the oracle for DFA303's hull pass.

Before the hull pass, :class:`repro.lint.dataflow.interval.IntervalAnalysis`
enclosed every arc through a pin with its own :meth:`Posynomial.enclose
<repro.posy.terms.Posynomial.enclose>` call, and the screen enclosed each
slope and noise constraint the same way.  These are those loops, kept as
the reference the vector pass (one :func:`repro.posy.rows.enclose_rows`
call per box) is checked against.
"""

import numpy as np

from repro.sim.timing import ArcHulls, stage_arcs


def reference_hop_bounds(analysis, stage, pin):
    """``(d_lo, d_hi, s_lo, s_hi)`` over every arc through ``pin``, one
    :meth:`Posynomial.enclose` per arc posynomial."""
    d_lo = s_lo = float("inf")
    d_hi = s_hi = 0.0
    for _in_trans, out_trans in stage_arcs(stage, pin):
        delay, slope = analysis.analyzer.arc_posynomials(stage, pin, out_trans)
        lo, hi = delay.enclose(analysis.bounds)
        d_lo, d_hi = min(d_lo, lo), max(d_hi, hi)
        lo, hi = slope.enclose(analysis.bounds)
        s_lo, s_hi = min(s_lo, lo), max(s_hi, hi)
    if d_lo == float("inf"):  # no arcs through this pin
        d_lo = s_lo = 0.0
    return (d_lo, d_hi, s_lo, s_hi)


def reference_hulls(program, bounds):
    """:meth:`ArcProgram.enclose` by one :meth:`Posynomial.enclose` per arc
    delay and slope."""
    d_lo, d_hi, s_lo, s_hi = [], [], [], []
    for a in range(len(program.hops)):
        delay, slope = program.arc(a)
        lo, hi = delay.enclose(bounds)
        d_lo.append(lo)
        d_hi.append(hi)
        lo, hi = slope.enclose(bounds)
        s_lo.append(lo)
        s_hi.append(hi)
    return ArcHulls(
        program, np.array(d_lo), np.array(d_hi), np.array(s_lo), np.array(s_hi)
    )


def reference_enclose_posynomials(posys, bounds):
    """:func:`repro.posy.rows.enclose_posynomials`, one call per posynomial."""
    return [posy.enclose(bounds) for posy in posys]
