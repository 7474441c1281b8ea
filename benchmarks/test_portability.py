"""Technology portability: the Figure-5 protocol at a second process node.

The methodology's premise is that the database + sizer port across process
generations (the paper's "continuous innovation ... each generation").  The
same savings experiment at the faster, lower-voltage GENERIC_130 node must
land in the same qualitative band as GENERIC_180.
"""

import pytest

from conftest import pct, render_table
from repro.core.savings import macro_savings
from repro.macros import MacroSpec
from repro.models import GENERIC_130, GENERIC_180, ModelLibrary

CORPUS = [
    ("13b incrementor", "incrementor/ripple",
     MacroSpec("incrementor", 13, output_load=20.0), "area"),
    ("16b zero detect", "zero_detect/static_tree",
     MacroSpec("zero_detect", 16, output_load=20.0), "area"),
    ("8:1 domino mux", "mux/unsplit_domino",
     MacroSpec("mux", 8, output_load=30.0), "area+clock"),
]


@pytest.fixture(scope="module")
def per_node(database):
    out = {}
    for node in (GENERIC_180, GENERIC_130):
        library = ModelLibrary(node)
        rows = {}
        for label, topology, spec, objective in CORPUS:
            rows[label] = macro_savings(
                database, topology, spec, library, objective=objective
            )
        out[node.name] = rows
    return out


def test_portability_table(per_node):
    rows = []
    for node, results in per_node.items():
        for label, r in results.items():
            rows.append(
                (node, label, pct(r.width_saving),
                 "yes" if r.timing_met else "NO")
            )
    render_table(
        "Technology portability: Section-6.1 savings at two process nodes",
        ("node", "macro", "width saving", "timing met"),
        rows,
    )


def test_both_nodes_meet_timing(per_node):
    for node, results in per_node.items():
        for label, r in results.items():
            assert r.timing_met, (node, label)


def test_savings_band_holds_across_nodes(per_node):
    for node, results in per_node.items():
        for label, r in results.items():
            assert r.width_saving > 0.05, (node, label)


def test_savings_correlate_across_nodes(per_node):
    """Per-macro savings at the two nodes differ by bounded amounts (the
    mechanism is sizing waste, not a process accident)."""
    r180 = per_node[GENERIC_180.name]
    r130 = per_node[GENERIC_130.name]
    for label in r180:
        assert abs(r180[label].width_saving - r130[label].width_saving) < 0.25, label
