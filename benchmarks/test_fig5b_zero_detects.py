"""Figure 5(b): normalized transistor width, original vs SMART, zero-detects.

Paper instances: 6bit, 8bit, 8bit, 16bit, 16bit, 22bit, 32bit, 63bit — a mix
of topologies across repeats, which we render as static trees and (split)
domino variants.
"""

import pytest

from conftest import norm, pct, render_table
from repro.core.savings import macro_savings
from repro.macros import MacroSpec

INSTANCES = [
    ("6bit", "zero_detect/static_tree", 6, 15.0, "area"),
    ("8bit", "zero_detect/static_tree", 8, 20.0, "area"),
    ("8bit#2", "zero_detect/domino", 8, 20.0, "area+clock"),
    ("16bit", "zero_detect/static_tree", 16, 20.0, "area"),
    ("16bit#2", "zero_detect/domino", 16, 25.0, "area+clock"),
    ("22bit", "zero_detect/split_domino", 22, 20.0, "area+clock"),
    ("32bit", "zero_detect/domino", 32, 30.0, "area+clock"),
    ("63bit", "zero_detect/split_domino", 63, 25.0, "area+clock"),
]


@pytest.fixture(scope="module")
def results(database, library):
    out = {}
    for label, topology, width, load, objective in INSTANCES:
        spec = MacroSpec("zero_detect", width, output_load=load)
        out[label] = macro_savings(
            database, topology, spec, library, objective=objective
        )
    return out


def test_figure_5b_table(results):
    rows = [
        (label, norm(1.0), norm(r.normalized_width), pct(r.width_saving),
         "yes" if r.timing_met else "NO")
        for label, r in results.items()
    ]
    render_table(
        "Figure 5(b): zero detects — normalized total transistor width",
        ("circuit", "original", "SMART", "saving", "timing met"),
        rows,
    )


def test_all_meet_timing(results):
    for label, r in results.items():
        assert r.timing_met, label


def test_all_save_width(results):
    for label, r in results.items():
        assert r.width_saving > 0.05, (label, r.width_saving)


def test_domino_instances_save_clock(results):
    for label in ("8bit#2", "16bit#2", "22bit", "32bit", "63bit"):
        assert results[label].clock_saving > 0.0, label
