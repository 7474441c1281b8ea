"""Figure 5(c): normalized transistor width, original vs SMART, decoders.

Paper instances: 3to8, 3to8, 4to16, 4to16, 4to16, 6to64, 6to64, 7to128.
Repeats are rendered as different topologies/loads, as a design team would
actually have instantiated them.
"""

import pytest

from conftest import norm, pct, render_table
from repro.core.savings import macro_savings
from repro.macros import MacroSpec

INSTANCES = [
    ("3to8", "decoder/flat_static", 3, 20.0, "area"),
    ("3to8#2", "decoder/domino", 3, 20.0, "area+clock"),
    ("4to16", "decoder/flat_static", 4, 15.0, "area"),
    ("4to16#2", "decoder/predecoded", 4, 20.0, "area"),
    ("4to16#3", "decoder/domino", 4, 25.0, "area+clock"),
    ("6to64", "decoder/predecoded", 6, 15.0, "area"),
    ("6to64#2", "decoder/flat_static", 6, 15.0, "area"),
    ("7to128", "decoder/predecoded", 7, 15.0, "area"),
]


@pytest.fixture(scope="module")
def results(database, library):
    out = {}
    for label, topology, width, load, objective in INSTANCES:
        spec = MacroSpec("decoder", width, output_load=load)
        out[label] = macro_savings(
            database, topology, spec, library, objective=objective
        )
    return out


def test_figure_5c_table(results):
    rows = [
        (label, norm(1.0), norm(r.normalized_width), pct(r.width_saving),
         "yes" if r.timing_met else "NO")
        for label, r in results.items()
    ]
    render_table(
        "Figure 5(c): decoders — normalized total transistor width",
        ("circuit", "original", "SMART", "saving", "timing met"),
        rows,
    )


def test_all_meet_timing(results):
    for label, r in results.items():
        assert r.timing_met, label


def test_all_save_width(results):
    for label, r in results.items():
        assert r.width_saving > 0.05, (label, r.width_saving)


def test_flat_4to16_meets_timing_at_20ff(database, library):
    spec = MacroSpec("decoder", 4, output_load=20.0)
    result = macro_savings(database, "decoder/flat_static", spec, library)
    assert result.timing_met
