"""Extension corpus: the macro families the paper lists but does not
evaluate — shifters and register files ("muxes, shifters, adders,
comparators, decoders, encoders, zero-detects, register files etc.").

The Section-6.1 protocol applied to both families, completing the database's
coverage of the paper's macro list.
"""

import pytest

from conftest import norm, pct, render_table
from repro.core.savings import macro_savings
from repro.macros import MacroSpec

INSTANCES = [
    ("8b barrel rotator", "shifter/passgate_barrel",
     MacroSpec("shifter", 8, output_load=20.0), "area"),
    ("16b barrel rotator", "shifter/passgate_barrel",
     MacroSpec("shifter", 16, output_load=20.0), "area"),
    ("16b tristate rotator", "shifter/tristate_barrel",
     MacroSpec("shifter", 16, output_load=20.0), "area"),
    ("8x8 RF read (domino)", "register_file/domino_bitline",
     MacroSpec("register_file", 8, output_load=20.0,
               params=(("registers", 8),)), "area+clock"),
    ("16x4 RF read (domino)", "register_file/domino_bitline",
     MacroSpec("register_file", 4, output_load=20.0,
               params=(("registers", 16),)), "area+clock"),
    ("8:3 encoder (static)", "encoder/static_tree",
     MacroSpec("encoder", 3, output_load=20.0), "area"),
    ("16:4 encoder (domino)", "encoder/domino",
     MacroSpec("encoder", 4, output_load=20.0), "area+clock"),
]


@pytest.fixture(scope="module")
def results(database, library):
    out = {}
    for label, topology, spec, objective in INSTANCES:
        out[label] = macro_savings(
            database, topology, spec, library, objective=objective
        )
    return out


def test_extension_table(results):
    rows = [
        (label, norm(r.normalized_width), pct(r.width_saving),
         pct(r.clock_saving) if r.baseline.clock_load > 0 else "n/a",
         "yes" if r.timing_met else "NO")
        for label, r in results.items()
    ]
    render_table(
        "Extension corpus: shifters and register-file read ports",
        ("macro", "SMART/original", "width saving", "clock saving", "timing met"),
        rows,
    )


def test_all_meet_timing(results):
    for label, r in results.items():
        assert r.timing_met, label


def test_all_save_width(results):
    for label, r in results.items():
        assert r.width_saving > 0.03, (label, r.width_saving)


def test_domino_read_ports_save_clock(results):
    for label in (
        "8x8 RF read (domino)", "16x4 RF read (domino)", "16:4 encoder (domino)"
    ):
        assert results[label].clock_saving > 0.0, label
