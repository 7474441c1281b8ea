"""Figure 5(a): normalized transistor width, original vs SMART, incrementors.

Paper instances: 3bitinc, 3bitdec, 13bitinc, 13bitinc, 27bitinc, 39bitinc,
47bitinc, 48bitinc, 64bitdec.  The original designs are proprietary; the
over-design baseline (see DESIGN.md) plays their role.  The reproduced shape:
every SMART bar sits well below 1.0 at unchanged timing.
"""

import pytest

from conftest import norm, pct, render_table
from repro.core.savings import macro_savings
from repro.macros import MacroSpec

#: (label, family, topology, width, load) — topology choice follows practice:
#: ripple below ~16 bits, prefix lookahead above.
INSTANCES = [
    ("3bitinc", "incrementor", "incrementor/ripple", 3, 15.0),
    ("3bitdec", "decrementor", "decrementor/ripple", 3, 15.0),
    ("13bitinc", "incrementor", "incrementor/ripple", 13, 20.0),
    ("13bitinc#2", "incrementor", "incrementor/prefix", 13, 30.0),
    ("27bitinc", "incrementor", "incrementor/prefix", 27, 20.0),
    ("39bitinc", "incrementor", "incrementor/prefix", 39, 25.0),
    ("47bitinc", "incrementor", "incrementor/prefix", 47, 20.0),
    ("48bitinc", "incrementor", "incrementor/prefix", 48, 35.0),
    ("64bitdec", "decrementor", "decrementor/prefix", 64, 20.0),
]


@pytest.fixture(scope="module")
def results(database, library):
    out = {}
    for label, family, topology, width, load in INSTANCES:
        spec = MacroSpec(family, width, output_load=load)
        out[label] = macro_savings(database, topology, spec, library)
    return out


def test_figure_5a_table(results):
    rows = [
        (label, norm(1.0), norm(r.normalized_width), pct(r.width_saving),
         "yes" if r.timing_met else "NO")
        for label, r in results.items()
    ]
    render_table(
        "Figure 5(a): incrementors — normalized total transistor width",
        ("circuit", "original", "SMART", "saving", "timing met"),
        rows,
    )


def test_all_instances_meet_timing(results):
    for label, r in results.items():
        assert r.timing_met, label


def test_all_instances_save_width(results):
    """The paper's bars all sit visibly below 1.0."""
    for label, r in results.items():
        assert r.width_saving > 0.05, (label, r.width_saving)


def test_large_improvements_available(results):
    """"Large improvements in area and power can be obtained": the corpus
    average saving is substantial."""
    average = sum(r.width_saving for r in results.values()) / len(results)
    assert average > 0.20
