"""Section 6.4's first block experiment.

Paper: "This particular block has over 13,800 transistors in it, and datapath
macros accounted for 22% of the total transistor width, and 36% of the total
power.  On applying SMART to the macros in the design, we achieved about 8%
reduction in the total transistor width along with 8% power reduction on the
overall design (measured using PowerMill).  A timing analysis on the new
design showed no performance penalty."
"""

import pytest

from conftest import pct, render_table
from repro.blocks import MacroInstanceSpec, build_block, reduce_block_power
from repro.macros import MacroSpec

MENU = [
    MacroInstanceSpec("mux/unsplit_domino", MacroSpec("mux", 16, output_load=30.0), 8),
    MacroInstanceSpec("mux/partitioned_domino", MacroSpec("mux", 16, output_load=30.0), 5),
    MacroInstanceSpec("mux/strong_mutex_passgate", MacroSpec("mux", 8, output_load=40.0), 8),
    MacroInstanceSpec("incrementor/prefix", MacroSpec("incrementor", 16, output_load=20.0), 4),
    MacroInstanceSpec("zero_detect/domino", MacroSpec("zero_detect", 32), 4),
    MacroInstanceSpec("decoder/predecoded", MacroSpec("decoder", 5, output_load=15.0), 2),
]

#: The paper's composition target.
MACRO_WIDTH_FRACTION = 0.22


@pytest.fixture(scope="module")
def block(library):
    return build_block(
        "sec64_block", MENU, MACRO_WIDTH_FRACTION, library=library, seed=64
    )


@pytest.fixture(scope="module")
def reduction(block):
    return reduce_block_power(block)


def test_section_6_4_table(block, reduction):
    rows = [
        ("transistors", f"{block.transistor_count()}", ">13,800"),
        ("macro width fraction", pct(block.macro_width_fraction), "22%"),
        ("macro power fraction", pct(block.macro_power_fraction()), "36%"),
        ("block width reduction", pct(reduction.width_saving), "~8%"),
        ("block power reduction", pct(reduction.power_saving), "~8%"),
        (
            "performance penalty",
            "none" if reduction.no_performance_penalty else "YES",
            "none",
        ),
    ]
    render_table(
        "Section 6.4: whole-block experiment (measured vs paper)",
        ("quantity", "measured", "paper"),
        rows,
    )


def test_block_scale(block):
    """Thousands of transistors, same order as the paper's 13.8k block."""
    assert block.transistor_count() > 10_000


def test_macro_width_fraction_near_22pct(block):
    assert block.macro_width_fraction == pytest.approx(0.22, abs=0.05)


def test_macro_power_share_exceeds_width_share(block):
    """The 22%-width / 36%-power asymmetry: clocked macros burn more than
    their area share."""
    assert block.macro_power_fraction() > block.macro_width_fraction * 1.2


def test_block_level_savings_band(reduction):
    """Paper: ~8% width and ~8% power at block level."""
    assert 0.02 < reduction.width_saving < 0.20
    assert 0.02 < reduction.power_saving < 0.20


def test_no_performance_penalty(reduction):
    assert reduction.no_performance_penalty
