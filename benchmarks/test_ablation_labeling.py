"""Section 4's labeling trade-off, as an ablation.

Paper: "While associating every transistor with a unique size variable may
generate the solution with least transistor width, this may not be practical
from a layout regularity perspective."

We sweep the label-group size of a 16-bit ripple incrementor: per-bit labels
(group 1) vs grouped (4) vs fully shared (32), and measure the minimum-area
solution at a common delay plus the GP problem size.
"""

import pytest

from conftest import norm, render_table
from repro.macros import MacroSpec
from repro.sizing import DelaySpec, SmartSizer
from repro.sizing.engine import nominal_delay

WIDTH = 16
GROUPS = (1, 4, WIDTH)


@pytest.fixture(scope="module")
def sweep(database, library):
    # Common budget from the most-constrained (fully shared) variant.
    shared = database.generate(
        "incrementor/ripple",
        MacroSpec("incrementor", WIDTH, params=(("label_group", WIDTH),)),
        library.tech,
    )
    budget = 0.9 * nominal_delay(shared, library)
    results = {}
    for group in GROUPS:
        circuit = database.generate(
            "incrementor/ripple",
            MacroSpec("incrementor", WIDTH, params=(("label_group", group),)),
            library.tech,
        )
        result = SmartSizer(circuit, library).size(DelaySpec(data=budget))
        results[group] = (circuit, result)
    return results


def test_labeling_table(sweep):
    base_area = sweep[GROUPS[-1]][1].area
    rows = [
        (
            f"group={group}" + (" (per bit)" if group == 1 else
                                " (fully shared)" if group == WIDTH else ""),
            len(circuit.size_table.free_names()),
            norm(result.area / base_area),
            "yes" if result.converged else "NO",
        )
        for group, (circuit, result) in sweep.items()
    ]
    render_table(
        f"Section 4 ablation: labeling granularity ({WIDTH}-bit ripple incrementor)",
        ("labeling", "GP variables", "norm area", "converged"),
        rows,
    )


def test_all_converge(sweep):
    for group, (_c, result) in sweep.items():
        assert result.converged, group


def test_finer_labels_never_worse(sweep):
    """Finer labeling strictly enlarges the feasible set, so minimum area is
    non-increasing as groups shrink."""
    areas = [sweep[g][1].area for g in GROUPS]  # fine -> coarse
    assert areas[0] <= areas[1] * 1.02
    assert areas[1] <= areas[2] * 1.02


def test_per_bit_least_width(sweep):
    """The paper's claim verbatim: unique labels give the least width."""
    assert sweep[1][1].area == min(r.area for _c, r in sweep.values())


def test_variable_count_tradeoff(sweep):
    """...at the cost of a much larger sizing problem."""
    fine = len(sweep[1][0].size_table.free_names())
    coarse = len(sweep[WIDTH][0].size_table.free_names())
    assert fine > 4 * coarse
