"""Slice-collapsed sizing vs the full GP on the 64-bit per-bit adder.

The ROADMAP's "solve one slice, replicate N", made sound by the OPT703
replication certificate: the 64-bit ripple adder with per-bit labels is a
512-variable GP; the WL collapse ties it down to one representative per
equivalence class and proves the replicated point against the original
circuit.  This module measures the headline claim — GP wall-clock becomes
O(1) in the datapath width — and the price of the proof (the
certificate-check wall time), and prints both, with each sizer's
end-to-end wall, in one table.

The full 512-variable solve runs once in the module fixture.
"""

import time

import pytest

from conftest import norm, render_table
from repro.macros import MacroSpec
from repro.macros.adder import StaticRippleAdder
from repro.sizing import DelaySpec, RegularityCollapsedSizer, SmartSizer
from repro.sizing.engine import nominal_delay

WIDTH = 64


def _per_bit_adder(tech, width):
    return StaticRippleAdder().build(
        MacroSpec("adder", width, params=(("label_group", 1),)), tech
    )


@pytest.fixture(scope="module")
def experiment(tech, library):
    """One collapsed and one full solve of the per-bit 64-bit adder."""
    circuit = _per_bit_adder(tech, WIDTH)
    spec = DelaySpec(data=0.9 * nominal_delay(circuit, library))

    t0 = time.perf_counter()
    collapsed = RegularityCollapsedSizer(
        circuit, library, with_kkt=False
    ).size(spec)
    collapsed_total = time.perf_counter() - t0

    t0 = time.perf_counter()
    full = SmartSizer(circuit, library).size(spec)
    full_wall = time.perf_counter() - t0

    return circuit, spec, collapsed, full, collapsed_total, full_wall


def test_collapse_table(experiment):
    circuit, _spec, collapsed, full, collapsed_total, full_wall = experiment
    rows = [
        (
            "full GP",
            collapsed.full_free,
            f"{full_wall:.2f}",
            "-",
            f"{full_wall:.2f}",
            norm(1.0),
            "yes" if full.converged else "NO",
        ),
        (
            "collapsed + certificate",
            collapsed.collapsed_free,
            f"{collapsed.collapsed_runtime_s:.2f}",
            f"{collapsed.certify_runtime_s:.2f}",
            f"{collapsed_total:.2f}",
            norm(collapsed.result.area / full.area),
            "yes" if collapsed.certificate.ok else "NO",
        ),
    ]
    render_table(
        f"Slice-collapsed sizing: {WIDTH}-bit per-bit adder",
        ("sizer", "GP variables", "GP wall s", "certify wall s",
         "end-to-end wall s", "norm area", "certified"),
        rows,
    )


def test_collapse_reduces_gp_to_constant_size(experiment):
    _c, _s, collapsed, _f, _ct, _fw = experiment
    assert not collapsed.fallback, collapsed.fallback_reason
    assert collapsed.full_free == 8 * WIDTH
    # One representative per equivalence class: bounded by the slice
    # vocabulary, not the datapath width.
    assert collapsed.collapsed_free < 40


def test_collapsed_gp_at_least_3x_faster(experiment):
    """The acceptance headline: collapsed GP solve >=3x faster than the
    full GP solve, with the certificate accepted."""
    _c, _s, collapsed, _f, _ct, full_wall = experiment
    assert collapsed.certificate is not None and collapsed.certificate.ok
    assert full_wall / collapsed.collapsed_runtime_s >= 3.0


def test_certificate_accepted_and_full_sta_verified(experiment):
    _c, _s, collapsed, _f, _ct, _fw = experiment
    cert = collapsed.certificate
    assert cert.ok
    assert cert.checks["OPT701"]["ok"]
    assert cert.checks["OPT703"]["ok"]
    # Full-STA residual at the replicated point, measured on the original
    # 512-label circuit, within the engine's own convergence tolerance.
    assert collapsed.result.worst_violation <= 2.0


def test_objective_parity_with_full_solve(experiment):
    """Flat slice-symmetric directions let widths wander; the objective
    must not."""
    _c, _s, collapsed, full, _ct, _fw = experiment
    assert abs(collapsed.result.area - full.area) / full.area <= 0.01
