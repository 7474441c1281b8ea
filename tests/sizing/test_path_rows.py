"""Compiled path rows and the compiled GP against the eager oracles.

Over circuits with clocks, domino phases, pass-gate control paths, wire
resistance, designer pins and regularity-collapse ties:

* ``transition_paths`` equals the recursive expansion, order included;
* every path row's posynomial equals ``reference_path_delay`` term for
  term, in insertion order, with bit-identical coefficients, and
  ``evaluate_rows`` equals its ``evaluate`` bit for bit;
* the GP the sizer builds from rows compiles to the very stack (log
  coefficients and exponent CSR) that the posynomial constructor of
  ``StackedLogSumExp`` builds from ``reference_path_delay`` posynomials.
"""

import functools

import numpy as np
import pytest

from repro.macros import MacroSpec, default_database
from repro.models import ModelLibrary, Technology
from repro.obs import metrics
from repro.posy.rows import evaluate_rows
from repro.sizing import (
    ConstraintGenerator, DelaySpec, RegularityCollapsedSizer, SmartSizer,
)
from repro.sizing.engine import nominal_delay
from repro.sizing.gp import GeometricProgram, StackedLogSumExp

from .reference_paths import reference_path_delay, reference_transition_paths

LIB = ModelLibrary(Technology())
DB = default_database()


def _tied(circuit):
    sizer = RegularityCollapsedSizer(circuit, LIB)
    sizer._tie(sizer.equivalence_classes())
    return circuit


def _pinned(circuit):
    table = circuit.size_table
    for name in table.free_names()[::3]:
        var = table[name]
        table.pin(name, (var.lower * var.upper) ** 0.5)
    return circuit


PER_BIT = MacroSpec("adder", 8, params=(("label_group", 1),))

CASES = {
    "passgate mux": ("mux/strong_mutex_passgate", MacroSpec("mux", 4), None),
    "domino mux, wired": (
        "mux/unsplit_domino", MacroSpec("mux", 4, params=(("wire_res", 0.8),)), None,
    ),
    "partitioned domino mux": ("mux/partitioned_domino", MacroSpec("mux", 8), None),
    "dual-rail domino adder": (
        "adder/dual_rail_domino_cla", MacroSpec("adder", 16), None,
    ),
    "per-bit ripple adder": ("adder/static_ripple", PER_BIT, None),
    "collapse-tied adder": ("adder/static_ripple", PER_BIT, _tied),
    "pinned incrementor": ("incrementor/ripple", MacroSpec("incrementor", 8), _pinned),
}


@functools.lru_cache(maxsize=None)
def _case(label):
    topology, spec, edit = CASES[label]
    circuit = DB.generate(topology, spec, LIB.tech)
    if edit is not None:
        edit(circuit)
    delay_spec = DelaySpec(
        data=0.9 * nominal_delay(circuit, LIB), phase_budget=None,
    )
    sizer = SmartSizer(circuit, LIB)
    return circuit, delay_spec, sizer, sizer._extract().paths


@pytest.mark.parametrize("label", sorted(CASES))
def test_rows_equal_the_eager_sum_bit_for_bit(label):
    circuit, spec, _sizer, paths = _case(label)
    generator = ConstraintGenerator(circuit, LIB, spec)
    oracle = ConstraintGenerator(circuit, LIB, spec)
    rows, expected = [], []
    for path in paths:
        chains = generator.transition_paths(path)
        assert chains == reference_transition_paths(oracle, path)
        for hops in chains:
            if not hops:
                continue
            row = generator.path_row(hops)
            eager = reference_path_delay(oracle, hops)
            assert list(row.posynomial().items()) == list(eager.items())
            rows.append(row)
            expected.append(eager)
    assert rows
    env = {
        name: (circuit.size_table[name].lower * 1.7 + 0.3)
        for name in circuit.size_table.free_names()
    }
    values = evaluate_rows(rows, env)
    assert values.tolist() == [p.evaluate(env) for p in expected]


def _stack_arrays(stack):
    return (stack._b, stack._A.indptr, stack._A.indices, stack._A.data)


@pytest.mark.parametrize("label", sorted(CASES))
def test_compiled_stack_equals_posynomial_stack(label):
    circuit, spec, sizer, paths = _case(label)
    constraints = ConstraintGenerator(circuit, LIB, spec).generate(paths)
    with metrics.metrics_scope() as registry:
        gp = sizer._build_gp(constraints, {"p0.t0.data": 0.9})
        objective, rows = gp.compile().stacks()
        assert registry.counter("constraints.delay_posynomials").value == 0

    oracle = ConstraintGenerator(circuit, LIB, spec)
    reference = GeometricProgram(gp.objective)
    for constraint in constraints.timing:
        budget = constraint.spec * (0.9 if constraint.name == "p0.t0.data" else 1.0)
        reference.add_upper_bound(
            reference_path_delay(oracle, constraint.hops), budget, constraint.name
        )
    for slope in constraints.slopes:
        reference.add_upper_bound(slope.slope, slope.limit, slope.name)
    for noise in constraints.noise:
        reference.add_inequality(noise.expr, noise.name)
    for name, (lower, upper) in gp._bounds.items():
        reference.set_bounds(name, lower, upper)
    program = gp.compile()
    index = {name: i for i, name in enumerate(program.free)}
    expected_objective = StackedLogSumExp([reference.objective], index, program.fixed)
    expected_rows = StackedLogSumExp(
        [c.expr for c in reference.inequalities], index, program.fixed
    )
    for got, want in (
        (objective, expected_objective), (rows, expected_rows),
    ):
        for a, b in zip(_stack_arrays(got), _stack_arrays(want)):
            assert np.array_equal(a, b)
            assert a.tobytes() == np.asarray(b, dtype=a.dtype).tobytes()
    assert [c.name for c in gp.inequalities] == [
        c.name for c in reference.inequalities
    ]
    assert program.names == tuple(reference.variables())
