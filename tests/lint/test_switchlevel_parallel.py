"""The bit-parallel switch-level solver against the scalar oracle.

:mod:`tests.lint.reference_switchlevel` solves one assignment at a time with
the per-net fixpoint the solver replaced.  Every bit of a bit-parallel solve
must equal it — net values, conflict witnesses and floating sets of both
phases — and :func:`~repro.lint.symbolic.extract.extract` must build the
very record an assignment-by-assignment scan builds, at the advisor gate's
old budget, at the lint defaults and at a zero budget (sampling only).
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.editing import add_keeper
from repro.lint.corpus import corpus_circuits
from repro.lint.electrical.mutate import mutants as electrical_mutants
from repro.lint.symbolic.extract import extract
from repro.lint.symbolic.mutate import mutants
from repro.lint.symbolic.switchlevel import (
    MAX_ROUNDS,
    ChannelGraph,
    input_masks,
    solve_assignments,
)
from repro.macros.base import MacroBuilder, MacroSpec
from repro.macros.registry import default_database
from repro.models import Technology
from repro.netlist.stages import StageKind

from . import reference_switchlevel as reference

TECH = Technology()

#: (exact budget, samples): the advisor gate's former budget, the lint
#: defaults, and sampling with no exact enumeration at all.
BUDGETS = ((8, 12), (10, 64), (0, 0))


@functools.lru_cache(maxsize=None)
def corpus_and_mutants():
    cases = list(corpus_circuits())
    cases.extend((m.label, m.circuit) for m in mutants())
    return tuple(cases)


@functools.lru_cache(maxsize=None)
def keeper_circuits():
    """Circuits with weak keeper devices, which no generator emits by
    default: the noise mutants and a kept domino mux."""
    cases = [(m.label, m.circuit) for m in electrical_mutants()]
    kept = default_database().generate(
        "mux/unsplit_domino", MacroSpec("mux", 4), TECH
    )
    for stage in kept.stages:
        if stage.kind is StageKind.DOMINO:
            add_keeper(kept, stage.name, 0.2)
    cases.append(("kept mux/unsplit_domino[4]", kept))
    return tuple(cases)


@functools.lru_cache(maxsize=None)
def advise_candidates():
    """Every spec-carrying candidate of the advise benchmark's requests."""
    database = default_database()
    requests = (
        ("mux", 4, 20.0), ("mux", 8, 40.0), ("mux", 16, 20.0),
        ("zero_detect", 16, 40.0), ("zero_detect", 32, 20.0),
        ("decoder", 4, 40.0), ("incrementor", 8, 20.0), ("shifter", 8, 40.0),
        ("adder", 8, 40.0), ("register_file", 8, 20.0),
    )
    cases = []
    for macro, width, load in requests:
        spec = MacroSpec(macro, width, output_load=load)
        for generator in database.applicable(spec):
            circuit = generator.generate(spec, TECH)
            if circuit.functional_spec is not None:
                cases.append((f"{generator.name}[{width}]", circuit))
    return tuple(cases)


def assert_same_phase(got, want):
    assert got.values == want.values
    assert list(got.conflicts.items()) == list(want.conflicts.items())
    assert got.floating == want.floating
    assert list(got.floating) == list(want.floating)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_bit_matches_the_oracle(data):
    label, circuit = data.draw(
        st.sampled_from(corpus_and_mutants() + keeper_circuits())
    )
    graph = ChannelGraph(circuit)
    inputs = graph.input_nets
    codes = data.draw(
        st.lists(st.integers(0, 2 ** len(inputs) - 1), min_size=1, max_size=10)
    )
    envs = [
        {name: bool(code >> k & 1) for k, name in enumerate(inputs)}
        for code in codes
    ]
    pre, solved = solve_assignments(graph, len(envs), input_masks(inputs, envs))
    for bit, env in enumerate(envs):
        want = reference.evaluate(graph, env)
        assert_same_phase(solved.solution(bit), want.evaluate)
        if want.precharge is None:
            assert pre is None
        else:
            assert_same_phase(pre.solution(bit), want.precharge)


def _odd_ring():
    """``r0 = nand(en, r2)``, ``r1 = !r0``, ``r2 = !r1``: with ``en = 1``
    a three-inverter ring that never settles from a defined start."""
    builder = MacroBuilder("ring3", TECH)
    en = builder.input("en")
    r0, r1 = builder.wire("r0"), builder.wire("r1")
    r2 = builder.output("r2")
    builder.size("P"), builder.size("N")
    builder.nand("g0", [en, r2], r0, "P", "N")
    builder.inv("i1", r0, r1, "P", "N")
    builder.inv("i2", r1, r2, "P", "N")
    return builder.circuit


@settings(max_examples=40, deadline=None)
@given(
    starts=st.lists(
        st.tuples(
            st.booleans(),
            st.lists(st.sampled_from((None, False, True)), min_size=3, max_size=3),
        ),
        min_size=1,
        max_size=12,
    ),
    max_rounds=st.sampled_from((1, 2, 7, MAX_ROUNDS)),
)
def test_odd_ring_demotes_per_bit(starts, max_rounds):
    """Stored charge starts the ring; enabled bits oscillate and are demoted
    to X after ``max_rounds``, disabled ones settle — bit by bit exactly as
    the oracle does each alone."""
    graph = ChannelGraph(_odd_ring())
    index = graph.index
    width = len(starts)
    c1 = [0] * len(graph.net_order)
    c0 = [0] * len(graph.net_order)
    charges = []
    for bit, (_enable, values) in enumerate(starts):
        charge = {}
        for name, value in zip(("r0", "r1", "r2"), values):
            if value is not None:
                charge[name] = value
                (c1 if value else c0)[index[name]] |= 1 << bit
        charges.append(charge)
    envs = [{"en": enable} for enable, _values in starts]
    solved = graph.solve_masks(
        width, input_masks(("en",), envs), clock=None, charge=(c1, c0),
        max_rounds=max_rounds,
    )
    for bit, env in enumerate(envs):
        want = reference.solve_phase(
            graph, env, clock=None, charge=charges[bit], max_rounds=max_rounds
        )
        assert_same_phase(solved.solution(bit), want)


def test_odd_ring_oscillation_is_demoted():
    graph = ChannelGraph(_odd_ring())
    index = graph.index
    n = len(graph.net_order)
    c1, c0 = [0] * n, [0] * n
    c1[index["r0"]] = c0[index["r1"]] = c1[index["r2"]] = 1
    solved = graph.solve_masks(
        1, {"en": 1}, clock=None, charge=(c1, c0)
    )
    values = solved.solution(0).values
    assert None in (values["r0"], values["r1"], values["r2"])


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: f"{b[0]}x{b[1]}")
def test_extract_equals_the_oracle_scan(budget):
    exact_budget, samples = budget
    cases = corpus_and_mutants() + keeper_circuits() + advise_candidates()
    for label, circuit in cases:
        spec = circuit.functional_spec
        got = extract(circuit, spec, exact_budget=exact_budget, samples=samples)
        want = reference.reference_extract(
            circuit, spec, exact_budget=exact_budget, samples=samples
        )
        assert got == want, label
        assert list(got.conflicts) == list(want.conflicts), label
        assert list(got.floating) == list(want.floating), label


def test_expected_masks_are_memoized_on_the_spec():
    circuit = default_database().generate(
        "mux/tristate", MacroSpec("mux", 4), TECH
    )
    spec = circuit.functional_spec
    spec.masks.clear()
    first = extract(circuit, spec)
    assert len(spec.masks) == 1
    (masks,) = spec.masks.values()
    again = extract(circuit, spec)
    assert spec.masks[next(iter(spec.masks))] is masks
    assert again == first
