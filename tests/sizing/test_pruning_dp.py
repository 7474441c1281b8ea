"""The one-walk pruning of the whole path space against the list passes.

``prune_paths(circuit)`` prunes without materialising a raw path; it must
return exactly ``prune_paths(circuit, PathExtractor(circuit).extract())``:
the same surviving paths in the same order and the same ``PruneStats``.
The certified list route stays the one ``verify_pruning`` re-checks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lint.coverage import verify_pruning
from repro.macros import MacroSpec, default_database
from repro.netlist.circuit import Circuit
from repro.netlist.nets import NetKind, Pin, PinClass, PinSpeed
from repro.netlist.stages import Stage, StageKind
from repro.obs import metrics
from repro.sizing import PathExtractor, prune_paths

#: The registry sweep enumerates every raw path, so it stops at the first
#: width whose raw path count exceeds this.
MAX_ENUMERATED = 20_000
LABELINGS = ((), (("label_group", 1),))
#: 2-16 bits, plus 32 for the comparators, which apply at no other width.
WIDTHS = tuple(range(2, 17)) + (32,)


def _assert_same_as_list_passes(circuit):
    raw = PathExtractor(circuit).extract()
    expected = prune_paths(circuit, raw)
    with metrics.metrics_scope() as registry:
        got = prune_paths(circuit)
    assert registry.counter("paths.enumerated").value == 0
    assert got.paths == expected.paths
    assert got.stats == expected.stats
    certified = prune_paths(circuit, raw, certify=True)
    assert certified.paths == expected.paths
    report = verify_pruning(circuit, raw, certified.certificate)
    assert report.ok, [d.format() for d in report.errors[:5]]


@pytest.mark.parametrize(
    "topology", [generator.name for generator in default_database().topologies()]
)
def test_matches_list_passes_on_every_registry_topology(database, tech, topology):
    """Every width and both labelings up to :data:`MAX_ENUMERATED` raw
    paths (path counts grow with width, so the sweep stops at the first
    width above it).  A topology that ignores ``label_group`` builds the same
    circuit twice; the second copy is skipped."""
    generator = database.generator(topology)
    seen = set()
    for params in LABELINGS:
        for width in WIDTHS:
            spec = MacroSpec(generator.macro_type, width, params=params)
            if not generator.applicable(spec):
                continue
            circuit = generator.generate(spec, tech)
            if PathExtractor(circuit).count() > MAX_ENUMERATED:
                break
            labels = tuple(stage.labels() for stage in circuit.stages)
            if (width, labels) in seen:
                continue
            seen.add((width, labels))
            _assert_same_as_list_passes(circuit)
    assert seen


KINDS = (StageKind.INV, StageKind.NAND, StageKind.NOR)
LABELS = ("wa", "wb")
SPEEDS = (None, PinSpeed.FAST, PinSpeed.SLOW)


@st.composite
def stage_dags(draw):
    """A random layered stage DAG.

    Primary inputs and an optional clock are the sources; each stage reads
    1-3 pins from any earlier net (so one net may feed several pins of a
    stage), with mixed pin classes and FAST/SLOW/unannotated speeds.  Two
    kinds of two labels each make duplicate-key twin stages common, and
    any stage output may be a primary output that also fans out.
    """
    circuit = Circuit("dag")
    for label in LABELS:
        circuit.size_table.declare(label)
    nets = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        nets.append(circuit.add_net(f"in{i}"))
        circuit.mark_input(f"in{i}")
    if draw(st.booleans()):
        nets.append(circuit.add_net("clk", NetKind.CLOCK))
    outputs = []
    for layer in range(draw(st.integers(min_value=1, max_value=4))):
        fresh = []
        for k in range(draw(st.integers(min_value=1, max_value=3))):
            pins = [
                Pin(
                    f"p{j}",
                    draw(st.sampled_from(nets)),
                    draw(st.sampled_from(tuple(PinClass))),
                    draw(st.sampled_from(SPEEDS)),
                )
                for j in range(draw(st.integers(min_value=1, max_value=3)))
            ]
            out = circuit.add_net(f"n{layer}_{k}")
            circuit.add_stage(Stage(
                name=f"s{layer}_{k}",
                kind=draw(st.sampled_from(KINDS)),
                inputs=pins,
                output=out,
                size_vars={
                    "pull_up": draw(st.sampled_from(LABELS)),
                    "pull_down": draw(st.sampled_from(LABELS)),
                },
            ))
            fresh.append(out)
        nets.extend(fresh)
        outputs.extend(fresh)
    for net in outputs:
        if draw(st.booleans()):
            circuit.mark_output(net.name)
    return circuit


@settings(max_examples=200, deadline=None)
@given(stage_dags())
def test_matches_list_passes_on_random_stage_dags(circuit):
    _assert_same_as_list_passes(circuit)
