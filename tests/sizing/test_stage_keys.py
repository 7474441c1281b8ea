"""The per-circuit stage-key table behind path signatures and pruning.

One ``{stage: (kind, regularity labels)}`` table is built per circuit and
size-table state and kept in the circuit memo, like the timing arc tables
(``tests/netlist/test_memo.py``): a regularity tie or a designer pin gets
a fresh table, ``forget`` drops it, and every signature read from it equals
the ``_stage_key`` formula recomputed from scratch.
"""

import pytest

from repro.lint.coverage import verify_pruning
from repro.macros import MacroSpec
from repro.netlist import forget
from repro.obs import metrics
from repro.sizing import PathExtractor, RegularityCollapsedSizer, prune_paths
from repro.sizing import pruning
from repro.sizing.pruning import _stage_key, path_signature, stage_keys


def _perbit_adder(database, tech, width):
    return database.generate(
        "adder/static_ripple",
        MacroSpec("adder", width, params=(("label_group", 1),)),
        tech,
    )


def _formula_signature(circuit, path):
    """The signature recomputed stage by stage from ``_stage_key``."""
    steps = []
    for step in path.steps:
        stage = circuit.stage(step.stage_name)
        pin_class = stage.pin(step.pin_name).pin_class.value
        steps.append(_stage_key(circuit, stage) + (pin_class,))
    return (circuit.net(path.start_net).kind.value, tuple(steps))


def _builds():
    return metrics.counter("prune.stage_key_tables").value


class TestOneTablePerState:
    def test_built_once_and_shared(self, database, tech):
        circuit = _perbit_adder(database, tech, 4)
        with metrics.metrics_scope():
            table = stage_keys(circuit)
            assert _builds() == 1
            assert stage_keys(circuit) is table
            paths = PathExtractor(circuit).extract()
            PathExtractor(circuit).extract_representative()
            prune_paths(circuit, paths, certify=True)
            path_signature(circuit, paths[0])
            assert _builds() == 1
        assert table == {s.name: _stage_key(circuit, s) for s in circuit.stages}

    def test_pruning_run_fetches_the_table_once(self, database, tech, monkeypatch):
        circuit = _perbit_adder(database, tech, 4)
        paths = PathExtractor(circuit).extract()
        fetches = []
        real = pruning.stage_keys
        monkeypatch.setattr(
            pruning, "stage_keys", lambda c: fetches.append(c) or real(c)
        )
        prune_paths(circuit, paths, certify=True)
        assert len(fetches) == 1

    def test_tie_gets_a_fresh_table_and_untie_the_old_one(self, database, tech):
        circuit = _perbit_adder(database, tech, 8)
        sizer = RegularityCollapsedSizer(circuit, None)
        with metrics.metrics_scope():
            untied = stage_keys(circuit)
            undo = sizer._tie(sizer.equivalence_classes())
            tied = stage_keys(circuit)
            assert _builds() == 2
            assert tied is not untied
            assert set(tied.values()) < set(untied.values())
            sizer._untie(undo)
            assert stage_keys(circuit) is untied
            assert _builds() == 2

    def test_pin_gets_a_fresh_table(self, database, tech):
        circuit = _perbit_adder(database, tech, 4)
        with metrics.metrics_scope():
            before = stage_keys(circuit)
            circuit.size_table.pin(circuit.size_table.names()[0], 1.0)
            assert stage_keys(circuit) is not before
            assert _builds() == 2

    def test_forget_drops_the_table(self, database, tech):
        circuit = _perbit_adder(database, tech, 4)
        with metrics.metrics_scope():
            before = stage_keys(circuit)
            forget(circuit)
            after = stage_keys(circuit)
            assert after is not before
            assert after == before
            assert _builds() == 2


def test_signatures_match_the_formula_before_and_after_ties(database, tech):
    circuit = _perbit_adder(database, tech, 16)
    sizer = RegularityCollapsedSizer(circuit, None)
    for tie in (False, True):
        undo = sizer._tie(sizer.equivalence_classes()) if tie else []
        paths = PathExtractor(circuit).extract_representative()
        assert paths
        for path in paths:
            assert path_signature(circuit, path) == _formula_signature(circuit, path)
        sizer._untie(undo)


@pytest.mark.parametrize(
    "topology, macro, width, tie",
    [
        ("mux/strong_mutex_passgate", "mux", 4, False),
        ("mux/weak_mutex_passgate", "mux", 4, False),
        ("zero_detect/static_tree", "zero_detect", 16, False),
        ("adder/static_ripple", "adder", 8, False),
        ("adder/static_ripple", "adder", 8, True),
    ],
)
def test_certified_pruning_verifies(database, tech, topology, macro, width, tie):
    params = (("label_group", 1),) if macro == "adder" else ()
    circuit = database.generate(topology, MacroSpec(macro, width, params=params), tech)
    sizer = RegularityCollapsedSizer(circuit, None)
    undo = sizer._tie(sizer.equivalence_classes()) if tie else []
    raw = PathExtractor(circuit).extract()
    result = prune_paths(circuit, raw, certify=True)
    report = verify_pruning(circuit, raw, result.certificate)
    assert report.ok, [d.format() for d in report.errors[:5]]
    assert len(result.paths) < len(raw)
    sizer._untie(undo)
