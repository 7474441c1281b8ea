"""Path extraction tests: enumeration, counting, representative extraction."""

import pytest

from repro.macros import MacroSpec
from repro.sizing import PathExtractor, longest_path_length
from repro.sizing.paths import PathExplosionError


class TestEnumeration:
    def test_chain_single_path_per_source(self, inverter_chain):
        paths = PathExtractor(inverter_chain).extract()
        assert len(paths) == 1
        (path,) = paths
        assert path.start_net == "in"
        assert path.end_net == "out"
        assert len(path) == 3

    def test_mux_paths(self, small_mux):
        paths = PathExtractor(small_mux).extract()
        # 4 data paths (in_i -> drv -> pass -> outdrv) and 4 select paths.
        assert len(paths) == 8
        starts = {p.start_net for p in paths}
        assert starts == {f"in{i}" for i in range(4)} | {f"s{i}" for i in range(4)}

    def test_count_matches_enumeration(self, small_mux, domino_mux):
        for circuit in (small_mux, domino_mux):
            extractor = PathExtractor(circuit)
            assert extractor.count() == len(extractor.extract())

    def test_count_matches_enumeration_on_adder(self, database, tech):
        adder = database.generate(
            "adder/static_ripple", MacroSpec("adder", 4), tech
        )
        extractor = PathExtractor(adder)
        assert extractor.count() == len(extractor.extract())

    def test_count_matches_enumeration_with_fanning_output(self, tech):
        """An output that also feeds logic ends one path, however it is
        walked: ``a -> m -> o`` with ``m`` an output too has two paths."""
        from repro.macros.base import MacroBuilder

        builder = MacroBuilder("tapped", tech)
        a = builder.input("a")
        m = builder.output("m", load=5.0)
        o = builder.output("o", load=5.0)
        for label in ("P0", "N0", "P1", "N1"):
            builder.size(label)
        builder.inv("i0", a, m, "P0", "N0")
        builder.inv("i1", m, o, "P1", "N1")
        extractor = PathExtractor(builder.done())
        paths = extractor.extract()
        assert [p.end_net for p in paths] == ["m", "o"]
        assert extractor.count() == len(paths) == 2

    def test_clock_paths_optional(self, domino_mux):
        extractor = PathExtractor(domino_mux)
        with_clock = extractor.count(include_clock=True)
        without = extractor.count(include_clock=False)
        assert with_clock > without

    def test_explosion_cap(self, database, tech):
        adder = database.generate(
            "adder/static_ripple", MacroSpec("adder", 8), tech
        )
        extractor = PathExtractor(adder, max_paths=5)
        with pytest.raises(PathExplosionError):
            extractor.extract()

    def test_paths_are_connected(self, small_mux):
        for path in PathExtractor(small_mux).extract():
            net = path.start_net
            for step in path.steps:
                stage = small_mux.stage(step.stage_name)
                pin = stage.pin(step.pin_name)
                assert pin.net.name == net
                net = stage.output.name
            assert net == path.end_net

    def test_classification_helpers(self, small_mux, domino_mux):
        paths = PathExtractor(small_mux).extract()
        select_paths = [p for p in paths if p.enters_via_select(small_mux)]
        assert len(select_paths) == 4
        clock_paths = [
            p
            for p in PathExtractor(domino_mux).extract()
            if p.starts_at_clock(domino_mux)
        ]
        assert clock_paths


class TestRepresentative:
    def test_representative_subset_covers_signatures(self, small_mux):
        from repro.sizing.pruning import path_signature

        full = PathExtractor(small_mux).extract()
        rep = PathExtractor(small_mux).extract_representative()
        full_sigs = {path_signature(small_mux, p) for p in full}
        rep_sigs = {path_signature(small_mux, p) for p in rep}
        assert rep_sigs == full_sigs
        assert len(rep) <= len(full)

    def test_representative_far_smaller_on_adder(self, database, tech):
        adder = database.generate(
            "adder/dual_rail_domino_cla", MacroSpec("adder", 16), tech
        )
        extractor = PathExtractor(adder)
        raw = extractor.count()
        rep = extractor.extract_representative()
        assert raw > 50 * len(rep)

    def test_representative_paths_are_valid_hops(self, database, tech):
        adder = database.generate(
            "adder/dual_rail_domino_cla", MacroSpec("adder", 16), tech
        )
        for path in PathExtractor(adder).extract_representative():
            for step in path.steps:
                stage = adder.stage(step.stage_name)
                stage.pin(step.pin_name)  # must exist


class TestDepth:
    def test_longest_path_length_chain(self, inverter_chain):
        assert longest_path_length(inverter_chain) == 3

    def test_longest_path_length_mux(self, small_mux):
        assert longest_path_length(small_mux) == 3  # drv -> pass -> outdrv
