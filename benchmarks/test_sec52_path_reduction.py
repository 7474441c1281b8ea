"""Section 5.2's path-space reduction claim.

Paper: "on a 64 bit dynamic adder, an exhaustive timing analysis revealed
over 32,000 paths.  However, the above techniques reduced the problem size to
120 paths, i.e., a factor of over 250 reduction in the problem size."

Plus the pruning-pass ablation DESIGN.md calls out: each of the three
techniques contributes, measured on an enumerable mid-size circuit.
"""

import pytest

from conftest import render_table
from repro.macros import MacroSpec
from repro.sizing import PathExtractor, prune_paths


@pytest.fixture(scope="module")
def adder64(database, tech):
    return database.generate(
        "adder/dual_rail_domino_cla", MacroSpec("adder", 64, output_load=20.0), tech
    )


@pytest.fixture(scope="module")
def adder64_counts(adder64):
    """(raw paths, paths the sizer constrains): one exact walk of the
    whole path space, the sizer's own front end."""
    stats = prune_paths(adder64).stats
    return stats.initial, stats.final


def test_section52_table(adder64_counts):
    raw, reduced = adder64_counts
    render_table(
        "Section 5.2: 64-bit dynamic adder path-space reduction",
        ("quantity", "measured", "paper"),
        [
            ("raw topological paths", f"{raw:,}", ">32,000"),
            ("after reduction", f"{reduced}", "120"),
            ("reduction factor", f"{raw / reduced:,.0f}x", ">250x"),
        ],
    )


def test_raw_paths_exceed_32000(adder64_counts):
    raw, _ = adder64_counts
    assert raw > 32_000


def test_reduced_to_low_hundreds(adder64_counts):
    _, reduced = adder64_counts
    assert reduced < 300


def test_reduction_factor_over_250(adder64_counts):
    raw, reduced = adder64_counts
    assert raw / reduced > 250.0


class TestAblation:
    """Per-pass contribution on an enumerable circuit (16-bit CLA)."""

    @pytest.fixture(scope="class")
    def corpus(self, database, tech):
        circuit = database.generate(
            "adder/dual_rail_domino_cla", MacroSpec("adder", 16), tech
        )
        paths = PathExtractor(circuit).extract()
        return circuit, paths

    @pytest.fixture(scope="class")
    def ablation(self, corpus):
        circuit, paths = corpus
        combos = {
            "none": dict(use_precedence=False, use_dominance=False, use_regularity=False),
            "precedence only": dict(use_precedence=True, use_dominance=False, use_regularity=False),
            "dominance only": dict(use_precedence=False, use_dominance=True, use_regularity=False),
            "regularity only": dict(use_precedence=False, use_dominance=False, use_regularity=True),
            "all three": dict(use_precedence=True, use_dominance=True, use_regularity=True),
        }
        return {
            label: prune_paths(circuit, paths, **flags).stats.final
            for label, flags in combos.items()
        }

    def test_ablation_table(self, ablation):
        rows = [(label, count) for label, count in ablation.items()]
        render_table(
            "Section 5.2 ablation: surviving paths per pruning combination "
            "(16-bit CLA)",
            ("passes enabled", "paths"),
            rows,
        )

    def test_each_pass_reduces(self, ablation):
        baseline = ablation["none"]
        for label in ("dominance only", "regularity only"):
            assert ablation[label] < baseline, label

    def test_combination_best(self, ablation):
        assert ablation["all three"] <= min(
            ablation["precedence only"],
            ablation["dominance only"],
            ablation["regularity only"],
        )

    def test_regularity_is_the_big_lever(self, ablation):
        """Datapath regularity carries most of the reduction (the paper's
        emphasis)."""
        assert ablation["regularity only"] < ablation["none"] / 10


class TestPrecedenceAblation:
    """Pin precedence needs annotated wide gates — measured on the 63-bit
    static zero-detect tree, where every NOR4/NAND4 carries the fast/slow
    partition."""

    @pytest.fixture(scope="class")
    def zdet_counts(self, database, tech):
        circuit = database.generate(
            "zero_detect/static_tree", MacroSpec("zero_detect", 63), tech
        )
        paths = PathExtractor(circuit).extract()
        without = prune_paths(
            circuit, paths,
            use_precedence=False, use_dominance=False, use_regularity=False,
        ).stats.final
        with_precedence = prune_paths(
            circuit, paths,
            use_precedence=True, use_dominance=False, use_regularity=False,
        ).stats.final
        return without, with_precedence

    def test_precedence_prunes_fast_paths(self, zdet_counts):
        without, with_precedence = zdet_counts
        render_table(
            "Section 5.2: pin-precedence pruning on 63-bit zero detect",
            ("pruning", "paths"),
            [("off", without), ("pin precedence", with_precedence)],
        )
        # Only the slow-pin path through each gate survives: the tree's
        # branching collapses dramatically.
        assert with_precedence < without / 5


class TestPruningCertificate:
    """The prune is sound, not just small: a ``certify=True`` run emits a
    per-path drop witness, and the linter's independent verifier confirms
    every one of the >32,000 extracted paths is either surviving or validly
    dominated/merged — the ISSUE-2 coverage guarantee on the Section-5.2
    flagship."""

    @pytest.fixture(scope="class")
    def certified(self, adder64):
        raw = PathExtractor(adder64).extract()
        result = prune_paths(adder64, raw, certify=True)
        return raw, result.certificate

    def test_certificate_verifies(self, adder64, certified):
        from repro.lint.coverage import verify_pruning

        raw, certificate = certified
        report = verify_pruning(adder64, raw, certificate)
        render_table(
            "Section 5.2: pruning-certificate verification (64-bit adder)",
            ("quantity", "measured"),
            [
                ("extracted paths", f"{len(raw):,}"),
                ("surviving constraints", len(certificate.surviving)),
                ("drop witnesses", f"{len(certificate.dropped):,}"),
                ("uncovered paths", len(report.errors)),
            ],
        )
        assert len(raw) > 32_000
        assert len(certificate.surviving) < 300
        assert report.ok, [d.format() for d in report.errors[:5]]

    def test_every_path_accounted(self, certified):
        raw, certificate = certified
        surviving = set(certificate.surviving)
        assert surviving.isdisjoint(certificate.dropped)
        assert len(surviving) + len(certificate.dropped) == len(set(raw))
