"""Switch-level symbolic verification (SVC4xx) tests.

Three layers, mirroring the ERC test structure:

* hand-built broken micro-fixtures, one per rule (drive fight, floating
  output, sneak path) — each isolates its rule;
* the golden-equivalence contract: all six mux styles *prove* equal to the
  one golden mux spec, and every shipped generator carries a spec;
* the seeded mutants: one swapped select/data connection per macro
  family (:data:`repro.lint.symbolic.mutate.MUTATIONS`), each firing
  exactly its pinned SVC rule set — the end-to-end demonstration that the
  verifier catches real wiring errors.
"""

import pytest

from repro.lint import lint_circuit
from repro.lint.symbolic import extract, slice_certificate
from repro.lint.symbolic.extract import extract_cached
from repro.lint.symbolic.mutate import MUTATIONS, rebind_pin
from repro.macros.base import MacroBuilder, MacroSpec
from repro.macros.mux import mux_golden_spec
from repro.macros.registry import default_database
from repro.models import Technology

TECH = Technology()
DATABASE = default_database()


def check(circuit, rule_id, **options):
    report = lint_circuit(
        circuit, groups=("symbolic",), only=[rule_id], options=options
    )
    return report.by_rule(rule_id)


def _generate(topology, macro, width, params=()):
    return DATABASE.generate(
        topology, MacroSpec(macro, width, params=params), TECH
    )


# ---------------------------------------------------------------------------
# broken micro-fixtures
# ---------------------------------------------------------------------------


class TestSVC402DriveFight:
    def test_opposing_tristate_drivers_flagged(self):
        builder = MacroBuilder("fight", TECH)
        a = builder.input("a")
        en = builder.input("en")
        ab = builder.wire("ab")
        merge = builder.wire("merge")
        out = builder.output("out")
        builder.size("P"), builder.size("N")
        builder.inv("i0", a, ab, "P", "N")
        # Both tri-states share one enable but carry complementary data:
        # en=1 shorts a pull-up against a pull-down on the merge net.
        builder.tristate("t0", a, en, merge, "P", "N")
        builder.tristate("t1", ab, en, merge, "P", "N")
        builder.inv("o0", merge, out, "P", "N")
        circuit = builder.circuit  # skip done(): the fixture is broken
        diags = check(circuit, "SVC402")
        assert diags, "opposing drivers must report a drive fight"
        assert any("merge" in (d.location.net or "") for d in diags)

    def test_clean_mux_has_no_fight(self):
        circuit = _generate("mux/strong_mutex_passgate", "mux", 4)
        assert check(circuit, "SVC402") == []


class TestSVC403Floating:
    def test_unselected_tristate_bus_flagged(self):
        builder = MacroBuilder("floaty", TECH)
        d = builder.input("d")
        en = builder.input("en")
        merge = builder.wire("merge")
        out = builder.output("out")
        builder.size("P"), builder.size("N")
        # One tri-state, no keeper, no complement branch: en=0 floats the
        # merge net and the output inverter reads stored charge.
        builder.tristate("t0", d, en, merge, "P", "N")
        builder.inv("o0", merge, out, "P", "N")
        circuit = builder.circuit
        diags = check(circuit, "SVC403")
        assert any("merge" in (d.location.net or "") for d in diags)

    def test_domino_precharge_nodes_exempt(self):
        """Domino dynamic nodes hold charge by design; the DFA301 phase
        facts exempt them from the floating report."""
        circuit = _generate("mux/unsplit_domino", "mux", 4)
        assert check(circuit, "SVC403") == []

    def test_weak_keeper_rescues_bus(self):
        circuit = _generate("mux/weak_mutex_passgate", "mux", 4)
        assert check(circuit, "SVC403") == []


class TestSVC404SneakPath:
    def test_bridge_between_drivers_flagged(self):
        builder = MacroBuilder("sneak", TECH)
        x, y = builder.input("x"), builder.input("y")
        s, t = builder.input("s"), builder.input("t")
        mx, my, mid = builder.wire("mx"), builder.wire("my"), builder.wire("mid")
        out = builder.output("out")
        builder.size("P"), builder.size("N"), builder.size("NP"), builder.size("NPI")
        builder.inv("ix", x, mx, "P", "N")
        builder.inv("iy", y, my, "P", "N")
        # Two pass gates meet at ``mid``: s=t=1 with x != y shorts the two
        # drivers through the pass network — a sneak path, not a plain
        # drive fight.
        builder.passgate("pgx", mx, s, mid, "NP", "NPI", mutex="encoded")
        builder.passgate("pgy", my, t, mid, "NP", "NPI", mutex="encoded")
        builder.inv("io", mid, out, "P", "N")
        circuit = builder.circuit
        diags = check(circuit, "SVC404")
        assert diags, "bridged pass gates must report a sneak path"
        # ... and the same conflicts must NOT double-report as drive fights.
        assert check(circuit, "SVC402") == []

    def test_strong_mutex_selects_have_no_sneak(self):
        circuit = _generate("mux/strong_mutex_passgate", "mux", 4)
        assert check(circuit, "SVC404") == []


# ---------------------------------------------------------------------------
# SVC401: golden functional equivalence
# ---------------------------------------------------------------------------


ONEHOT_STYLES_W4 = (
    "mux/strong_mutex_passgate",
    "mux/tristate",
    "mux/unsplit_domino",
    "mux/partitioned_domino",
)


class TestSVC401GoldenEquivalence:
    def test_all_six_mux_styles_prove_one_spec(self):
        """The tentpole claim: six transistor-level mux implementations —
        static pass, weak pass, tri-state, two domino forms, encoded 2:1 —
        all provably compute ``out = data[selected index]``.  The golden
        function is one; only the select *decode* differs per interface
        (one-hot, weak one-hot with a NOR'd last leg, encoded), so four
        styles share one spec object outright and all six carry the
        ``golden == "mux"`` family marker."""
        shared = mux_golden_spec(4, "onehot")
        for topology in ONEHOT_STYLES_W4:
            circuit = _generate(topology, "mux", 4)
            extraction = extract(circuit, shared)
            assert extraction.proved, (
                f"{topology}: verdict={extraction.verdict}, "
                f"mismatches={[m.witness() for m in extraction.mismatches[:3]]}"
            )
            assert circuit.functional_spec.golden == "mux"
        weak = _generate("mux/weak_mutex_passgate", "mux", 4)
        assert weak.functional_spec.golden == "mux"
        assert extract(weak, mux_golden_spec(4, "onehot_weak")).proved
        encoded = _generate("mux/encoded_select_2to1", "mux", 2)
        assert encoded.functional_spec.golden == "mux"
        assert extract(encoded, mux_golden_spec(2, "encoded")).proved

    def test_lint_reports_nothing_on_clean_mux(self):
        circuit = _generate("mux/tristate", "mux", 4)
        assert check(circuit, "SVC401") == []

    def test_spec_mismatch_carries_witness(self):
        circuit = _generate("mux/strong_mutex_passgate", "mux", 4)
        # Leg 0 now passes leg 1's data: s0=1 cleanly routes in1, a defined
        # wrong value (a select rebind would merely float the bus instead).
        rebind_pin(circuit, "pass0", "d", "mid1")
        diags = check(circuit, "SVC401")
        assert diags
        assert "golden spec (mux)" in diags[0].message
        assert "s0=1" in diags[0].message  # the witness assignment

    def test_rule_skipped_without_spec(self):
        builder = MacroBuilder("nospec", TECH)
        a = builder.input("a")
        out = builder.output("out")
        builder.size("P"), builder.size("N")
        builder.inv("i0", a, out, "P", "N")
        assert check(builder.done(), "SVC401") == []

    def test_every_registered_generator_has_a_spec(self):
        """No shipped topology may opt out of symbolic verification."""
        missing = []
        for generator in DATABASE.topologies():
            width = 32 if generator.macro_type == "comparator" else 4
            if generator.macro_type == "adder" and "cla" in generator.name:
                width = 16
            spec = MacroSpec(generator.macro_type, width)
            if not generator.applicable(spec):
                width = next(
                    w for w in range(1, 129)
                    if generator.applicable(
                        MacroSpec(generator.macro_type, w)
                    )
                )
                spec = MacroSpec(generator.macro_type, width)
            if generator.functional_spec(spec) is None:
                missing.append(generator.name)
        assert missing == []


# ---------------------------------------------------------------------------
# seeded mutants: one swapped connection per macro family
# ---------------------------------------------------------------------------

class TestSeededMutants:
    """Each mutation is the only defect: the unmutated build verifies, and
    the rewire fires exactly its pinned rule set (the corpus gate runs the
    same table in tests/lint/test_corpus.py)."""

    @pytest.mark.parametrize(
        "label,topology,macro,width,params,rewire,expected",
        MUTATIONS, ids=[m[0] for m in MUTATIONS],
    )
    def test_mutant_flagged(
        self, label, topology, macro, width, params, rewire, expected
    ):
        circuit = _generate(topology, macro, width, params)
        baseline = lint_circuit(circuit, groups=("symbolic",))
        assert baseline.diagnostics == [], (
            f"{topology}: clean build must verify before mutation: "
            + "; ".join(d.format() for d in baseline.diagnostics)
        )
        rewire(circuit)
        report = lint_circuit(circuit, groups=("symbolic",))
        fired = {d.rule_id for d in report.diagnostics}
        assert fired == expected, f"{label}: fired {sorted(fired)}"


# ---------------------------------------------------------------------------
# clean corpus: SVC402/SVC403 silence on everything shipped
# ---------------------------------------------------------------------------


CLEAN_CORPUS = [
    ("mux/strong_mutex_passgate", "mux", 4, ()),
    ("mux/weak_mutex_passgate", "mux", 4, ()),
    ("mux/encoded_select_2to1", "mux", 2, ()),
    ("mux/tristate", "mux", 8, ()),
    ("mux/unsplit_domino", "mux", 4, ()),
    ("mux/partitioned_domino", "mux", 8, ()),
    ("adder/static_ripple", "adder", 8, ()),
    ("adder/dual_rail_domino_cla", "adder", 16, ()),
    ("comparator/xorsum2", "comparator", 32, ()),
    ("comparator/xorsum1", "comparator", 32, ()),
    ("comparator/xorsum4", "comparator", 32, ()),
    ("incrementor/prefix", "incrementor", 8, ()),
    ("decrementor/prefix", "decrementor", 8, ()),
    ("zero_detect/split_domino", "zero_detect", 16, ()),
    ("decoder/predecoded", "decoder", 5, ()),
    ("encoder/domino", "encoder", 3, ()),
    ("shifter/passgate_barrel", "shifter", 8, ()),
    ("shifter/tristate_barrel", "shifter", 8, ()),
    ("register_file/domino_bitline", "register_file", 2, (("registers", 4),)),
]


class TestCleanCorpus:
    @pytest.mark.parametrize(
        "topology,macro,width,params",
        CLEAN_CORPUS, ids=[f"{c[0]}-{c[2]}" for c in CLEAN_CORPUS],
    )
    def test_no_fights_or_floaters(self, topology, macro, width, params):
        circuit = _generate(topology, macro, width, params)
        report = lint_circuit(
            circuit, groups=("symbolic",),
            only=["SVC402", "SVC403", "SVC404"],
            options={"symbolic_samples": 16},
        )
        assert report.errors == [], "; ".join(
            d.format() for d in report.errors
        )

    def test_shifter_width8_proves_with_raised_budget(self):
        """Width 8 has 11 inputs — above the default exact budget it is
        only sampled; raising the budget upgrades the verdict to proved."""
        circuit = _generate("shifter/passgate_barrel", "shifter", 8)
        sampled = extract(circuit, circuit.functional_spec, samples=16)
        assert sampled.verdict == "tested" and not sampled.mismatches
        proved = extract(circuit, circuit.functional_spec, exact_budget=11)
        assert proved.proved
        assert proved.n_assignments == 2 ** 11


class TestExtractionMemo:
    def test_input_phase_declaration_recomputes(self):
        """Declaring input phases on a built circuit, without ``forget``,
        changes which inputs precharge: the memoized extraction must be
        recomputed and equal a fresh circuit's with the same phases."""

        def declare(circuit):
            for net in sorted(circuit.primary_inputs):
                circuit.declare_input_phase(net, "mono_fall")

        circuit = _generate("mux/unsplit_domino", "mux", 4)
        budgets = {"exact_budget": 10, "samples": 64}
        before = extract_cached(circuit, circuit.functional_spec, **budgets)
        declare(circuit)
        after = extract_cached(circuit, circuit.functional_spec, **budgets)
        assert after is not before
        fresh = _generate("mux/unsplit_domino", "mux", 4)
        declare(fresh)
        assert after == extract(fresh, fresh.functional_spec, **budgets)
        assert extract_cached(circuit, circuit.functional_spec, **budgets) is after


# ---------------------------------------------------------------------------
# SVC405: slice-isomorphism certificates
# ---------------------------------------------------------------------------


class TestSVC405SliceIsomorphism:
    def test_certificate_on_regular_read_port(self):
        circuit = _generate(
            "register_file/tristate_bitline", "register_file", 2,
            (("registers", 4),),
        )
        certificate = slice_certificate(circuit)
        assert certificate.certifies("q0", "q1")
        assert certificate.violations == ()

    def test_certificate_backs_regularity_merging(self):
        """The consumption contract: when the certificate marks two output
        slices isomorphic, their extracted timing paths have identical
        signature multisets, so the Section-5.2 merge over them is sound."""
        from collections import Counter

        from repro.sizing.paths import PathExtractor
        from repro.sizing.pruning import path_signature

        circuit = _generate(
            "register_file/tristate_bitline", "register_file", 2,
            (("registers", 4),),
        )
        certificate = slice_certificate(circuit)
        merged = [g for g in certificate.groups if g.isomorphic]
        assert merged, "read port slices must certify as isomorphic"

        paths = PathExtractor(circuit).extract()
        by_output = {}
        for path in paths:
            by_output.setdefault(path.end_net, []).append(
                path_signature(circuit, path)
            )
        for group in merged:
            reference = Counter(by_output.get(group.outputs[0], []))
            for output in group.outputs[1:]:
                assert Counter(by_output.get(output, [])) == reference, (
                    f"certified-isomorphic slices {group.outputs[0]} and "
                    f"{output} disagree on path signatures"
                )

    def test_broken_regularity_warned(self):
        """Rewiring one slice breaks the certificate and raises SVC405."""
        circuit = _generate(
            "register_file/tristate_bitline", "register_file", 2,
            (("registers", 4),),
        )
        # Bit 0 / register 0's enable now comes straight from a data input
        # instead of the decoder: the q0 cone loses its decoder sub-cone
        # while the size labels stay shared with q1.
        rebind_pin(circuit, "bit0reg0", "en", "d2_0")
        certificate = slice_certificate(circuit)
        assert not certificate.certifies("q0", "q1")

    def test_mux_slices_via_lint(self):
        circuit = _generate("mux/strong_mutex_passgate", "mux", 4)
        assert check(circuit, "SVC405") == []


# ---------------------------------------------------------------------------
# fingerprint: rename/reorder invariance, mutant sensitivity
# ---------------------------------------------------------------------------


class TestFingerprintCanonicalization:
    def _chain(self, name, net_names, reverse_build=False):
        """in -> [inv] -> w1 -> [inv] -> out with configurable wire names
        and stage insertion order."""
        builder = MacroBuilder(name, TECH)
        a = builder.input("in")
        w = builder.wire(net_names[0])
        out = builder.output("out")
        builder.size("P0"), builder.size("N0")
        builder.size("P1"), builder.size("N1")
        stages = [
            ("i0", a, w, "P0", "N0"),
            ("i1", w, out, "P1", "N1"),
        ]
        if reverse_build:
            # Nets exist up front, so stages can be added back-to-front.
            stages = list(reversed(stages))
        for stage_name, src, dst, pu, pd in stages:
            builder.inv(stage_name, src, dst, pu, pd)
        return builder.done()

    def test_invariant_under_internal_rename(self):
        from repro.netlist.fingerprint import circuit_fingerprint

        f1 = circuit_fingerprint(self._chain("c1", ["mid"]))
        f2 = circuit_fingerprint(self._chain("c2", ["zz_renamed"]))
        assert f1 == f2

    def test_invariant_under_stage_reorder(self):
        from repro.netlist.fingerprint import circuit_fingerprint

        f1 = circuit_fingerprint(self._chain("c1", ["mid"]))
        f2 = circuit_fingerprint(self._chain("c2", ["mid"], reverse_build=True))
        assert f1 == f2

    def test_functional_mutant_changes_fingerprint(self):
        """The mutant SVC401 catches must also miss the sizing cache."""
        from repro.netlist.fingerprint import circuit_fingerprint

        clean = _generate("mux/strong_mutex_passgate", "mux", 4)
        mutant = _generate("mux/strong_mutex_passgate", "mux", 4)
        rebind_pin(mutant, "pass0", "s", "s1")
        assert check(mutant, "SVC401"), "mutant must be SVC401-detectable"
        assert circuit_fingerprint(clean) != circuit_fingerprint(mutant)

    def test_generated_macros_stable(self):
        from repro.netlist.fingerprint import circuit_fingerprint

        a = _generate("mux/tristate", "mux", 4)
        b = _generate("mux/tristate", "mux", 4)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
