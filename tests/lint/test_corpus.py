"""The seeded-corpus gate (repro.lint.corpus), once per family row.

For every family: the clean cases carry no error, every mutant fires
exactly its expected rule set, the mutants together cover every rule of
the family's group, and a warm pass through a file-backed rule cache
replays every finding byte-identically without executing a rule.  The
grid families run on a small slice of the generator corpus; CI sweeps
the whole grid through ``python -m repro.lint.corpus``.
"""

import dataclasses
import json

import pytest

from repro.lint import corpus
from repro.lint.corpus import Mutant
from repro.lint.electrical import mutate as noise
from repro.lint.incremental import RuleResultCache
from repro.lint.registry import rules_in_groups

FAMILIES = {family.name: family for family in corpus.FAMILIES}

#: Grid slice for the symbolic and electrical rows.
SLICE = (("mux", 4, ()), ("decoder", 3, ()))


def _small(family):
    if family.clean is not corpus.grid_cases:
        return family
    return dataclasses.replace(family, clean=lambda: corpus.grid_cases(SLICE))


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def passes(request, tmp_path_factory):
    """``(family, (cold record, stats), (warm record, stats))``."""
    family = _small(FAMILIES[request.param])
    path = str(tmp_path_factory.mktemp(family.name) / "rules.jsonl")
    runs = []
    for _ in range(2):
        cache = RuleResultCache(path)
        record, _ = corpus.run_family(family, cache)
        runs.append((record, cache.stats))
    return family, runs[0], runs[1]


def test_gate_passes(passes):
    _, (record, _), _ = passes
    assert record["clean"] > 0
    assert record["clean_errors"] == 0
    assert [v for v in record["mutants"] if not v["ok"]] == []
    assert corpus.gate_ok(record)


def test_mutants_cover_every_group_rule(passes):
    family, (record, _), _ = passes
    expected = {rule for v in record["mutants"] for rule in v["expected"]}
    assert expected == {r.id for r in rules_in_groups([family.group])}


def test_warm_pass_replays_byte_identically(passes):
    _, (cold, cold_stats), (warm, warm_stats) = passes
    assert warm_stats.executed == 0
    assert warm_stats.replayed == cold_stats.invocations > 0
    assert json.dumps(warm["findings"], sort_keys=True) == json.dumps(
        cold["findings"], sort_keys=True
    )


# -- main(): exit code and outputs -----------------------------------------


def _electrical(clean=(), mutants=()):
    return dataclasses.replace(
        FAMILIES["electrical"],
        clean=lambda: list(clean),
        mutants=lambda: list(mutants),
    )


def _floating(expected=frozenset({"NSA601"})):
    return Mutant(
        "floating_internal_node", noise.floating_internal_node(), expected
    )


def test_main_writes_outputs_and_passes(monkeypatch, tmp_path):
    family = _electrical(
        clean=corpus.grid_cases((("mux", 2, ()),)), mutants=[_floating()]
    )
    monkeypatch.setattr(corpus, "FAMILIES", (family,))
    out, sarif = tmp_path / "corpus.json", tmp_path / "corpus.sarif"
    argv = [
        "--rule-cache", str(tmp_path / "rules.jsonl"),
        "--json-out", str(out), "--sarif", str(sarif),
    ]
    assert corpus.main(argv) == 0
    payload = json.loads(out.read_text())
    record = payload["families"]["electrical"]
    assert record["mutants"] == [{
        "label": "floating_internal_node",
        "expected": ["NSA601"],
        "fired": ["NSA601"],
        "ok": True,
    }]
    assert payload["rule_cache"]["executed"] > 0
    results = json.loads(sarif.read_text())["runs"][0]["results"]
    assert "NSA601" in {r["ruleId"] for r in results}


@pytest.mark.parametrize(
    "expected",
    [frozenset({"NSA602"}), frozenset({"NSA601", "NSA602"}), frozenset()],
    ids=["wrong", "superset", "empty"],
)
def test_main_fails_on_wrong_expected_set(monkeypatch, expected):
    family = _electrical(mutants=[_floating(expected)])
    monkeypatch.setattr(corpus, "FAMILIES", (family,))
    assert corpus.main([]) == 1


def test_main_fails_on_clean_error(monkeypatch):
    circuit = noise.floating_internal_node()
    family = _electrical(clean=[("floating", circuit, None)])
    monkeypatch.setattr(corpus, "FAMILIES", (family,))
    assert corpus.main([]) == 1
