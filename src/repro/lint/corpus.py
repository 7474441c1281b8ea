"""Seeded-corpus gate for the symbolic, electrical and solution lint families.

``python -m repro.lint.corpus`` runs every row of :data:`FAMILIES`: the
family's lint group over its clean corpus and over its seeded mutants.  It
exits 0 only when, for every family,

* no clean case carries an error (warnings are reported but tolerated);
* every mutant fires exactly its ``expected`` rule set among the family's
  rules — no fewer, no more.

The symbolic and electrical families share the generator corpus
(:data:`WIDTH_GRID` swept by :func:`corpus_circuits`); the solution
family's clean corpus is honest collapsed-and-certified sizing runs.
``--rule-cache FILE`` threads the incremental engine through every family,
so a warm rerun on an unchanged tree replays every finding byte-identically.
``--json-out FILE`` dumps, per family, the gate verdicts, the serialized
findings and the certificates the clean cases carry, plus the cache stats.
``--sarif FILE`` writes one SARIF 2.1.0 log of every report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from ..netlist.circuit import Circuit
from .diagnostics import LintReport
from .incremental import RuleResultCache, serialize_diagnostic
from .reporters import render_sarif
from .runner import executed_counts, lint_circuit

#: Width sweep per macro type: ``(macro, width, params)``.  Generators that
#: declare a spec inapplicable are skipped, so the grid can be generous.
WIDTH_GRID: Sequence[Tuple[str, int, Tuple[Tuple[str, object], ...]]] = tuple(
    [("mux", w, ()) for w in range(2, 9)]
    + [("adder", w, ()) for w in (2, 4, 8, 16)]
    + [("comparator", 32, ())]
    + [("incrementor", w, ()) for w in (4, 6, 8)]
    + [("decrementor", w, ()) for w in (4, 6, 8)]
    + [("zero_detect", w, ()) for w in (4, 8, 16)]
    + [("decoder", w, ()) for w in (2, 3, 4, 5)]
    + [("encoder", w, ()) for w in (2, 3, 4)]
    + [("shifter", w, ()) for w in (4, 8)]
    + [
        ("register_file", w, (("registers", r),))
        for w, r in ((1, 4), (2, 4), (2, 8))
    ]
)

#: One clean case: ``(label, circuit, lint options or None)``.
CleanCase = Tuple[str, Circuit, Optional[Mapping[str, object]]]


@dataclass(frozen=True)
class Mutant:
    """A seeded defect and the exact rule set that must catch it."""

    label: str
    circuit: Circuit
    expected: FrozenSet[str]
    options: Optional[Mapping[str, object]] = None


@dataclass(frozen=True)
class Family:
    """One lint family's corpus: the group it runs, the rule-ID prefix a
    mutant's fired set is read from, and its clean cases and mutants
    (built on each call)."""

    name: str
    group: str
    prefix: str
    clean: Callable[[], Iterable[CleanCase]]
    mutants: Callable[[], Iterable[Mutant]]


def corpus_circuits(grid=WIDTH_GRID) -> Iterator[Tuple[str, Circuit]]:
    """Yield ``(label, circuit)`` for every applicable (topology, spec) pair
    in the grid, with golden specs attached via ``generate()``."""
    from ..macros.base import MacroSpec
    from ..macros.registry import default_database
    from ..models.technology import Technology

    tech = Technology()
    database = default_database()
    for macro_type, width, params in grid:
        spec = MacroSpec(macro_type, width, params=params)
        for generator in database.applicable(spec):
            label = f"{generator.name}[{width}]"
            if params:
                label += "".join(f" {k}={v}" for k, v in params)
            yield label, generator.generate(spec, tech)


def grid_cases(grid=WIDTH_GRID) -> Iterator[CleanCase]:
    """The generator corpus as clean cases (default lint options)."""
    for label, circuit in corpus_circuits(grid):
        yield label, circuit, None


def _deferred(module: str, name: str) -> Callable[[], Iterable]:
    """``module.name()``, imported on first call: the mutate modules build
    :class:`Mutant` records, so they import this module, not vice versa."""

    def call():
        return getattr(importlib.import_module(module), name)()

    return call


FAMILIES: Tuple[Family, ...] = (
    Family(
        "symbolic", "symbolic", "SVC4", grid_cases,
        _deferred("repro.lint.symbolic.mutate", "mutants"),
    ),
    Family(
        "electrical", "electrical", "NSA6", grid_cases,
        _deferred("repro.lint.electrical.mutate", "mutants"),
    ),
    Family(
        "solution", "solution", "OPT7",
        _deferred("repro.lint.solution.mutate", "clean"),
        _deferred("repro.lint.solution.mutate", "mutants"),
    ),
)


def run_family(
    family: Family, cache: Optional[RuleResultCache] = None
) -> Tuple[dict, List[LintReport]]:
    """Lint one family's clean cases and mutants.

    Returns the family's JSON record — clean error/warning counts, one
    verdict per mutant, the serialized findings (clean cases first, then
    mutants) and the certificates the clean cases carry — and the lint
    reports in the same order.
    """
    reports: List[LintReport] = []
    certificates: List[dict] = []
    verdicts: List[dict] = []

    def lint(kind: str, label: str, circuit, options) -> LintReport:
        start = time.perf_counter()
        report = lint_circuit(
            circuit, groups=(family.group,), options=options, cache=cache
        )
        elapsed = time.perf_counter() - start
        _, replayed = executed_counts(report.executed)
        cached = f" cached={replayed}" if replayed else ""
        print(
            f"{family.name:10s} {kind:6s} {label:42s} "
            f"errors={len(report.errors)} warnings={len(report.warnings)} "
            f"({elapsed:.2f}s){cached}"
        )
        reports.append(report)
        return report

    for label, circuit, options in family.clean():
        report = lint("clean", label, circuit, options)
        certificate = (options or {}).get("solution", {}).get("certificate")
        if certificate is not None:
            certificates.append(certificate)
        for diag in report.errors:
            print(f"  FAIL {diag.format()}")
    clean = list(reports)

    for mutant in family.mutants():
        report = lint("mutant", mutant.label, mutant.circuit, mutant.options)
        fired = frozenset(
            d.rule_id for d in report.diagnostics
            if d.rule_id.startswith(family.prefix)
        )
        ok = fired == mutant.expected
        print(
            f"  {'ok' if ok else 'FAIL'} expected={','.join(sorted(mutant.expected))} "
            f"fired={','.join(sorted(fired)) or '-'}"
        )
        verdicts.append({
            "label": mutant.label,
            "expected": sorted(mutant.expected),
            "fired": sorted(fired),
            "ok": ok,
        })

    record = {
        "clean": len(clean),
        "clean_errors": sum(len(r.errors) for r in clean),
        "clean_warnings": sum(len(r.warnings) for r in clean),
        "mutants": verdicts,
        "findings": [
            serialize_diagnostic(d) for r in reports for d in r.diagnostics
        ],
        "certificates": certificates,
    }
    return record, reports


def gate_ok(record: Mapping[str, object]) -> bool:
    """A family passes: clean cases error-free and every mutant exact."""
    return record["clean_errors"] == 0 and all(
        verdict["ok"] for verdict in record["mutants"]
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.corpus",
        description=(
            "run the symbolic (SVC4xx), electrical (NSA6xx) and solution "
            "(OPT7xx) rule families over their clean and seeded-mutant "
            "corpora"
        ),
        epilog=(
            "exit codes: 0 = every clean case error-free and every mutant "
            "caught by exactly its expected rules, 1 = gate failed"
        ),
    )
    parser.add_argument(
        "--rule-cache", metavar="FILE",
        help="incremental rule-result cache (JSONL); a warm rerun replays it",
    )
    parser.add_argument(
        "--sarif", metavar="FILE", help="write combined SARIF 2.1.0 log to FILE"
    )
    parser.add_argument(
        "--json-out", metavar="FILE",
        help="dump per-family findings, verdicts, certificates, cache stats",
    )
    args = parser.parse_args(argv)

    cache = RuleResultCache(args.rule_cache) if args.rule_cache else None
    records: Dict[str, dict] = {}
    reports: List[LintReport] = []
    for family in FAMILIES:
        record, family_reports = run_family(family, cache)
        records[family.name] = record
        reports.extend(family_reports)
        exact = sum(1 for v in record["mutants"] if v["ok"])
        print(
            f"{family.name}: {record['clean']} clean "
            f"({record['clean_errors']} error(s), "
            f"{record['clean_warnings']} warning(s)), "
            f"{len(record['mutants'])} mutants ({exact} exact)"
        )

    if cache is not None:
        stats = cache.stats
        print(
            f"rule cache: {stats.replayed}/{stats.invocations} replayed "
            f"({stats.hit_rate:.0%}), {stats.wall_saved_s:.2f}s saved"
        )
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(render_sarif(reports))
        print(f"wrote SARIF log: {args.sarif}")
    if args.json_out:
        payload = {
            "families": records,
            "rule_cache": cache.stats.as_dict() if cache is not None else None,
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote JSON summary: {args.json_out}")

    failed = [name for name, record in records.items() if not gate_ok(record)]
    print(f"corpus: gate failed for {', '.join(failed)}" if failed
          else f"corpus: all {len(records)} families pass")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
