"""Seeded solution mutants for the OPT7xx corpus.

Each builder perturbs one facet of an otherwise-honest solved point —
one replicated width, one dropped coupling claim, one forged cached
certificate — so the corpus gate (:mod:`repro.lint.corpus`) can assert
that every mutant is flagged by exactly its intended OPT rule while no
other rule cross-fires; :func:`clean` yields the honest runs that gate
requires to stay error-free.  The honest base is a real collapsed-sizing
run (:class:`repro.sizing.collapse.RegularityCollapsedSizer` on a per-bit
static ripple adder): mutants are perturbations of genuinely solved and
certified artifacts, not synthetic fixtures.

Rule-isolation conventions (the division of labor OPT701/OPT702/OPT703
are specified to keep):

* width perturbations targeting the *replication* claim (OPT703) are tiny
  (``x1.001``) so the perturbed point stays primal-feasible and OPT701
  stays quiet;
* payloads for mutants not targeting OPT702 pin ``kkt_gap_rel_max`` far
  out of reach — the optimality-gap annotation is mutant-author
  controlled precisely so each mutant exercises one boundary;
* certificate/cache mutants (OPT704/OPT705) carry *only* the artifact
  under audit, no ``widths`` key, so the point-audit rules are inert.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

from ...macros.adder import StaticRippleAdder
from ...macros.base import MacroSpec
from ...models.gates import ModelLibrary
from ...models.technology import Technology
from ...netlist.circuit import Circuit
from ..corpus import CleanCase, Mutant
from .certificate import SolutionCertificate
from .rules import build_solution_options

#: kkt_gap_rel_max used by mutants that must keep OPT702 quiet.
_KKT_QUIET = 1e9


class _SolvedBase(NamedTuple):
    """One honest collapsed-sizing run shared by every mutant builder."""

    circuit: Circuit
    library: ModelLibrary
    spec: object             # DelaySpec
    widths: Dict[str, float]          # certified replicated point
    classes: List[List[str]]          # WL classes the collapse used
    certificate: dict                 # issued certificate payload
    cache_key: str                    # full problem's content address


_BASE_MEMO: Dict[object, _SolvedBase] = {}


def solved_base(tech: Optional[Technology] = None) -> _SolvedBase:
    """Solve (collapsed) and certify the base circuit once per technology.

    The base is an 8-bit per-bit-labeled static ripple adder at its
    nominal delay: small enough to solve in about a second, regular
    enough that the WL collapse finds multi-member classes to perturb.
    """
    memo_key = "default" if tech is None else id(tech)
    tech = tech or Technology()
    memo = _BASE_MEMO.get(memo_key)
    if memo is not None:
        return memo
    from ...sizing.collapse import RegularityCollapsedSizer
    from ...sizing.constraints import DelaySpec
    from ...sizing.engine import SmartSizer, nominal_delay

    circuit = StaticRippleAdder().build(
        MacroSpec("adder", 8, params=(("label_group", 1),)), tech
    )
    library = ModelLibrary(tech)
    # Tight data target + relaxed slope limits: the carry chain ends up
    # timing-bound with slope slack, so the replication mutant has class
    # members whose tiny nudge stays primal-feasible (an area-minimal
    # point under the default limits rides every slope constraint, and
    # then *any* perturbation is a genuine OPT701 violation).
    spec = DelaySpec(
        data=0.9 * nominal_delay(circuit, library),
        max_output_slope=300.0,
        max_internal_slope=700.0,
    )
    collapsed = RegularityCollapsedSizer(circuit, library).size(spec)
    if collapsed.fallback or collapsed.certificate is None:
        raise RuntimeError(
            "solution-mutant base failed to collapse: "
            f"{collapsed.fallback_reason or 'no certificate issued'}"
        )
    base = _SolvedBase(
        circuit=circuit,
        library=library,
        spec=spec,
        widths=dict(collapsed.result.widths),
        classes=[list(c) for c in collapsed.classes],
        certificate=collapsed.certificate.to_payload(),
        cache_key=SmartSizer(circuit, library).cache_key(spec).key,
    )
    _BASE_MEMO[memo_key] = base
    return base


def clean(tech: Optional[Technology] = None) -> Iterator[CleanCase]:
    """Honest collapsed-sizing runs: ``(label, circuit, options)``.

    Each case is a real collapse-solve-replicate-certify pass whose full
    payload — widths, classes, issued certificate, and an honest cache
    entry bound to that certificate — exercises the accept path of every
    OPT rule at once.
    """
    from ...cache.fingerprint import make_entry
    from ...macros.incrementor import RippleIncrementor
    from ...sizing.collapse import RegularityCollapsedSizer
    from ...sizing.constraints import DelaySpec
    from ...sizing.engine import SmartSizer, nominal_delay

    # Case 1: the mutants' own base (memoized — one solve serves both).
    base = solved_base(tech)
    tech = tech or Technology()
    full = SmartSizer(base.circuit, base.library)
    entry = make_entry(
        full.cache_key(base.spec),
        circuit_name=base.circuit.name,
        objective="area",
        spec_data=base.spec.data,
        tolerance=2.0,
        env=base.widths,
        iterations=1,
        area=0.0,
        runtime_s=0.0,
        created_unix=0.0,  # pinned: the options digest must be stable
    )
    options = build_solution_options(
        base.widths, base.spec,
        classes=base.classes,
        certificate=base.certificate,
        cache_entries=[entry],
        certificates={base.cache_key: base.certificate},
    )
    yield base.circuit.name, base.circuit, {"solution": options}

    # Case 2: a per-bit ripple incrementor, collapsed and certified here.
    library = ModelLibrary(tech)
    circuit = RippleIncrementor().build(
        MacroSpec("incrementor", 8, params=(("label_group", 1),)), tech
    )
    spec = DelaySpec(data=nominal_delay(circuit, library))
    collapsed = RegularityCollapsedSizer(circuit, library).size(spec)
    cert = (
        collapsed.certificate.to_payload()
        if isinstance(collapsed.certificate, SolutionCertificate)
        else None
    )
    options = build_solution_options(
        collapsed.result.widths, spec,
        classes=collapsed.classes if not collapsed.fallback else None,
        certificate=cert,
    )
    yield circuit.name, circuit, {"solution": options}


def _mutant(label: str, circuit: Circuit, options: dict, rule: str) -> Mutant:
    return Mutant(label, circuit, frozenset({rule}), {"solution": options})


def _largest_class(base: _SolvedBase) -> List[str]:
    multi = [c for c in base.classes if len(c) > 1]
    if not multi:
        raise RuntimeError("base collapse produced no multi-member class")
    return max(multi, key=len)


def perturbed_replica(tech: Optional[Technology] = None) -> Mutant:
    """One non-representative class member nudged off its representative
    (x1.001) -> OPT703 flags the broken replication claim.

    The victim is chosen so the nudged point stays primal-feasible
    (timing has the engine's 2 ps tolerance; the scan skips members whose
    slope constraints are active) — the replication equality check must
    catch the drift no matter which member carries it, and picking a
    slack one keeps OPT701 quiet by construction.  The payload pins the
    OPT702 threshold out of reach."""
    from .audit import SolutionAudit

    base = solved_base(tech)
    audit = SolutionAudit(base.circuit, base.library, base.spec)
    victim = None
    widths = dict(base.widths)
    for members in sorted(
        [c for c in base.classes if len(c) > 1], key=len, reverse=True
    ):
        candidate = dict(base.widths)
        candidate[members[1]] *= 1.001
        if audit.feasibility(candidate)["ok"]:
            victim, widths = members[1], candidate
            break
    if victim is None:
        raise RuntimeError(
            "no class member tolerates a feasible x1.001 nudge"
        )
    options = build_solution_options(
        widths, base.spec, classes=base.classes,
    )
    options["kkt_gap_rel_max"] = _KKT_QUIET
    return _mutant("perturbed_replica", base.circuit, options, "OPT703")


def dropped_coupling(tech: Optional[Technology] = None) -> Mutant:
    """A representative slice sized as if one cross-slice coupling
    constraint had been dropped from the collapsed GP (its width halved),
    presented via ``representative_env`` -> OPT703 re-measures the full
    circuit at the replicated point and names the violated boundary as
    witness.  The adopted ``widths`` stay the honest certified point, so
    OPT701 (which audits the adopted point, not the claim) stays quiet.
    """
    base = solved_base(tech)
    rep = _largest_class(base)[0]
    options = build_solution_options(
        base.widths, base.spec, classes=base.classes,
        representative_env={rep: base.widths[rep] * 0.5},
    )
    options["kkt_gap_rel_max"] = _KKT_QUIET
    return _mutant("dropped_coupling", base.circuit, options, "OPT703")


def infeasible_point(tech: Optional[Technology] = None) -> Mutant:
    """The widest label of the honest point squeezed down to its lower
    bound -> OPT701 proves the squeezed point no longer implements its
    spec (timing or slope, interval-confirmed where the margin allows).
    No collapse claim rides along, so OPT703 has nothing to audit."""
    base = solved_base(tech)
    widths = dict(base.widths)
    victim = max(widths, key=widths.get)
    widths[victim] = base.circuit.size_table[victim].lower
    options = build_solution_options(widths, base.spec)
    options["kkt_gap_rel_max"] = _KKT_QUIET
    return _mutant("infeasible_point", base.circuit, options, "OPT701")


def oversized_drift(tech: Optional[Technology] = None) -> Mutant:
    """Every width uniformly inflated x1.5 (clamped to its box) — still
    feasible (uniform upsizing only speeds the fixed external loads) but
    far from stationary -> OPT702's certified optimality-gap bound blows
    past the default threshold while OPT701 stays quiet."""
    base = solved_base(tech)
    table = base.circuit.size_table
    widths = {
        name: min(value * 1.5, table[name].upper)
        for name, value in base.widths.items()
    }
    options = build_solution_options(widths, base.spec)
    return _mutant("oversized_drift", base.circuit, options, "OPT702")


def stale_certificate(tech: Optional[Technology] = None) -> Mutant:
    """An honestly-issued certificate presented against a circuit whose
    output loading has since changed -> OPT704 names the drifted facets.
    The payload carries only the certificate (no ``widths``, no cache),
    so every other OPT rule is inert."""
    base = solved_base(tech)
    drifted = StaticRippleAdder().build(
        MacroSpec(
            "adder", 8, output_load=35.0, params=(("label_group", 1),)
        ),
        tech or Technology(),
    )
    options = {"certificate": dict(base.certificate)}
    return _mutant("stale_certificate", drifted, options, "OPT704")


def forged_certificate(tech: Optional[Technology] = None) -> Mutant:
    """A cache entry whose env was tampered with *after* certification —
    the certificate's widths digest no longer matches the entry it would
    admit -> OPT705 rejects the pair as inadmissible.  Payload carries
    only the cache section, so every other OPT rule is inert."""
    base = solved_base(tech)
    env = dict(base.widths)
    env[sorted(env)[0]] *= 1.25
    entry = {
        "key": base.cache_key,
        "circuit_fp": "", "context_fp": "", "spec_fp": "",
        "circuit_name": base.circuit.name,
        "env": {k: round(v, 9) for k, v in env.items()},
        "tolerance": 2.0,
    }
    options = {
        "cache": {
            "entries": [entry],
            "certificates": {base.cache_key: dict(base.certificate)},
        }
    }
    return _mutant("forged_certificate", base.circuit, options, "OPT705")


def mutants(tech: Optional[Technology] = None) -> Iterator[Mutant]:
    """The seeded solution-mutant corpus, labeled with the intended rule."""
    yield perturbed_replica(tech)
    yield dropped_coupling(tech)
    yield infeasible_point(tech)
    yield oversized_drift(tech)
    yield stale_certificate(tech)
    yield forged_certificate(tech)
