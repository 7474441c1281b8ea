"""Macro interface contracts (the summaries behind ``repro lint --hier``).

A contract condenses everything the block-level composition rules
(CTR501–505, :mod:`repro.lint.hier`) need to know about one macro into a
machine-checkable, content-addressed artifact:

* **per-port clock-phase facts** — the DFA301 fixpoint value of each
  primary output and the declared phase of each primary input;
* **per-port monotonicity class** — the DFA302 fixpoint per output;
* **boundary load/drive** — the input-capacitance interval each port
  presents over the macro's sizing box, the assumed output load each
  output was characterized against, and the DFA303 delay/slope intervals
  at each output;
* **funcspec equivalence status** — whether SVC401 proved/tested the
  macro against its golden spec;
* **slice-isomorphism signature** — the SVC405 per-output canonical cone
  hashes;
* **the macro's own flat lint findings**, serialized, so a hierarchical
  run replays them without re-executing a single macro-level rule.

The artifact is keyed by the v2 circuit fingerprint
(:func:`repro.netlist.fingerprint.circuit_fingerprint`) and stored through
:class:`repro.cache.ContractStore`: a contract is valid for exactly the
netlist it summarizes — reuse needs no timestamps, only a fingerprint
match.  ``python -m repro.lint.contracts --store FILE`` characterizes the
whole macro registry (CI's cold pass).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Mapping, Optional, Sequence, Tuple

from .._version import __version__
from ..models.gates import ModelLibrary
from ..netlist.circuit import Circuit
from ..netlist.fingerprint import circuit_fingerprint, facet_fingerprints
from ..obs import trace
from ..obs.log import get_logger
from ..sim.timing import StaticTimingAnalyzer
from .dataflow.interval import box_bounds, box_intervals
from .dataflow.monotone import solve_monotonicity
from .dataflow.phase import solve_phases
from .electrical.model import option as electrical_option
from .electrical.model import port_noise_margin
from .incremental import (
    RuleResultCache,
    options_digest,
    serialize_diagnostic,
)
from .runner import ALL_CIRCUIT_GROUPS, CIRCUIT_GROUPS, lint_circuit
from .symbolic.extract import (
    DEFAULT_EXACT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    extract_cached,
)
from .symbolic.isomorphism import slice_certificate

log = get_logger(__name__)

CONTRACT_FORMAT = "smart-interface-contract/1"

#: Bump when the contract payload below changes shape; CTR504 reports a
#: version mismatch as a stale contract rather than trusting old facts.
#: v2 added the per-port noise facts (``noise_margin`` on inputs,
#: ``noise_inject`` on outputs) that CTR506 composes at block boundaries.
#: v3 stores every bound rounded outward (see :func:`_outward`), so a v2
#: store with round-to-nearest bounds is re-derived, not trusted.
CONTRACT_VERSION = 3

#: Designer input slope assumed when characterizing boundary intervals, ps.
DEFAULT_INPUT_SLOPE = 30.0


def _outward(value: float, digits: int, up: bool) -> float:
    """``value`` at ``digits`` decimals, rounded toward the safe side:
    up for an upper bound (``cap_hi``, ``arr_hi``, ``noise_inject``), down
    for a lower bound or a margin (``cap_lo``, ``arr_lo``,
    ``noise_margin``), so a stored bound never lands inside the true one.
    """
    stored = round(value, digits)
    if up and stored < value:
        stored = round(stored + 10.0 ** -digits, digits)
    elif not up and stored > value:
        stored = round(stored - 10.0 ** -digits, digits)
    return stored


def default_contract_options() -> dict:
    """The symbolic options the registry characterizer uses by default.

    Consumers that want to *reuse* registry-built contracts (``repro lint
    --hier``) must derive under the same options, or CTR504 will flag an
    options-digest mismatch and force a re-derivation.
    """
    return {
        "symbolic_exact_budget": DEFAULT_EXACT_BUDGET,
        "symbolic_samples": DEFAULT_SAMPLES,
        "symbolic_seed": DEFAULT_SEED,
    }


def macro_identity(topology: str, spec) -> str:
    """The stable identity a contract claims, independent of sizing edits.

    Used by CTR504: when an instantiated circuit's fingerprint misses the
    store but a contract with the same identity exists, the macro was
    edited after characterization (stale), as opposed to never
    characterized at all.
    """
    parts = [topology, f"w{spec.width}", f"L{spec.output_load:g}"]
    params = getattr(spec, "params", None) or ()
    pairs = params.items() if isinstance(params, Mapping) else params
    for key, value in sorted(pairs):
        parts.append(f"{key}={value!r}")
    return "|".join(parts)


def derive_contract(
    circuit: Circuit,
    library: Optional[ModelLibrary] = None,
    *,
    identity: Optional[str] = None,
    groups: Optional[Sequence[str]] = None,
    options: Optional[Mapping[str, object]] = None,
    input_slope: float = DEFAULT_INPUT_SLOPE,
    rule_cache: Optional[RuleResultCache] = None,
) -> dict:
    """Characterize one macro circuit into a serialized interface contract.

    ``groups`` defaults to every circuit group — including ``symbolic``
    when a functional spec is attached (matching the advisor gate), so the
    contract's findings are the full flat-lint verdict for the macro.
    ``rule_cache`` threads the incremental engine through the inner lint
    run: re-deriving after a facet-local edit re-executes only the rules
    whose declared facets changed.
    """
    library = library or ModelLibrary()
    if groups is None:
        groups = (
            ALL_CIRCUIT_GROUPS
            if getattr(circuit, "functional_spec", None) is not None
            else CIRCUIT_GROUPS
        )
    t_start = time.perf_counter()
    with trace.span("derive_contract", circuit=circuit.name):
        report = lint_circuit(
            circuit, groups=groups, options=options, cache=rule_cache
        )
        phases = solve_phases(circuit).values
        monos = solve_monotonicity(circuit).values
        analyzer = None
        timing = {}
        try:
            timing = box_intervals(circuit, library, input_slope).values
            analyzer = StaticTimingAnalyzer(circuit, library)
        except Exception as exc:  # timing models absent for exotic stages
            log.warning(
                "contract %s: interval characterization skipped (%s)",
                circuit.name, exc,
            )

        clocks = set(circuit.clock_nets())
        ports = {}
        for name in sorted(circuit.primary_inputs):
            if name in clocks:
                continue
            port = {
                "direction": "in",
                "declared_phase": circuit.input_phase(name),
            }
            if analyzer is not None:
                try:
                    cap_lo, cap_hi = analyzer.load_posynomial(name).enclose(
                        box_bounds(circuit)
                    )
                    port["cap_lo"] = _outward(cap_lo, 9, up=False)
                    port["cap_hi"] = _outward(cap_hi, 9, up=True)
                except Exception:
                    pass
            try:
                margin = port_noise_margin(circuit, name, options=options)
            except Exception:
                margin = None
            if margin is not None:
                port["noise_margin"] = _outward(margin, 6, up=False)
            ports[name] = port
        for name in sorted(circuit.primary_outputs):
            pv = phases.get(name)
            mono = monos.get(name)
            port = {
                "direction": "out",
                "phase": pv.phase.value if pv is not None else None,
                "phase_depth": pv.depth if pv is not None else 0,
                "mono": mono.value if mono is not None else None,
                "load_budget": circuit.net(name).external_load,
            }
            value = timing.get(name)
            if value is not None and value.reached and not value.widened:
                port["arr_lo"] = _outward(value.arr_lo, 6, up=False)
                port["arr_hi"] = _outward(value.arr_hi, 6, up=True)
                port["slope_lo"] = _outward(value.slope_lo, 6, up=False)
                port["slope_hi"] = _outward(value.slope_hi, 6, up=True)
            slope_ref = electrical_option(options, "electrical_slope_ref")
            slope_lo = port.get("slope_lo")
            inject = (
                min(1.0, slope_ref / slope_lo)
                if slope_lo and slope_lo > 0 else 1.0
            )
            port["noise_inject"] = _outward(inject, 6, up=True)
            ports[name] = port

        spec = getattr(circuit, "functional_spec", None)
        if spec is None:
            funcspec = {"status": "none"}
        elif "symbolic" not in groups:
            funcspec = {"status": "unchecked", "golden": spec.golden}
        else:
            opts = options or {}
            extraction = extract_cached(
                circuit,
                spec,
                exact_budget=int(
                    opts.get("symbolic_exact_budget", DEFAULT_EXACT_BUDGET)
                ),
                samples=int(opts.get("symbolic_samples", DEFAULT_SAMPLES)),
                seed=int(opts.get("symbolic_seed", DEFAULT_SEED)),
            )
            if extraction.mismatches or extraction.undefined:
                status = "failed"
            else:
                status = extraction.verdict  # "proved" | "tested"
            funcspec = {
                "status": status,
                "golden": spec.golden,
                "assignments": extraction.n_assignments,
            }

        cert = slice_certificate(circuit)

    return {
        "format": CONTRACT_FORMAT,
        "version": CONTRACT_VERSION,
        "fingerprint": circuit_fingerprint(circuit),
        "facets": facet_fingerprints(circuit),
        "identity": identity or circuit.name,
        "name": circuit.name,
        "clock": circuit.clock,
        "ports": ports,
        "funcspec": funcspec,
        "slice_signature": dict(sorted(cert.cone_hash.items())),
        "findings": [serialize_diagnostic(d) for d in report.diagnostics],
        "rules": [rule_id for rule_id, _, _ in report.executed],
        "groups": sorted(groups),
        "options_digest": options_digest(options),
        "tool_version": __version__,
        "wall_s": round(time.perf_counter() - t_start, 6),
    }


def build_registry_contracts(
    store,
    library: Optional[ModelLibrary] = None,
    *,
    grid: Optional[Sequence[Tuple[str, int, Sequence]]] = None,
    options: Optional[Mapping[str, object]] = None,
    changed_only: bool = False,
    macro: Optional[str] = None,
) -> dict:
    """Characterize the macro registry into ``store``.

    Iterates a topology × width grid of ``(macro, width, params)``
    triples, by default the lint corpus's
    :data:`~repro.lint.corpus.WIDTH_GRID`; with ``changed_only`` circuits
    whose fingerprints already have a matching contract (same version and
    options) are skipped.  Returns summary stats:
    ``{"derived": n, "reused": n, "wall_s": s}``.
    """
    from .corpus import WIDTH_GRID, corpus_circuits

    library = library or ModelLibrary()
    opts_digest = options_digest(options)
    rule_cache = RuleResultCache()
    derived = reused = 0
    t_start = time.perf_counter()
    for label, circuit in corpus_circuits(grid or WIDTH_GRID):
        if macro and not label.startswith(macro):
            continue
        if changed_only:
            prior = store.get(circuit_fingerprint(circuit))
            if (
                prior is not None
                and prior.get("version") == CONTRACT_VERSION
                and prior.get("options_digest") == opts_digest
            ):
                reused += 1
                continue
        contract = derive_contract(
            circuit,
            library,
            identity=label,
            options=options,
            rule_cache=rule_cache,
        )
        store.put(contract)
        derived += 1
    return {
        "derived": derived,
        "reused": reused,
        "rule_cache": rule_cache.stats.as_dict(),
        "wall_s": round(time.perf_counter() - t_start, 6),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: characterize the macro registry into a contract store."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.contracts",
        description="Build interface contracts for the macro registry.",
    )
    parser.add_argument("--store", required=True, help="contract JSONL file")
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="skip circuits whose contracts are already current",
    )
    parser.add_argument("--macro", help="only topologies with this prefix")
    parser.add_argument(
        "--exact-budget", type=int, default=DEFAULT_EXACT_BUDGET,
        help="symbolic exact-enumeration input budget",
    )
    parser.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES,
        help="symbolic samples beyond the exact budget",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)

    from ..cache.contracts import ContractStore

    store = ContractStore(args.store)
    options = {
        "symbolic_exact_budget": args.exact_budget,
        "symbolic_samples": args.samples,
        "symbolic_seed": args.seed,
    }
    stats = build_registry_contracts(
        store,
        options=options,
        changed_only=args.changed_only,
        macro=args.macro,
    )
    print(
        f"contracts: {stats['derived']} derived, {stats['reused']} reused, "
        f"{len(store)} in store ({stats['wall_s']:.1f}s)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
