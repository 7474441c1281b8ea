"""``repro.lint`` — rule-based static analysis for circuits, constraints,
and GP models.

A flake8-style rule engine over the reproduction's three correctness
surfaces:

* **structural/family ERC** (``ERC0xx``/``ERC1xx``) — electrical rule checks
  on :class:`~repro.netlist.circuit.Circuit` objects, from basic netlist
  hygiene up to the Section-4 circuit-family semantics (domino monotonicity,
  D1/D2 ordering, charge sharing, pass-gate chains, mutex discipline);
* **constraint coverage** (``CST1xx``) — independent re-verification of the
  Section-5.2 pruning certificate, proving every extracted path is still
  covered by a surviving constrained path;
* **dataflow** (``DFA3xx``) — whole-circuit abstract interpretation
  (:mod:`repro.lint.dataflow`): clock-phase and monotonicity propagation
  closing the ERC10x rules' local-cone blind spots, plus the interval-STA
  pre-GP feasibility prover (:func:`screen_feasibility`);
* **symbolic verification** (``SVC4xx``) — switch-level symbolic analysis
  (:mod:`repro.lint.symbolic`): functional equivalence against golden
  macro specs, drive-fight/sneak-path proofs, floating-node detection and
  bit-slice isomorphism certification.  Opt-in (``repro lint --symbolic``
  or ``groups=("symbolic",)``) because it enumerates the input space;
* **GP pre-solve** (``GP2xx``) — well-formedness and feasibility screening
  of a :class:`~repro.sizing.gp.GeometricProgram` before the solver runs;
* **interface contracts** (``CTR5xx``) — hierarchical block analysis
  (:mod:`repro.lint.hier`): per-macro contracts
  (:mod:`repro.lint.contracts`) composed at block level instead of
  flattening, with content-addressed incremental re-verification
  (:mod:`repro.lint.incremental`) and a sampled contract-vs-flat
  soundness audit;
* **electrical safety** (``NSA6xx``) — quantitative post-sizing noise
  analysis (:mod:`repro.lint.electrical`): charge-sharing certificates
  over the SVC channel graph, keeper ratioed-fight/restore proofs,
  pass-chain Elmore budgets, and coupling-interval screens, each
  evaluated at a point sizing or soundly over the whole sizing box.
  Opt-in (``repro lint --electrical`` or ``groups=("electrical",)``)
  because it consumes the sizing output.

Every diagnostic carries a stable rule ID, a severity, and a per-net /
per-stage location; waiver files suppress known-acceptable findings.  The
package is wired in three places: :func:`repro.netlist.validate.validate_circuit`
(the structural group), the advisor's pre-sizing gate, and the engine's GP
gate — plus the ``repro lint`` CLI subcommand.

Import note: this package intentionally imports only ``repro.netlist.*``
submodules and ``repro.posy``.  :mod:`repro.lint.coverage` additionally
imports :mod:`repro.sizing.pruning` and therefore must be imported lazily
by anything reachable from ``repro.sizing.__init__``.
"""

from .contracts import build_registry_contracts, derive_contract, macro_identity
from .dataflow import ForwardAnalysis, SolveResult, solve_forward
from .dataflow.interval import IntervalScreenResult, screen_feasibility
from .diagnostics import Diagnostic, LintError, LintReport, Location, Severity
from .electrical import (
    ChargeShareCert,
    CouplingCert,
    ElectricalScreen,
    KeeperCert,
    PassChainCert,
    charge_share_certificates,
    coupling_certificates,
    keeper_certificates,
    pass_chain_certificates,
    port_noise_margin,
    screen_electrical,
    worst_noise_margin,
)
from .hier import (
    HierBlock,
    HierConnection,
    HierInstance,
    HierLintResult,
    flatten,
    hier_from_block,
    lint_hier,
)
from .incremental import RuleCacheStats, RuleResultCache
from .registry import Rule, all_rules, get_rule, rules_in_groups
from .reporters import render_json, render_sarif, render_text, sarif_dict
from .runner import ALL_CIRCUIT_GROUPS, CIRCUIT_GROUPS, lint_circuit
from .rules_gp import lint_gp
from .waivers import Waiver, load_waivers, parse_waivers

__all__ = [
    "ALL_CIRCUIT_GROUPS",
    "CIRCUIT_GROUPS",
    "ChargeShareCert",
    "CouplingCert",
    "Diagnostic",
    "ElectricalScreen",
    "HierBlock",
    "HierConnection",
    "HierInstance",
    "HierLintResult",
    "KeeperCert",
    "PassChainCert",
    "RuleCacheStats",
    "RuleResultCache",
    "ForwardAnalysis",
    "IntervalScreenResult",
    "LintError",
    "LintReport",
    "Location",
    "Rule",
    "Severity",
    "SolveResult",
    "Waiver",
    "all_rules",
    "build_registry_contracts",
    "charge_share_certificates",
    "coupling_certificates",
    "derive_contract",
    "flatten",
    "get_rule",
    "hier_from_block",
    "keeper_certificates",
    "lint_circuit",
    "lint_gp",
    "lint_hier",
    "load_waivers",
    "macro_identity",
    "parse_waivers",
    "pass_chain_certificates",
    "port_noise_margin",
    "render_json",
    "render_sarif",
    "render_text",
    "rules_in_groups",
    "sarif_dict",
    "screen_electrical",
    "screen_feasibility",
    "solve_forward",
    "worst_noise_margin",
]
