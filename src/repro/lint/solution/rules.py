"""OPT7xx — post-solve solution-certificate rules (DESIGN §13).

The rules run in the opt-in ``solution`` group and are inert unless the
per-run options carry a ``"solution"`` payload describing the solved point
under audit (see :func:`build_solution_options`).  Because the payload
rides in the options mapping — which is part of the incremental rule-cache
key — a warm rerun over the same circuit and the same solved point replays
every finding byte-identically, while any change to the point, the spec,
or a declared facet re-executes exactly the affected rules.

Division of labor (the mutants in :mod:`repro.lint.solution.mutate` pin
each boundary down):

* OPT701 audits the *adopted point* — the widths the payload claims.
* OPT702 grades the point's first-order optimality (quantitative bound).
* OPT703 audits the *replication claim* — classes plus representative
  widths — independently of whether the adopted point itself is feasible.
* OPT704 audits a *certificate's freshness* against the live circuit.
* OPT705 audits *cache entries'* certificates (the admission predicate
  the engine's fast path uses, run as lint).
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..diagnostics import Severity
from ..registry import rule
from .certificate import check_certificate

#: Severity threshold for the OPT702 relative optimality-gap bound; the
#: payload key ``kkt_gap_rel_max`` overrides it per run.
DEFAULT_KKT_GAP_REL_MAX = 1.0


def build_solution_options(
    widths: Mapping[str, float],
    spec,
    tolerance: float = 2.0,
    objective: str = "area",
    otb_borrow: float = 0.0,
    classes=None,
    representative_env: Optional[Mapping[str, float]] = None,
    certificate: Optional[Mapping[str, object]] = None,
    cache_entries=None,
    certificates: Optional[Mapping[str, Mapping[str, object]]] = None,
    technology: Optional[Mapping[str, float]] = None,
) -> dict:
    """The JSON-plain ``options["solution"]`` payload the OPT rules read.

    Everything is rounded/plain so that the options digest — and therefore
    the incremental rule-cache key — is stable across processes.
    """
    spec_fields = {}
    for name in (
        "data", "control", "evaluate", "precharge", "phase_budget",
        "input_slope", "max_output_slope", "max_internal_slope",
        "charge_sharing_ratio",
    ):
        value = getattr(spec, name, None)
        if value is not None:
            spec_fields[name] = round(float(value), 9)
    payload: dict = {
        "widths": {
            str(k): round(float(v), 9) for k, v in dict(widths).items()
        },
        "spec": spec_fields,
        "tolerance": round(float(tolerance), 9),
        "objective": str(objective),
        "otb_borrow": round(float(otb_borrow), 9),
    }
    if classes:
        payload["collapse"] = {
            "classes": [[str(m) for m in c] for c in classes],
        }
        if representative_env is not None:
            payload["collapse"]["representative_env"] = {
                str(k): round(float(v), 9)
                for k, v in dict(representative_env).items()
            }
    if certificate is not None:
        payload["certificate"] = dict(certificate)
    if cache_entries is not None or certificates is not None:
        payload["cache"] = {
            "entries": [dict(e) for e in (cache_entries or [])],
            "certificates": {
                str(k): dict(v) for k, v in (certificates or {}).items()
            },
        }
    if technology is not None:
        payload["technology"] = {
            str(k): float(v) for k, v in dict(technology).items()
        }
    return payload


def _payload(ctx) -> Optional[Mapping[str, object]]:
    payload = ctx.options.get("solution") if ctx.options else None
    return payload if isinstance(payload, Mapping) else None


def _audit(ctx, payload):
    """A :class:`SolutionAudit` for the payload's spec (lazy import: the
    audit pulls in the sizing engine)."""
    from ...models.gates import ModelLibrary
    from ...models.technology import Technology
    from ...sizing.constraints import DelaySpec
    from .audit import SolutionAudit

    tech_fields = payload.get("technology")
    try:
        tech = (
            Technology(**dict(tech_fields))
            if isinstance(tech_fields, Mapping) else Technology()
        )
    except TypeError:
        tech = Technology()
    spec_fields = {
        str(k): float(v)
        for k, v in dict(payload.get("spec", {})).items()
    }
    if "data" not in spec_fields:
        return None
    return SolutionAudit(
        ctx.circuit,
        ModelLibrary(tech),
        DelaySpec(**spec_fields),
        tolerance=float(payload.get("tolerance", 2.0)),
        otb_borrow=float(payload.get("otb_borrow", 0.0)),
        objective=str(payload.get("objective", "area")),
    )


def _emit_violations(ctx, violations, severity=None) -> None:
    for violation in violations:
        ctx.emit(
            str(violation.get("message", "")),
            stage=violation.get("stage"),
            net=violation.get("net"),
            severity=severity,
        )


@rule(
    "OPT701",
    "solved-point primal feasibility",
    "solution",
    Severity.ERROR,
    facets=("topology", "sizing", "phases"),
)
def opt701_primal_feasibility(ctx) -> None:
    """Re-derive primal feasibility of every GP constraint at the solved
    point, independent of the solver's residual claims: timing constraints
    are re-measured with a fresh full STA (true slope propagation) and
    cross-checked with outward-rounded interval evaluation of their GP
    delay posynomials at the designer input slope; slope/noise constraints
    and device bounds are interval-checked directly.  A finding is a width
    assignment that provably does not implement its claimed spec."""
    payload = _payload(ctx)
    if payload is None or "widths" not in payload:
        return
    audit = _audit(ctx, payload)
    if audit is None:
        return
    verdict = audit.feasibility(payload["widths"])
    _emit_violations(ctx, verdict["violations"])


@rule(
    "OPT702",
    "KKT stationarity / optimality-gap bound",
    "solution",
    Severity.WARNING,
    facets=("topology", "sizing", "phases"),
)
def opt702_kkt_gap(ctx) -> None:
    """Fit nonnegative multipliers over the active constraints of the
    log-space convex transform at the solved point and bound the optimality
    gap (see ``SolutionAudit.kkt`` for the convexity argument).  Warns when
    the certified relative gap exceeds ``kkt_gap_rel_max`` (default 100%) —
    the point is feasible but far from provably optimal, e.g. a stale warm
    start that a later solve should refresh."""
    payload = _payload(ctx)
    if payload is None or "widths" not in payload:
        return
    audit = _audit(ctx, payload)
    if audit is None:
        return
    verdict = audit.kkt(payload["widths"])
    _emit_violations(ctx, verdict["violations"])
    gap_rel = verdict.get("gap_rel")
    limit = float(payload.get("kkt_gap_rel_max", DEFAULT_KKT_GAP_REL_MAX))
    if gap_rel is None and verdict.get("ok"):
        ctx.emit(
            "optimality-gap bound overflowed (point is numerically far "
            "from stationary)"
        )
    elif gap_rel is not None and gap_rel > limit:
        ctx.emit(
            f"certified optimality gap bound {gap_rel:.1%} exceeds "
            f"{limit:.0%} (stationarity residual "
            f"{verdict.get('stationarity_residual')}, "
            f"{verdict.get('active_constraints')} active constraints)"
        )


@rule(
    "OPT703",
    "replication soundness",
    "solution",
    Severity.ERROR,
    facets=("topology", "sizing", "phases"),
)
def opt703_replication(ctx) -> None:
    """Prove that copying each class representative's widths across its
    slice-equivalence class satisfies all cross-slice boundary coupling
    constraints: the full original circuit is re-measured at the
    replicated point (interval-STA style), and the first violated
    constraint is named as the witness boundary.  Also flags a claimed
    assignment that is not actually replicated (a class member deviating
    from its representative)."""
    payload = _payload(ctx)
    if payload is None or "widths" not in payload:
        return
    collapse = payload.get("collapse")
    if not isinstance(collapse, Mapping):
        return
    classes = collapse.get("classes") or []
    if not classes:
        return
    audit = _audit(ctx, payload)
    if audit is None:
        return
    verdict = audit.replication(
        payload["widths"],
        classes,
        representative_env=collapse.get("representative_env"),
    )
    _emit_violations(ctx, verdict["violations"])


@rule(
    "OPT704",
    "certificate staleness",
    "solution",
    Severity.WARNING,
)
def opt704_staleness(ctx) -> None:
    """Compare a certificate's recorded facet fingerprints against the live
    circuit's.  A stale certificate is not necessarily wrong — the facet
    that moved may be irrelevant to its bindings — but it must not be
    honored without re-verification, so the finding names exactly the
    facets that drifted."""
    payload = _payload(ctx)
    if payload is None:
        return
    certificate = payload.get("certificate")
    if not isinstance(certificate, Mapping):
        return
    from ...netlist.fingerprint import facet_fingerprints

    live = facet_fingerprints(ctx.circuit)
    recorded = certificate.get("facets")
    if not isinstance(recorded, Mapping):
        ctx.emit("certificate carries no facet fingerprints")
        return
    stale = sorted(
        name for name in live if recorded.get(name) != live[name]
    )
    if stale:
        ctx.emit(
            f"certificate for {certificate.get('circuit', '?')} is stale: "
            f"facet(s) {', '.join(stale)} changed since issue — "
            f"re-verify before honoring it"
        )


@rule(
    "OPT705",
    "cache-entry certificate audit",
    "solution",
    Severity.ERROR,
    facets=("topology", "sizing"),
)
def opt705_cache_audit(ctx) -> None:
    """Run the engine's certificate-admission predicate over cache entries
    as lint: every entry that carries a certificate must pass all of its
    bindings (problem key, widths digest, verdict flag, residual vs the
    entry's tolerance).  A failing pair is a forged or tampered
    certificate — admitting it would skip the STA re-verification on a
    point nobody ever verified.  Entries *without* a certificate are fine
    (they fall back to the full STA re-check)."""
    payload = _payload(ctx)
    if payload is None:
        return
    cache = payload.get("cache")
    if not isinstance(cache, Mapping):
        return
    certificates = cache.get("certificates") or {}
    for entry in cache.get("entries") or []:
        if not isinstance(entry, Mapping):
            continue
        key = str(entry.get("key", ""))
        certificate = certificates.get(key)
        if certificate is None:
            continue
        ok, reason = check_certificate(
            certificate,
            key=key,
            env=entry.get("env"),
            tolerance=float(entry.get("tolerance", 2.0)),
        )
        if not ok:
            ctx.emit(
                f"cache entry {key[:12]}… for "
                f"{entry.get('circuit_name', '?')} carries an inadmissible "
                f"certificate: {reason}"
            )
