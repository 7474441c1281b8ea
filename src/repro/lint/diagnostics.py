"""Diagnostic primitives: severities, locations, findings, reports."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Severity(enum.IntEnum):
    """Diagnostic severity.  Ordered so ``max()`` picks the worst."""

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error" / "warning" in reports
        return self.name.lower()


@dataclass(frozen=True)
class Location:
    """Where in a design a finding lives.

    Any subset of the fields may be set; ``str()`` renders the most specific
    description available (``stage m0 pin s``, ``net carry7``, ``constraint
    path12:data`` ...).  An all-``None`` location renders as the empty
    string, for circuit-global findings.
    """

    stage: Optional[str] = None
    net: Optional[str] = None
    pin: Optional[str] = None
    constraint: Optional[str] = None

    def __str__(self) -> str:
        parts = []
        if self.stage is not None:
            parts.append(f"stage {self.stage}")
        if self.net is not None:
            parts.append(f"net {self.net}")
        if self.pin is not None:
            parts.append(f"pin {self.pin}")
        if self.constraint is not None:
            parts.append(f"constraint {self.constraint}")
        return " ".join(parts)

    @property
    def empty(self) -> bool:
        return str(self) == ""


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule ID, a severity, a location, and a message."""

    rule_id: str
    severity: Severity
    message: str
    location: Location = Location()
    waived: bool = False

    @property
    def text(self) -> str:
        """Location-prefixed message — the legacy ``ValidationReport``
        string shape (``net x: loaded but undriven``)."""
        loc = str(self.location)
        return f"{loc}: {self.message}" if loc else self.message

    def format(self) -> str:
        """One flake8-style report line."""
        tag = " (waived)" if self.waived else ""
        return f"{self.rule_id} {self.severity}{tag}: {self.text}"

    def with_waived(self) -> "Diagnostic":
        return Diagnostic(
            self.rule_id, self.severity, self.message, self.location, True
        )


class LintError(ValueError):
    """Raised by :meth:`LintReport.raise_if_failed`.

    Subclasses :class:`ValueError` so callers of the legacy
    ``validate_circuit(...).raise_if_failed()`` keep working.
    """

    def __init__(self, message: str, report: "LintReport"):
        super().__init__(message)
        self.report = report


@dataclass
class LintReport:
    """All diagnostics from one lint run over one subject."""

    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Per-rule execution log: ``(rule_id, wall_s, status)`` where status is
    #: ``"executed"`` (checker ran) or ``"replayed"`` (served from the
    #: incremental cache or a contract).  The raw material of the hit-rate
    #: accounting in CI's cold/warm hier-lint passes.
    executed: List[Tuple[str, float, str]] = field(default_factory=list)
    #: Facet fingerprints an incremental run keyed its rules on (``None``
    #: without a result cache); callers reuse them instead of re-hashing.
    facets: Optional[Dict[str, str]] = None

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.executed.extend(other.executed)

    # -- views ---------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics
            if d.severity is Severity.ERROR and not d.waived
        ]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics
            if d.severity is Severity.WARNING and not d.waived
        ]

    @property
    def waived(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.waived]

    @property
    def ok(self) -> bool:
        """No unwaived errors (warnings do not fail a run)."""
        return not self.errors

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    def raise_if_failed(self) -> None:
        if not self.ok:
            lines = [d.format() for d in self.errors]
            raise LintError(
                f"{self.subject or 'design'} failed lint "
                f"({len(lines)} error(s)):\n" + "\n".join(lines),
                self,
            )
