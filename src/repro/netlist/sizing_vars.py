"""Size-variable labeling.

Section 4 of the paper: schematics in the SMART database are *unsized* —
transistors carry size *labels* (P1, N1, N2, ...).  Labeling encodes the
designer's regularity/layout intent: every transistor with the same label gets
the same width, and the GP sees one variable per label.  Some devices are tied
to another label by a fixed ratio (e.g. "the size of the inverter in the
pass-gate is a fixed relation of N2"), and the designer may *pin* a label to a
manual size ("the designer should be allowed to control transistor sizes of
portions of the macro while letting the automatic sizer size the rest").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from ..posy import Monomial, const, var

#: Width box, µm, of a variable no size label declares: the geometric
#: program's default bounds, and the box interval analyses assume for it.
DEFAULT_BOUNDS: Tuple[float, float] = (1e-3, 1e6)


@dataclass
class SizeVar:
    """One size label.

    Attributes
    ----------
    name:
        The label, e.g. ``"P1"`` (unique within a circuit).
    lower, upper:
        Width bounds in µm (device size constraints of Figure 4).
    pinned:
        When set, the designer fixed this label to a width; the sizer must not
        change it.
    ratio_of:
        ``(other_label, factor)`` — this label's width is always
        ``factor * width(other_label)`` and it is not a free GP variable.
    """

    name: str
    lower: float = 0.4
    upper: float = 200.0
    pinned: Optional[float] = None
    ratio_of: Optional[Tuple[str, float]] = None

    def __post_init__(self) -> None:
        if not 0 < self.lower <= self.upper:
            raise ValueError(f"bad bounds for {self.name}: [{self.lower}, {self.upper}]")
        if self.pinned is not None and not self.lower <= self.pinned <= self.upper:
            raise ValueError(
                f"pinned width {self.pinned} for {self.name} outside "
                f"[{self.lower}, {self.upper}]"
            )
        if self.pinned is not None and self.ratio_of is not None:
            raise ValueError(f"{self.name}: cannot be both pinned and a ratio")

    @property
    def free(self) -> bool:
        """True when the GP may choose this label's width."""
        return self.pinned is None and self.ratio_of is None


class SizeTable:
    """Registry of all size labels of a circuit.

    The table resolves a *free-variable assignment* (what the GP returns) into
    concrete widths for every label, following ratio ties and pins, and
    produces the monomial each label contributes to posynomial models.
    """

    def __init__(self) -> None:
        self._vars: Dict[str, SizeVar] = {}

    def add(self, size_var: SizeVar) -> SizeVar:
        existing = self._vars.get(size_var.name)
        if existing is not None:
            if (existing.lower, existing.upper, existing.pinned, existing.ratio_of) != (
                size_var.lower,
                size_var.upper,
                size_var.pinned,
                size_var.ratio_of,
            ):
                raise ValueError(f"conflicting redefinition of size label {size_var.name}")
            return existing
        if size_var.ratio_of is not None and size_var.ratio_of[0] == size_var.name:
            raise ValueError(f"{size_var.name}: ratio tie to itself")
        self._vars[size_var.name] = size_var
        return size_var

    def declare(
        self,
        name: str,
        lower: float = 0.4,
        upper: float = 200.0,
        pinned: Optional[float] = None,
        ratio_of: Optional[Tuple[str, float]] = None,
    ) -> SizeVar:
        """Shorthand for :meth:`add`."""
        return self.add(SizeVar(name, lower, upper, pinned, ratio_of))

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def __getitem__(self, name: str) -> SizeVar:
        return self._vars[name]

    def __iter__(self) -> Iterator[SizeVar]:
        return iter(self._vars.values())

    def __len__(self) -> int:
        return len(self._vars)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._vars)

    def state(self) -> Tuple[Tuple[str, Optional[float], Optional[Tuple[str, float]]], ...]:
        """``(name, pinned, ratio_of)`` per label: everything a designer pin
        or a regularity tie changes, the key of per-circuit memos derived
        from the table."""
        return tuple((v.name, v.pinned, v.ratio_of) for v in self._vars.values())

    def free_names(self) -> Tuple[str, ...]:
        """Labels the GP optimizes over."""
        return tuple(v.name for v in self._vars.values() if v.free)

    def pin(self, name: str, width: float) -> None:
        """Designer override: fix label ``name`` at ``width`` µm."""
        old = self._vars[name]
        self._vars[name] = SizeVar(name, old.lower, old.upper, pinned=width)

    def unpin(self, name: str) -> None:
        old = self._vars[name]
        self._vars[name] = SizeVar(name, old.lower, old.upper)

    def monomial(self, name: str) -> Monomial:
        """The width of label ``name`` as a monomial in *free* variables.

        Pinned labels become constants; ratio-tied labels become scaled
        monomials of their base label (chasing chains of ties).
        """
        seen = set()
        factor = 1.0
        current = self._vars[name]
        while True:
            if current.name in seen:
                raise ValueError(f"circular ratio tie involving {current.name}")
            seen.add(current.name)
            if current.pinned is not None:
                return const(factor * current.pinned)
            if current.ratio_of is None:
                return factor * var(current.name) if factor != 1.0 else var(current.name)
            base, ratio = current.ratio_of
            if base not in self._vars:
                raise KeyError(f"{current.name} is a ratio of undeclared label {base}")
            factor *= ratio
            current = self._vars[base]

    def resolve(self, free_env: Mapping[str, float]) -> Dict[str, float]:
        """Widths for *every* label given the free-variable assignment."""
        widths: Dict[str, float] = {}
        for size_var in self._vars.values():
            mono = self.monomial(size_var.name)
            widths[size_var.name] = mono.evaluate(free_env)
        return widths

    def default_env(self) -> Dict[str, float]:
        """A feasible starting assignment: geometric mean of each free label's
        bounds (a conventional GP initial point)."""
        env = {}
        for size_var in self._vars.values():
            if size_var.free:
                env[size_var.name] = (size_var.lower * size_var.upper) ** 0.5
        return env

    def minimum_env(self) -> Dict[str, float]:
        """All free labels at their lower bound."""
        return {v.name: v.lower for v in self._vars.values() if v.free}

    def merge(self, other: "SizeTable") -> None:
        """Union another table into this one (identical duplicates allowed)."""
        for size_var in other:
            self.add(size_var)

    def regularity_signature(self, names: Tuple[str, ...]) -> Tuple[str, ...]:
        """Canonical signature of a tuple of labels, resolving ratio ties to
        their base label.  Stages with equal signatures are *identical nodes*
        in the paper's regularity sense (Section 5.2)."""
        resolved = []
        for name in names:
            current = self._vars[name]
            seen = set()
            while current.ratio_of is not None and current.name not in seen:
                seen.add(current.name)
                current = self._vars[current.ratio_of[0]]
            resolved.append(current.name)
        return tuple(resolved)
