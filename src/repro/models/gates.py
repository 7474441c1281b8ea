"""Posynomial delay/slope/capacitance templates per stage kind.

This is the "library of models" box of Figure 4.  Section 5.1 fixes the
template shape:

    t_rise      = f(t_int, t_in_slope, C_ext, W)      (1)
    t_out_slope = g(t_in_slope, C_ext, W)             (2)

with ``f`` and ``g`` posynomial.  Our instantiation is an Elmore/logical-effort
form::

    delay  = ln2 . R(W) . (C_par(W) + C_load)  +  k_s . t_in_slope
    slope  = slope_gain . R(W) . (C_par(W) + C_load)  +  SLOPE_LEAK . t_in_slope

where ``R`` is the switching resistance of the pull network engaged by the
transition (a monomial ``1/W`` term) and ``C_par`` the stage's own output
diffusion (a posynomial in the stage's labels).  The models below build the
first term of each line; the ``t_in_slope`` terms are the *hop rule*, applied
in one place for every consumer (:mod:`repro.sim.timing`).  The GP chains
``t_in_slope`` posynomially along each path from the designer's input slope;
the timing analyzer measures the slopes sibling paths really deliver, and
the Figure-4 outer loop retargets budgets on the mismatch — which is exactly
why the paper's models "need not be exact".

All functions return :class:`~repro.posy.Posynomial` objects over size-label
variables, resolved through the circuit's size table so pinned/ratio-tied
labels collapse correctly.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Optional, Tuple

from ..netlist.nets import Pin, PinClass
from ..netlist.sizing_vars import SizeTable
from ..netlist.stages import Stage, StageKind
from ..posy import Posynomial, as_posynomial
from ..posy.express import Expression
from .technology import Technology

LN2 = math.log(2.0)

#: Fraction of a stage's input transition time that leaks into its output
#: transition (equation (2)'s ``t_in_slope`` term).
SLOPE_LEAK = 0.1


class Transition(enum.Enum):
    """Direction of the *output* transition an arc causes."""

    RISE = "rise"
    FALL = "fall"

    #: Members are singletons compared by identity, so the identity hash
    #: serves; ``Enum``'s own is a Python-level call, paid on every hash of
    #: a hop tuple (arc table, STA arc values, constraint dedupe).
    __hash__ = object.__hash__

    @property
    def opposite(self) -> "Transition":
        return Transition.FALL if self is Transition.RISE else Transition.RISE


class ModelError(Exception):
    """Raised for arcs a stage kind does not have (e.g. domino data->rise)."""


class StageModel:
    """Base template: static CMOS complementary gate.

    Subclasses override the pieces — capacitance, :meth:`resistance` and
    :meth:`extra_delay` — and never :meth:`arc`, which assembles equations
    (1)/(2) from them in one place, so every family keeps one shape.  The
    timing analyzer compiles a circuit's arcs from the same pieces as
    arrays (:mod:`repro.sim.timing`); :meth:`arc` is the posynomial form of
    that compilation.
    """

    def __init__(self, tech: Technology):
        self.tech = tech

    # -- capacitance ---------------------------------------------------------

    def input_cap(self, stage: Stage, pin: Pin, table: SizeTable) -> Posynomial:
        """Capacitance presented by ``pin``, fF (posynomial in labels)."""
        w_up = table.monomial(stage.label("pull_up"))
        w_dn = table.monomial(stage.label("pull_down"))
        per_pin = 2.0 if stage.kind is StageKind.XOR else 1.0
        return as_posynomial(per_pin * self.tech.c_gate * w_up) + (
            per_pin * self.tech.c_gate * w_dn
        )

    def output_parasitic(self, stage: Stage, table: SizeTable) -> Posynomial:
        """Diffusion capacitance the stage hangs on its own output, fF."""
        w_up = table.monomial(stage.label("pull_up"))
        w_dn = table.monomial(stage.label("pull_down"))
        n = len(stage.inputs)
        if stage.kind is StageKind.NAND:
            up_count, dn_count = n, 1
        elif stage.kind is StageKind.NOR:
            up_count, dn_count = 1, n
        elif stage.kind is StageKind.XOR:
            up_count, dn_count = 2, 2
        else:
            up_count, dn_count = 1, 1
        return as_posynomial(self.tech.c_diff * up_count * w_up) + (
            self.tech.c_diff * dn_count * w_dn
        )

    # -- resistance ----------------------------------------------------------

    def _stack_r(self, per_width: float, stack: int) -> float:
        """Series-stack resistance coefficient, with velocity-sat derate."""
        if stack <= 1:
            return per_width
        return per_width * stack * self.tech.stack_derate

    def resistance(
        self, stage: Stage, pin: Pin, transition: Transition, table: SizeTable
    ) -> Posynomial:
        """Switching resistance of the engaged network, kΩ (posynomial)."""
        if transition is Transition.RISE:
            r = self._stack_r(self.tech.r_pmos, stage.series_p)
            if stage.params.get("skew") == "high":
                r *= self.tech.skew_speedup
            return as_posynomial(r / table.monomial(stage.label("pull_up")))
        r = self._stack_r(self.tech.r_nmos, stage.series_n)
        if stage.params.get("skew") == "low":
            r *= self.tech.skew_speedup
        return as_posynomial(r / table.monomial(stage.label("pull_down")))

    # -- assembled equations (1) and (2) --------------------------------------

    def arc(
        self,
        stage: Stage,
        pin: Pin,
        transition: Transition,
        load: Posynomial,
        table: SizeTable,
    ) -> Tuple[Posynomial, Posynomial]:
        """``(delay, output slope)`` of one pin-to-output arc at zero input
        slope, ps (posynomials in size labels); the hop rule of
        :mod:`repro.sim.timing` adds the ``slope_sensitivity * t_in_slope``
        and ``SLOPE_LEAK * t_in_slope`` terms.  Both lines share one
        ``R·C`` product.

        ``load`` must be the *total* node capacitance (fanout gate caps, wire,
        external, and every driver's own diffusion — the timing analyzer's
        ``net_load``/``load_posynomial`` compute exactly that), so shared
        pass-gate/tri-state merge nodes charge all their parasitics.
        """
        rc = self.resistance(stage, pin, transition, table) * as_posynomial(load)
        delay = LN2 * rc
        extra = self.extra_delay(stage, pin, table)
        if extra is not None:
            delay = delay + extra
        return delay, self.tech.slope_gain * rc

    def extra_delay(
        self, stage: Stage, pin: Pin, table: SizeTable
    ) -> Optional[Expression]:
        """Delay an arc through ``pin`` adds after the ``R·C`` product, ps —
        the local select inverter of pass gates and tri-states; ``None``
        when there is none."""
        return None


class PassGateModel(StageModel):
    """Complementary pass gate with local select inverter (Figure 2a/2b/2c).

    The data pin presents *diffusion* (not gate) load; select-to-output adds
    the local inverter's delay.  Section 5.3: a pass gate produces paths
    through the data port (2 constraints) and through the control port (2
    paths x 2 constraints).
    """

    def input_cap(self, stage: Stage, pin: Pin, table: SizeTable) -> Posynomial:
        w_pass = table.monomial(stage.label("pass"))
        if pin.pin_class is PinClass.DATA:
            return as_posynomial(2.0 * self.tech.c_diff * w_pass)
        w_inv = table.monomial(stage.label("sel_inv"))
        return as_posynomial(self.tech.c_gate * w_pass) + (
            2.0 * self.tech.c_gate * w_inv
        )

    def output_parasitic(self, stage: Stage, table: SizeTable) -> Posynomial:
        w_pass = table.monomial(stage.label("pass"))
        return as_posynomial(2.0 * self.tech.c_diff * w_pass)

    def resistance(
        self, stage: Stage, pin: Pin, transition: Transition, table: SizeTable
    ) -> Posynomial:
        w_pass = table.monomial(stage.label("pass"))
        r_pass = self.tech.pass_parallel * self.tech.r_nmos
        return as_posynomial(r_pass / w_pass)

    def extra_delay(
        self, stage: Stage, pin: Pin, table: SizeTable
    ) -> Optional[Expression]:
        if pin.pin_class is not PinClass.SELECT:
            return None
        # Select path first traverses the local complement inverter
        # (it must switch before the PMOS half conducts).
        w_inv = table.monomial(stage.label("sel_inv"))
        w_pass = table.monomial(stage.label("pass"))
        r_inv = (self.tech.r_pmos + self.tech.r_nmos) / 2.0
        return LN2 * ((r_inv / w_inv) * (self.tech.c_gate * w_pass))


class TriStateModel(StageModel):
    """Tri-state driver (Figure 2d): 2-stacks, internal enable inverter."""

    def input_cap(self, stage: Stage, pin: Pin, table: SizeTable) -> Posynomial:
        w_up = table.monomial(stage.label("pull_up"))
        w_dn = table.monomial(stage.label("pull_down"))
        if pin.pin_class is PinClass.DATA:
            return as_posynomial(self.tech.c_gate * w_up) + (self.tech.c_gate * w_dn)
        # Enable gates the NMOS directly plus the 0.25x enable inverter.
        return as_posynomial(self.tech.c_gate * w_dn) + (
            0.25 * self.tech.c_gate * (w_up + w_dn)
        )

    def extra_delay(
        self, stage: Stage, pin: Pin, table: SizeTable
    ) -> Optional[Expression]:
        if pin.pin_class is not PinClass.SELECT:
            return None
        # Enable inverter is a fixed 0.25x relation of the drive devices
        # and loads only their enable gates, so its delay is a size-
        # independent constant: ln2 * (r_inv / 0.25W) * (c_gate * W).
        r_inv = (self.tech.r_pmos + self.tech.r_nmos) / 2.0
        return LN2 * (r_inv / 0.25) * self.tech.c_gate


class DominoModel(StageModel):
    """Dynamic (domino) node: precharge PMOS, NMOS legs, optional D1 foot.

    Arcs (Section 5.3: "dynamic circuits need separate constraints for
    precharge and evaluate paths"):

    * data/select pin -> FALL of the dynamic node (evaluate),
    * clock pin -> RISE (precharge) and, for D1, -> FALL (evaluate via foot).
    """

    def input_cap(self, stage: Stage, pin: Pin, table: SizeTable) -> Posynomial:
        if pin.pin_class is PinClass.CLOCK:
            cap = self.tech.c_gate * table.monomial(stage.label("precharge"))
            if stage.clocked:
                cap = as_posynomial(cap) + self.tech.c_gate * table.monomial(
                    stage.label("evaluate")
                )
            return as_posynomial(cap)
        return as_posynomial(self.tech.c_gate * table.monomial(stage.label("data")))

    def output_parasitic(self, stage: Stage, table: SizeTable) -> Posynomial:
        legs = len(stage.leg_sizes) or 1
        w_pre = table.monomial(stage.label("precharge"))
        w_data = table.monomial(stage.label("data"))
        keeper = float(stage.params.get("keeper", 0.0))
        # Keeper drain + its feedback-inverter input ride on the node.
        pre_factor = 1.0 + keeper + (
            0.5 * keeper * self.tech.c_gate / self.tech.c_diff if keeper else 0.0
        )
        return as_posynomial(self.tech.c_diff * pre_factor * w_pre) + (
            self.tech.c_diff * legs * w_data
        )

    def resistance(
        self, stage: Stage, pin: Pin, transition: Transition, table: SizeTable
    ) -> Posynomial:
        if transition is Transition.RISE:
            if pin.pin_class is not PinClass.CLOCK:
                raise ModelError(
                    f"{stage.name}: domino node can only rise on precharge (clock)"
                )
            return as_posynomial(
                self.tech.r_pmos / table.monomial(stage.label("precharge"))
            )
        leg_series = max(stage.leg_sizes) if stage.leg_sizes else 1
        w_data = table.monomial(stage.label("data"))
        r = as_posynomial(self._stack_r(self.tech.r_nmos, leg_series) / w_data)
        if stage.clocked:
            r = r + self.tech.r_nmos / table.monomial(stage.label("evaluate"))
        keeper = float(stage.params.get("keeper", 0.0))
        if keeper > 0.0:
            # First-order keeper contention: the half-latch fights the pull
            # down with current ~ (k W_pre / r_p) vs (W_data / r_n·stack).
            w_pre = table.monomial(stage.label("precharge"))
            contention = (
                keeper
                * (self._stack_r(self.tech.r_nmos, leg_series) / self.tech.r_pmos)
            ) * (w_pre / w_data)
            r = r + r * contention
        return r

    def internal_charge_cap(self, stage: Stage, table: SizeTable) -> Posynomial:
        """Diffusion capacitance of the legs' *internal* series nodes, fF.

        When a leg's upper devices conduct but a lower input stays off, the
        leg's pre-discharged internal nodes share charge with the dynamic
        node and droop it — the classic domino noise hazard.  The worst
        single event exposes the *deepest* leg's internal chain (the foot is
        actively clamped during evaluate and does not count).
        """
        w_data = table.monomial(stage.label("data"))
        worst_leg_nodes = max(
            (size - 1 for size in stage.leg_sizes), default=0
        )
        if worst_leg_nodes <= 0:
            return Posynomial.zero()
        return as_posynomial(
            2.0 * self.tech.c_diff * worst_leg_nodes * w_data
        )


class ModelLibrary:
    """Stage kind -> model.  Extensible: register a custom model to support a
    new logic family (Section 5: the sizer is "extendable to different logic
    families" by swapping modeling while keeping the optimizer)."""

    def __init__(self, tech: Optional[Technology] = None):
        self.tech = tech or Technology()
        self._models: Dict[StageKind, StageModel] = {}
        static = StageModel(self.tech)
        for kind in (
            StageKind.INV,
            StageKind.NAND,
            StageKind.NOR,
            StageKind.AOI,
            StageKind.XOR,
        ):
            self._models[kind] = static
        self._models[StageKind.PASSGATE] = PassGateModel(self.tech)
        self._models[StageKind.TRISTATE] = TriStateModel(self.tech)
        self._models[StageKind.DOMINO] = DominoModel(self.tech)
        self._content_key: Optional[Tuple] = None

    def register(self, kind: StageKind, model: StageModel) -> None:
        self._models[kind] = model
        self._content_key = None

    def content_key(self) -> Tuple:
        """What the library is, as a hashable value: the technology plus
        ``(stage kind, model class)`` per registered kind, sorted — the
        content :func:`repro.cache.fingerprint.library_payload`
        fingerprints.  Libraries with equal keys compile the same arcs, so
        per-circuit memos key on this, not on the library object."""
        if self._content_key is None:
            self._content_key = (
                self.tech,
                tuple(sorted(
                    (kind.value, type(model))
                    for kind, model in self._models.items()
                )),
            )
        return self._content_key

    def model(self, stage: Stage) -> StageModel:
        try:
            return self._models[stage.kind]
        except KeyError:
            raise ModelError(f"no model registered for stage kind {stage.kind}")

    # Convenience pass-throughs -------------------------------------------------

    def input_cap(self, stage: Stage, pin: Pin, table: SizeTable) -> Posynomial:
        return self.model(stage).input_cap(stage, pin, table)

    def output_parasitic(self, stage: Stage, table: SizeTable) -> Posynomial:
        return self.model(stage).output_parasitic(stage, table)

    def arc(
        self,
        stage: Stage,
        pin: Pin,
        transition: Transition,
        load: Posynomial,
        table: SizeTable,
    ) -> Tuple[Posynomial, Posynomial]:
        """``(delay, output slope)`` of one arc (:meth:`StageModel.arc`)."""
        return self.model(stage).arc(stage, pin, transition, load, table)

    def delay(
        self,
        stage: Stage,
        pin: Pin,
        transition: Transition,
        load: Posynomial,
        table: SizeTable,
    ) -> Posynomial:
        return self.arc(stage, pin, transition, load, table)[0]

    def output_slope(
        self,
        stage: Stage,
        pin: Pin,
        transition: Transition,
        load: Posynomial,
        table: SizeTable,
    ) -> Posynomial:
        return self.arc(stage, pin, transition, load, table)[1]
