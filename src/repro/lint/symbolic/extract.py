"""Boolean-behavior extraction over the switch-level solver.

Enumerates input assignments, solves them all in one bit-parallel pass
through :mod:`repro.lint.symbolic.switchlevel`, and collects the per-output truth
table plus every electrical anomaly (conflicts, floating nets) seen along
the way.  Exact cofactor enumeration is used up to a configurable input
budget; beyond it a seeded random sample is drawn and the verdict is
downgraded from ``"proved"`` to ``"tested"`` — the SVC4xx rules surface
that distinction in their messages so a sampled pass is never mistaken for
a proof.

One extraction is shared by all SVC401-404 rules for a circuit (the lint
runner executes rules back to back over the same object), memoized weakly
so repeated lint runs on a long-lived circuit stay cheap.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ...netlist.circuit import Circuit
from ...netlist.funcspec import FunctionalSpec
from ...netlist.memo import circuit_memo
from ...obs import trace
from .switchlevel import Conflict, channel_graph, input_masks, solve_assignments

#: Exact enumeration up to this many primary inputs (2^budget assignments).
DEFAULT_EXACT_BUDGET = 10
#: Random assignments drawn when the input count exceeds the budget.
DEFAULT_SAMPLES = 64
#: Seed for the sampling path — fixed so findings are reproducible.
DEFAULT_SEED = 20260806
#: Rejection-sampling attempts per sample when the spec has a ``valid``
#: predicate but no constrained sampler.
_REJECTION_TRIES = 32


@dataclass(frozen=True)
class Mismatch:
    """One output disagreeing with the golden spec, with its witness."""

    output: str
    expected: bool
    actual: bool
    env: Tuple[Tuple[str, bool], ...]

    def witness(self) -> str:
        assigns = " ".join(f"{k}={int(v)}" for k, v in self.env)
        return f"[{assigns}]"


@dataclass(frozen=True)
class FloatingNet:
    """A net left floating (no drive, no stored charge) during evaluate."""

    net: str
    env: Tuple[Tuple[str, bool], ...]

    def witness(self) -> str:
        assigns = " ".join(f"{k}={int(v)}" for k, v in self.env)
        return f"[{assigns}]"


@dataclass
class Extraction:
    """Everything the SVC rules need from one circuit's enumeration."""

    circuit_name: str
    n_inputs: int
    n_assignments: int
    verdict: str                       # "proved" | "tested"
    mismatches: List[Mismatch] = field(default_factory=list)
    undefined: List[Mismatch] = field(default_factory=list)
    conflicts: Dict[str, Tuple[Conflict, Tuple[Tuple[str, bool], ...]]] = (
        field(default_factory=dict)
    )
    floating: Dict[str, FloatingNet] = field(default_factory=dict)
    spec_checked: bool = False

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"


def observable_nets(circuit: Circuit) -> FrozenSet[str]:
    """Nets whose value matters downstream: primary outputs plus every net
    that gates a transistor of some stage.  Floating *channel* internals
    (a tri-state's stack midpoint behind an off device) are harmless and
    excluded."""
    observable = set(circuit.primary_outputs)
    for stage in circuit.stages:
        for pin in stage.inputs:
            observable.add(pin.net.name)
    return frozenset(observable)


def _enumerate_envs(
    inputs: Tuple[str, ...],
    spec: Optional[FunctionalSpec],
    exact_budget: int,
    samples: int,
    seed: int,
) -> Tuple[List[Dict[str, bool]], str]:
    """The assignments to check + the resulting verdict strength."""
    if len(inputs) <= exact_budget:
        envs = [
            dict(zip(inputs, bits))
            for bits in itertools.product((False, True), repeat=len(inputs))
        ]
        if spec is not None:
            envs = [env for env in envs if spec.is_valid(env)]
        return envs, "proved"
    rng = random.Random(seed)
    envs: List[Dict[str, bool]] = []
    seen = set()
    for _ in range(samples):
        env = _one_sample(inputs, spec, rng)
        if env is None:
            continue
        key = tuple(env[name] for name in inputs)
        if key in seen:
            continue
        seen.add(key)
        envs.append(env)
    return envs, "tested"


def _one_sample(
    inputs: Tuple[str, ...],
    spec: Optional[FunctionalSpec],
    rng: random.Random,
) -> Optional[Dict[str, bool]]:
    if spec is not None and spec.sampler is not None:
        env = dict(spec.sampler(rng))
        # The sampler fixes the constrained nets; fill the rest randomly.
        for name in inputs:
            if name not in env:
                env[name] = bool(rng.getrandbits(1))
        if spec.is_valid(env):
            return env
        return None
    for _ in range(_REJECTION_TRIES):
        env = {name: bool(rng.getrandbits(1)) for name in inputs}
        if spec is None or spec.is_valid(env):
            return env
    return None


def _first_bits(masks, names, wanted) -> List[Tuple[int, int, str]]:
    """``(first set bit, position, name)`` of every wanted net whose mask is
    non-zero, sorted: the order a scan of the assignments one by one, nets
    in ``names`` order within each, first meets them."""
    found = []
    for pos, (name, mask) in enumerate(zip(names, masks)):
        if mask and name in wanted:
            found.append(((mask & -mask).bit_length() - 1, pos, name))
    found.sort()
    return found


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def extract(
    circuit: Circuit,
    spec: Optional[FunctionalSpec] = None,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Extraction:
    """Enumerate/sample the input space and collect behavior + anomalies.

    ``spec`` (usually ``circuit.functional_spec``) restricts enumeration to
    the macro's valid input space and enables the SVC401 comparison; with
    no spec the full space is swept and only electrical anomalies are
    recorded.

    Every assignment is solved in one bit-parallel pass
    (:func:`~repro.lint.symbolic.switchlevel.solve_assignments`).  The
    record is the one an assignment-by-assignment scan builds: the first
    assignment showing each conflict or floating net is its witness, and
    ``mismatches``/``undefined`` run assignment-major, outputs in
    ``primary_outputs`` order.
    """
    graph = channel_graph(circuit)
    inputs = tuple(circuit.primary_inputs)
    envs, verdict = _enumerate_envs(inputs, spec, exact_budget, samples, seed)
    result = Extraction(
        circuit_name=circuit.name,
        n_inputs=len(inputs),
        n_assignments=len(envs),
        verdict=verdict,
        spec_checked=spec is not None,
    )
    if not envs:
        return result
    width = len(envs)
    with trace.span("symbolic_extract", circuit=circuit.name) as span:
        masks = input_masks(inputs, envs)
        precharge, solved = solve_assignments(graph, width, masks)
        span.set_attrs(
            symbolic_assignments=width,
            symbolic_phase_solves=1 if precharge is None else 2,
        )

    def env_key(bit: int) -> Tuple[Tuple[str, bool], ...]:
        return tuple(sorted(envs[bit].items()))

    observable = observable_nets(circuit)
    order = graph.net_order
    for bit, _pos, net in _first_bits(solved.conflict, order, observable):
        result.conflicts[net] = (solved.witness(net, bit), env_key(bit))
    floating = _first_bits(solved.floating, order, observable)
    for bit in sorted({bit for bit, _pos, _net in floating}):
        # One assignment's floating set, iterated as the set it is.
        for net in frozenset(
            {name for i, name in enumerate(order) if solved.floating[i] >> bit & 1}
        ):
            if net in observable and net not in result.floating:
                result.floating[net] = FloatingNet(net=net, env=env_key(bit))
    if spec is None:
        return result
    full = (1 << width) - 1
    expected = spec.expected_masks(
        (inputs, width, tuple(masks[name] for name in inputs)), envs
    )
    undefined: List[Tuple[int, int, Mismatch]] = []
    mismatches: List[Tuple[int, int, Mismatch]] = []
    for rank, out_name in enumerate(circuit.primary_outputs):
        if out_name not in spec.outputs:
            continue
        pos = graph.index[out_name]
        one, zero = solved.one[pos], solved.zero[pos]
        want = expected[out_name]
        # X/Z at the output: the conflict / floating finding above owns the
        # diagnosis; record for completeness.
        for bit in _bits(full & ~(one | zero)):
            undefined.append((bit, rank, Mismatch(
                out_name, bool(want >> bit & 1), False, env_key(bit)
            )))
        for bit in _bits((one & ~want) | (zero & want)):
            actual = bool(one >> bit & 1)
            mismatches.append((bit, rank, Mismatch(
                out_name, not actual, actual, env_key(bit)
            )))
    # Assignment-major, then output rank.
    result.undefined = [
        row[2] for row in sorted(undefined, key=lambda r: r[:2])
    ]
    result.mismatches = [
        row[2] for row in sorted(mismatches, key=lambda r: r[:2])
    ]
    return result


# -- memoization -------------------------------------------------------------


def extract_cached(
    circuit: Circuit,
    spec: Optional[FunctionalSpec],
    exact_budget: int,
    samples: int,
    seed: int = DEFAULT_SEED,
) -> Extraction:
    """Per-circuit memoized :func:`extract` (shared by the SVC rules; kept
    in :func:`~repro.netlist.memo.circuit_memo`).  The key carries the
    circuit's input-phase declarations, which set the precharge-phase
    inputs, as the channel-graph memo's does."""
    key = (
        Extraction, id(spec), exact_budget, samples, seed,
        tuple(sorted(circuit.input_phases.items())),
    )
    memo = circuit_memo(circuit)
    if key not in memo:
        memo[key] = extract(
            circuit, spec, exact_budget=exact_budget, samples=samples, seed=seed
        )
    return memo[key]
