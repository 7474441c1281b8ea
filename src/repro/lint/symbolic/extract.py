"""Boolean-behavior extraction over the switch-level solver.

Enumerates input assignments, solves each through
:mod:`repro.lint.symbolic.switchlevel`, and collects the per-output truth
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
from .switchlevel import ChannelGraph, Conflict, evaluate_assignment

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
    """
    graph = ChannelGraph(circuit)
    inputs = tuple(circuit.primary_inputs)
    envs, verdict = _enumerate_envs(inputs, spec, exact_budget, samples, seed)
    observable = observable_nets(circuit)
    result = Extraction(
        circuit_name=circuit.name,
        n_inputs=len(inputs),
        n_assignments=len(envs),
        verdict=verdict,
        spec_checked=spec is not None,
    )
    for env in envs:
        outcome = evaluate_assignment(graph, env)
        env_key = tuple(sorted(env.items()))
        for net, conflict in outcome.evaluate.conflicts.items():
            if net in observable and net not in result.conflicts:
                result.conflicts[net] = (conflict, env_key)
        for net in outcome.evaluate.floating:
            if net in observable and net not in result.floating:
                result.floating[net] = FloatingNet(net=net, env=env_key)
        if spec is None:
            continue
        for out_name in circuit.primary_outputs:
            if out_name not in spec.outputs:
                continue
            actual = outcome.output(out_name)
            expected = spec.expected(out_name, env)
            if actual is None:
                # X/Z at the output: the conflict / floating finding above
                # owns the diagnosis; record for completeness.
                result.undefined.append(
                    Mismatch(out_name, expected, False, env_key)
                )
            elif actual != expected:
                result.mismatches.append(
                    Mismatch(out_name, expected, actual, env_key)
                )
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
    in :func:`~repro.netlist.memo.circuit_memo`)."""
    key = (Extraction, id(spec), exact_budget, samples, seed)
    memo = circuit_memo(circuit)
    if key not in memo:
        memo[key] = extract(
            circuit, spec, exact_budget=exact_budget, samples=samples, seed=seed
        )
    return memo[key]
