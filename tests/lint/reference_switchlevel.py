"""Scalar switch-level oracle: one assignment, one per-net fixpoint.

The solver :mod:`repro.lint.symbolic.switchlevel` shipped before it went
bit-parallel, kept as a slow, obviously-correct reference.  Each round reads
every switch's state from the current net values, walks the conducting
switch graph from the sources of each polarity (strong switches, then weak
keepers as a fallback), and recomputes every net; the fixpoint stops when a
round changes nothing, and after ``max_rounds`` rounds any net still moving
is demoted to X.  Conflict witnesses come from the solver's own
``ChannelGraph._conflict``, over the final round's switch states.

:func:`reference_extract` replays :func:`repro.lint.symbolic.extract.extract`
assignment by assignment on top of it, so the tests can compare whole
:class:`~repro.lint.symbolic.extract.Extraction` records.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.lint.symbolic.extract import (
    DEFAULT_EXACT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Extraction,
    FloatingNet,
    Mismatch,
    _enumerate_envs,
    observable_nets,
)
from repro.lint.symbolic.switchlevel import (
    ChannelGraph,
    Conflict,
    EvalResult,
    PhaseSolution,
)
from repro.netlist.stages import VDD, VSS


def solve_phase(
    graph: ChannelGraph,
    env: Mapping[str, bool],
    clock: Optional[bool],
    charge: Optional[Mapping[str, bool]] = None,
    max_rounds: int = 60,
) -> PhaseSolution:
    """Steady state of one clock phase under one input assignment."""
    fixed = _fixed_values(graph, env, clock)
    charge = charge or {}
    # None = unknown; nets start from their stored charge (weakly).
    values: Dict[str, Optional[bool]] = {
        name: fixed.get(name, charge.get(name)) for name in graph.net_names
    }
    conflicts: Dict[str, Conflict] = {}
    floating: Set[str] = set()
    for _ in range(max_rounds):
        new_values, conflicts, floating = _one_round(graph, values, fixed, charge)
        if new_values == values:
            break
        values = new_values
    else:
        # Non-convergent feedback: demote every net still moving to X.
        final, conflicts, floating = _one_round(graph, values, fixed, charge)
        for name, val in final.items():
            if val != values[name]:
                values[name] = None
    return PhaseSolution(
        values=values, conflicts=conflicts, floating=frozenset(floating)
    )


def _fixed_values(
    graph: ChannelGraph, env: Mapping[str, bool], clock: Optional[bool]
) -> Dict[str, bool]:
    """The clamped source nets for one phase: rails, inputs, clock."""
    fixed: Dict[str, bool] = {VDD: True, VSS: False}
    for name in graph.input_nets:
        fixed[name] = bool(env[name])
    if clock is not None:
        for name in graph.clock_nets:
            fixed[name] = clock
    return fixed


def _one_round(
    graph: ChannelGraph,
    values: Dict[str, Optional[bool]],
    fixed: Mapping[str, bool],
    charge: Mapping[str, bool],
) -> Tuple[Dict[str, Optional[bool]], Dict[str, Conflict], Set[str]]:
    # True = conducting, False = blocked, None = unknown gate.
    states = [
        None if values.get(sw.gate) is None
        else values.get(sw.gate) == sw.on_value
        for sw in graph.switches
    ]
    reach1 = _reach(graph, True, states, fixed, weak=False)
    reach0 = _reach(graph, False, states, fixed, weak=False)
    conflicts: Dict[str, Conflict] = {}
    new_values: Dict[str, Optional[bool]] = {}
    undriven: List[str] = []
    for name in graph.net_names:
        if name in fixed:
            new_values[name] = fixed[name]
            continue
        in1, in0 = name in reach1, name in reach0
        if in1 and in0:
            new_values[name] = None
            conflicts[name] = graph._conflict(name, states, fixed)
        elif in1:
            new_values[name] = True
        elif in0:
            new_values[name] = False
        else:
            undriven.append(name)
    # Weak (keeper) drive only matters where the strong network is silent.
    weak1 = _reach(graph, True, states, fixed, weak=True)
    weak0 = _reach(graph, False, states, fixed, weak=True)
    floating: Set[str] = set()
    for name in undriven:
        w1, w0 = name in weak1, name in weak0
        if w1 and not w0:
            new_values[name] = True
        elif w0 and not w1:
            new_values[name] = False
        elif name in charge:
            new_values[name] = charge[name]
        else:
            new_values[name] = None
            floating.add(name)
    return new_values, conflicts, floating


def _reach(
    graph: ChannelGraph,
    polarity: bool,
    states: Sequence[Optional[bool]],
    fixed: Mapping[str, bool],
    weak: bool,
) -> Set[str]:
    """Nets with a definitely-conducting path to a ``polarity`` source;
    traversal never continues *through* a fixed net."""
    frontier = [name for name, val in fixed.items() if val == polarity]
    seen: Set[str] = set(frontier)
    while frontier:
        net = frontier.pop()
        for idx in graph.channels.get(net, ()):
            if states[idx] is not True:
                continue
            sw = graph.switches[idx]
            if sw.weak and not weak:
                continue
            other = sw.b if sw.a == net else sw.a
            if other in seen:
                continue
            seen.add(other)
            if other not in fixed:
                frontier.append(other)
    return seen


def _precharge_env(
    graph: ChannelGraph, env: Mapping[str, bool]
) -> Dict[str, bool]:
    """Precharge-phase inputs: ``mono_rise`` low, ``mono_fall`` high, the
    rest at their evaluate value."""
    pre: Dict[str, bool] = {}
    for name in graph.input_nets:
        declared = graph.input_phases[name]
        if declared == "mono_rise":
            pre[name] = False
        elif declared == "mono_fall":
            pre[name] = True
        else:
            pre[name] = bool(env[name])
    return pre


def evaluate(graph: ChannelGraph, env: Mapping[str, bool]) -> EvalResult:
    """One assignment through the two-phase protocol (static circuits: one
    phase, no charge memory)."""
    env = {name: bool(env[name]) for name in graph.input_nets}
    if not graph.clock_nets:
        return EvalResult(env=env, evaluate=solve_phase(graph, env, clock=None))
    pre = solve_phase(graph, _precharge_env(graph, env), clock=False)
    stored = {name: val for name, val in pre.values.items() if val is not None}
    return EvalResult(
        env=env,
        evaluate=solve_phase(graph, env, clock=True, charge=stored),
        precharge=pre,
    )


def reference_extract(
    circuit,
    spec=None,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Extraction:
    """:func:`~repro.lint.symbolic.extract.extract`, one assignment at a
    time through :func:`evaluate`."""
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
        outcome = evaluate(graph, env)
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
                result.undefined.append(
                    Mismatch(out_name, expected, False, env_key)
                )
            elif actual != expected:
                result.mismatches.append(
                    Mismatch(out_name, expected, actual, env_key)
                )
    return result
