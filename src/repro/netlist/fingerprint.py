"""Content-addressed circuit fingerprinting.

A fingerprint is a stable SHA-256 digest of everything that determines a
circuit's *sizing problem*: the stage graph (kinds, pin wiring and
classification, structural params), the nets (kinds, fixed caps, wire
resistance), the size table (bounds, pins, ratio ties) and the declared
interface (primary inputs/outputs, input phases, clock).  Two circuits with
the same fingerprint produce byte-identical constraint sets, so a sizing
result computed for one is valid for the other — the foundation of the
persistent sizing cache in :mod:`repro.cache`.

Properties:

* **order-independent** — stages and nets are serialized sorted by name, so
  the digest does not depend on construction order (pin order *within* a
  stage is kept: it is semantic — domino leg grouping, NAND stack order);
* **name-blind at the circuit level** — ``circuit.name`` is excluded, so a
  regenerated macro with a cosmetic rename still hits the cache;
* **name-blind for internal nets** — wires are serialized under canonical
  names derived from their driver stages (``~`` + sorted driver names), so
  renaming an internal wire cannot change the digest.  Interface nets
  (primary inputs/outputs, clock) keep their concrete names: they *are* the
  macro's contract;
* **canonical floats** — values pass through ``repr`` via JSON, which is
  deterministic for a given Python build.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List

from .circuit import Circuit

#: Bump when the serialized form below changes shape, so stale cache entries
#: from older builds can never alias a new fingerprint.
#: 2: internal nets serialized under driver-derived canonical names.
FINGERPRINT_VERSION = 2

#: The independent *facets* of a circuit that lint rules declare as inputs
#: (see ``Rule.facets``).  A rule result is invalidated only when one of its
#: declared facets' fingerprints changed:
#:
#: * ``topology`` — stage graph, pin wiring/classification, structural
#:   params, net kinds, interface (PI/PO/clock).  No widths, no caps.
#: * ``sizing``  — the size table (bounds, pins, ratio ties), the
#:   stage-to-size-var binding, and every fixed electrical value on nets
#:   (wire cap, external load, wire resistance).
#: * ``phases``  — declared input clock-phase relationships plus the clock
#:   binding (what DFA301/DFA302 seed their lattices from).
#: * ``funcspec`` — a semantic digest of the attached golden
#:   :class:`~repro.netlist.funcspec.FunctionalSpec` (truth-table sample,
#:   not object identity, so re-constructed but equivalent specs hash equal).
FACET_NAMES = ("topology", "sizing", "phases", "funcspec")

#: Bump when any facet payload below changes shape.
FACET_VERSION = 1

#: Exact truth-table enumeration limit for the funcspec digest; above this
#: many (non-clock) inputs the digest falls back to seeded sampling.
_FUNCSPEC_EXACT_INPUTS = 10
_FUNCSPEC_SAMPLES = 64
_FUNCSPEC_SEED = 20260806


def canonical_net_names(circuit: Circuit) -> Dict[str, str]:
    """Map every net name to its canonical (rename-invariant) form.

    Interface nets map to themselves.  Internal wires map to ``~`` plus the
    sorted names of their driving stages — injective because a stage drives
    exactly one output net, so distinct nets have disjoint driver sets.  An
    undriven internal wire (an ERC002 violation) keeps its concrete name.
    """
    interface = set(circuit.primary_inputs) | set(circuit.primary_outputs)
    interface.update(circuit.clock_nets())
    mapping: Dict[str, str] = {}
    for name in circuit.nets:
        if name in interface:
            mapping[name] = name
            continue
        drivers = sorted(s.name for s in circuit.drivers_of(name))
        mapping[name] = "~" + "+".join(drivers) if drivers else name
    return mapping


def _canonical_param(value: Any) -> Any:
    """Normalize a stage param into a JSON-stable shape."""
    if isinstance(value, (list, tuple)):
        return [_canonical_param(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return repr(value)


def canonical_digest(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON (sorted keys,
    compact separators, no NaN) — the hash behind every fingerprint."""
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def circuit_payload(circuit: Circuit) -> Dict[str, Any]:
    """The canonical (JSON-ready) form the fingerprint hashes: the
    topology, sizing and phases facets of :func:`facet_payloads` joined
    back into one record (per-stage size vars beside each stage, one row
    per net).  The funcspec facet is left out: sizing does not read it.

    Exposed separately so tests and debugging tools can diff two payloads
    when fingerprints unexpectedly disagree.
    """
    facets = _structure_payloads(circuit)
    topology, sizing = facets["topology"], facets["sizing"]
    # Both facets list stages in name order and nets in canonical-name
    # order (canonical names are unique), so the rows pair up by position.
    return {
        "version": FINGERPRINT_VERSION,
        "stages": [
            dict(stage, size_vars=size_vars)
            for stage, (_, size_vars) in zip(topology["stages"], sizing["stages"])
        ],
        "nets": [
            wiring + electrical[1:]
            for wiring, electrical in zip(topology["nets"], sizing["nets"])
        ],
        "size_vars": sizing["size_vars"],
        "primary_inputs": topology["primary_inputs"],
        "primary_outputs": topology["primary_outputs"],
        "input_phases": facets["phases"]["input_phases"],
        "clock": topology["clock"],
    }


def circuit_fingerprint(circuit: Circuit) -> str:
    """Stable, order-independent SHA-256 hex digest of a circuit."""
    return canonical_digest(circuit_payload(circuit))


# -- facet fingerprints (incremental lint) ---------------------------------


def funcspec_digest(circuit: Circuit) -> str:
    """Semantic digest of the circuit's golden functional spec.

    Hashes a deterministic truth-table sample (exact below
    ``_FUNCSPEC_EXACT_INPUTS`` non-clock inputs, seeded random beyond;
    constrained specs additionally contribute sampler-drawn valid vectors),
    so two independently constructed but extensionally equal specs digest
    identically, while any behavioral edit — a changed output function, a
    widened/narrowed valid space, a renamed port — changes the digest.
    Returns ``"none"`` when no spec is attached.

    The digest depends only on the spec and the sorted non-clock input
    names, so it is memoized on the (frozen) spec object under that input
    tuple: the circuits of one generator share one spec, and one truth
    table serves them all.
    """
    spec = getattr(circuit, "functional_spec", None)
    if spec is None:
        return "none"
    outputs = sorted(getattr(spec, "outputs", {}) or {})
    if not outputs:
        return "opaque:" + type(spec).__name__
    clocks = set(circuit.clock_nets())
    inputs = tuple(sorted(n for n in circuit.primary_inputs if n not in clocks))
    memo = getattr(spec, "digests", None)
    if not isinstance(memo, dict):
        return _truth_table_digest(spec, inputs, outputs)
    digest = memo.get(inputs)
    if digest is None:
        digest = memo[inputs] = _truth_table_digest(spec, inputs, outputs)
    return digest


def _truth_table_digest(spec, inputs, outputs) -> str:
    """The digest :func:`funcspec_digest` memoizes: one row per sampled
    input vector (input bits, valid flag, expected outputs when valid)."""
    envs: List[Dict[str, bool]] = []
    if len(inputs) <= _FUNCSPEC_EXACT_INPUTS:
        for bits in range(1 << len(inputs)):
            envs.append(
                {name: bool((bits >> i) & 1) for i, name in enumerate(inputs)}
            )
    else:
        rng = random.Random(_FUNCSPEC_SEED)
        for _ in range(_FUNCSPEC_SAMPLES):
            envs.append({name: bool(rng.getrandbits(1)) for name in inputs})
    sampler = getattr(spec, "sampler", None)
    if sampler is not None:
        # Sparse valid spaces (one-hot selects) would otherwise contribute
        # almost no valid rows; fold in constrained samples too.
        rng = random.Random(_FUNCSPEC_SEED + 1)
        for _ in range(_FUNCSPEC_SAMPLES):
            drawn = dict(sampler(rng))
            env = {name: bool(drawn.get(name, False)) for name in inputs}
            envs.append(env)
    rows: List[List[int]] = []
    for env in envs:
        bits = [1 if env[name] else 0 for name in inputs]
        try:
            valid = spec.is_valid(env)
        except Exception:
            valid = False
        row = bits + [1 if valid else 0]
        if valid:
            for out in outputs:
                try:
                    row.append(1 if spec.expected(out, env) else 0)
                except Exception:
                    row.append(-1)
        rows.append(row)
    payload = {
        "golden": getattr(spec, "golden", ""),
        "inputs": list(inputs),
        "outputs": outputs,
        "rows": rows,
    }
    return canonical_digest(payload)


def facet_payloads(circuit: Circuit) -> Dict[str, Dict[str, Any]]:
    """The four facet payloads (JSON-ready) behind :func:`facet_fingerprints`.

    Facets partition the circuit's serialized form (the sizing fingerprint
    is the join of the first three; see :func:`circuit_payload`) so that an
    edit invalidates only the facets it actually touches: resizing a
    transistor changes ``sizing`` but not ``topology``; redeclaring an
    input phase changes only ``phases``; editing the golden function
    changes only ``funcspec``.
    """
    payloads = _structure_payloads(circuit)
    payloads["funcspec"] = {
        "version": [FINGERPRINT_VERSION, FACET_VERSION],
        "digest": funcspec_digest(circuit),
    }
    return payloads


def _structure_payloads(circuit: Circuit) -> Dict[str, Dict[str, Any]]:
    """The ``topology``, ``sizing`` and ``phases`` facet payloads: the one
    walk over the circuit's stages, nets and size variables."""
    canon = canonical_net_names(circuit)
    topo_stages: List[Dict[str, Any]] = []
    sizing_stages: List[List[Any]] = []
    for stage in sorted(circuit.stages, key=lambda s: s.name):
        topo_stages.append(
            {
                "name": stage.name,
                "kind": stage.kind.value,
                "inputs": [
                    [
                        pin.name,
                        canon[pin.net.name],
                        pin.pin_class.value,
                        pin.speed.value if pin.speed is not None else None,
                        bool(pin.inverted),
                    ]
                    for pin in stage.inputs
                ],
                "output": canon[stage.output.name],
                "params": {
                    key: _canonical_param(stage.params[key])
                    for key in sorted(stage.params)
                },
            }
        )
        sizing_stages.append(
            [
                stage.name,
                {role: stage.size_vars[role] for role in sorted(stage.size_vars)},
            ]
        )
    version = [FINGERPRINT_VERSION, FACET_VERSION]
    return {
        "topology": {
            "version": version,
            "stages": topo_stages,
            "nets": sorted(
                [canon[net.name], net.kind.value]
                for net in circuit.nets.values()
            ),
            "primary_inputs": sorted(circuit.primary_inputs),
            "primary_outputs": sorted(circuit.primary_outputs),
            "clock": circuit.clock,
        },
        "sizing": {
            "version": version,
            "stages": sizing_stages,
            "nets": sorted(
                [canon[net.name], net.wire_cap, net.external_load, net.wire_res]
                for net in circuit.nets.values()
            ),
            "size_vars": [
                [
                    var.name,
                    var.lower,
                    var.upper,
                    var.pinned,
                    list(var.ratio_of) if var.ratio_of is not None else None,
                ]
                for var in sorted(circuit.size_table, key=lambda v: v.name)
            ],
        },
        "phases": {
            "version": version,
            "input_phases": {
                net: circuit.input_phases[net]
                for net in sorted(circuit.input_phases)
            },
            "clock": circuit.clock,
        },
    }


def facet_fingerprints(circuit: Circuit) -> Dict[str, str]:
    """SHA-256 digest per facet — the invalidation keys of the incremental
    lint engine (:mod:`repro.lint.incremental`)."""
    return {
        name: canonical_digest(payload)
        for name, payload in facet_payloads(circuit).items()
    }
