"""The one-record circuit serializer: the oracle for the facet-derived one.

This is :func:`repro.netlist.fingerprint.circuit_payload` as it was before
the sizing fingerprint was derived from the facet payloads: its own walk
over stages, nets and size variables, producing the version-2 record that
every stored sizing key, certificate and contract was addressed by.  It
shares only the canonical net naming and param normalization with the
derived version, so a disagreement points at the join, not at the naming.
"""

import hashlib
import json
from typing import Any, Dict, List

from repro.netlist.fingerprint import (
    FINGERPRINT_VERSION,
    _canonical_param,
    canonical_net_names,
)


def reference_circuit_payload(circuit) -> Dict[str, Any]:
    canon = canonical_net_names(circuit)
    stages: List[Dict[str, Any]] = []
    for stage in sorted(circuit.stages, key=lambda s: s.name):
        stages.append(
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
                "size_vars": {
                    role: stage.size_vars[role]
                    for role in sorted(stage.size_vars)
                },
                "params": {
                    key: _canonical_param(stage.params[key])
                    for key in sorted(stage.params)
                },
            }
        )
    nets = sorted(
        [
            canon[net.name],
            net.kind.value,
            net.wire_cap,
            net.external_load,
            net.wire_res,
        ]
        for net in circuit.nets.values()
    )
    size_vars = [
        [
            var.name,
            var.lower,
            var.upper,
            var.pinned,
            list(var.ratio_of) if var.ratio_of is not None else None,
        ]
        for var in sorted(circuit.size_table, key=lambda v: v.name)
    ]
    return {
        "version": FINGERPRINT_VERSION,
        "stages": stages,
        "nets": nets,
        "size_vars": size_vars,
        "primary_inputs": sorted(circuit.primary_inputs),
        "primary_outputs": sorted(circuit.primary_outputs),
        "input_phases": {
            net: circuit.input_phases[net]
            for net in sorted(circuit.input_phases)
        },
        "clock": circuit.clock,
    }


def reference_circuit_fingerprint(circuit) -> str:
    blob = json.dumps(
        reference_circuit_payload(circuit),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
