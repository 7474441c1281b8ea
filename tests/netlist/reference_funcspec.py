"""The row-by-row golden-spec digest: the oracle for the memoized one.

This is :func:`repro.netlist.fingerprint.funcspec_digest` as it was before
the digest was memoized on the (shared, frozen) spec object: every call
re-derives the circuit's non-clock inputs, rebuilds the truth-table sample
and hashes it.  It shares only the digest constants with the memoized
version, so a disagreement points at the memo, not at the sample.
"""

import hashlib
import json
import random
from typing import Dict, List

from repro.netlist.fingerprint import (
    _FUNCSPEC_EXACT_INPUTS,
    _FUNCSPEC_SAMPLES,
    _FUNCSPEC_SEED,
)


def reference_funcspec_digest(circuit) -> str:
    spec = getattr(circuit, "functional_spec", None)
    if spec is None:
        return "none"
    outputs = sorted(getattr(spec, "outputs", {}) or {})
    if not outputs:
        return "opaque:" + type(spec).__name__
    clocks = set(circuit.clock_nets())
    inputs = sorted(n for n in circuit.primary_inputs if n not in clocks)
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
        rng = random.Random(_FUNCSPEC_SEED + 1)
        for _ in range(_FUNCSPEC_SAMPLES):
            drawn = dict(sampler(rng))
            envs.append(
                {name: bool(drawn.get(name, False)) for name in inputs}
            )
    rows: List[List[int]] = []
    for env in envs:
        row = [1 if env[name] else 0 for name in inputs]
        try:
            valid = spec.is_valid(env)
        except Exception:
            valid = False
        row.append(1 if valid else 0)
        if valid:
            for out in outputs:
                try:
                    row.append(1 if spec.expected(out, env) else 0)
                except Exception:
                    row.append(-1)
        rows.append(row)
    payload = {
        "golden": getattr(spec, "golden", ""),
        "inputs": inputs,
        "outputs": outputs,
        "rows": rows,
    }
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
