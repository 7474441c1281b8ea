"""The eager path assembly the compiled path rows replaced, kept as their
oracle.

:func:`reference_transition_paths` is the recursive, tuple-concatenating
expansion and :func:`reference_path_delay` the ``Posynomial.weighted_sum``
over every hop's ``(1, delay)`` and ``(w_j, slope)`` pairs plus the
weighted start slope.  ``ConstraintGenerator.transition_paths`` and
``ConstraintGenerator.path_row`` must reproduce both exactly: the same
paths in the same order, the same terms in the same insertion order with
bit-identical coefficients.
"""

from repro.models.gates import SLOPE_LEAK, Transition
from repro.netlist.nets import NetKind
from repro.posy import Posynomial, as_posynomial
from repro.sim.timing import stage_arcs


def reference_transition_paths(generator, path):
    circuit = generator.circuit
    results = []

    def extend(i, incoming, hops):
        if i == len(path.steps):
            results.append(hops)
            return
        step = path.steps[i]
        stage = circuit.stage(step.stage_name)
        pin = stage.pin(step.pin_name)
        for in_trans, out_trans in stage_arcs(stage, pin):
            if in_trans is incoming:
                extend(i + 1, out_trans, hops + ((stage.name, pin.name, out_trans),))

    for start in (Transition.RISE, Transition.FALL):
        extend(0, start, ())
    return results


def reference_path_delay(generator, hops):
    sens = generator.library.tech.slope_sensitivity
    start = generator.spec.input_slope
    if hops:
        first_pin = generator.circuit.stage(hops[0][0]).pin(hops[0][1])
        if first_pin.net.kind is NetKind.CLOCK:
            start *= 0.5
    pairs = []
    weight = 0.0
    for delay, slope in reversed(generator.analyzer.path_arcs(hops)):
        pairs.append((1.0, delay))
        pairs.append((weight, slope))
        weight = sens + SLOPE_LEAK * weight
    if hops:
        pairs.append((weight * start, as_posynomial(1.0)))
    return Posynomial.weighted_sum(pairs)
