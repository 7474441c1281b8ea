"""Path-space reduction (Section 5.2).

Three techniques, applied in sequence:

1. **Pin precedence** — input pins of wide gates are statically partitioned
   into *fast* and *slow* sets (annotated by the macro generators, where the
   symmetry that makes the partition safe is known by construction).  A path
   entering a stage through a fast pin is pruned when the same stage has a
   slow pin of the same class: the slow pin's path dominates.

2. **Fanout dominance** — two *identical* stages (same kind, same size-label
   signature) can differ only in how much they drive.  The stage with the
   largest fanout dominates; paths through dominated twins are pruned.  The
   paper prunes heuristically on fanout count, "as the capacitance information
   is an unknown during sizing" — so do we, with an optional refinement that
   compares fanout label signatures when counts tie.

3. **Regularity merging** — datapath regularity means many paths are
   *identical up to instance names*: same sequence of (stage kind, size-label
   signature, pin class).  Identical nodes are constrained "to have the same
   size properties", so such paths reduce to one representative.

On the paper's 64-bit dynamic adder these take >32,000 paths to ~120 — a
factor of >250.  The reproduction benchmark checks the same shape.

:func:`prune_paths` runs the three passes over a path list, or — given no
list — over the circuit's whole path space in one walk of the stage graph
that never materialises a raw path (:func:`_prune_graph`), with the same
result.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from ..netlist.circuit import Circuit
from ..netlist.memo import circuit_memo
from ..netlist.nets import PinSpeed
from ..netlist.stages import Stage
from ..obs import metrics, trace
from .paths import PathExtractor, PathStep, StructuralPath

#: Regularity identity of a stage: (kind, canonical size-label signature).
StageKey = Tuple[str, Tuple[str, ...]]
#: Signature of one path step for regularity comparisons.
StepKey = Tuple[str, Tuple[str, ...], str]


@dataclass
class PruneStats:
    """Accounting of one pruning run."""

    initial: int
    after_precedence: int
    after_dominance: int
    after_regularity: int

    @property
    def final(self) -> int:
        return self.after_regularity

    @property
    def reduction_factor(self) -> float:
        return self.initial / self.final if self.final else float("inf")


@dataclass(frozen=True)
class DropWitness:
    """Why one extracted path was pruned.

    ``reason`` is the pass that dropped it: ``"precedence"`` (with the FAST
    ``stage``/``pin`` it entered), ``"dominance"`` or ``"regularity"`` (with
    the same-signature ``survivor`` that still constrains the GP).
    """

    reason: str
    stage: Optional[str] = None
    pin: Optional[str] = None
    survivor: Optional[StructuralPath] = None


@dataclass
class PruningCertificate:
    """Merge/dominance certificate for one :func:`prune_paths` run.

    Claims, for every input path, either membership in ``surviving`` or a
    :class:`DropWitness`; plus the fanout-dominance claims (regularity-group
    key -> dominant stage name) the dominance pass relied on.  The linter's
    :func:`repro.lint.coverage.verify_pruning` re-checks every claim
    independently — pruning soundness as a checked invariant, not an
    assumption.
    """

    initial: int
    surviving: List[StructuralPath]
    dropped: Dict[StructuralPath, DropWitness]
    dominant: Dict[Tuple, str] = field(default_factory=dict)


@dataclass
class PruneResult:
    paths: List[StructuralPath]
    stats: PruneStats
    certificate: Optional[PruningCertificate] = None


def _stage_key(circuit: Circuit, stage: Stage) -> StageKey:
    """Regularity identity of a stage: kind + canonical label signature."""
    labels = circuit.size_table.regularity_signature(stage.labels())
    return (stage.kind.value, labels)


def stage_keys(circuit: Circuit) -> Dict[str, StageKey]:
    """Every stage's regularity identity (:func:`_stage_key`) by name.

    One table per circuit and size-table state lives in the circuit's memo
    (:func:`~repro.netlist.memo.circuit_memo`), as the timing arc tables
    do: collapse's ratio ties and designer pins get a fresh table, and an
    in-place edit drops it (:func:`~repro.netlist.memo.forget`).
    """
    memo = circuit_memo(circuit)
    key = ("stage_keys", circuit.size_table.state())
    table = memo.get(key)
    if table is None:
        table = memo[key] = {
            stage.name: _stage_key(circuit, stage) for stage in circuit.stages
        }
        metrics.counter("prune.stage_key_tables").inc()
    return table


def path_signature(circuit: Circuit, path: StructuralPath) -> Tuple:
    """Canonical identity of a path: source kind + step keys.

    Two paths with equal signatures traverse identical (same-sized) stages
    through same-class pins, so they produce identical GP constraints.
    """
    return _signed(circuit, [path], stage_keys(circuit))[0][1]


#: A path with its :func:`path_signature`, computed once per pruning run.
_Signed = Tuple[StructuralPath, Tuple]


def _step_keys(
    circuit: Circuit, keys: Dict[str, StageKey]
) -> Dict[str, Dict[str, StepKey]]:
    """``{stage: {pin: step key}}`` from the stage-key table ``keys``: a
    step's regularity identity is its stage's key plus the pin's class."""
    return {
        stage.name: {
            pin.name: keys[stage.name] + (pin.pin_class.value,)
            for pin in stage.inputs
        }
        for stage in circuit.stages
    }


def _signed(
    circuit: Circuit,
    paths: Sequence[StructuralPath],
    keys: Dict[str, StageKey],
) -> List[_Signed]:
    """Every path with its :func:`path_signature`, read from one step-key
    lookup built from the stage-key table ``keys``."""
    step_keys = _step_keys(circuit, keys)
    net = circuit.net
    return [
        (
            path,
            (
                net(path.start_net).kind.value,
                tuple(step_keys[s.stage_name][s.pin_name] for s in path.steps),
            ),
        )
        for path in paths
    ]


# ---------------------------------------------------------------------------
# pass 1: pin precedence
# ---------------------------------------------------------------------------


def precedence_pins(circuit: Circuit) -> Dict[str, FrozenSet[str]]:
    """For each stage that has any, its FAST pins that have a SLOW pin of
    the same class: the edges pin precedence prunes."""
    prunable: Dict[str, FrozenSet[str]] = {}
    for stage in circuit.stages:
        slow = {p.pin_class for p in stage.inputs if p.speed is PinSpeed.SLOW}
        fast = frozenset(
            p.name
            for p in stage.inputs
            if p.speed is PinSpeed.FAST and p.pin_class in slow
        )
        if fast:
            prunable[stage.name] = fast
    return prunable


def prune_pin_precedence(
    circuit: Circuit,
    paths: Sequence[StructuralPath],
    drops: Optional[Dict[StructuralPath, DropWitness]] = None,
) -> List[StructuralPath]:
    """Drop paths that enter any stage through a FAST pin when that stage has
    a SLOW pin of the same pin class (the slow path subsumes the fast one).

    When ``drops`` is given, each pruned path records the FAST step that
    justified dropping it."""
    prunable = precedence_pins(circuit)
    kept = []
    for path in paths:
        for step in path.steps:
            if step.pin_name in prunable.get(step.stage_name, ()):
                if drops is not None:
                    drops[path] = DropWitness(
                        "precedence", stage=step.stage_name, pin=step.pin_name
                    )
                break
        else:
            kept.append(path)
    return kept


# ---------------------------------------------------------------------------
# pass 2: fanout dominance
# ---------------------------------------------------------------------------


def dominant_stages(circuit: Circuit) -> Dict[StageKey, str]:
    """For each regularity group, the name of its dominant (max fanout)
    stage.  Ties break lexicographically for determinism."""
    return _dominant(circuit, stage_keys(circuit))


def _dominant(
    circuit: Circuit, keys: Dict[str, StageKey]
) -> Dict[StageKey, str]:
    groups: Dict[StageKey, List[Stage]] = {}
    for stage in circuit.stages:
        groups.setdefault(keys[stage.name], []).append(stage)
    dominant: Dict[StageKey, str] = {}
    for key, members in groups.items():
        best = max(
            members,
            key=lambda s: (len(circuit.fanout_of(s.output.name)), s.name),
        )
        dominant[key] = best.name
    return dominant


def prune_fanout_dominance(
    circuit: Circuit,
    paths: Sequence[StructuralPath],
    drops: Optional[Dict[StructuralPath, DropWitness]] = None,
) -> List[StructuralPath]:
    """Keep only paths whose every step goes through its group's dominant
    stage — unless no retained path would cover that signature, in which case
    the path survives (soundness guard for asymmetric surroundings).

    When ``drops`` is given, each pruned path records a ``"dominance"``
    witness (the same-signature survivor is filled in by
    :func:`prune_paths` once the final set is known)."""
    keys = stage_keys(circuit)
    kept, _pruned = _dominance(
        _signed(circuit, paths, keys), keys, _dominant(circuit, keys), drops
    )
    return [path for path, _sig in kept]


def _dominance(
    signed: Sequence[_Signed],
    keys: Dict[str, StageKey],
    dominant: Dict[StageKey, str],
    drops: Optional[Dict[StructuralPath, DropWitness]],
) -> Tuple[List[_Signed], List[_Signed]]:
    """:func:`prune_fanout_dominance` over signed paths; returns the kept
    and the pruned ones."""
    kept: List[_Signed] = []
    dropped: List[_Signed] = []
    for entry in signed:
        through_dominant = all(
            dominant[keys[s.stage_name]] == s.stage_name for s in entry[0].steps
        )
        (kept if through_dominant else dropped).append(entry)

    covered = {sig for _path, sig in kept}
    pruned: List[_Signed] = []
    for entry in dropped:
        path, sig = entry
        if sig not in covered:
            kept.append(entry)
            covered.add(sig)
        else:
            pruned.append(entry)
            if drops is not None:
                drops[path] = DropWitness("dominance")
    return kept, pruned


# ---------------------------------------------------------------------------
# pass 3: regularity merging
# ---------------------------------------------------------------------------


def prune_regularity(
    circuit: Circuit,
    paths: Sequence[StructuralPath],
    drops: Optional[Dict[StructuralPath, DropWitness]] = None,
) -> List[StructuralPath]:
    """One representative per path signature (first in input order)."""
    signed = _signed(circuit, paths, stage_keys(circuit))
    return [path for path, _sig in _regularity(signed, drops)]


def _regularity(
    signed: Sequence[_Signed],
    drops: Optional[Dict[StructuralPath, DropWitness]],
) -> List[_Signed]:
    seen: Dict[Tuple, StructuralPath] = {}
    kept: List[_Signed] = []
    for entry in signed:
        path, sig = entry
        if sig not in seen:
            seen[sig] = path
            kept.append(entry)
        elif drops is not None:
            drops[path] = DropWitness("regularity", survivor=seen[sig])
    return kept


# ---------------------------------------------------------------------------
# combined
# ---------------------------------------------------------------------------


def prune_paths(
    circuit: Circuit,
    paths: Optional[Sequence[StructuralPath]] = None,
    use_precedence: bool = True,
    use_dominance: bool = True,
    use_regularity: bool = True,
    certify: bool = False,
) -> PruneResult:
    """Run the (selected) pruning passes in the paper's order and account for
    the reduction at each step.  Flags support the ablation benchmark.

    ``paths`` defaults to every structural path of the circuit
    (:meth:`PathExtractor.extract`).  With all three passes and no
    certificate, that default input is never materialised:
    :func:`_prune_graph` computes the same result in one walk of the stage
    graph.  A given list runs the list passes.

    With ``certify=True`` the result carries a :class:`PruningCertificate`
    claiming, per input path, why dropping it was sound; verify with
    :func:`repro.lint.coverage.verify_pruning`."""
    certificate = None
    with trace.span("prune_paths") as sp:
        if paths is None and not certify and (
            use_precedence and use_dominance and use_regularity
        ):
            route = "graph"
            survivors, stats = _prune_graph(circuit)
        else:
            route = "list"
            if paths is None:
                paths = PathExtractor(circuit).extract()
            survivors, stats, certificate = _prune_list(
                circuit, paths, use_precedence, use_dominance,
                use_regularity, certify,
            )
        counts = asdict(stats)
        sp.set_attrs(route=route, **counts)
    gauges = metrics.registry()
    for name, value in counts.items():
        gauges.gauge(f"prune.{name}").set(value)
    metrics.counter("prune.runs").inc()
    return PruneResult(paths=survivors, stats=stats, certificate=certificate)


def _prune_list(
    circuit: Circuit,
    paths: Sequence[StructuralPath],
    use_precedence: bool,
    use_dominance: bool,
    use_regularity: bool,
    certify: bool,
) -> Tuple[List[StructuralPath], PruneStats, Optional[PruningCertificate]]:
    """:func:`prune_paths` over a materialised path list, one pass after
    the other."""
    initial = len(paths)
    current = list(paths)
    drops: Optional[Dict[StructuralPath, DropWitness]] = {} if certify else None
    if use_precedence:
        current = prune_pin_precedence(circuit, current, drops=drops)
    after_precedence = len(current)
    keys = stage_keys(circuit)
    signed = _signed(circuit, current, keys)
    dominant: Dict[StageKey, str] = {}
    pruned: List[_Signed] = []
    if use_dominance:
        dominant = _dominant(circuit, keys)
        signed, pruned = _dominance(signed, keys, dominant, drops)
    after_dominance = len(signed)
    if use_regularity:
        signed = _regularity(signed, drops)
    survivors = [path for path, _sig in signed]
    certificate = None
    if certify:
        # Dominance drops learn their same-signature survivor now that the
        # final set is known; the dominance pass's fanout claims ride along.
        by_sig = {sig: path for path, sig in signed}
        for path, sig in pruned:
            drops[path] = DropWitness("dominance", survivor=by_sig.get(sig))
        certificate = PruningCertificate(
            initial=initial,
            surviving=list(survivors),
            dropped=drops,
            dominant=dominant,
        )
    stats = PruneStats(
        initial=initial,
        after_precedence=after_precedence,
        after_dominance=after_dominance,
        after_regularity=len(survivors),
    )
    return survivors, stats, certificate


#: Where the first suffix of one signature below a net goes: the step out
#: of the net, the net that step reaches and the signature id of the rest
#: of the suffix there.  ``None`` is the empty suffix of a net that ends
#: paths.
_Hop = Optional[Tuple[PathStep, str, int]]


class _Suffixes(NamedTuple):
    """The path suffixes below one net, as the three passes see them.

    ``raw`` counts all of them, ``kept`` those that enter no FAST pin
    pruned by pin precedence, ``through_dominant`` those kept ones whose
    every stage is its group's dominant stage.  ``first`` and
    ``first_dominant`` map each signature id of the kept and of the
    through-dominant suffixes to the first such suffix in DFS order, in
    order of first occurrence.
    """

    raw: int
    kept: int
    through_dominant: int
    first: Dict[int, _Hop]
    first_dominant: Dict[int, _Hop]


def _prune_graph(circuit: Circuit) -> Tuple[List[StructuralPath], PruneStats]:
    """``_prune_list`` over ``PathExtractor(circuit).extract()`` with all
    three passes, without materialising a raw path: the same survivors in
    the same order and the same :class:`PruneStats`.

    Pin precedence is an edge filter, so the walk skips pruned pins.  The
    list passes then keep the first through-dominant path of each
    signature, followed by the first path of each signature that no
    through-dominant path has.  DFS order is lexicographic in fan-out
    index, so the first path of a signature below a net is its first
    fan-out edge that reaches the signature, continued by the first suffix
    of the rest below that edge: both kinds of first path decompose net
    by net (:class:`_Suffixes`).  A signature id interns one step key
    followed by the id of the rest; 0 is the empty suffix.
    """
    keys = stage_keys(circuit)
    dominant = _dominant(circuit, keys)
    step_keys = _step_keys(circuit, keys)
    prunable = precedence_pins(circuit)
    ends = set(circuit.primary_outputs)
    step_ids: Dict[StepKey, int] = {}
    sig_ids: Dict[Tuple[int, int], int] = {}
    memo: Dict[str, _Suffixes] = {}

    def extend(into: Dict[int, _Hop], step, net, step_id, tails) -> None:
        for tail in tails:
            sig = sig_ids.setdefault((step_id, tail), len(sig_ids) + 1)
            if sig not in into:
                into[sig] = (step, net, tail)

    def walk(net: str, source: bool = False) -> _Suffixes:
        fanout = circuit.fanout_of(net)
        # A source starts paths; any other net ends one when it is an
        # output or unloaded (the extractor's sink rule).
        ends_here = not source and (net in ends or not fanout)
        raw = kept = through = int(ends_here)
        first: Dict[int, _Hop] = {0: None} if ends_here else {}
        first_dominant = dict(first)
        for stage, pin in fanout:
            out = stage.output.name
            below = memo.get(out)
            if below is None:
                below = memo[out] = walk(out)
            raw += below.raw
            if pin.name in prunable.get(stage.name, ()):
                continue
            step = PathStep(stage.name, pin.name)
            step_key = step_keys[stage.name][pin.name]
            step_id = step_ids.setdefault(step_key, len(step_ids))
            kept += below.kept
            extend(first, step, out, step_id, below.first)
            if dominant[keys[stage.name]] == stage.name:
                through += below.through_dominant
                extend(
                    first_dominant, step, out, step_id, below.first_dominant
                )
        return _Suffixes(raw, kept, through, first, first_dominant)

    # Path signatures: (source kind, suffix signature id) -> (source, hop).
    first: Dict[Tuple[str, int], Tuple[str, _Hop]] = {}
    first_dominant: Dict[Tuple[str, int], Tuple[str, _Hop]] = {}
    raw = kept = through = 0
    for source in PathExtractor(circuit).source_nets():
        below = walk(source, source=True)
        kind = circuit.net(source).kind.value
        raw += below.raw
        kept += below.kept
        through += below.through_dominant
        for sig, hop in below.first.items():
            first.setdefault((kind, sig), (source, hop))
        for sig, hop in below.first_dominant.items():
            first_dominant.setdefault((kind, sig), (source, hop))

    def materialise(start: str, hop: _Hop, dominant_only: bool):
        steps = []
        while hop is not None:
            step, net, tail = hop
            steps.append(step)
            below = memo[net]
            hop = (below.first_dominant if dominant_only else below.first)[tail]
        return StructuralPath(start_net=start, steps=tuple(steps), end_net=net)

    survivors = [
        materialise(start, hop, True) for start, hop in first_dominant.values()
    ]
    uncovered = [
        materialise(start, hop, False)
        for sig, (start, hop) in first.items()
        if sig not in first_dominant
    ]
    survivors.extend(uncovered)
    stats = PruneStats(
        initial=raw,
        after_precedence=kept,
        after_dominance=through + len(uncovered),
        after_regularity=len(survivors),
    )
    return survivors, stats
