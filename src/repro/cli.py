"""``smart-advisor`` command line interface.

Subcommands:

* ``advise``  — run the Figure-1 flow for one macro spec and print the
  comparison table;
* ``size``    — size one named topology and print the label widths;
* ``list``    — list the registered topologies;
* ``export``  — generate a macro, size it, and print the SPICE deck;
* ``savings`` — run the Section-6.1 original-vs-SMART protocol on a topology;
* ``curve``   — print a Figure-6 style area-delay sweep for a topology;
* ``inspect`` — replay a ``--trace`` JSONL file into a timing/convergence
  report;
* ``perf``    — the performance observatory: ``perf report`` (self-time
  attribution / ledger summary), ``perf export`` (Chrome ``trace_event`` /
  speedscope flame graphs), ``perf watch`` (tail a live ``--stream`` file).

Observability flags (accepted by every run subcommand, or globally before
the subcommand):

* ``--trace FILE``  — record a hierarchical span trace of the whole run as
  JSONL (replay with ``smart-advisor inspect FILE``);
* ``--stream FILE`` — stream the same JSONL *live*, one line per completed
  span/event (tail with ``smart-advisor perf watch FILE --follow``);
* ``--ledger FILE`` — append one run record per advisor/sizer/sweep/lint
  invocation to an append-only JSONL run ledger;
* ``--profile``     — print the span self-time attribution and the metrics
  registry after the command;
* ``-v/--verbose``  — route ``repro.*`` diagnostics to stderr (repeat for
  DEBUG).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.advisor import SmartAdvisor
from .core.constraints import DesignConstraints
from .macros.base import MacroSpec
from .netlist.spice import export_circuit
from .obs import metrics as obs_metrics
from .obs import perf as obs_perf
from .obs import trace as obs_trace
from .obs.inspect import inspect_file
from .obs.log import configure_logging, emit, get_logger

log = get_logger(__name__)


def _spec_from_args(args: argparse.Namespace) -> MacroSpec:
    params = ()
    group = getattr(args, "label_group", None)
    if group is not None:
        params = (("label_group", group),)
    return MacroSpec(
        args.macro, args.width, output_load=args.load, params=params
    )


def _constraints_from_args(args: argparse.Namespace) -> DesignConstraints:
    return DesignConstraints(
        delay=args.delay,
        cost=args.cost,
        input_slope=args.input_slope,
    )


def _add_obs_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Observability flags.

    Added once to the root parser (with real defaults) and once to every
    subparser via a parent (with SUPPRESS defaults), so they are accepted
    both before and after the subcommand without the subparser's defaults
    clobbering a value parsed at the root.
    """
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--trace", metavar="FILE", default=default,
        help="write a JSONL span trace of the run to FILE",
    )
    parser.add_argument(
        "--stream", metavar="FILE", default=default,
        help="stream the span trace to FILE live, line by line "
             "(tail with: perf watch FILE --follow)",
    )
    parser.add_argument(
        "--ledger", metavar="FILE", default=default,
        help="append machine-readable run records to this JSONL run ledger",
    )
    parser.add_argument(
        "--profile", action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="print a span self-time attribution after the command",
    )
    parser.add_argument(
        "-v", "--verbose", action="count",
        default=argparse.SUPPRESS if suppress else 0,
        help="diagnostics on stderr (-v info, -vv debug)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("macro", help="macro type (mux, decoder, adder, ...)")
    parser.add_argument("width", type=int, help="bit width / input count")
    parser.add_argument("--delay", type=float, default=150.0, help="delay budget, ps")
    parser.add_argument("--load", type=float, default=20.0, help="output load, fF")
    parser.add_argument(
        "--cost", default="area", choices=["area", "power", "clock", "area+clock"]
    )
    parser.add_argument("--input-slope", type=float, default=30.0)
    parser.add_argument(
        "--label-group", type=int, default=None, metavar="N",
        help=(
            "size-label granularity for macros that honor it (bits per "
            "label group; 1 = per-bit labels, generator default "
            "otherwise)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smart-advisor",
        description="SMART macro design advisor (DAC 2000 reproduction)",
    )
    _add_obs_flags(parser, suppress=False)
    obs_parent = argparse.ArgumentParser(add_help=False)
    _add_obs_flags(obs_parent, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    advise = sub.add_parser(
        "advise", help="explore all topologies for a spec", parents=[obs_parent]
    )
    _add_common(advise)
    advise.add_argument(
        "--workers", type=int, default=1,
        help="size candidate topologies across this many processes",
    )
    advise.add_argument(
        "--cache", metavar="FILE",
        help="persistent JSONL sizing cache (created if missing)",
    )
    advise.add_argument(
        "--certify", action="store_true",
        help="post-solve gate: reject candidates whose OPT70x solution "
             "certificate (issued by the sizer, or the one a cache hit was "
             "admitted on) shows the solved point fails a constraint",
    )

    sweep = sub.add_parser(
        "sweep",
        help="advise a spec grid (macro x width x delay) in parallel",
        parents=[obs_parent],
        epilog=(
            "exit codes: 0 = every point found a feasible best, "
            "1 = some point infeasible or errored"
        ),
    )
    sweep.add_argument(
        "--macro", action="append", required=True,
        help="macro type to sweep (repeatable)",
    )
    sweep.add_argument(
        "--widths", default="4,8",
        help="comma-separated bit widths",
    )
    sweep.add_argument(
        "--delays", default="250,400",
        help="comma-separated delay budgets, ps",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="advise grid points across this many processes",
    )
    sweep.add_argument(
        "--cache", metavar="FILE",
        help="persistent JSONL sizing cache shared across the sweep",
    )
    sweep.add_argument(
        "--out", metavar="FILE",
        help="write the smart-sweep/1 JSON artifact",
    )
    sweep.add_argument("--load", type=float, default=20.0,
                       help="output load, fF")
    sweep.add_argument(
        "--cost", default="area", choices=["area", "power", "clock", "area+clock"]
    )
    sweep.add_argument("--input-slope", type=float, default=30.0)
    sweep.add_argument("--tolerance", type=float, default=2.0,
                       help="sizing convergence tolerance, ps")

    size = sub.add_parser(
        "size", help="size one topology", parents=[obs_parent]
    )
    _add_common(size)
    size.add_argument("--topology", required=True)
    size.add_argument(
        "--cache", metavar="FILE",
        help="persistent JSONL sizing cache (created if missing)",
    )
    size.add_argument(
        "--report", action="store_true",
        help="print the full timing/slope report for the solution",
    )
    size.add_argument(
        "--save", metavar="PATH",
        help="write the sized design as a JSON artifact",
    )

    sub.add_parser(
        "list", help="list registered topologies", parents=[obs_parent]
    )

    export = sub.add_parser(
        "export", help="size a topology and print SPICE", parents=[obs_parent]
    )
    _add_common(export)
    export.add_argument("--topology", required=True)

    savings = sub.add_parser(
        "savings", help="Section-6.1 protocol: over-design baseline vs SMART",
        parents=[obs_parent],
    )
    _add_common(savings)
    savings.add_argument("--topology", required=True)
    savings.add_argument(
        "--margin", type=float, default=1.5,
        help="over-design margin of the baseline designer",
    )

    curve = sub.add_parser(
        "curve", help="area-delay sweep for a topology", parents=[obs_parent]
    )
    _add_common(curve)
    curve.add_argument("--topology", required=True)
    curve.add_argument(
        "--scales", default="0.9,1.0,1.15,1.3",
        help="comma-separated delay multipliers",
    )

    pareto = sub.add_parser(
        "pareto", help="area-vs-clock frontier across topologies",
        parents=[obs_parent],
    )
    _add_common(pareto)
    pareto.add_argument(
        "--weights", default="0,1,4",
        help="comma-separated clock-load weights for the objective sweep",
    )

    inspect = sub.add_parser(
        "inspect", help="replay a --trace JSONL file as a readable report",
        parents=[obs_parent],
    )
    inspect.add_argument("trace_file", help="JSONL trace written by --trace")

    perf_p = sub.add_parser(
        "perf",
        help="performance observatory: attribution, exports, watch",
        parents=[obs_parent],
    )
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)

    perf_report = perf_sub.add_parser(
        "report",
        help="self-time attribution for a trace, or a run-ledger summary",
    )
    perf_report.add_argument(
        "target", help="a --trace JSONL file or a --ledger JSONL file"
    )

    perf_export = perf_sub.add_parser(
        "export",
        help="convert a --trace JSONL file to flame-graph formats",
    )
    perf_export.add_argument("trace_file", help="JSONL trace to convert")
    perf_export.add_argument(
        "--chrome", metavar="OUT",
        help="write Chrome trace_event JSON (chrome://tracing, Perfetto)",
    )
    perf_export.add_argument(
        "--speedscope", metavar="OUT",
        help="write a speedscope evented profile (https://speedscope.app)",
    )

    perf_watch = perf_sub.add_parser(
        "watch", help="tail a --stream trace file, rendered one span per line"
    )
    perf_watch.add_argument("stream_file", help="JSONL stream to tail")
    perf_watch.add_argument(
        "--follow", action="store_true",
        help="keep polling for new records (like tail -f)",
    )
    perf_watch.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="stop following after S seconds",
    )

    lint = sub.add_parser(
        "lint",
        help="static analysis: ERC, dataflow, coverage, GP pre-solve rules",
        parents=[obs_parent],
        epilog=(
            "exit codes: 0 = clean (no unwaived findings at or above "
            "--fail-on), 1 = findings, 2 = usage error (bad "
            "macro/width/topology, or --solution failed to size)"
        ),
    )
    lint.add_argument("macro", nargs="?", help="macro type (mux, adder, ...)")
    lint.add_argument(
        "width", nargs="?", type=int, help="bit width / input count"
    )
    lint.add_argument(
        "--topology", help="lint one topology (default: all applicable)"
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list every registered rule and exit",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    lint.add_argument(
        "--waivers", metavar="FILE", help="waiver/suppression file"
    )
    lint.add_argument(
        "--gp", action="store_true",
        help="also build each circuit's constraints and run the GP2xx rules",
    )
    lint.add_argument(
        "--coverage", action="store_true",
        help="also emit and verify the Section-5.2 pruning certificate",
    )
    lint.add_argument(
        "--dataflow", action="store_true",
        help="also run the interval-STA screen (DFA303) against --delay "
             "and report its provably-infeasible/feasible/unknown verdict",
    )
    lint.add_argument(
        "--symbolic", action="store_true",
        help="also run the switch-level SVC4xx group: functional "
             "equivalence vs the golden spec, drive fights, floating "
             "nets, sneak paths, slice isomorphism",
    )
    lint.add_argument(
        "--exact-budget", type=int, default=None, metavar="N",
        help="--symbolic: enumerate exhaustively up to N inputs "
             "(default 10), sample above",
    )
    lint.add_argument(
        "--samples", type=int, default=None, metavar="N",
        help="--symbolic: random assignments above the exact budget "
             "(default 64)",
    )
    lint.add_argument(
        "--electrical", action="store_true",
        help="also run the post-sizing NSA6xx electrical-safety group: "
             "charge-sharing certificates, keeper ratioed-fight/restore "
             "proofs, pass-chain Elmore budgets, coupling screens",
    )
    lint.add_argument(
        "--solution", action="store_true",
        help="also run the post-solve OPT7xx group: size each circuit "
             "with the slice-collapsed sizer against --delay, then audit "
             "the solved point (primal feasibility, KKT optimality-gap "
             "bound, replication soundness, certificate freshness)",
    )
    lint.add_argument(
        "--fail-on", choices=["warning", "error"], default="error",
        help="severity threshold for exit code 1 (default: error; "
             "'warning' also fails on unwaived warnings) — applied "
             "uniformly across every rule family, including --hier",
    )
    lint.add_argument(
        "--sarif", action="store_true",
        help="emit SARIF 2.1.0 instead of text (for CI code-scanning upload)",
    )
    lint.add_argument(
        "--hier", action="store_true",
        help="hierarchical mode: compose per-macro interface contracts "
             "over the stock multi-macro demo block (CTR5xx rules) "
             "instead of flattening; MACRO/WIDTH are ignored",
    )
    lint.add_argument(
        "--contracts", metavar="FILE", default=None,
        help="--hier: persistent contract store (JSONL); built cold, "
             "reused by --changed-only",
    )
    lint.add_argument(
        "--changed-only", action="store_true",
        help="incremental mode: replay cached results for anything whose "
             "content fingerprints are unchanged (--hier: reuse current "
             "contracts; flat: replay from --rule-cache)",
    )
    lint.add_argument(
        "--rule-cache", metavar="FILE", default=None,
        help="per-rule incremental result cache (JSONL); always "
             "refreshed, replayed from under --changed-only",
    )
    lint.add_argument(
        "--verify-contracts", type=int, default=0, metavar="K",
        help="--hier: re-prove K sampled instances against flat analysis "
             "(CTR505 soundness audit)",
    )
    lint.add_argument("--delay", type=float, default=150.0,
                      help="delay budget for --gp/--dataflow, ps")
    lint.add_argument("--load", type=float, default=20.0,
                      help="output load, fF")
    lint.add_argument("--input-slope", type=float, default=30.0)
    lint.add_argument(
        "--label-group", type=int, default=None, metavar="N",
        help=(
            "size-label granularity for macros that honor it (bits per "
            "label group; 1 = per-bit labels — the granularity "
            "--solution's slice collapse thrives on)"
        ),
    )
    lint.add_argument(
        "--max-paths", type=int, default=200_000,
        help="skip --coverage for circuits with more extracted paths",
    )

    return parser


def _sniff_perf_target(path: str) -> str:
    """Classify a perf-report target: ``"trace"`` or ``"ledger"``."""
    import json as _json

    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = _json.loads(line)
            except _json.JSONDecodeError:
                break
            if isinstance(obj, dict):
                if obj.get("type") == "trace":
                    return "trace"
                if obj.get("format") == obs_perf.LEDGER_FORMAT:
                    return "ledger"
            break
    raise ValueError(
        f"{path}: neither a --trace JSONL file nor a "
        f"{obs_perf.LEDGER_FORMAT} run ledger"
    )


def _run_perf(args: argparse.Namespace) -> int:
    import json as _json

    if args.perf_command == "report":
        try:
            kind = _sniff_perf_target(args.target)
            if kind == "trace":
                dump = obs_trace.load_jsonl(args.target)
                emit(obs_perf.render_attribution_report(dump.spans))
            else:
                ledger = obs_perf.RunLedger(args.target)
                emit(obs_perf.render_ledger_summary(ledger.records))
        except (OSError, ValueError) as exc:
            emit(f"error: {exc}")
            return 2
        return 0

    if args.perf_command == "export":
        if not args.chrome and not args.speedscope:
            emit("error: perf export needs --chrome and/or --speedscope")
            return 2
        try:
            dump = obs_trace.load_jsonl(args.trace_file)
        except (OSError, ValueError) as exc:
            emit(f"error: cannot read trace: {exc}")
            return 2
        try:
            if args.chrome:
                payload = obs_perf.to_chrome_trace(
                    dump.spans, dump.events, unix_time=dump.unix_time
                )
                with open(args.chrome, "w") as fh:
                    _json.dump(payload, fh, indent=1)
                    fh.write("\n")
                emit(f"wrote Chrome trace: {args.chrome}")
            if args.speedscope:
                payload = obs_perf.to_speedscope(
                    dump.spans, name=args.trace_file
                )
                with open(args.speedscope, "w") as fh:
                    _json.dump(payload, fh, indent=1)
                    fh.write("\n")
                emit(f"wrote speedscope profile: {args.speedscope}")
        except OSError as exc:
            emit(f"error: cannot write export: {exc}")
            return 2
        return 0

    # watch
    from .obs.stream import watch as stream_watch

    try:
        shown = stream_watch(
            args.stream_file,
            emit,
            follow=args.follow,
            timeout_s=args.timeout,
        )
    except OSError as exc:
        emit(f"error: cannot read stream: {exc}")
        return 2
    except KeyboardInterrupt:
        return 0
    return 0 if shown else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "verbose", 0) or 0)

    if args.command == "inspect":
        try:
            emit(inspect_file(args.trace_file))
        except (OSError, ValueError) as exc:
            emit(f"error: cannot read trace: {exc}")
            return 1
        return 0

    if args.command == "perf":
        return _run_perf(args)

    trace_path = getattr(args, "trace", None)
    stream_path = getattr(args, "stream", None)
    ledger_path = getattr(args, "ledger", None)
    profile = getattr(args, "profile", False)
    tracer = None
    stream_writer = None
    if trace_path or stream_path or profile:
        tracer = obs_trace.Tracer()
        obs_trace.install(tracer)
        if stream_path:
            from .obs.stream import JsonlStreamWriter

            try:
                stream_writer = JsonlStreamWriter(stream_path).attach(tracer)
            except OSError as exc:
                emit(f"error: cannot open stream file: {exc}")
                obs_trace.install(None)
                return 2
    if ledger_path:
        obs_perf.install_ledger(obs_perf.RunLedger(ledger_path))
    try:
        with obs_trace.span(f"cli:{args.command}"):
            return _run_command(args)
    finally:
        if ledger_path:
            obs_perf.install_ledger(None)
        if stream_writer is not None:
            stream_writer.close()
            log.info("streamed trace: %s", stream_path)
        if tracer is not None:
            obs_trace.install(None)
            if trace_path:
                try:
                    tracer.write_jsonl(trace_path)
                    log.info("wrote trace: %s", trace_path)
                except OSError as exc:
                    emit(f"error: cannot write trace: {exc}")
            if profile:
                emit()
                emit(obs_perf.render_attribution_report(tracer.spans))
                emit()
                emit(obs_metrics.registry().render())


def _lint_exit(reports, fail_on: str) -> int:
    """Uniform severity-threshold exit code for every lint mode.

    0 = clean at the threshold, 1 = findings: unwaived errors always
    fail; ``fail_on == "warning"`` additionally fails on unwaived
    warnings.
    """
    if not all(r.ok for r in reports):
        return 1
    if fail_on == "warning" and any(r.warnings for r in reports):
        return 1
    return 0


def _run_lint(args: argparse.Namespace, advisor: SmartAdvisor) -> int:
    import json as _json

    from .lint import (
        CIRCUIT_GROUPS,
        all_rules,
        lint_circuit,
        load_waivers,
        render_text,
    )
    from .lint.reporters import report_dict

    if args.list_rules:
        families = (
            ("ERC", "electrical rule checks (netlist + circuit-family)"),
            ("CST", "constraint-coverage / pruning certificates"),
            ("GP", "geometric-program pre-solve checks"),
            ("DFA", "whole-circuit dataflow analyses"),
            ("SVC", "switch-level symbolic verification"),
            ("CTR", "hierarchical interface contracts"),
            ("NSA", "quantitative electrical noise safety"),
            ("OPT", "post-solve solution-certificate audits"),
        )
        by_family: dict = {}
        for rule_obj in all_rules():
            prefix = rule_obj.id.rstrip("0123456789")
            by_family.setdefault(prefix, []).append(rule_obj)
        known = [p for p, _ in families]
        order = list(families) + [
            (p, "") for p in sorted(by_family) if p not in known
        ]
        emit(f"{'id':<8} {'severity':<8} {'group':<10} title")
        for prefix, blurb in order:
            members = by_family.get(prefix)
            if not members:
                continue
            emit(f"-- {prefix}: {blurb} ({len(members)} rules)")
            for rule_obj in members:
                emit(
                    f"{rule_obj.id:<8} {str(rule_obj.severity):<8} "
                    f"{rule_obj.group:<10} {rule_obj.title}"
                )
                doc_line = rule_obj.doc.splitlines()[0] if rule_obj.doc else ""
                if doc_line:
                    emit(f"{'':28s}{doc_line}")
        return 0
    waivers = load_waivers(args.waivers) if args.waivers else ()
    if args.hier:
        return _run_lint_hier(args, advisor, waivers)
    if args.macro is None or args.width is None:
        emit("error: lint needs MACRO and WIDTH (or --list-rules/--hier)")
        return 2
    if args.changed_only and not args.rule_cache:
        emit("error: --changed-only without --hier needs --rule-cache FILE")
        return 2

    spec = _spec_from_args(args)
    if args.topology:
        generators = [advisor.database.generator(args.topology)]
    else:
        generators = advisor.database.applicable(spec)
        if not generators:
            emit(f"error: no topology implements {args.macro}[{args.width}]")
            return 2

    rule_cache = None
    if args.rule_cache:
        from .lint import RuleResultCache

        rule_cache = RuleResultCache(args.rule_cache)
    reports = []
    verdicts = []
    for generator in generators:
        if not generator.applicable(spec):
            emit(
                f"error: {generator.name} cannot implement "
                f"{args.macro}[{args.width}]"
            )
            return 2
        # build(), not generate(): lint must reach circuits that would fail
        # the generator's own validation gate.  The golden spec is attached
        # manually for the same reason.
        circuit = generator.build(spec, advisor.tech)
        circuit.functional_spec = generator.functional_spec(spec)
        groups = list(CIRCUIT_GROUPS)
        options = {}
        if args.symbolic:
            groups.append("symbolic")
            if args.exact_budget is not None:
                options["symbolic_exact_budget"] = args.exact_budget
            if args.samples is not None:
                options["symbolic_samples"] = args.samples
        if args.electrical:
            groups.append("electrical")
        if args.solution:
            from .core.constraints import DesignConstraints
            from .lint.solution.rules import build_solution_options
            from .sizing import RegularityCollapsedSizer, SizingError

            delay_spec = DesignConstraints(
                delay=args.delay, input_slope=args.input_slope
            ).to_delay_spec()
            try:
                collapsed = RegularityCollapsedSizer(
                    circuit, advisor.library
                ).size(delay_spec)
            except SizingError as exc:
                emit(
                    f"error: --solution could not size {circuit.name} at "
                    f"{args.delay:.0f} ps: {exc}"
                )
                return 2
            groups.append("solution")
            options["solution"] = build_solution_options(
                collapsed.result.widths,
                delay_spec,
                classes=(
                    collapsed.classes if not collapsed.fallback else None
                ),
                certificate=(
                    collapsed.certificate.to_payload()
                    if collapsed.certificate is not None else None
                ),
            )
            mode = (
                f"fallback ({collapsed.fallback_reason})"
                if collapsed.fallback
                else f"collapsed {collapsed.full_free}->"
                     f"{collapsed.collapsed_free} labels"
            )
            # Status line, not a finding: keep stdout machine-readable
            # under --json/--sarif by routing it through the logger.
            if args.json or args.sarif:
                log.info(
                    "%s: --solution sized at %.0f ps (%s)",
                    circuit.name, args.delay, mode,
                )
            else:
                emit(
                    f"{circuit.name}: --solution sized at "
                    f"{args.delay:.0f} ps ({mode})"
                )
        # The cache is always refreshed; --changed-only additionally
        # replays hits, so cold runs record and warm runs skip.
        reports.append(
            lint_circuit(
                circuit, groups=groups, waivers=waivers, options=options,
                cache=rule_cache, replay=args.changed_only,
            )
        )
        if args.dataflow:
            from .core.constraints import DesignConstraints
            from .lint import screen_feasibility
            from .lint.waivers import apply_waivers as _apply

            screen = screen_feasibility(
                circuit,
                advisor.library,
                DesignConstraints(
                    delay=args.delay, input_slope=args.input_slope
                ).to_delay_spec(),
            )
            screen.report.diagnostics[:] = _apply(
                screen.report.diagnostics, waivers
            )
            verdicts.append(screen)
            reports.append(screen.report)
        if args.gp or args.coverage:
            from .core.constraints import DesignConstraints
            from .lint.waivers import apply_waivers
            from .sizing.engine import SmartSizer

            def waived(report):
                report.diagnostics[:] = apply_waivers(
                    report.diagnostics, waivers
                )
                return report

            sizer = SmartSizer(circuit, advisor.library)
            delay_spec = DesignConstraints(
                delay=args.delay, input_slope=args.input_slope
            ).to_delay_spec()
            if args.gp:
                reports.append(waived(sizer.pre_solve_lint(delay_spec)))
            if args.coverage:
                from .lint.coverage import verify_pruning
                from .sizing.paths import PathExtractor
                from .sizing.pruning import prune_paths

                extractor = PathExtractor(circuit)
                n_paths = extractor.count()
                if n_paths > args.max_paths:
                    emit(
                        f"{circuit.name}: coverage skipped "
                        f"({n_paths:,} paths > --max-paths {args.max_paths:,})"
                    )
                else:
                    raw = extractor.extract()
                    result = prune_paths(circuit, raw, certify=True)
                    reports.append(
                        waived(
                            verify_pruning(circuit, raw, result.certificate)
                        )
                    )

    if args.sarif:
        from .lint import render_sarif

        emit(render_sarif(reports))
    elif args.json:
        payload = [report_dict(r) for r in reports]
        if verdicts:
            payload.append({
                "interval_sta": [
                    {
                        "circuit": s.circuit_name,
                        "verdict": s.verdict,
                        "sinks": s.sinks,
                        "runtime_s": round(s.runtime_s, 6),
                    }
                    for s in verdicts
                ],
            })
        emit(_json.dumps(payload, indent=2))
    else:
        for report in reports:
            emit(render_text(report))
        for screen in verdicts:
            emit(
                f"{screen.circuit_name}: interval STA at {args.delay:.0f} ps "
                f"-> {screen.verdict}"
            )
        if rule_cache is not None:
            stats = rule_cache.stats
            emit(
                f"rule cache: {stats.replayed}/{stats.invocations} replayed "
                f"({stats.hit_rate:.0%}), {stats.wall_saved_s:.3f}s saved"
            )
    return _lint_exit(reports, args.fail_on)


def _run_lint_hier(args: argparse.Namespace, advisor: SmartAdvisor, waivers) -> int:
    import json as _json

    from .blocks import demo_block
    from .cache.contracts import ContractStore
    from .lint import RuleResultCache, hier_from_block, lint_hier, render_text
    from .lint.contracts import default_contract_options
    from .lint.reporters import report_dict

    design = demo_block(advisor.library)
    block = hier_from_block(design)
    store = ContractStore(args.contracts)
    rule_cache = (
        RuleResultCache(args.rule_cache) if args.rule_cache else None
    )
    # Same options digest as `python -m repro.lint.contracts`, so a
    # registry-built store is reused here instead of tripping CTR504.
    result = lint_hier(
        block,
        advisor.library,
        store,
        changed_only=args.changed_only,
        verify=args.verify_contracts,
        waivers=waivers,
        rule_cache=rule_cache,
        options=default_contract_options(),
    )

    if args.sarif:
        from .lint import render_sarif

        emit(render_sarif(result.reports))
    elif args.json:
        payload = [report_dict(r) for r in result.reports]
        payload.append({"hier": result.stats.as_dict()})
        emit(_json.dumps(payload, indent=2))
    else:
        for report in result.reports:
            emit(render_text(report))
        stats = result.stats
        emit(
            f"{block.name}: {len(block.instances)} instance(s), "
            f"{len(block.connections)} connection(s); contracts "
            f"{stats.contracts_reused} reused / {stats.contracts_derived} "
            f"derived; rules {stats.rules_replayed}/{stats.invocations} "
            f"replayed ({stats.hit_rate:.0%})"
        )
    if not result.ok:
        return 1
    return _lint_exit(result.reports, args.fail_on)


def _run_sweep(args: argparse.Namespace, advisor: SmartAdvisor) -> int:
    import json as _json

    from .obs import json_sanitize
    from .parallel import build_grid, run_sweep

    try:
        widths = [int(w) for w in args.widths.split(",") if w.strip()]
        delays = [float(d) for d in args.delays.split(",") if d.strip()]
    except ValueError as exc:
        emit(f"error: bad grid axis: {exc}")
        return 2
    if not widths or not delays:
        emit("error: --widths and --delays must each name at least one value")
        return 2

    grid = build_grid(args.macro, widths, delays)
    result = run_sweep(
        grid,
        workers=args.workers,
        cache=advisor.cache,
        database=advisor.database,
        tech=advisor.tech,
        output_load=args.load,
        input_slope=args.input_slope,
        cost=args.cost,
        tolerance=args.tolerance,
    )
    emit(result.render())
    if args.out:
        payload = _json.dumps(
            json_sanitize(result.to_json()), indent=2, sort_keys=True
        )
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            emit(f"error: cannot write artifact: {exc}")
            return 1
        log.info("wrote sweep artifact: %s", args.out)
    return 0 if result.complete else 1


def _run_command(args: argparse.Namespace) -> int:
    cache = None
    if getattr(args, "cache", None):
        from .cache import SizingCache
        from .lint.solution import SolutionCertificateStore

        certificates = SolutionCertificateStore(f"{args.cache}.certs")
        cache = SizingCache(args.cache, certificates=certificates)
        if len(cache):
            log.info("loaded %d cached sizings from %s", len(cache), args.cache)
    advisor = SmartAdvisor(
        cache=cache, certify=bool(getattr(args, "certify", False))
    )

    if args.command == "lint":
        return _run_lint(args, advisor)

    if args.command == "list":
        for generator in advisor.database.topologies():
            emit(f"{generator.name:<34} {generator.description}")
        return 0

    if args.command == "sweep":
        return _run_sweep(args, advisor)

    spec = _spec_from_args(args)
    constraints = _constraints_from_args(args)

    if args.command == "advise":
        report = advisor.advise(spec, constraints, workers=args.workers)
        emit(report.render())
        if advisor.cache is not None and advisor.cache.stats.lookups:
            emit(
                "cache: "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(advisor.cache_stats().items())
                )
            )
        return 0 if report.best is not None else 1

    if args.command == "savings":
        from .core.savings import macro_savings

        result = macro_savings(
            advisor.database, args.topology, spec, advisor.library,
            margin=args.margin,
        )
        emit(f"topology        : {args.topology}")
        emit(f"baseline area   : {result.baseline.area:.1f} um "
             f"(margin {args.margin})")
        emit(f"SMART area      : {result.smart.area:.1f} um")
        emit(f"width saving    : {result.width_saving:.1%}")
        if result.baseline.clock_load > 0:
            emit(f"clock saving    : {result.clock_saving:.1%}")
        emit(f"timing met      : {'yes' if result.timing_met else 'NO'}")
        return 0 if result.timing_met else 1

    if args.command == "pareto":
        from .core.explore import pareto_frontier

        weights = tuple(float(w) for w in args.weights.split(","))
        frontier = pareto_frontier(
            advisor, spec, constraints, clock_weights=weights
        )
        if not frontier:
            emit("no feasible points")
            return 1
        emit(f"{'topology':<34} {'w_clk':>6} {'area um':>9} {'clock um':>9}")
        for point in frontier:
            emit(
                f"{point.topology:<34} {point.clock_weight:>6.1f} "
                f"{point.area:>9.1f} {point.clock_load:>9.1f}"
            )
        return 0

    if args.command == "curve":
        from .core.explore import area_delay_curve

        scales = tuple(float(s) for s in args.scales.split(","))
        curve = area_delay_curve(
            advisor, args.topology, spec, constraints, scales=scales
        )
        emit(f"{'scale':>7} {'budget ps':>10} {'area um':>10} {'clock um':>9} ok")
        for point in sorted(curve.points, key=lambda p: -p.spec_delay):
            emit(
                f"{point.delay_scale:>7.2f} {point.spec_delay:>10.1f} "
                f"{point.area:>10.1f} {point.clock_load:>9.1f} "
                f"{'yes' if point.converged else 'NO'}"
            )
        return 0 if any(p.converged for p in curve.points) else 1

    circuit, result = advisor.size_topology(args.topology, spec, constraints)
    if args.command == "size":
        emit(f"{circuit.name}: converged={result.converged} "
             f"iterations={result.iterations} "
             f"runtime={result.runtime_s:.3f}s")
        emit(f"area (total width): {result.area:.1f} um")
        if result.clock_load:
            emit(f"clock load: {result.clock_load:.1f} um")
        for label in sorted(result.resolved):
            emit(f"  {label:<16} {result.resolved[label]:8.2f} um")
        if args.report:
            from .sim import format_timing_report

            emit()
            emit(
                format_timing_report(
                    circuit, advisor.library, result.resolved,
                    spec=constraints.to_delay_spec(),
                )
            )
        if args.save:
            from .core.artifacts import save_sizing

            save_sizing(
                args.save, circuit, result, constraints.to_delay_spec()
            )
            emit(f"\nsaved sizing artifact: {args.save}")
        return 0 if result.converged else 1

    # export
    emit(export_circuit(circuit, result.resolved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
