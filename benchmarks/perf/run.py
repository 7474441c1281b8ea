"""SMART performance benchmark: timed runs, traced runs, compare.

Run from the repository root (see README.md)::

    python3 benchmarks/perf/run.py --workload advise --seed 1 \\
        --seconds 40 --trace 0                 # one timed run
    python3 benchmarks/perf/run.py --seed 1 --runs 5 --out a.jsonl
                                               # every workload, 5 seeds each
    python3 benchmarks/perf/run.py --seed 1 --trace 1 --out t.jsonl
    python3 benchmarks/perf/run.py compare a.jsonl b.jsonl
    python3 benchmarks/perf/run.py expected    # rewrite expected/advise.json

Every workload run is its own subprocess (``workloads.py``) with
single-threaded BLAS.  A run prints its metrics by name with their units
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` for a timed run (``--trace 0``), its ``per_layer``
metrics for a traced run (``--trace 1``).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: ``setup_s`` is the median over this many set-ups, each in a fresh process.
SETUP_RUNS = 3
#: Every run ends within this many seconds, or fails.
RUN_DEADLINE_S = 170.0
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """A workload run that could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names(spec: dict):
    return [w["name"] for w in spec["workloads"]]


def child(args, deadline: float) -> dict:
    """Run ``workloads.py`` with ``args``; return its last stdout line."""
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out: {args}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"workload process exited {proc.returncode}: {' '.join(args)}"
        )
    return json.loads(lines[-1])


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(spec: dict, workload: str, seed: int, seconds: float,
             trace: int, smoke: bool) -> dict:
    """One workload run: its result object plus the raw child output."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    args = [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(child(args + ["--setup-only"], deadline))
    out = child(args, deadline)
    setups.append(out)
    raw = dict(out["metrics"])
    raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    raw["wall.setup_s"] = statistics.median(s["setup_wall_s"] for s in setups)
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in raw]
    if missing:
        raise BenchError(f"{workload}: metrics not measured: {missing}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }
    return {"result": result, "raw": raw,
            "setups": [s["setup_s"] for s in setups],
            "failures": out["failures"], "versions": out["versions"]}


def run_main(argv) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="Run the SMART benchmark.")
    parser.add_argument("--workload", choices=workload_names(spec), action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the advise requests; perbit ignores it")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="minimum timed wall per run, in whole passes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer traced run")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with seeds seed, seed+1, ...")
    parser.add_argument("--out", help="append one JSON record per run here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (harness self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no SMART sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    provenance = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_revision(),
    }
    for workload in args.workload or workload_names(spec):
        for seed in range(args.seed, args.seed + args.runs):
            try:
                run = run_once(spec, workload, seed, args.seconds,
                               args.trace, args.smoke)
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            result = run["result"]
            stamp = dict(provenance, **run["versions"])
            for failure in run["failures"]:
                print(f"FAILED {workload}: {failure}", file=sys.stderr)
            print(f"== {workload} seed={seed} trace={args.trace} "
                  f"ops={result['attempted']} failed_ops={result['failed']}")
            print(f"  provenance {json.dumps(stamp, sort_keys=True)}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
            for name in sorted(set(run["raw"]) - set(result["metrics"])):
                print(f"  {name:<40} {run['raw'][name]:>14.6g} (diagnostic)")
            if args.out:
                record = {
                    "workload": workload, "seed": seed, "trace": args.trace,
                    "seconds": args.seconds, "smoke": args.smoke,
                    "provenance": stamp,
                    "setup_runs_s": run["setups"], "raw": run["raw"],
                    "result": result,
                }
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
            print(json.dumps(result, sort_keys=True), flush=True)
    return 0


# -- compare -----------------------------------------------------------------


def _summary(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _relative(value: float, base: float) -> float:
    if base == 0:
        return 0.0 if value == 0 else float("inf")
    return value / abs(base)


def verdict(a, b, better: str, bound: float) -> str:
    """better / worse (beyond the bound) / same / unresolved for two sets
    of runs of one metric, ``a`` the base."""
    qa1, ma, qa3 = _summary(a)
    qb1, mb, qb3 = _summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = _relative(sign * (mb - ma), ma)
    spread = max(_relative(qa3 - qa1, ma), _relative(qb3 - qb1, mb))
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not b_always_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if b_always_better or -worse_by > _relative(qa3 - qa1, ma) > 0:
        return "better"
    return "same"


def _records(path: str):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _group(records, trace: int):
    groups = {}
    for rec in records:
        if rec["trace"] == trace:
            groups.setdefault(rec["workload"], []).append(rec)
    return groups


def compare_main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark records (A = base)."
    )
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    spec = load_spec()
    a_all, b_all = _records(args.a), _records(args.b)

    a_timed, b_timed = _group(a_all, 0), _group(b_all, 0)
    print(f"{'workload':<17} {'metric':<14} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'B vs A':>8}  verdict")
    for workload in workload_names(spec):
        if workload not in a_timed or workload not in b_timed:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in a_timed[workload]]
            b = [r["result"]["metrics"][name]["value"] for r in b_timed[workload]]
            sa, sb = _summary(a), _summary(b)
            change = _relative(sb[1] - sa[1], sa[1])
            print(
                f"{workload:<17} {name:<14} "
                f"{'/'.join(f'{v:.4g}' for v in sa):>30} "
                f"{'/'.join(f'{v:.4g}' for v in sb):>30} {change:>+8.1%}  "
                f"{verdict(a, b, metric['better'], metric['bound'])}"
            )

    # Per-layer seconds and counts come from the raw records: the listed
    # per-layer metrics are shares, which move when any other layer does.
    a_traced, b_traced = _group(a_all, 1), _group(b_all, 1)
    for workload in workload_names(spec):
        if workload not in a_traced or workload not in b_traced:
            continue
        a_runs, b_runs = a_traced[workload], b_traced[workload]
        print(f"\nper-layer medians per pass, {workload} "
              f"(A: {len(a_runs)} runs, B: {len(b_runs)} runs; "
              f"*_s in seconds, the rest counts)")
        names = set().union(*(r["raw"] for r in a_runs + b_runs))
        for name in sorted(n for n in names if not n.endswith("_pct")):
            a = statistics.median(r["raw"].get(name, 0.0) for r in a_runs)
            b = statistics.median(r["raw"].get(name, 0.0) for r in b_runs)
            if a == 0 and b == 0:
                continue
            print(f"  {name:<40} {a:>12.5g} {b:>12.5g} {b - a:>+12.5g} "
                  f"{_relative(b - a, a):>+8.1%}")
    return 0


# -- expected verdicts ----------------------------------------------------------


def expected_main(argv) -> int:
    """Rewrite expected/advise.json from one pass at the current commit."""
    argparse.ArgumentParser(description=expected_main.__doc__).parse_args(argv)
    (HERE / "expected").mkdir(exist_ok=True)
    path = HERE / "expected" / "advise.json"
    child(
        ["--workload", "advise", "--seed", "1", "--seconds", "0",
         "--record-expected", str(path)],
        time.monotonic() + RUN_DEADLINE_S,
    )
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    if argv and argv[0] == "expected":
        return expected_main(argv[1:])
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main())
