"""Workload child process of the SMART benchmark (see README.md).

``run.py`` starts this file once per workload run, in a fresh process with
single-threaded BLAS, and reads the JSON object it prints last.  Run by
hand it does the same::

    python3 benchmarks/perf/workloads.py --workload advise --seed 1 \\
        --seconds 40 --trace 0

Each workload is a closed loop with one client: the jobs of its list are
issued back to back, and whole passes over the list repeat until
``--seconds`` have elapsed.  Every pass issues the same jobs, so each job
has one latency per pass; the traced counts are per pass.

The timed metrics are host-speed-adjusted (README.md, "Host-speed
adjustment"): each wall time is scaled by how much slower than
``CALIBRATION_NOMINAL_S`` a fixed pure-Python loop ran just before and
just after it.  Other tenants of a shared host slow the loop and the job
alike, so the scaled times move with the program, not with the host.
The raw wall times are printed beside them as diagnostics.
"""

import statistics
import time

#: Median time of :func:`calibration_s` on the reference host (2 vCPU Xeon
#: at 2.1 GHz, Python 3.11.7) while nothing else loads it.
CALIBRATION_NOMINAL_S = 0.00092


def calibration_s() -> float:
    """Median time of three runs of a fixed pure-Python loop (about 1 ms
    each): how fast the host runs this process right now."""
    table = {i: i for i in range(200)}
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for _ in range(100):
            for key in range(200):
                total += table[key] * 2
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


#: Calibration times at the start, after the imports, after the inputs are
#: built and at the end of set-up; their mean adjusts ``setup_s``.
_SETUP_CALIBRATIONS = [calibration_s()]
_T0 = time.perf_counter()  # set-up time runs from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.cache.store import SizingCache  # noqa: E402
from repro.core.advisor import SmartAdvisor  # noqa: E402
from repro.core.constraints import DesignConstraints  # noqa: E402
from repro.lint.solution.audit import SolutionAudit  # noqa: E402
from repro.lint.solution.certificate import SolutionCertificateStore  # noqa: E402
from repro.macros import MacroSpec, default_database  # noqa: E402
from repro.models import ModelLibrary, Technology  # noqa: E402
from repro.sizing import DelaySpec, RegularityCollapsedSizer, SmartSizer  # noqa: E402
from repro.sizing.engine import nominal_delay  # noqa: E402

import layers  # noqa: E402

_SETUP_CALIBRATIONS.append(calibration_s())

#: Advisor requests of one pass: (macro, width, budget factor, output load
#: in fF, charge-sharing ratio).  The delay budget is the factor x the
#: smallest nominal-size delay of the applicable topologies; at 0.5 the
#: interval screen rejects most candidates before any GP runs, at 1.1 every
#: topology sizes.  Each budget factor, load and ratio appears at least
#: twice.  Wider circuits take 1 to 3 s a request, which would leave too
#: few passes in a run to take a median over.
ADVISE_REQUESTS = (
    ("mux", 4, 0.5, 20.0, None),
    ("mux", 8, 1.1, 40.0, 0.3),
    ("mux", 16, 0.9, 20.0, 0.3),
    ("zero_detect", 16, 0.75, 40.0, None),
    ("zero_detect", 32, 1.1, 20.0, 0.3),
    ("decoder", 4, 0.9, 40.0, 0.3),
    ("incrementor", 8, 0.75, 20.0, None),
    ("shifter", 8, 0.5, 40.0, 0.3),
    ("adder", 8, 1.1, 40.0, None),
    ("register_file", 8, 0.9, 20.0, None),
)

#: Sizing jobs of one per-bit pass: (sizer, topology, width, budget factor)
#: on per-bit-labelled (``label_group=1``) circuits.  The full GP and the
#: regularity-collapsed sizer share the circuits, so the two can be read
#: job by job; the collapsed sizer also gets the 16-bit adder, on which
#: its constraint generation and certificate STA dominate.
PERBIT_JOBS = (
    ("full", "adder/static_ripple", 8, 0.9),
    ("full", "incrementor/ripple", 8, 0.95),
    ("full", "adder/static_ripple", 12, 0.9),
    ("collapsed", "adder/static_ripple", 8, 0.9),
    ("collapsed", "incrementor/ripple", 8, 0.95),
    ("collapsed", "adder/static_ripple", 12, 0.9),
    ("collapsed", "adder/static_ripple", 16, 0.9),
)

WORKLOADS = ("advise", "perbit")

CACHE_COUNTS = ("exact_hits", "cert_hits", "warm_hits", "misses")


@dataclass(frozen=True)
class Request:
    """One designer request to the advisor."""

    macro: str
    width: int
    factor: float
    load: float
    charge_ratio: Optional[float]

    @property
    def key(self) -> str:
        ratio = "none" if self.charge_ratio is None else f"{self.charge_ratio:g}"
        return (
            f"{self.macro}{self.width}:x{self.factor:g}:"
            f"load{self.load:g}:csr{ratio}"
        )


def advise_requests() -> List[Request]:
    """The fixed request set of one pass, in ``ADVISE_REQUESTS`` order.

    The set does not depend on the seed: every seed does the same work,
    which keeps seeds comparable on throughput and total area.
    """
    return [Request(*request) for request in ADVISE_REQUESTS]


def feasible_topologies(report) -> List[str]:
    """Sorted names of the topologies an advisor report finds feasible."""
    return sorted(c.topology for c in report.feasible)


def new_advisor(directory: str) -> SmartAdvisor:
    """A fresh certifying advisor over a fresh file-backed cache."""
    certificates = SolutionCertificateStore(os.path.join(directory, "certs.jsonl"))
    cache = SizingCache(
        os.path.join(directory, "sizing.jsonl"), certificates=certificates
    )
    return SmartAdvisor(certify=True, cache=cache)


class AdviseWorkload:
    """``advise``: each request twice in a row.  The cold job asks a fresh
    advisor with an empty file-backed cache; the warm job asks the same
    advisor again, so it reads what the cold job cached."""

    def __init__(self, seed: int, smoke: bool, scratch: str):
        self.scratch = scratch
        self._dirs = 0
        self._library = ModelLibrary(Technology())
        self._database = default_database()
        self._nominal: Dict[tuple, float] = {}
        requests = advise_requests()
        if smoke:
            requests = requests[:3]
        random.Random(seed).shuffle(requests)
        #: (request, spec, constraints, warm); a cold job precedes its warm one.
        self.jobs = [
            self._job(request) + (warm,)
            for request in requests for warm in (False, True)
        ]
        #: Request key -> the advisor its latest cold job filled.
        self._filled: Dict[str, SmartAdvisor] = {}
        self.cache_counts = dict.fromkeys(CACHE_COUNTS, 0)
        #: Request key -> topologies that must come back feasible.
        self.expected: Optional[Dict[str, List[str]]] = None

    def _job(self, request: Request):
        spec = MacroSpec(request.macro, request.width, output_load=request.load)
        at = (request.macro, request.width, request.load)
        if at not in self._nominal:
            self._nominal[at] = min(
                nominal_delay(g.generate(spec, self._library.tech), self._library)
                for g in self._database.applicable(spec)
            )
        constraints = DesignConstraints(
            delay=request.factor * self._nominal[at],
            charge_sharing_ratio=request.charge_ratio,
        )
        return request, spec, constraints

    def _fresh_dir(self) -> str:
        self._dirs += 1
        return os.path.join(self.scratch, f"job{self._dirs}")

    def warm_up(self) -> None:
        """Advise a 2:1 mux, which no pass contains."""
        _request, spec, constraints = self._job(Request("mux", 2, 1.1, 20.0, 0.3))
        new_advisor(self._fresh_dir()).advise(spec, constraints)

    def run(self, index: int):
        request, spec, constraints, warm = self.jobs[index]
        if warm:
            advisor = self._filled[request.key]
        else:
            advisor = new_advisor(self._fresh_dir())
            self._filled[request.key] = advisor
        before = advisor.cache.stats.as_dict()
        report = advisor.advise(spec, constraints)
        after = advisor.cache.stats.as_dict()
        for name in CACHE_COUNTS:
            self.cache_counts[name] += after[name] - before[name]
        return report

    def check(self, index: int, report) -> List[str]:
        request = self.jobs[index][0]
        failures = []
        for cand in report.candidates:
            if cand.sizing is not None and not cand.sizing.converged:
                failures.append(f"{request.key}: {cand.topology} did not converge")
            if cand.certificate is not None and not cand.certificate.get("ok"):
                failures.append(
                    f"{request.key}: {cand.topology} certificate rejected"
                )
        if self.expected is not None:
            missing = set(self.expected[request.key]) - set(
                feasible_topologies(report)
            )
            for topology in sorted(missing):
                failures.append(
                    f"{request.key}: expected-feasible {topology} came back "
                    "infeasible"
                )
        return failures

    def audit(self, index: int, report) -> List[str]:
        return []

    def area(self, index: int, report) -> float:
        best = report.best
        return best.sizing.area if best is not None else 0.0


class PerbitWorkload:
    """``perbit``: the full GP and the regularity-collapsed sizer (plus its
    OPT70x certificate) on per-bit-labelled circuits."""

    def __init__(self, seed: int, smoke: bool, scratch: str):
        del seed, scratch  # the per-bit circuits are fixed
        self.library = ModelLibrary(Technology())
        self.database = default_database()
        jobs = PERBIT_JOBS
        if smoke:
            jobs = (("full", "adder/static_ripple", 4, 0.9),
                    ("collapsed", "adder/static_ripple", 4, 0.9))
        self._circuits: Dict[tuple, tuple] = {}
        #: (sizer, circuit, delay spec)
        self.jobs = [(sizer,) + self._circuit(*rest) for sizer, *rest in jobs]
        self.cache_counts = dict.fromkeys(CACHE_COUNTS, 0)

    def _circuit(self, topology: str, width: int, factor: float):
        """The circuit and delay spec, generated once per (topology, width)."""
        at = (topology, width, factor)
        if at not in self._circuits:
            circuit = self.database.generate(
                topology,
                MacroSpec(topology.split("/")[0], width,
                          params=(("label_group", 1),)),
                self.library.tech,
            )
            spec = DelaySpec(data=factor * nominal_delay(circuit, self.library))
            self._circuits[at] = (circuit, spec)
        return self._circuits[at]

    def _size(self, sizer: str, circuit, spec):
        if sizer == "collapsed":
            return RegularityCollapsedSizer(
                circuit, self.library, with_kkt=False
            ).size(spec)
        return SmartSizer(circuit, self.library).size(spec)

    def warm_up(self) -> None:
        """Size a 4-bit per-bit incrementor, which no pass contains, with
        both sizers."""
        job = self._circuit("incrementor/ripple", 4, 0.95)
        for sizer in ("full", "collapsed"):
            self._size(sizer, *job)

    def run(self, index: int):
        return self._size(*self.jobs[index])

    def _result(self, index: int, outcome):
        return outcome.result if self.jobs[index][0] == "collapsed" else outcome

    def check(self, index: int, outcome) -> List[str]:
        sizer, circuit, _spec = self.jobs[index]
        name = f"{circuit.name} ({sizer})"
        failures = []
        if not self._result(index, outcome).converged:
            failures.append(f"{name}: did not converge")
        if sizer == "collapsed":
            if outcome.fallback:
                failures.append(f"{name}: fell back ({outcome.fallback_reason})")
            elif not outcome.certificate.ok:
                failures.append(f"{name}: certificate rejected")
        return failures

    def audit(self, index: int, outcome) -> List[str]:
        """Untimed primal-feasibility re-check of a full-GP result."""
        sizer, circuit, spec = self.jobs[index]
        if sizer == "collapsed":
            return []
        verdict = SolutionAudit(circuit, self.library, spec).feasibility(
            outcome.widths
        )
        if verdict["ok"]:
            return []
        return [
            f"{circuit.name}: infeasible at the solved widths "
            f"({verdict['worst_residual_ps']:.2f} ps on "
            f"{verdict['worst_constraint']})"
        ]

    def area(self, index: int, outcome) -> float:
        return self._result(index, outcome).area


def make_workload(name: str, seed: int, smoke: bool, scratch: str):
    if name == "advise":
        return AdviseWorkload(seed, smoke, scratch)
    if name == "perbit":
        return PerbitWorkload(seed, smoke, scratch)
    raise ValueError(f"unknown workload {name!r}")


def measure(workload, seconds: float) -> dict:
    """Whole passes over the job list until ``seconds`` have elapsed.

    ``latencies[i]`` holds job ``i``'s wall latency in every pass and
    ``scales[i]`` the host-speed scale of each: ``CALIBRATION_NOMINAL_S``
    over the mean calibration time just before and just after the job.
    The wall is the sum of all latencies; calibration and checks run
    between jobs, outside it.  The first pass's outcomes are kept for the
    untimed audit (see :func:`audit`) and the area sum.
    """
    latencies: List[List[float]] = [[] for _ in workload.jobs]
    scales: List[List[float]] = [[] for _ in workload.jobs]
    first_pass = []
    failures: Dict[tuple, List[str]] = {}
    passes = 0
    wall = 0.0
    while passes == 0 or wall < seconds:
        for index in range(len(workload.jobs)):
            before = calibration_s()
            t0 = time.perf_counter()
            try:
                outcome = workload.run(index)
            except Exception as exc:  # a raising job is a failed op
                latency = time.perf_counter() - t0
                problems = [f"job {index} raised {exc!r}"]
                outcome = None
            else:
                latency = time.perf_counter() - t0
                problems = workload.check(index, outcome)
            latencies[index].append(latency)
            scales[index].append(
                2.0 * CALIBRATION_NOMINAL_S / (before + calibration_s())
            )
            wall += latency
            if problems:
                failures[(passes, index)] = problems
            if passes == 0:
                first_pass.append(outcome)
        passes += 1
    return {
        "latencies": latencies,
        "scales": scales,
        "first_pass": first_pass,
        "failures": failures,
        "passes": passes,
        "wall": wall,
    }


def audit(run: dict, workload) -> None:
    """Add the untimed audit's failures to the first pass's.  Called after
    the metrics are taken, so a traced run does not charge the audit's
    wrapped calls to any layer."""
    for index, outcome in enumerate(run["first_pass"]):
        if outcome is not None:
            problems = workload.audit(index, outcome)
            if problems:
                run["failures"].setdefault((0, index), []).extend(problems)


def _quantile(values: List[float], q: int) -> float:
    """``q``-th percentile (1..99) by :func:`statistics.quantiles`."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _pass_metrics(latencies: List[List[float]]) -> tuple:
    """(jobs_per_s, job_p50_s) of a pass at each job's median latency over
    the passes.  The median drops the passes a slow spell of the host
    fell on; a mean over the whole wall would carry them."""
    typical = [statistics.median(samples) for samples in latencies]
    return len(typical) / sum(typical), statistics.median(typical)


def timed_metrics(run: dict, workload) -> Dict[str, float]:
    """Host-speed-adjusted throughput and latency, with the raw wall-time
    values and the median host-speed scale as diagnostics."""
    adjusted = [
        [t * s for t, s in zip(times, scales)]
        for times, scales in zip(run["latencies"], run["scales"])
    ]
    jobs_per_s, job_p50_s = _pass_metrics(adjusted)
    wall_jobs_per_s, wall_job_p50_s = _pass_metrics(run["latencies"])
    area = sum(
        workload.area(index, outcome)
        for index, outcome in enumerate(run["first_pass"])
        if outcome is not None
    )
    return {
        "jobs_per_s": jobs_per_s,
        "job_p50_s": job_p50_s,
        "wall.jobs_per_s": wall_jobs_per_s,
        "wall.job_p50_s": wall_job_p50_s,
        "host.speed_scale": statistics.median(
            s for scales in run["scales"] for s in scales
        ),
        "total_area_um": area,
    }


def traced_metrics(run: dict, workload, tracer) -> Dict[str, float]:
    """Per-layer totals of the timed phase, divided by the pass count.

    Every time ``<name>_s`` also comes as ``<name>_pct``, its share of the
    traced wall.  ``BENCHMARK.json`` lists the shares rather than the
    seconds: a layer a workload never calls reads 0 % on every run, which
    is a measured share, where 0 s would look like a time that never moves.
    """
    passes = run["passes"]
    metrics: Dict[str, float] = {}
    for layer, value in tracer.self_s.items():
        metrics[f"{layer}.self_s"] = value
    for layer, value in tracer.calls.items():
        metrics[f"{layer}.calls"] = value
    metrics.update(tracer.counts)
    metrics["lint.solution.incl_s"] = tracer.incl_s.get("lint.solution", 0.0)
    metrics["sizing.gp.solves"] = tracer.calls.get("sizing.gp", 0)
    metrics["sizing.gp.nonoptimal"] = (
        tracer.counts.get("sizing.gp.nonoptimal", 0)
        + tracer.counts.get("sizing.gp.raised", 0)
    )
    for name, value in workload.cache_counts.items():
        metrics[f"cache.{name}"] = value
    metrics["run.wall_s"] = run["wall"]
    metrics["run.unattributed_s"] = run["wall"] - tracer.covered_s
    metrics["run.trace_overhead_s"] = tracer.wrapped_calls * layers.wrapper_cost_s()
    per_pass = {name: value / passes for name, value in metrics.items()}
    for name, value in metrics.items():
        if name.endswith("_s") and name != "run.wall_s":
            per_pass[name[:-2] + "_pct"] = 100.0 * value / run["wall"]
    per_pass["run.job_p90_s"] = _quantile(
        [t for samples in run["latencies"] for t in samples], 90
    )
    per_pass["run.passes"] = passes
    return per_pass


def child_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for test_harness.py")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    parser.add_argument("--record-expected", metavar="PATH",
                        help="write the first pass's advise verdicts to PATH "
                             "instead of checking them")
    args = parser.parse_args(argv)

    scratch_root = ROOT / ".perf_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        workload = make_workload(args.workload, args.seed, args.smoke, scratch)
        _SETUP_CALIBRATIONS.append(calibration_s())
        workload.warm_up()
        _SETUP_CALIBRATIONS.append(calibration_s())
        setup_wall_s = time.perf_counter() - _T0
        setup = {
            "setup_s": setup_wall_s * CALIBRATION_NOMINAL_S
            / statistics.mean(_SETUP_CALIBRATIONS),
            "setup_wall_s": setup_wall_s,
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.workload == "advise" and not args.record_expected:
            workload.expected = json.loads(
                (HERE / "expected" / "advise.json").read_text()
            )
        tracer = None
        if args.trace:
            tracer = layers.LayerTracer()
            layers.install(tracer)
        run = measure(workload, args.seconds)
        if args.record_expected:
            verdicts = {
                workload.jobs[i][0].key: feasible_topologies(outcome)
                for i, outcome in enumerate(run["first_pass"])
                if not workload.jobs[i][3]  # the cold job's verdict
            }
            Path(args.record_expected).write_text(
                json.dumps(verdicts, indent=1, sort_keys=True) + "\n"
            )
        if tracer is None:
            metrics = timed_metrics(run, workload)
        else:
            metrics = traced_metrics(run, workload, tracer)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        audit(run, workload)
        problems = [p for ps in run["failures"].values() for p in ps]
        print(json.dumps({
            **setup,
            "attempted": sum(len(samples) for samples in run["latencies"]),
            "failed": len(run["failures"]),
            "failures": problems[:20],
            "metrics": metrics,
            "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(child_main())
