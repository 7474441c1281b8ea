"""Shared fixtures and table rendering for the paper-reproduction benches.

Every benchmark module regenerates one table or figure of the paper.  The
convention: a module-scoped fixture computes the experiment once, the test
functions assert the paper's *shape* (who wins, roughly by how much, where
crossovers fall), and one ``test_bench_*`` function times the core kernel so
``pytest benchmarks/ --benchmark-only`` doubles as a performance harness.
"""

import json
import os
import time

import pytest

from repro.macros import default_database
from repro.models import ModelLibrary, Technology
from repro.obs import metrics as obs_metrics

#: Machine-readable copies of every printed table land here (one JSON file
#: per table), so downstream tooling can diff reproduction runs.
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Session epoch for the wall-time stamp each result file carries.
_SESSION_T0 = time.perf_counter()


def _obs_stamp():
    """Convergence-cost metadata stamped into every result JSON.

    Pulled from the process-global metrics registry the engine/GP/STA
    instrumentation feeds, so each result file records how much work (refinement iterations, GP solves, STA node visits) and
    wall-time each reproduction table cost across PRs.  Counters are
    cumulative across the session; per-table deltas are recoverable by
    diffing consecutive stamps.
    """
    reg = obs_metrics.registry()
    runtime = reg.histograms.get("engine.runtime_s")
    return {
        "wall_time_s": round(time.perf_counter() - _SESSION_T0, 3),
        "engine_iterations": reg.counter("engine.iterations").value,
        "gp_solves": reg.counter("gp.solves").value,
        "gp_fallbacks": reg.counter("engine.gp_fallbacks").value,
        "sta_analyses": reg.counter("sta.analyses").value,
        "sta_node_visits": reg.counter("sta.node_visits").value,
        "sizing_runs": runtime.count if runtime else 0,
        "sizing_runtime_s": round(runtime.total, 3) if runtime else 0.0,
    }


@pytest.fixture(scope="session")
def tech():
    return Technology()


@pytest.fixture(scope="session")
def library(tech):
    return ModelLibrary(tech)


@pytest.fixture(scope="session")
def database():
    return default_database()


def _slugify(title: str) -> str:
    keep = []
    for ch in title.lower():
        if ch.isalnum():
            keep.append(ch)
        elif keep and keep[-1] != "_":
            keep.append("_")
    return "".join(keep).strip("_")[:80]


def render_table(title, headers, rows):
    """Print a paper-style table into the pytest -s / benchmark output and
    drop a JSON copy under ``benchmarks/results/``."""
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines)
    print(text)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {
        "title": title,
        "headers": list(headers),
        "rows": [[str(c) for c in row] for row in rows],
        "obs": _obs_stamp(),
    }
    path = os.path.join(RESULTS_DIR, f"{_slugify(title)}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return text


def pct(x):
    return f"{x:.1%}"


def norm(x):
    return f"{x:.3f}"
