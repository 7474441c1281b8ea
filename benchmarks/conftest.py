"""Shared fixtures and table rendering for the paper-reproduction benches.

Every benchmark module regenerates one table or figure of the paper.  The
convention: a module-scoped fixture computes the experiment once and the
test functions assert the paper's *shape* (who wins, roughly by how much,
where crossovers fall).  Speed is measured by ``benchmarks/perf/run.py``
(repeated-round medians per layer), not here.
"""

import json
import os

import pytest

from repro.macros import default_database
from repro.models import ModelLibrary, Technology

#: Machine-readable copies of every printed table land here (one JSON file
#: per table), so downstream tooling can diff reproduction runs.
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


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
    """Print a paper-style table into the pytest -s output and
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
    }
    path = os.path.join(RESULTS_DIR, f"{_slugify(title)}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return text


def pct(x):
    return f"{x:.1%}"


def norm(x):
    return f"{x:.3f}"
