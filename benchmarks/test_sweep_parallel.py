"""Sweep benchmark: parallel speedup and cache effectiveness.

Protocol: an 8-point spec grid (mux widths 4/8/16 and decoder width 4,
each at two delay targets) is advised
three ways —

1. sequential, no cache (the baseline wall-clock);
2. parallel (4 workers), cold shared cache;
3. parallel again over the *same* backing cache file (the warm pass).

The shape asserted: the warm pass is dominated by exact cache hits
(>= 80 % hit rate) whose envs match the cold pass within 1e-9, and on a
multi-core host the parallel cold pass beats sequential by >= 1.5x.  The
speedup is *recorded* unconditionally in the result JSON but only asserted
where the hardware can physically deliver it.
"""

import json
import os

import pytest

from conftest import RESULTS_DIR, render_table
from repro.cache import SizingCache
from repro.parallel import build_grid, run_sweep

WORKERS = 4

#: 8 grid points spanning two macros and two delay targets (every point has
#: at least one feasible topology at these budgets).
GRID = (
    build_grid(["mux"], [4, 8, 16], [300.0, 420.0])
    + build_grid(["decoder"], [4], [300.0, 420.0])
)


@pytest.fixture(scope="module")
def sweep_runs(database, tech, tmp_path_factory):
    cache_path = str(tmp_path_factory.mktemp("sweep") / "cache.jsonl")
    sequential = run_sweep(
        GRID, workers=1, cache=None, database=database, tech=tech
    )
    cold = run_sweep(
        GRID, workers=WORKERS, cache=SizingCache(cache_path),
        database=database, tech=tech,
    )
    warm = run_sweep(
        GRID, workers=WORKERS, cache=SizingCache(cache_path),
        database=database, tech=tech,
    )
    return sequential, cold, warm


def _record(sequential, cold, warm):
    speedup = sequential.wall_s / cold.wall_s if cold.wall_s else 0.0
    payload = {
        "format": "smart-sweep-bench/1",
        "grid_points": len(GRID),
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "sequential_wall_s": round(sequential.wall_s, 6),
        "parallel_wall_s": round(cold.wall_s, 6),
        "speedup": round(speedup, 4),
        "cold": cold.to_json(),
        "warm": warm.to_json(),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "sweep_parallel.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    return payload


class TestSweepParallelBench:
    def test_all_points_solved_identically(self, sweep_runs):
        sequential, cold, warm = sweep_runs
        assert sequential.complete and cold.complete and warm.complete
        for a, b, c in zip(sequential.points, cold.points, warm.points):
            assert a.best_topology == b.best_topology == c.best_topology
            assert b.best_scalar == pytest.approx(a.best_scalar, abs=1e-9)
            assert c.best_scalar == pytest.approx(a.best_scalar, abs=1e-9)
            assert c.best_area == pytest.approx(b.best_area, abs=1e-9)

    def test_speedup_recorded_and_asserted_where_possible(self, sweep_runs):
        sequential, cold, warm = sweep_runs
        payload = _record(sequential, cold, warm)
        render_table(
            "Sweep parallel speedup and cache hit rate",
            ["pass", "wall s", "speedup", "exact hits", "hit rate"],
            [
                ["sequential", f"{sequential.wall_s:.3f}", "1.00", "-", "-"],
                [
                    f"parallel x{WORKERS} (cold)",
                    f"{cold.wall_s:.3f}",
                    f"{payload['speedup']:.2f}",
                    str(cold.cache_stats.get("exact_hits", 0)),
                    f"{cold.cache_stats.get('hit_rate', 0.0):.2f}",
                ],
                [
                    f"parallel x{WORKERS} (warm)",
                    f"{warm.wall_s:.3f}",
                    "-",
                    str(warm.cache_stats.get("exact_hits", 0)),
                    f"{warm.cache_stats.get('hit_rate', 0.0):.2f}",
                ],
            ],
        )
        assert payload["speedup"] > 0
        if (os.cpu_count() or 1) < 2:
            pytest.skip(
                "single-CPU host: speedup recorded "
                f"({payload['speedup']:.2f}x) but not asserted"
            )
        assert payload["speedup"] >= 1.5, (
            f"parallel x{WORKERS} speedup {payload['speedup']:.2f}x < 1.5x "
            f"on a {os.cpu_count()}-core host"
        )

    def test_warm_pass_hit_rate(self, sweep_runs):
        _, cold, warm = sweep_runs
        assert cold.cache_stats["exact_hits"] == 0
        assert warm.cache_stats["exact_hits"] > 0
        assert warm.cache_stats["hit_rate"] >= 0.8
        assert warm.cache_stats["verify_failures"] == 0

    def test_warm_pass_saves_wall_time(self, sweep_runs):
        _, _, warm = sweep_runs
        assert warm.cache_stats["wall_saved_s"] > 0
