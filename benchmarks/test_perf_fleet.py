"""Fleet perf harness: supervised-pool overhead into ``BENCH_perf.json``.

The supervised execution layer (`repro.api.fleet.CellSupervisor`) wraps the
worker pool with windowed submission, deadline polling, and retry
bookkeeping.  On a *clean* campaign (no faults) all of that must be noise:
this bench runs the same cell grid through a bare ``ProcessPoolExecutor``
(the pre-fleet path) and through the supervisor and asserts the overhead
stays under ``MAX_OVERHEAD_PCT`` — a loud CI floor so the fault-tolerance
substrate can never silently tax every campaign.

The overhead is the cost of supervision itself: the extra CPU time the
supervising *parent* spends per cell, relative to the cells' own compute
time.  Every cycle the parent spends there competes with the workers for
the machine's cores.  Makespans are not compared: with uneven cells on a
few workers, the makespan mostly measures which cell happened to land last
on which worker, and that ordering luck swamps the supervision cost.  Both
paths fork from a parent with a warm structural compile cache.

Parent CPU misses supervision that leaves workers idle (a slow window
refill, a ``wait()`` that sleeps out its timeout): that costs wall time, not
CPU.  A second, generous floor bounds it: the wall-time delta per cell on a
grid of ~ms cells, where every idle gap shows, stays under
``MAX_LATENCY_MS_PER_CELL``.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

from repro.api import CellSupervisor, ExperimentSpec, FleetPolicy, run_experiment
from repro.api.runner import _campaign_worker

_REPO_ROOT = Path(__file__).resolve().parents[1]
_OUT_PATH = _REPO_ROOT / "BENCH_perf.json"


def _update_report(section: str, payload: dict) -> None:
    """Merge one section into ``BENCH_perf.json`` (sections own their keys)."""
    report = {}
    if _OUT_PATH.exists():
        try:
            report = json.loads(_OUT_PATH.read_text())
        except json.JSONDecodeError:
            report = {}
    report[section] = payload
    _OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


N_CELLS = 6
JOBS = 2

#: Loud-regression floor: supervised-pool overhead on a clean campaign.
MAX_OVERHEAD_PCT = 5.0

#: Loud-regression floor on idle supervision: extra wall ms per ~ms cell.
#: Clean runs read about 1 ms; one missed wake-up per cell costs far more.
MAX_LATENCY_MS_PER_CELL = 10.0


def _specs():
    return [
        ExperimentSpec(circuit="c432", pth=0.975, design="counter2", seed=seed)
        for seed in range(N_CELLS)
    ]


def _cell_compute_s(record_dicts) -> float:
    return sum(r["runtime"]["timings_s"]["total"] for r in record_dicts)


def _run_bare(specs):
    """(wall s, parent CPU s, summed cell compute s) of a bare-pool run."""
    start, cpu = time.perf_counter(), time.process_time()
    with ProcessPoolExecutor(max_workers=JOBS) as executor:
        futures = [executor.submit(_campaign_worker, s.to_dict()) for s in specs]
        results = [f.result() for f in as_completed(futures)]
    assert len(results) == len(specs)
    cpu = time.process_time() - cpu
    return time.perf_counter() - start, cpu, _cell_compute_s(results)


def _run_supervised(specs):
    """(wall s, parent CPU s, summed cell compute s) of a supervised run."""
    start, cpu = time.perf_counter(), time.process_time()
    supervisor = CellSupervisor(specs, jobs=JOBS, policy=FleetPolicy())
    records = list(supervisor.iter_records())
    cpu = time.process_time() - cpu
    assert len(records) == len(specs)
    assert not [r for r in records if r.error is not None]
    compute = _cell_compute_s(r.to_dict() for r in records)
    return time.perf_counter() - start, cpu, compute


def _latency_probe():
    """Per-cell supervision latency on a grid of tiny cells (worst case for
    relative overhead: ~ms cells make every parent wake-up visible)."""
    specs = [
        ExperimentSpec(circuit="c17", pth=0.9, seed=seed) for seed in range(40)
    ]
    run_experiment(specs[0])
    bare_s = min(_run_bare(specs)[0] for _ in range(3))
    supervised_s = min(_run_supervised(specs)[0] for _ in range(3))
    return (supervised_s - bare_s) / len(specs) * 1e3


def test_supervised_pool_overhead():
    specs = _specs()
    # Warm the parent's structural compile cache: forked workers inherit it,
    # so neither path pays cold compiles and the delta is pure supervision.
    run_experiment(specs[0])

    # Strictly alternate the two paths and compare the best of each: the
    # parent's CPU time is immune to makespan luck but still picks up
    # scheduler and cache noise on shared hardware, and the min estimator
    # under interleaving cancels slow-machine phases fairly.  A reading over
    # the floor is confirmed with extra pairs before failing — a real
    # regression reproduces, a noise spike does not.
    bare, supervised = [], []

    def overhead_pct() -> float:
        extra_cpu = min(r[1] for r in supervised) - min(r[1] for r in bare)
        compute = min(r[2] for r in bare + supervised)
        return 100.0 * extra_cpu / compute

    for round_ in (2, 3):
        for _ in range(round_):
            bare.append(_run_bare(specs))
            supervised.append(_run_supervised(specs))
        if overhead_pct() < MAX_OVERHEAD_PCT:
            break

    per_cell_ms = _latency_probe()
    if per_cell_ms >= MAX_LATENCY_MS_PER_CELL:
        per_cell_ms = min(per_cell_ms, _latency_probe())  # confirm, as above
    _update_report("fleet", {
        "workload": f"{N_CELLS} x c432 counter2 cells, {JOBS} workers, clean run",
        "n_cells": N_CELLS,
        "jobs": JOBS,
        "metric": "extra parent CPU of the supervised run / summed cell compute",
        "bare_pool_s": min(r[0] for r in bare),
        "supervised_s": min(r[0] for r in supervised),
        "bare_parent_cpu_ms_per_cell": min(r[1] for r in bare) / N_CELLS * 1e3,
        "supervised_parent_cpu_ms_per_cell": (
            min(r[1] for r in supervised) / N_CELLS * 1e3
        ),
        "cell_compute_s": min(r[2] for r in bare + supervised) / N_CELLS,
        "overhead_pct": overhead_pct(),
        "supervision_latency_ms_per_cell": per_cell_ms,
        "latency_probe": "40 x c17 cells (~ms each), best of 3",
    })

    assert overhead_pct() < MAX_OVERHEAD_PCT, (
        f"supervised-pool overhead regressed: {overhead_pct():.2f}% > "
        f"{MAX_OVERHEAD_PCT}% on a clean campaign (per-cell supervision must "
        f"stay off the hot path; see {_OUT_PATH})"
    )
    assert per_cell_ms < MAX_LATENCY_MS_PER_CELL, (
        f"supervision latency regressed: {per_cell_ms:.2f} ms per cell > "
        f"{MAX_LATENCY_MS_PER_CELL} ms on ~ms cells (workers sit idle between "
        f"cells; see {_OUT_PATH})"
    )
