"""The benchmark's workloads: campaign cells made from a workload seed.

Every workload is a closed loop from a single process: the next cell (or
request) starts only after the previous one finished.  Cell workloads call
``repro.api.run_experiment`` once per cell; ``service_resubmit`` drives a
``FleetServer`` through one ``FleetClient``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Client poll interval of ``service_resubmit`` (fixed, so the tail wait
#: after the last record is the same on every run).
POLL_S = 0.05
#: Campaign cells of ``service_resubmit``: Pth values x seeds per Pth.
SERVICE_PTHS = (0.6, 0.7, 0.8, 0.9)
SERVICE_SEEDS_PER_PTH = 250


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(seed) -> [ExperimentSpec]`` in execution order.
    specs: Callable[[int], list]
    service: bool = False


def _table1_spec(circuit: str, seed: int, pth: Optional[float] = None, **extra):
    from repro.api.spec import TABLE1_PARAMETERS, ExperimentSpec

    table_pth, bits = TABLE1_PARAMETERS[circuit]
    return ExperimentSpec(
        circuit=circuit,
        pth=table_pth if pth is None else pth,
        design=f"counter{bits}",
        seed=seed,
        **extra,
    )


def _table1_cells(seed: int) -> list:
    return [_table1_spec(c, seed) for c in ("c432", "c880", "c1908", "c3540")]


def _pth_sweep(seed: int) -> list:
    # One circuit at four Pth: 3 of 4 cells repeat a thresholds input.  Two
    # cell seeds per workload seed, because the ATPG work of a c432 cell
    # varies by about 20% from seed to seed.  c880 is left out to keep the
    # full set of runs inside its time budget.
    return [
        _table1_spec("c432", cell_seed, pth=pth)
        for cell_seed in (2 * seed, 2 * seed + 1)
        for pth in (0.95, 0.975, 0.99, 0.995)
    ]


def _exposure(seed: int) -> list:
    # Half the MC sessions and chips first planned, and c432 alone, to keep
    # the full set of runs inside its time budget; MC and traces are still
    # about three quarters of the cell.
    return [_table1_spec("c432", seed, mc_sessions=2000, detector="traces",
                         detector_chips=100)]


def _service_resubmit(seed: int) -> list:
    from repro.api.spec import ExperimentSpec

    first = seed * SERVICE_SEEDS_PER_PTH
    return [
        ExperimentSpec(circuit="c17", pth=pth, design="counter2", seed=first + i)
        for pth in SERVICE_PTHS
        for i in range(SERVICE_SEEDS_PER_PTH)
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "table1_cells",
            "the fixed cell set c432/c880/c1908/c3540 at Table-I Pth; "
            "ATPG is 91-97% of each cell and each circuit appears once",
            _table1_cells,
        ),
        Workload(
            "pth_sweep",
            "c432 at four Pth on two seeds; 6 of 8 cells repeat a thresholds input, "
            "the reuse a thresholds memo exploits",
            _pth_sweep,
        ),
        Workload(
            "exposure",
            "c432 with 2000 MC Pft sessions and the 100-chip trace lab; "
            "MC and traces are about three quarters of the cell, ATPG about a fifth",
            _exposure,
        ),
        Workload(
            "service_resubmit",
            "1000 c17 cells through FleetServer and FleetClient, then a cached resubmit; "
            "the only workload that runs repro.service",
            _service_resubmit,
            service=True,
        ),
    )
}


def label(spec) -> str:
    """Cell key in output lines and the pinned digests."""
    return f"{spec.circuit}@{spec.pth}/seed{spec.seed}"


def payload_digest(record) -> str:
    """sha256 of the record payload as sorted-keys JSON."""
    text = json.dumps(record.payload_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cell(spec, seconds: float, record=None, error: Optional[str] = None) -> dict:
    cell = {
        "label": label(spec),
        "circuit": spec.circuit,
        "s": seconds,
        "digest": payload_digest(record) if record is not None else None,
        "error": error if error is not None else getattr(record, "error", None),
    }
    if record is not None and record.trigger is not None:
        cell["pft_analytic"] = record.trigger.get("pft_analytic")
        cell["pft_monte_carlo"] = record.trigger.get("pft_monte_carlo")
    return cell


def run_cells(specs: list, tracer=None) -> dict:
    """One cell after another through ``run_experiment``."""
    from repro.api.runner import run_experiment

    cells: List[dict] = []
    start = time.perf_counter()
    for spec in specs:
        scope = tracer.span("cell", cell=True, label=label(spec)) if tracer else nullcontext()
        t0 = time.perf_counter()
        record, error = None, None
        with scope:
            try:
                record = run_experiment(spec)
            except Exception as exc:  # noqa: BLE001 — a failed cell is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
        cells.append(_cell(spec, time.perf_counter() - t0, record, error))
    return {"wall_s": time.perf_counter() - start, "cells": cells, "checks": []}


def _stream_job(client, campaign) -> list:
    job_id = client.submit(campaign)
    return list(client.stream(job_id, poll_s=POLL_S, timeout_s=150.0))


def run_service(specs: list, tmp_root: Path, tracer=None) -> dict:
    """Cold campaign, cached resubmit, then one store query."""
    from repro.api.spec import CampaignSpec
    from repro.service import FleetClient, FleetServer

    campaign = CampaignSpec.of(specs, name="service_resubmit")
    tmp_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as data_dir:
        server = FleetServer(port=0, data_dir=data_dir, jobs=1).start()
        try:
            client = FleetClient(server.url, poll_s=POLL_S)
            client.wait_ready()
            t0 = time.perf_counter()
            cold = _stream_job(client, campaign)
            t1 = time.perf_counter()
            warm = _stream_job(client, campaign)
            t2 = time.perf_counter()
            rows = len(server.store.query(columns=["spec_hash"])["spec_hash"])
            t3 = time.perf_counter()
        finally:
            server.close()

    cold_by_hash = {r.spec.spec_hash(): r for r in cold}
    warm_by_hash = {r.spec.spec_hash(): r for r in warm}
    cells = []
    for spec in specs:
        key = spec.spec_hash()
        record, hit = cold_by_hash.get(key), warm_by_hash.get(key)
        error = None
        if record is None or hit is None:
            error = "record missing from the cold job or the resubmit"
        elif hit.runtime.get("cache") != "hit":
            error = "resubmit recomputed the cell instead of a cache hit"
        elif payload_digest(hit) != payload_digest(record):
            error = "resubmitted payload differs from the cold payload"
        seconds = record.runtime.get("timings_s", {}).get("total", 0.0) if record else 0.0
        cells.append(_cell(spec, seconds, record, error))
    checks = []
    if rows != len(specs):
        checks.append(f"store query returned {rows} rows for {len(specs)} cells")
    return {
        "checks": checks,
        "wall_s": t2 - t0,
        "cold_s": t1 - t0,
        "resubmit_s": t2 - t1,
        "query_s": t3 - t2,
        "cells": cells,
    }


def spot_check(specs: list, cells: List[dict], samples: int = 8) -> List[str]:
    """Re-run a spread of served cells in-process; payloads must match."""
    from repro.api.runner import run_experiment

    problems = []
    step = max(1, len(specs) // samples)
    for spec, cell in list(zip(specs, cells))[::step]:
        digest = payload_digest(run_experiment(spec))
        if cell["digest"] is not None and digest != cell["digest"]:
            problems.append(f"{cell['label']}: served payload differs from run_experiment")
    return problems
