"""Shared helpers of the perf harnesses: the BENCH report and fair timing."""

from __future__ import annotations

import json
import time
from pathlib import Path

OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_perf.json"


def update_report(section: str, payload: dict) -> None:
    """Merge one section into ``BENCH_perf.json`` (sections own their keys)."""
    report = {}
    if OUT_PATH.exists():
        try:
            report = json.loads(OUT_PATH.read_text())
        except json.JSONDecodeError:
            report = {}
    report[section] = payload
    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def best_of_interleaved(fns, repeats: int):
    """Best-of-``repeats`` wall time per function, runs alternating.

    Alternating keeps a burst of load on a shared machine from landing on
    one side of the ratio only.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best
