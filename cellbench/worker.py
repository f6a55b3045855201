"""One pass of a workload in a fresh process.

The parent (``run.py``) starts this script and reads two messages: ``ready``
carries the seconds from spawn to ready and a probe burst taken right after,
``result`` the pass result with the median probe sample of the pass (see
``hostspeed.py``).  Messages are single stdout lines that start with
``@cellbench``; any other output of the program is passed through by the
parent.

Set-up covers the imports, ``tech65_library()``, resolving the workload's
circuits and one warm-up cell on c17, a circuit no cell workload contains,
so caches keyed on circuit structure start empty for the measured cells.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PREFIX = "@cellbench"


def emit(kind: str, data: object = None) -> None:
    sys.stdout.write(f"{PREFIX} {kind} {json.dumps(data)}\n")
    sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the span log here")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it spawned this process")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy

    from repro.api.registry import resolve_circuit
    from repro.api.runner import run_experiment
    from repro.api.spec import ExperimentSpec
    from repro.power.tech65 import tech65_library

    import hostspeed
    import tracing
    from workloads import WORKLOADS, run_cells, run_service, spot_check

    workload = WORKLOADS[args.workload]
    if workload.service:
        import repro.service  # noqa: F401 — part of this workload's set-up
    specs = workload.specs(args.seed)
    tech65_library()
    for circuit in sorted({spec.circuit for spec in specs}):
        resolve_circuit(circuit)
    run_experiment(ExperimentSpec(circuit="c17", pth=0.9, seed=args.seed))
    ready_s = time.monotonic() - args.spawned_at
    emit("ready", {"s": ready_s, "probe_s": hostspeed.burst()})
    if args.setup_only:
        return

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    sampler = hostspeed.Sampler().start()
    try:
        if workload.service:
            result = run_service(specs, ROOT / ".cellbench" / "tmp", tracer)
        else:
            result = run_cells(specs, tracer)
    finally:
        probe_s = sampler.stop()
        if tracer is not None:
            tracer.close()
    result["probe_s"] = probe_s
    if workload.service:
        result["checks"] += spot_check(specs, result["cells"])

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans)
        layers["service.compute_share"] = (
            layers["cell.s"] / result["cold_s"] if workload.service else 0.0)
        result["layers"] = layers
        if not workload.service:  # 1000 c17 profiles would drown the output
            result["profiles"] = tracing.cell_profiles(tracer.spans)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump([asdict(s) for s in tracer.spans], handle)
    emit("result", result)


if __name__ == "__main__":
    main()
