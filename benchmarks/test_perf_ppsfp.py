"""PPSFP perf harness: 64-fault batches vs. one-fault batches.

Times ``ppsfp_detections`` at its default batch width against
``batch_size=1`` — the same kernel sweeping one fault at a time — on the
largest ISCAS-class circuits at benchmark scale (128 faults x 4096
patterns) and merges a ``ppsfp`` section into ``BENCH_perf.json``.  The two
must be bit-identical and both must match ``reference_fault_sim``, asserted
in the same run — a speedup from a wrong answer is no speedup.

The floors are loud-regression tripwires, set well below the observed
speedups (c3540 ~3-9x, c6288 ~8-12x): they catch fault batching silently
degrading to per-fault behaviour, not machine-to-machine variance.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from perf_util import OUT_PATH, best_of_interleaved, update_report
from repro.atpg import full_fault_list
from repro.atpg.ppsfp import ppsfp_detections
from repro.bench import c3540_like
from repro.bench.iscas_extra import c6288_like
from repro.sim.compiled import compile_circuit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import reference_fault_sim  # noqa: E402

N_PATTERNS = 4096
N_FAULTS = 128
REPEATS = 3

CIRCUITS = {
    "c3540": c3540_like,
    "c6288": c6288_like,
}

#: Loud-regression floor on the batched-vs-one-fault speedup, per circuit.
MIN_SPEEDUP = 2.0


def _bench_ppsfp(name, build, rng):
    circuit = build()
    patterns = (rng.random((N_PATTERNS, len(circuit.inputs))) < 0.5).astype(np.uint8)
    faults = full_fault_list(circuit)
    chosen = rng.choice(len(faults), N_FAULTS, replace=False)
    faults = [faults[i] for i in chosen]

    compiled = compile_circuit(circuit)

    def one_fault():
        return ppsfp_detections(compiled, patterns, faults, batch_size=1)

    def batched():
        return ppsfp_detections(compiled, patterns, faults)

    # Warm both: cone rows, batch plans, signature caches.
    want = reference_fault_sim(circuit, patterns, faults).detected
    assert one_fault() == want, f"{name}: one-fault batches diverged from the oracle"
    detected = batched()
    assert detected == want, f"{name}: 64-fault batches diverged from the oracle"

    t_one, t_ppsfp = best_of_interleaved((one_fault, batched), REPEATS)

    work = len(faults) * N_PATTERNS
    return {
        "gates": circuit.num_logic_gates,
        "n_patterns": N_PATTERNS,
        "n_faults": len(faults),
        "detected": len(detected),
        "one_fault_s": t_one,
        "ppsfp_s": t_ppsfp,
        "one_fault_fault_patterns_per_s": work / t_one,
        "ppsfp_fault_patterns_per_s": work / t_ppsfp,
        "speedup": t_one / t_ppsfp,
    }


def test_ppsfp_batch_throughput():
    rng = np.random.default_rng(2026)
    results = {
        name: _bench_ppsfp(name, build, rng) for name, build in CIRCUITS.items()
    }
    update_report("ppsfp", {
        "workload": f"{N_FAULTS} faults x {N_PATTERNS} patterns, "
        "batch_size=64 vs. batch_size=1",
        "units": "fault-patterns per second",
        "circuits": results,
    })
    slow = {
        n: round(r["speedup"], 2)
        for n, r in results.items()
        if r["speedup"] < MIN_SPEEDUP
    }
    assert not slow, (
        f"PPSFP batch speedup regressed below {MIN_SPEEDUP}x on {slow} "
        f"(see {OUT_PATH})"
    )
