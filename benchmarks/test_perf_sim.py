"""Simulation-core perf harness: records throughput into ``BENCH_perf.json``.

Measures the compiled levelized engine against the retained per-gate
reference implementations on ISCAS-scale circuits:

* **bitsim** — one bit-parallel pass over ``N_PATTERNS`` random vectors;
  throughput is reported in pattern-gate evaluations per second.
* **faultsim** — coverage-style run (first detection of every fault) of a
  sampled stuck-at fault list against the same vectors; the reference runs
  with ``drop_detected=False``.
* **seqsim** — Monte-Carlo trigger sessions over a counter-Trojan-infected
  c3540-class circuit: compiled sequential schedule vs. the per-gate
  reference dict engine, bit-identity checked in the same run.
* **pipeline** — one end-to-end TrojanZero flow (thresholds → salvage →
  insertion → Pft Monte-Carlo) with the salvage compile-cache counters
  (full vs. patched compiles — the structural-fingerprint cache at work).

Results (before/after wall time, throughput, speedup) are merged into
``BENCH_perf.json`` at the repo root so the perf trajectory is tracked in
version control.  The assertions below are deliberately *generous* floors —
they exist to fail loudly on order-of-magnitude regressions (e.g. the engine
silently falling back to a per-gate path), not to pin exact machine speeds.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from perf_util import OUT_PATH, update_report
from repro.atpg import full_fault_list
from repro.atpg.faultsim import FaultSimulator
from repro.bench import c17, c499_like, c880_like, c1908_like, c3540_like
from repro.bench.iscas_extra import c6288_like
from repro.core.pipeline import TrojanZeroPipeline
from repro.sim.bitsim import BitSimulator, pack_patterns, unpack_patterns
from repro.sim.seqsim import SequentialSimulator
from repro.trojan import insert_counter_trojan

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    ReferenceSequentialSimulator,
    reference_fault_sim,
    reference_run_packed,
)


N_PATTERNS = 4096
FAULT_SAMPLE = 96
BITSIM_REPEATS = 3

CIRCUITS = {
    "c17": c17,
    "c499": c499_like,
    "c880": c880_like,
    "c1908": c1908_like,
    "c3540": c3540_like,
    "c6288": c6288_like,
}

#: Loud-regression floors (well below the typically observed speedups).
MIN_CIRCUITS_BITSIM_2X = 3
MIN_CIRCUITS_FAULTSIM_8X = 3


def _best_of(fn, repeats: int) -> float:
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _bench_circuit(name, build, rng):
    circuit = build()
    n_gates = circuit.num_logic_gates
    patterns = (rng.random((N_PATTERNS, len(circuit.inputs))) < 0.5).astype(np.uint8)

    # --- bit-parallel simulation -------------------------------------
    sim = BitSimulator(circuit)
    sim.run(patterns)  # warm the compiled schedule
    t_after = _best_of(lambda: sim.run(patterns), BITSIM_REPEATS)

    # The reference pass must pay the same unpacked-in / unpacked-out
    # conversion costs as ``sim.run`` or tiny circuits (c17) report a
    # phantom regression that is really just asymmetric packing overhead.
    def reference_pass():
        packed = pack_patterns(patterns)
        packed_inputs = {pi: packed[i] for i, pi in enumerate(circuit.inputs)}
        values = reference_run_packed(circuit, packed_inputs)
        out = np.stack([values[o] for o in circuit.outputs])
        unpack_patterns(out, N_PATTERNS)

    t_before = _best_of(reference_pass, BITSIM_REPEATS)

    # --- fault simulation (coverage workload) ------------------------
    faults = full_fault_list(circuit)
    if len(faults) > FAULT_SAMPLE:
        chosen = rng.choice(len(faults), FAULT_SAMPLE, replace=False)
        faults = [faults[i] for i in chosen]
    fsim = FaultSimulator(circuit)
    fsim.run(patterns, faults)  # warm the cone rows and PPSFP batch plans
    tf_after = _timed(lambda: fsim.run(patterns, faults))
    tf_before = _timed(
        lambda: reference_fault_sim(circuit, patterns, faults, drop_detected=False)
    )

    evals = N_PATTERNS * n_gates
    return {
        "gates": n_gates,
        "n_patterns": N_PATTERNS,
        "bitsim": {
            "before_s": t_before,
            "after_s": t_after,
            "before_pattern_gates_per_s": evals / t_before,
            "after_pattern_gates_per_s": evals / t_after,
            "speedup": t_before / t_after,
        },
        "faultsim": {
            "n_faults": len(faults),
            "before_s": tf_before,
            "after_s": tf_after,
            "before_fault_patterns_per_s": len(faults) * N_PATTERNS / tf_before,
            "after_fault_patterns_per_s": len(faults) * N_PATTERNS / tf_after,
            "speedup": tf_before / tf_after,
        },
    }


def test_compiled_engine_throughput():
    rng = np.random.default_rng(2026)
    results = {name: _bench_circuit(name, build, rng) for name, build in CIRCUITS.items()}
    update_report("workload", {
        "n_patterns": N_PATTERNS,
        "fault_sample": FAULT_SAMPLE,
        "faultsim_mode": "coverage (first detection per fault)",
        "units": "pattern-gate evaluations per second / fault-patterns per second",
    })
    update_report("circuits", results)

    # Compiled dispatch must never lose to the per-gate reference — on ANY
    # circuit, including tiny c17, now that both sides pay the same packing
    # cost.  Floor at 0.9 to absorb timer jitter on microsecond-scale runs.
    bitsim_slow = [n for n, r in results.items() if r["bitsim"]["speedup"] < 0.9]
    assert not bitsim_slow, (
        f"compiled bitsim lost to the reference interpreter on {bitsim_slow} "
        f"(see {OUT_PATH})"
    )

    iscas = {n: r for n, r in results.items() if n != "c17"}
    bitsim_fast = [n for n, r in iscas.items() if r["bitsim"]["speedup"] >= 2.0]
    faultsim_fast = [n for n, r in iscas.items() if r["faultsim"]["speedup"] >= 8.0]
    assert len(bitsim_fast) >= MIN_CIRCUITS_BITSIM_2X, (
        f"bit-parallel speedup regressed: only {bitsim_fast} of {list(iscas)} "
        f"reached 2x (see {OUT_PATH})"
    )
    assert len(faultsim_fast) >= MIN_CIRCUITS_FAULTSIM_8X, (
        f"fault-sim speedup regressed: only {faultsim_fast} of {list(iscas)} "
        f"reached 8x (see {OUT_PATH})"
    )


# ---------------------------------------------------------------------------
# sequential Monte-Carlo (counter-Trojan trigger sessions)
# ---------------------------------------------------------------------------
SEQ_SESSIONS = 256
SEQ_VECTORS = 48
SEQ_MIN_SPEEDUP = 3.0  # loud-regression floor; typically observed >= 5x


def test_seqsim_monte_carlo_throughput():
    """Compiled sequential engine vs. reference dict engine, N'' Monte-Carlo."""
    circuit = c3540_like()
    instance = insert_counter_trojan(
        circuit,
        victim=circuit.outputs[0],
        clock_source=circuit.internal_nets()[50],
        n_bits=3,
    )
    rng = np.random.default_rng(2026)
    sequences = (
        rng.random((SEQ_SESSIONS, SEQ_VECTORS, len(circuit.inputs))) < 0.5
    ).astype(np.uint8)
    watch = [instance.trigger_net]

    sim = SequentialSimulator(circuit)
    sim.run_sequences_nets(sequences, watch)  # warm the compiled schedule
    t_after = _best_of(lambda: sim.run_sequences_nets(sequences, watch), 3)
    got = sim.run_sequences_nets(sequences, watch)

    ref = ReferenceSequentialSimulator(circuit)
    t_before = _timed(lambda: ref.run_sequences_nets(sequences, watch))
    want = ref.run_sequences_nets(sequences, watch)

    assert (got == want).all(), "compiled sequential engine diverged from reference"

    vector_steps = SEQ_SESSIONS * SEQ_VECTORS
    speedup = t_before / t_after
    update_report("seqsim", {
        "circuit": "c3540 + 3-bit counter Trojan",
        "gates": circuit.num_logic_gates,
        "n_sessions": SEQ_SESSIONS,
        "n_vectors": SEQ_VECTORS,
        "before_s": t_before,
        "after_s": t_after,
        "before_vector_steps_per_s": vector_steps / t_before,
        "after_vector_steps_per_s": vector_steps / t_after,
        "speedup": speedup,
    })
    assert speedup >= SEQ_MIN_SPEEDUP, (
        f"sequential Monte-Carlo speedup regressed: {speedup:.1f}x < "
        f"{SEQ_MIN_SPEEDUP}x (see {OUT_PATH})"
    )


# ---------------------------------------------------------------------------
# end-to-end pipeline (thresholds -> salvage -> insertion -> Pft MC)
# ---------------------------------------------------------------------------
def test_pipeline_end_to_end_timing():
    """One full TrojanZero flow; records wall time + salvage compile caching."""
    circuit = c880_like()
    pipeline = TrojanZeroPipeline.default()
    start = time.perf_counter()
    result = pipeline.run(
        circuit,
        p_threshold=0.85,
        max_candidates=24,
        monte_carlo_sessions=64,
    )
    elapsed = time.perf_counter() - start

    stats = result.salvage.compile_stats
    trials = len(result.salvage.removals)
    update_report("pipeline", {
        "circuit": "c880",
        "gates": circuit.num_logic_gates,
        "max_candidates": 24,
        "monte_carlo_sessions": 64,
        "wall_s": elapsed,
        "salvage_trials": trials,
        "salvage_compile_stats": stats,
    })
    # The structural-fingerprint cache must keep salvage's edit/revert loop
    # off the cold-compile path: at most the golden + first-trial compiles
    # may be full; every other trial patches or hits a cache.
    assert stats.get("full_compiles", 0) <= 2, (
        f"salvage recompiled cold {stats.get('full_compiles')} times over "
        f"{trials} trials (stats: {stats}; see {OUT_PATH})"
    )
    if trials > 2:
        assert (
            stats.get("patched_compiles", 0) + stats.get("fingerprint_hits", 0) > 0
        ), f"no compile-cache hits across {trials} salvage trials: {stats}"
