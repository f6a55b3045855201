"""PODEM perf harness: event-driven engine vs. full re-implication oracle.

Times :class:`repro.atpg.PodemEngine` against ``oracles.reference_podem``
over every collapsed fault of the defender's c880 baseline at the
defender's backtrack limit, and merges a ``podem`` section into
``BENCH_perf.json``.  Both engines must return identical results, asserted
on the timed runs themselves — a speedup from a wrong answer is no speedup.

Each side is the best of alternating repeats.  The floor is a
loud-regression tripwire well below the observed speedup (about 18-25x on
a 2-core box): it catches implication silently falling back to a
whole-circuit pass per decision, not machine-to-machine variance.
"""

from __future__ import annotations

import sys
from pathlib import Path

from perf_util import OUT_PATH, best_of_interleaved, update_report
from repro.atpg import PodemEngine, collapse_faults
from repro.bench import c880_like
from repro.core.thresholds import DefenderModel
from repro.power.synthesis import optimize_netlist

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import reference_podem  # noqa: E402

REPEATS = 3

#: Loud-regression floor on the event-driven-vs-oracle speedup.
MIN_SPEEDUP = 5.0


def _fields(results):
    return [(r.status, r.test, r.backtracks, r.decisions) for r in results]


def test_podem_event_driven_speedup():
    circuit = optimize_netlist(c880_like())
    faults = collapse_faults(circuit)
    limit = DefenderModel().atpg.backtrack_limit
    results = {}

    def event_driven():
        engine = PodemEngine(circuit, limit)
        results["engine"] = [engine.generate(fault) for fault in faults]

    def oracle():
        results["oracle"] = [reference_podem(circuit, fault, limit) for fault in faults]

    event_driven()  # warm the compiled form and the cone rows
    t_engine, t_oracle = best_of_interleaved((event_driven, oracle), REPEATS)
    assert _fields(results["engine"]) == _fields(results["oracle"]), (
        "event-driven PODEM diverged from reference_podem"
    )
    speedup = t_oracle / t_engine
    statuses = [r.status.value for r in results["engine"]]
    update_report("podem", {
        "workload": f"every collapsed fault of optimize_netlist(c880), "
        f"backtrack_limit={limit}",
        "circuit": "c880",
        "gates": circuit.num_logic_gates,
        "n_faults": len(faults),
        "outcomes": {s: statuses.count(s) for s in sorted(set(statuses))},
        "engine_s": t_engine,
        "oracle_s": t_oracle,
        "speedup": speedup,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"event-driven PODEM speedup regressed: {speedup:.1f}x < "
        f"{MIN_SPEEDUP}x (see {OUT_PATH})"
    )
