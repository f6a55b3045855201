"""Full ATPG flow: the defender's test-pattern generation (TetraMAX substitute).

Mirrors industrial practice (Bushnell & Agrawal, ch. 7, which the paper cites
for the stuck-at testing model):

1. **Random phase** — simulate blocks of random patterns, keep each block
   only if it detects new faults (cheap coverage of the easy faults).
2. **Deterministic phase** — PODEM on every remaining collapsed fault with a
   backtrack budget; each new vector is fault-simulated against all remaining
   faults so secondary detections are dropped.
3. **Compaction** — one fault-sim sweep without fault dropping gives the
   detection matrix of every (fault, pattern) pair.  A reverse-order pass
   over it keeps a per-fault count of kept detecting patterns and drops a
   pattern iff no fault it detects has a count of 1, i.e. iff removing it
   loses no coverage (simple but effective static compaction).  The final
   coverage is read off the same matrix, restricted to the kept patterns.

The resulting :class:`TestSet` is the defender's TP set: its coverage holes
(aborted + untestable faults) are exactly where Algorithm 1's removals and
Algorithm 2's trigger wiring must hide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

from ..netlist.circuit import Circuit
from ..sim.bitsim import unpack_patterns
from .fault import StuckAtFault, collapse_faults, full_fault_list
from .faultsim import FaultSimulator
from .podem import PodemEngine, PodemStatus
from .testability import compute_testability


@dataclass
class TestSet:
    """The defender's generated test patterns plus bookkeeping."""

    circuit_name: str
    patterns: np.ndarray  # (n_patterns, n_inputs) uint8, PI order = circuit.inputs
    total_faults: int
    detected_faults: int
    aborted: List[StuckAtFault] = field(default_factory=list)
    untestable: List[StuckAtFault] = field(default_factory=list)
    #: Faults never attempted because the coverage target / pattern budget
    #: was reached first (the hardest faults, under SCOAP ordering).
    not_attempted: List[StuckAtFault] = field(default_factory=list)
    #: Faults provably covered by the final compacted pattern set.
    covered: Set[StuckAtFault] = field(default_factory=set)

    @property
    def coverage(self) -> float:
        return self.detected_faults / self.total_faults if self.total_faults else 1.0

    @property
    def n_patterns(self) -> int:
        return int(self.patterns.shape[0])

    def covers(self, fault: StuckAtFault) -> bool:
        return fault in self.covered


@dataclass(frozen=True)
class AtpgConfig:
    """Effort knobs of the defender's ATPG run.

    ``target_coverage`` and ``max_patterns`` model the budgets every
    production test program runs under: once the deterministic phase reaches
    the coverage sign-off target (or the pattern budget), the remaining —
    by construction the *hardest*, i.e. rare-excitation — faults are left
    untested.  Those holes are exactly where TrojanZero's edits hide.
    """

    backtrack_limit: int = 50
    random_blocks: int = 8
    block_size: int = 64
    compaction: bool = True
    seed: int = 2019  # DATE 2019
    #: Stop deterministic generation once this fault coverage is reached.
    target_coverage: float = 1.0
    #: Hard cap on the final pattern count (None = unlimited).
    max_patterns: Optional[int] = None
    #: Target hardest faults last (SCOAP ordering), like industrial tools.
    order_by_testability: bool = True


def generate_test_set(
    circuit: Circuit,
    config: Optional[AtpgConfig] = None,
    faults: Optional[Sequence[StuckAtFault]] = None,
) -> TestSet:
    """Run the full ATPG flow on a combinational circuit."""
    config = config or AtpgConfig()
    rng = np.random.default_rng(config.seed)
    target_faults = list(faults) if faults is not None else collapse_faults(circuit)
    total = len(target_faults)
    simulator = FaultSimulator(circuit)
    engine = PodemEngine(circuit, backtrack_limit=config.backtrack_limit)
    n_inputs = len(circuit.inputs)

    kept_patterns: List[np.ndarray] = []
    remaining: List[StuckAtFault] = list(target_faults)

    # ------------------------------------------------------------------
    # Phase 1: random patterns with fault dropping.
    for _ in range(config.random_blocks):
        if not remaining:
            break
        block = (rng.random((config.block_size, n_inputs)) < 0.5).astype(np.uint8)
        outcome = simulator.run(block, remaining)
        if outcome.detected:
            detecting_rows = sorted({idx for idx in outcome.detected.values()})
            kept_patterns.append(block[detecting_rows])
            remaining = outcome.undetected

    # ------------------------------------------------------------------
    # Phase 2: deterministic PODEM with cross-dropping, easiest faults first,
    # stopping at the coverage target / pattern budget.
    if config.order_by_testability and remaining:
        measures = compute_testability(circuit)
        remaining.sort(key=measures.fault_difficulty)
    aborted: List[StuckAtFault] = []
    untestable: List[StuckAtFault] = []
    not_attempted: List[StuckAtFault] = []
    index = 0
    while index < len(remaining):
        # Detected faults have been removed from ``remaining``; entries before
        # ``index`` are aborted/untestable.
        detected_so_far = total - len(remaining)
        if total and detected_so_far / total >= config.target_coverage:
            not_attempted = remaining[index:]
            break
        if (
            config.max_patterns is not None
            and sum(p.shape[0] for p in kept_patterns) >= config.max_patterns
        ):
            not_attempted = remaining[index:]
            break
        fault = remaining[index]
        result = engine.generate(fault)
        if result.status is PodemStatus.DETECTED:
            vector = np.array(
                [[result.test[pi] for pi in circuit.inputs]], dtype=np.uint8
            )
            kept_patterns.append(vector)
            outcome = simulator.run(vector, remaining[index:])
            if fault in outcome.undetected:
                # Defensive: PODEM claimed detection but simulation disagrees
                # (should not happen); avoid looping forever on this fault.
                aborted.append(fault)
                outcome.undetected.remove(fault)
            remaining = remaining[:index] + outcome.undetected
        else:
            if result.status is PodemStatus.ABORTED:
                aborted.append(fault)
            else:
                untestable.append(fault)
            index += 1
        # Faults before ``index`` are all aborted/untestable; detected ones
        # were removed from ``remaining`` by the cross-drop.
        index = len(aborted) + len(untestable)

    patterns = (
        np.concatenate(kept_patterns, axis=0)
        if kept_patterns
        else np.zeros((0, n_inputs), dtype=np.uint8)
    )

    # ------------------------------------------------------------------
    # Phase 3: one no-drop sweep for the detection matrix, reverse-order
    # static compaction on it, then the pattern budget.  Without compaction
    # the budget is a plain prefix cut, so it comes before the sweep.
    compact = config.compaction and patterns.shape[0] > 1
    if not compact and config.max_patterns is not None:
        patterns = patterns[: config.max_patterns]
    covered: Set[StuckAtFault] = set()
    if patterns.size:
        words = simulator.run(patterns, target_faults, words=True).words
        detects = unpack_patterns(words, patterns.shape[0]).astype(bool)
        rows = _compact(detects) if compact else np.arange(patterns.shape[0])
        rows = rows[: config.max_patterns]
        patterns = patterns[rows]
        hit = detects[rows].any(axis=0)
        covered = {fault for fault, ok in zip(target_faults, hit) if ok}
    return TestSet(
        circuit_name=circuit.name,
        patterns=patterns,
        total_faults=total,
        detected_faults=len(covered),
        aborted=aborted,
        untestable=untestable,
        not_attempted=not_attempted,
        covered=covered,
    )


def _compact(detects: np.ndarray) -> np.ndarray:
    """Reverse-order static compaction: the rows worth keeping, ascending.

    ``detects`` is the ``(n_patterns, n_faults)`` boolean detection matrix:
    entry ``[p, f]`` says pattern *p* detects fault *f*.  Walking
    the patterns from last to first, a pattern is dropped iff every fault it
    detects is still detected by another kept pattern, i.e. no fault it
    detects has a kept-detection count of 1.  That is exactly the decision
    of re-simulating the kept set without the pattern and checking for lost
    coverage, so the kept rows are the same, from one fault-sim sweep
    instead of one per pattern.
    """
    count = detects.sum(axis=0)
    keep = np.zeros(detects.shape[0], dtype=bool)
    for row in range(detects.shape[0] - 1, -1, -1):
        hit = detects[row]
        if (count[hit] == 1).any():
            keep[row] = True
        else:
            count[hit] -= 1
    return np.flatnonzero(keep)


def uncovered_faults(test_set: TestSet, faults: Sequence[StuckAtFault]) -> List[StuckAtFault]:
    """Subset of ``faults`` the defender's TP set does not detect."""
    return [f for f in faults if f not in test_set.covered]
