"""Bit-parallel single-stuck-at fault simulation.

:class:`FaultSimulator` runs every call through PPSFP
(:mod:`repro.atpg.ppsfp`) on the compiled levelized engine of
:mod:`repro.sim.compiled`: up to 64 faults share one widened matrix and
propagate in one levelized sweep.  The pattern count picks nothing — a
single vector against every remaining fault (PODEM's cross-drop), a
64-pattern random block and a long pattern set are all inputs to the same
sweep, and a single fault is the degenerate one-slot batch.

Every fault is reported with its globally first detecting pattern.  This
powers (a) the ATPG outer loop (drop every fault a fresh PODEM vector
detects), (b) coverage reporting, and (c) the reproduction's analysis of
*which* stuck-at faults the defender's TP set leaves uncovered — the holes
TrojanZero's removals hide in.  ``run(..., words=True)`` also returns the
full no-drop detection matrix (every fault against every pattern), which
the ATPG flow's static compaction reads in place of per-pattern re-runs.

Differential tests pin it against ``reference_fault_sim``, the
block/Python-int oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..netlist.circuit import Circuit, NetlistError
from ..sim.compiled import CompiledCircuit, compile_circuit
from .fault import StuckAtFault
from .ppsfp import first_detections, ppsfp_detect_words, ppsfp_detections


@dataclass
class FaultSimResult:
    """Outcome of simulating a fault set against a pattern set."""

    detected: Dict[StuckAtFault, int] = field(default_factory=dict)
    undetected: List[StuckAtFault] = field(default_factory=list)
    patterns_applied: int = 0
    #: ``run(..., words=True)`` only: the ``(n_faults, n_words)`` uint64
    #: detection matrix, one row per input fault.
    words: Optional[np.ndarray] = None

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0


class FaultSimulator:
    """Stuck-at fault simulator over the compiled circuit (PPSFP sweeps)."""

    def __init__(self, circuit: Circuit) -> None:
        if circuit.is_sequential:
            raise NetlistError("fault simulation supports combinational circuits only")
        self.circuit = circuit
        self._compiled: CompiledCircuit = compile_circuit(circuit)

    def run(
        self,
        patterns: np.ndarray,
        faults: Iterable[StuckAtFault],
        words: bool = False,
    ) -> FaultSimResult:
        """Simulate ``faults`` against ``patterns`` (rows of 0/1).

        Every fault is judged against the whole pattern set, and the
        reported detection index is the *first* detecting pattern.  Every
        pattern count runs PPSFP (:mod:`repro.atpg.ppsfp`).

        ``words=True`` also fills ``result.words`` with the full detection
        matrix, computed without fault dropping: row *i* belongs to the
        *i*-th fault, and bit *p* of word ``p // 64`` is set iff pattern *p*
        detects it (tail bits past the last pattern are zero).  Static
        compaction reads every (fault, pattern) pair from this one sweep.

        Raises ``ValueError`` when the pattern width is not the circuit's
        input count and :class:`NetlistError` for a fault on an unknown net.
        """
        faults = list(faults)
        patterns = np.atleast_2d(np.asarray(patterns))
        n_inputs = len(self.circuit.inputs)
        if patterns.shape[1] != n_inputs:
            raise ValueError(
                f"expected {n_inputs} input columns, got {patterns.shape[1]}"
            )
        result = FaultSimResult(patterns_applied=patterns.shape[0])
        try:
            if words:
                result.words = ppsfp_detect_words(self._compiled, patterns, faults)
                for row, index in enumerate(first_detections(result.words).tolist()):
                    if index >= 0:
                        result.detected.setdefault(faults[row], index)
            else:
                result.detected = ppsfp_detections(self._compiled, patterns, faults)
        except KeyError:
            # Looked up only on failure, so the hot path pays nothing.
            index = self._compiled.index
            unknown = next((f.net for f in faults if f.net not in index), None)
            if unknown is None:
                raise
            raise NetlistError(
                f"fault site {unknown!r} is not a net of {self.circuit.name!r}"
            ) from None
        result.undetected = [f for f in faults if f not in result.detected]
        return result

    def detects(self, pattern: np.ndarray, fault: StuckAtFault) -> bool:
        """Does a single pattern detect ``fault``?"""
        outcome = self.run(np.atleast_2d(pattern), [fault])
        return fault in outcome.detected


def fault_coverage(
    circuit: Circuit, patterns: np.ndarray, faults: Iterable[StuckAtFault]
) -> float:
    """Fraction of ``faults`` detected by ``patterns``."""
    return FaultSimulator(circuit).run(patterns, faults).coverage
