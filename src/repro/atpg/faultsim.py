"""Bit-parallel single-stuck-at fault simulation.

:class:`FaultSimulator` runs on the compiled levelized engine of
:mod:`repro.sim.compiled` and picks its engine from the pattern count alone:

* **at most 64 patterns** — the good circuit is simulated once into one
  word per net, and each fault walks its precomputed fanout-cone row list
  with Python-int word ops, stopping wherever the effect is masked.  This
  is the shape of the ATPG random blocks and of PODEM's cross-drop (one
  vector against every remaining fault), where per-gate int ops beat
  per-group numpy dispatch.
* **more than 64 patterns** — PPSFP (:mod:`repro.atpg.ppsfp`) packs up to 64
  faults into one widened matrix and propagates them in one levelized
  sweep; a single fault is the degenerate one-slot batch.

Both report, per fault, the globally first detecting pattern.  This powers
(a) the ATPG outer loop (drop every fault a fresh PODEM vector detects),
(b) coverage reporting, and (c) the reproduction's analysis of *which*
stuck-at faults the defender's TP set leaves uncovered — the holes
TrojanZero's removals hide in.  ``run(..., words=True)`` also returns the
full no-drop detection matrix (every fault against every pattern), which
the ATPG flow's static compaction reads in place of per-pattern re-runs.

The pre-compiled implementation (64 patterns per arbitrary-precision Python
int, one block at a time) is retained as :func:`reference_fault_sim` for
differential testing and before/after benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gate import GateType
from ..sim.bitsim import WORD_BITS, pack_patterns
from ..sim.compiled import CompiledCircuit, compile_circuit
from .fault import StuckAtFault
from .ppsfp import _first_pattern, ppsfp_detect_words, ppsfp_detections


def _blocks(patterns: np.ndarray, inputs: Sequence[str]) -> Iterable[Tuple[Dict[str, int], int, int]]:
    """Yield (pi -> packed int, n_patterns_in_block, block_start) per 64-row block."""
    patterns = np.atleast_2d(np.asarray(patterns))
    n = patterns.shape[0]
    for start in range(0, n, WORD_BITS):
        chunk = patterns[start : start + WORD_BITS]
        packed = pack_patterns(chunk)  # (n_inputs, 1) — vectorized, no bit loop
        words = {pi: int(packed[col, 0]) for col, pi in enumerate(inputs)}
        yield words, chunk.shape[0], start


def _evaluate_packed_int(gate_type: GateType, ins: List[int], mask: int) -> int:
    if gate_type is GateType.AND or gate_type is GateType.NAND:
        acc = ins[0]
        for w in ins[1:]:
            acc &= w
        return (acc ^ mask) if gate_type is GateType.NAND else acc
    if gate_type is GateType.OR or gate_type is GateType.NOR:
        acc = ins[0]
        for w in ins[1:]:
            acc |= w
        return (acc ^ mask) if gate_type is GateType.NOR else acc
    if gate_type is GateType.XOR or gate_type is GateType.XNOR:
        acc = ins[0]
        for w in ins[1:]:
            acc ^= w
        return (acc ^ mask) if gate_type is GateType.XNOR else acc
    if gate_type is GateType.NOT:
        return ins[0] ^ mask
    if gate_type is GateType.BUFF:
        return ins[0]
    if gate_type is GateType.MUX:
        d0, d1, sel = ins
        return (d0 & (sel ^ mask)) | (d1 & sel)
    raise NetlistError(f"cannot fault-simulate gate type {gate_type}")


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
    """Cone-restricted, matrix-based stuck-at fault simulator."""

    def __init__(self, circuit: Circuit) -> None:
        if circuit.is_sequential:
            raise NetlistError("fault simulation supports combinational circuits only")
        self.circuit = circuit
        self._compiled: CompiledCircuit = compile_circuit(circuit)

    def _detect_mask_single_word(
        self, site: int, stuck: int, good: List[int], mask: int
    ) -> int:
        """Python-int cone walk for one 64-pattern word (low constant factor).

        For single-vector / single-block calls — the PODEM outer loop's
        dominant shape — per-gate Python int ops beat per-group numpy
        dispatch, so the compiled engine only computes the good values and
        the cone row order here.
        """
        cc = self._compiled
        if good[site] == stuck:
            return 0  # never excited in this block
        faulty: Dict[int, int] = {site: stuck}
        detect = 0
        for row in cc.cone_rows_at(site):
            gate_type, ins = cc.node[row]
            value = _evaluate_packed_int(
                gate_type, [faulty.get(i, good[i]) for i in ins], mask
            )
            if value == good[row]:
                continue  # effect masked at this gate for all patterns
            faulty[row] = value
            if row in cc.po_set:
                detect |= value ^ good[row]
        if site in cc.po_set:
            detect |= stuck ^ good[site]
        return detect & mask

    def _single_word_masks(
        self, patterns: np.ndarray, faults: Sequence[StuckAtFault]
    ) -> List[int]:
        """Per-fault detect mask over one word of at most 64 patterns."""
        n_patterns = patterns.shape[0]
        matrix = self._compiled.simulate_packed(pack_patterns(patterns))
        mask = (1 << n_patterns) - 1
        # Inverting gates set the pad bits past n_patterns in the compiled
        # matrix; mask them off so the == early-exits stay exact.
        column = matrix[:, 0]
        good: List[int] = (column & np.uint64(mask)).tolist()
        index = self._compiled.index
        return [
            self._detect_mask_single_word(
                index[fault.net], mask if fault.value else 0, good, mask
            )
            for fault in faults
        ]

    def _detect_words(
        self, patterns: np.ndarray, faults: List[StuckAtFault]
    ) -> np.ndarray:
        """The ``(n_faults, n_words)`` detection matrix, no fault dropping."""
        if patterns.shape[0] > WORD_BITS:
            return ppsfp_detect_words(self._compiled, patterns, faults)
        words = np.zeros((len(faults), min(patterns.shape[0], 1)), dtype=np.uint64)
        if words.size:
            words[:, 0] = np.array(
                self._single_word_masks(patterns, faults), dtype=np.uint64
            )
        return words

    def _detections(
        self, patterns: np.ndarray, faults: List[StuckAtFault]
    ) -> Dict[StuckAtFault, int]:
        """Fault -> first detecting pattern, engine chosen by pattern count."""
        if patterns.shape[0] > WORD_BITS:
            return ppsfp_detections(self._compiled, patterns, faults)
        detected: Dict[StuckAtFault, int] = {}
        if patterns.shape[0] and faults:
            for fault, detect in zip(faults, self._single_word_masks(patterns, faults)):
                if detect:
                    detected[fault] = (detect & -detect).bit_length() - 1
        return detected

    def run(
        self,
        patterns: np.ndarray,
        faults: Iterable[StuckAtFault],
        words: bool = False,
    ) -> FaultSimResult:
        """Simulate ``faults`` against ``patterns`` (rows of 0/1).

        Every fault is judged against the whole pattern set, and the
        reported detection index is the *first* detecting pattern.  The
        pattern count alone picks the engine: at most 64 patterns run the
        Python-int single-word cone walk (the random blocks and PODEM's
        cross-drop), more run PPSFP (:mod:`repro.atpg.ppsfp`).

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
                result.words = self._detect_words(patterns, faults)
                for row in np.flatnonzero(result.words.any(axis=1)):
                    first = _first_pattern(result.words[row])
                    result.detected.setdefault(faults[row], first)
            else:
                result.detected = self._detections(patterns, faults)
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


# ----------------------------------------------------------------------
# reference implementation (pre-compiled engine) for differential testing
# ----------------------------------------------------------------------
def _reference_good_values(
    circuit: Circuit, order: List[str], words: Dict[str, int], mask: int
) -> Dict[str, int]:
    values: Dict[str, int] = {}
    for net in order:
        gate = circuit.gate(net)
        gt = gate.gate_type
        if gt is GateType.INPUT:
            values[net] = words[net]
        elif gt is GateType.TIE0:
            values[net] = 0
        elif gt is GateType.TIE1:
            values[net] = mask
        else:
            values[net] = _evaluate_packed_int(
                gt, [values[i] for i in gate.inputs], mask
            )
    return values


def reference_fault_sim(
    circuit: Circuit,
    patterns: np.ndarray,
    faults: Iterable[StuckAtFault],
    drop_detected: bool = True,
) -> FaultSimResult:
    """The pre-compiled block/Python-int fault simulator, kept as an oracle.

    Processes 64 patterns at a time as arbitrary-precision ints and walks the
    fanout cone one gate per Python iteration.  Differential tests pin the
    compiled :class:`FaultSimulator` against it; benchmarks use it as the
    "before" measurement.

    One deliberate deviation from the historical implementation: with
    ``drop_detected=False`` the original overwrote a fault's detection index
    on every detecting block (so it reported the first index within the
    *last* detecting block).  Both this oracle (via ``setdefault``) and the
    compiled engine report the globally *first* detecting pattern in every
    mode, which is the meaningful quantity.
    """
    order = circuit.topological_order()
    order_index = {net: i for i, net in enumerate(order)}
    outputs = set(circuit.outputs)
    cone_cache: Dict[str, List[str]] = {}

    def cone_of(net: str) -> List[str]:
        cached = cone_cache.get(net)
        if cached is None:
            cone = circuit.fanout_cone(net)
            cone.discard(net)
            cached = sorted(cone, key=order_index.__getitem__)
            cone_cache[net] = cached
        return cached

    def detect_mask(fault: StuckAtFault, good: Dict[str, int], mask: int) -> int:
        stuck_word = mask if fault.value else 0
        if good[fault.net] == stuck_word:
            return 0
        faulty: Dict[str, int] = {fault.net: stuck_word}
        detect = 0
        for net in cone_of(fault.net):
            gate = circuit.gate(net)
            ins = [faulty.get(i, good[i]) for i in gate.inputs]
            value = _evaluate_packed_int(gate.gate_type, ins, mask)
            if value == good[net]:
                continue
            faulty[net] = value
            if net in outputs:
                detect |= value ^ good[net]
        if fault.net in outputs:
            detect |= stuck_word ^ good[fault.net]
        return detect & mask

    remaining: List[StuckAtFault] = list(faults)
    result = FaultSimResult()
    patterns = np.atleast_2d(np.asarray(patterns))
    result.patterns_applied = patterns.shape[0]
    for words, n_in_block, start in _blocks(patterns, circuit.inputs):
        if not remaining:
            break
        mask = (1 << n_in_block) - 1
        good = _reference_good_values(circuit, order, words, mask)
        still: List[StuckAtFault] = []
        for fault in remaining:
            detect = detect_mask(fault, good, mask)
            if detect:
                first = (detect & -detect).bit_length() - 1
                result.detected.setdefault(fault, start + first)
                if not drop_detected:
                    still.append(fault)
            else:
                still.append(fault)
        remaining = still
    result.undetected = [f for f in remaining if f not in result.detected]
    return result
