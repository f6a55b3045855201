"""Reference implementations kept as test oracles for faster engines.

The simulators here are the pre-compiled per-gate interpreters: they walk
the netlist dict one gate at a time and evaluate gates with their own
if-chain (:func:`_eval_words`), not the gate-semantics table the production
engines derive from, so each differential test compares two independent
implementations.  The benchmarks import them for "before" timings.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.atpg import FaultSimulator, PodemResult, PodemStatus, StuckAtFault
from repro.atpg.dcalc import CONTROLLING_VALUE, INVERTS, X, evaluate3
from repro.atpg.faultsim import FaultSimResult
from repro.netlist import Circuit, GateType, NetlistError
from repro.sim.bitsim import ALL_ONES, WORD_BITS, pack_patterns, unpack_patterns


def reference_compact(
    simulator: FaultSimulator,
    patterns: np.ndarray,
    faults: Sequence[StuckAtFault],
) -> np.ndarray:
    """Reverse-order static compaction: drop vectors that add no coverage.

    The original per-pattern loop: one full fault simulation per candidate
    removal, so it costs O(n_patterns) sweeps.  The production pass in
    :mod:`repro.atpg.generate` must keep exactly the same rows.
    """
    full = simulator.run(patterns, faults)
    baseline = set(full.detected)
    keep = np.ones(patterns.shape[0], dtype=bool)
    for row in range(patterns.shape[0] - 1, -1, -1):
        keep[row] = False
        trial = simulator.run(patterns[keep], list(baseline))
        if set(trial.detected) != baseline:
            keep[row] = True
    return patterns[keep]


def reference_podem(
    circuit: Circuit, fault: StuckAtFault, backtrack_limit: int = 50
) -> PodemResult:
    """Textbook PODEM that re-implies the whole circuit on every decision.

    Each step runs a two-plane three-valued forward simulation over every
    net, then rescans every gate for the D-frontier and every net for an
    X-path.  :class:`repro.atpg.PodemEngine` must return the same
    ``(status, test, backtracks, decisions)`` on every fault.
    """
    return _ReferencePodem(circuit, backtrack_limit).generate(fault)


class _ReferencePodem:
    """The dict-walking PODEM: full re-implication per decision."""

    def __init__(self, circuit: Circuit, backtrack_limit: int = 50) -> None:
        if circuit.is_sequential:
            raise NetlistError("PODEM operates on combinational circuits only")
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self._order = circuit.topological_order()
        self._levels = circuit.levels()
        self._outputs = set(circuit.outputs)

    # ------------------------------------------------------------------
    def generate(self, fault: StuckAtFault) -> PodemResult:
        """Try to generate a test for ``fault``."""
        circuit = self.circuit
        if not circuit.has_net(fault.net):
            raise NetlistError(f"fault site {fault.net!r} not in circuit")

        assignment: Dict[str, int] = {}
        # Decision stack entries: [pi, first_value, tried_alternative]
        decisions: List[List] = []
        backtracks = 0
        n_decisions = 0

        while True:
            good, faulty = self._imply(assignment, fault)
            if self._error_at_output(good, faulty):
                test = {pi: assignment.get(pi, 0) for pi in circuit.inputs}
                return PodemResult(
                    PodemStatus.DETECTED, fault, test, backtracks, n_decisions
                )

            objective = self._objective(good, faulty, fault)
            pi_choice: Optional[Tuple[str, int]] = None
            if objective is not None:
                pi_choice = self._backtrace(objective, good, assignment)

            if pi_choice is not None:
                pi, value = pi_choice
                decisions.append([pi, value, False])
                assignment[pi] = value
                n_decisions += 1
                continue

            # Dead end: no objective or backtrace failed — backtrack.
            flipped = False
            while decisions:
                entry = decisions[-1]
                pi, value, tried = entry
                if not tried:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return PodemResult(
                            PodemStatus.ABORTED, fault, None, backtracks, n_decisions
                        )
                    entry[2] = True
                    assignment[pi] = 1 - value
                    flipped = True
                    break
                decisions.pop()
                del assignment[pi]
            if not flipped:
                return PodemResult(
                    PodemStatus.UNTESTABLE, fault, None, backtracks, n_decisions
                )

    # ------------------------------------------------------------------
    def _imply(
        self, assignment: Dict[str, int], fault: StuckAtFault
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Two-plane 3-valued forward simulation."""
        good: Dict[str, int] = {}
        faulty: Dict[str, int] = {}
        for net in self._order:
            gate = self.circuit.gate(net)
            if gate.gate_type is GateType.INPUT:
                value = assignment.get(net, X)
                g_val, f_val = value, value
            else:
                g_val = evaluate3(gate.gate_type, [good[i] for i in gate.inputs])
                f_val = evaluate3(gate.gate_type, [faulty[i] for i in gate.inputs])
            if net == fault.net:
                f_val = fault.value  # the net is stuck, unconditionally
            good[net] = g_val
            faulty[net] = f_val
        return good, faulty

    def _error_at_output(self, good: Dict[str, int], faulty: Dict[str, int]) -> bool:
        for po in self._outputs:
            g, f = good[po], faulty[po]
            if g != X and f != X and g != f:
                return True
        return False

    def _objective(
        self,
        good: Dict[str, int],
        faulty: Dict[str, int],
        fault: StuckAtFault,
    ) -> Optional[Tuple[str, int]]:
        """Next (net, value) goal, or None if the search hit a dead end."""
        site_good = good[fault.net]
        if site_good == X:
            # Excite the fault: drive the site to the opposite of the stuck value.
            return (fault.net, 1 - fault.value)
        if site_good == fault.value:
            # Fault cannot be excited under this assignment — conflict.
            return None

        frontier = self._d_frontier(good, faulty)
        if not frontier:
            return None
        if not self._x_path_exists(good, faulty, frontier):
            return None
        # Advance the frontier gate closest to an output (smallest remaining
        # depth ≈ largest level is a decent proxy for "closest to PO").
        frontier.sort(key=lambda name: -self._levels[name])
        gate = self.circuit.gate(frontier[0])
        ctrl = CONTROLLING_VALUE.get(gate.gate_type)
        target = 1 - ctrl if ctrl is not None else 1
        for src in gate.inputs:
            if good[src] == X or faulty[src] == X:
                return (src, target)
        return None

    def _d_frontier(self, good: Dict[str, int], faulty: Dict[str, int]) -> List[str]:
        """Gates whose output is still X on either plane but carry a D input."""
        frontier = []
        for net in self._order:
            gate = self.circuit.gate(net)
            if gate.is_input or gate.is_constant:
                continue
            if good[net] != X and faulty[net] != X:
                continue
            for src in gate.inputs:
                g, f = good[src], faulty[src]
                if g != X and f != X and g != f:
                    frontier.append(net)
                    break
        return frontier

    def _x_path_exists(
        self,
        good: Dict[str, int],
        faulty: Dict[str, int],
        frontier: List[str],
    ) -> bool:
        """Can some frontier gate still reach a PO through undetermined nets?"""
        undetermined = {
            net for net in self._order if good[net] == X or faulty[net] == X
        }
        stack = [net for net in frontier]
        seen = set()
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if net in self._outputs and net in undetermined:
                return True
            for reader in self.circuit.fanout(net):
                if reader in undetermined:
                    stack.append(reader)
        return False

    def _backtrace(
        self,
        objective: Tuple[str, int],
        good: Dict[str, int],
        assignment: Dict[str, int],
    ) -> Optional[Tuple[str, int]]:
        """Walk the objective back to an unassigned PI through X-valued nets."""
        net, value = objective
        guard = 0
        max_steps = len(self._order) + 8
        while True:
            guard += 1
            if guard > max_steps:
                return None
            gate = self.circuit.gate(net)
            if gate.gate_type is GateType.INPUT:
                if net in assignment:
                    return None  # objective asks to re-drive a decided PI
                return (net, value)
            gt = gate.gate_type
            if gt in (GateType.TIE0, GateType.TIE1):
                return None  # constants cannot be justified
            if gt in (GateType.NOT,):
                net, value = gate.inputs[0], 1 - value
                continue
            if gt is GateType.BUFF:
                net = gate.inputs[0]
                continue
            if gt is GateType.MUX:
                d0, d1, sel = gate.inputs
                if good[sel] == 0:
                    net = d0
                elif good[sel] == 1:
                    net = d1
                else:
                    # Decide the select first; pick the branch whose data is
                    # already compatible if visible, else branch 0.
                    net, value = sel, 0
                continue
            if gt in (GateType.XOR, GateType.XNOR):
                parity = 1 if gt is GateType.XNOR else 0
                unknown = None
                for src in gate.inputs:
                    if good[src] == X:
                        if unknown is None:
                            unknown = src
                    else:
                        parity ^= good[src]
                if unknown is None:
                    return None
                net, value = unknown, value ^ parity
                continue
            # AND/NAND/OR/NOR
            ctrl = CONTROLLING_VALUE[gt]
            inverts = INVERTS[gt]
            needed = (1 - value) if inverts else value
            x_inputs = [s for s in gate.inputs if good[s] == X]
            if not x_inputs:
                return None
            if needed == ctrl:
                # One controlling input suffices: take the easiest (lowest level).
                nxt = min(x_inputs, key=lambda s: self._levels[s])
                net, value = nxt, ctrl
            else:
                # All inputs must be non-controlling: justify the hardest first.
                nxt = max(x_inputs, key=lambda s: self._levels[s])
                net, value = nxt, 1 - ctrl


# ----------------------------------------------------------------------
# per-gate simulation oracles
# ----------------------------------------------------------------------
def _eval_words(gate_type: GateType, ins: list, ones):
    """One gate on packed words: Python ints under a mask, or uint64 arrays.

    ``ones`` is the all-ones word in the same representation as ``ins``.
    """
    if gate_type is GateType.AND or gate_type is GateType.NAND:
        acc = ins[0]
        for word in ins[1:]:
            acc = acc & word
        return (acc ^ ones) if gate_type is GateType.NAND else acc
    if gate_type is GateType.OR or gate_type is GateType.NOR:
        acc = ins[0]
        for word in ins[1:]:
            acc = acc | word
        return (acc ^ ones) if gate_type is GateType.NOR else acc
    if gate_type is GateType.XOR or gate_type is GateType.XNOR:
        acc = ins[0]
        for word in ins[1:]:
            acc = acc ^ word
        return (acc ^ ones) if gate_type is GateType.XNOR else acc
    if gate_type is GateType.NOT:
        return ins[0] ^ ones
    if gate_type is GateType.BUFF:
        return ins[0]
    if gate_type is GateType.MUX:
        d0, d1, sel = ins
        return (d0 & (sel ^ ones)) | (d1 & sel)
    raise NetlistError(f"cannot simulate gate type {gate_type}")


def _settle(circuit: Circuit, sources: Dict[str, object], zero, ones) -> Dict[str, object]:
    """Every net in topological order; ``sources`` holds PI and DFF words."""
    values: Dict[str, object] = {}
    for net in circuit.topological_order():
        gate = circuit.gate(net)
        gt = gate.gate_type
        if gt is GateType.INPUT or gt is GateType.DFF:
            values[net] = sources[net]
        elif gt is GateType.TIE0:
            values[net] = zero
        elif gt is GateType.TIE1:
            values[net] = ones
        else:
            values[net] = _eval_words(gt, [values[i] for i in gate.inputs], ones)
    return values


def reference_run_packed(
    circuit: Circuit, packed_inputs: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Per-gate interpreter of :meth:`repro.sim.BitSimulator.run_packed`."""
    n_words = len(next(iter(packed_inputs.values()))) if packed_inputs else 1
    sources = {
        pi: np.asarray(packed_inputs[pi], dtype=np.uint64) for pi in circuit.inputs
    }
    return _settle(
        circuit,
        sources,
        np.zeros(n_words, dtype=np.uint64),
        np.full(n_words, ALL_ONES, dtype=np.uint64),
    )


def reference_fault_sim(
    circuit: Circuit,
    patterns: np.ndarray,
    faults: Iterable[StuckAtFault],
    drop_detected: bool = True,
) -> FaultSimResult:
    """The pre-compiled block/Python-int fault simulator.

    Processes 64 patterns at a time as arbitrary-precision ints and walks
    each fault's fanout cone one gate per Python iteration, stopping where
    the effect is masked.  Every fault reports its globally *first*
    detecting pattern; ``drop_detected=False`` keeps simulating detected
    faults, which must not change that index.
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
            value = _eval_words(gate.gate_type, ins, mask)
            if value == good[net]:
                continue
            faulty[net] = value
            if net in outputs:
                detect |= value ^ good[net]
        if fault.net in outputs:
            detect |= stuck_word ^ good[fault.net]
        return detect & mask

    remaining: List[StuckAtFault] = list(faults)
    patterns = np.atleast_2d(np.asarray(patterns))
    result = FaultSimResult(patterns_applied=patterns.shape[0])
    for start in range(0, patterns.shape[0], WORD_BITS):
        if not remaining:
            break
        block = patterns[start : start + WORD_BITS]
        packed = pack_patterns(block)
        words = {pi: int(packed[col, 0]) for col, pi in enumerate(circuit.inputs)}
        mask = (1 << block.shape[0]) - 1
        good = _settle(circuit, words, 0, mask)
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


def reference_step_packed(
    circuit: Circuit,
    packed_inputs: Dict[str, np.ndarray],
    state: Dict[str, np.ndarray],
    prev_clk: Optional[Dict[str, np.ndarray]],
    n_words: int,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """One edge-driven vector step of the per-gate dict engine.

    Takes the flip-flop ``state`` and previous clock snapshot, returns
    ``(settled values, new state, new clock snapshot)``; the first vector
    (``prev_clk is None``) only establishes the clock baseline.
    """
    zero = np.zeros(n_words, dtype=np.uint64)
    ones = np.full(n_words, ALL_ONES, dtype=np.uint64)
    dffs = [g.name for g in circuit.gates() if g.gate_type is GateType.DFF]

    def settle(state):
        return _settle(circuit, {**packed_inputs, **state}, zero, ones)

    values = settle(state)
    state = dict(state)
    if dffs:
        for _ in range(len(dffs) + 2):
            if prev_clk is None:
                break
            fired = False
            for dff in dffs:
                d_net, clk_net = circuit.gate(dff).inputs
                edge = (prev_clk[dff] ^ ALL_ONES) & values[clk_net]
                if edge.any():
                    fired = True
                    state[dff] = (state[dff] & (edge ^ ALL_ONES)) | (
                        values[d_net] & edge
                    )
            # Record clocks *before* re-settle so ripple edges are seen next pass.
            prev_clk = {
                dff: values[circuit.gate(dff).inputs[1]].copy() for dff in dffs
            }
            if not fired:
                break
            values = settle(state)
        prev_clk = {
            dff: values[circuit.gate(dff).inputs[1]].copy() for dff in dffs
        }
    return values, state, prev_clk


class ReferenceSequentialSimulator:
    """The per-gate dict engine behind :class:`repro.sim.SequentialSimulator`'s API."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._dffs: List[str] = [
            g.name for g in circuit.gates() if g.gate_type is GateType.DFF
        ]
        self._state: Dict[str, np.ndarray] = {}
        self._prev_clk: Optional[Dict[str, np.ndarray]] = None
        self._n_words = 0

    @property
    def dff_nets(self) -> Tuple[str, ...]:
        return tuple(self._dffs)

    def reset(self, n_sequences: int) -> None:
        self._n_words = (n_sequences + 63) // 64
        zeros = np.zeros(self._n_words, dtype=np.uint64)
        self._state = {d: zeros.copy() for d in self._dffs}
        self._prev_clk = None

    def step_packed(self, packed_inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        if not self._state and self._dffs:
            raise RuntimeError("call reset() before stepping")
        values, self._state, self._prev_clk = reference_step_packed(
            self.circuit, packed_inputs, self._state, self._prev_clk, self._n_words
        )
        return values

    def run_sequences_nets(
        self, sequences: np.ndarray, nets: Sequence[str]
    ) -> np.ndarray:
        sequences = np.asarray(sequences)
        n_seqs, n_steps, _ = sequences.shape
        self.reset(n_seqs)
        out = np.zeros((n_seqs, n_steps, len(nets)), dtype=np.uint8)
        for t in range(n_steps):
            packed = pack_patterns(sequences[:, t, :])
            packed_inputs = {pi: packed[i] for i, pi in enumerate(self.circuit.inputs)}
            values = self.step_packed(packed_inputs)
            if nets:
                words = np.stack([values[net] for net in nets])
                out[:, t, :] = unpack_patterns(words, n_seqs)
        return out

    def run_sequences(self, sequences: np.ndarray) -> np.ndarray:
        return self.run_sequences_nets(sequences, self.circuit.outputs)

    def run_sequence_tracking(
        self, sequence: np.ndarray, watch: List[str]
    ) -> Dict[str, np.ndarray]:
        sequence = np.atleast_2d(np.asarray(sequence))
        traces = self.run_sequences_nets(sequence[np.newaxis], list(watch))[0]
        return {net: traces[:, i].copy() for i, net in enumerate(watch)}
