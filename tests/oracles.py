"""Reference implementations kept as test oracles for faster engines."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.atpg import FaultSimulator, PodemResult, PodemStatus, StuckAtFault
from repro.atpg.dcalc import CONTROLLING_VALUE, INVERTS, X, evaluate3
from repro.netlist import Circuit, GateType, NetlistError


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
