"""PODEM test-pattern generation for single stuck-at faults.

This is the deterministic core of the defender model (Synopsys TetraMAX in
the paper's flow).  The search is textbook PODEM:

* *objective*: excite the fault if unexcited, otherwise advance a gate on the
  D-frontier by setting one of its X inputs to the non-controlling value;
* *backtrace*: map the objective to a single PI assignment through an X-path;
* *backtrack*: flip the most recent untried decision, popping the tried ones.

Implication is event-driven.  The engine keeps a good and a faulty
three-valued plane as integer-indexed lists over the rows of
:func:`~repro.sim.compiled.compile_circuit` (row order is level order, so a
heap of row indices is a level-ordered event queue).  Each search starts
from the all-X plane implied once per engine, with the faulty plane forced
to the stuck value at the site.  A decision, flip or backtrack re-evaluates
only the fanout of the PIs it changed, and stops wherever neither plane
changes.  Both planes always equal a full forward simulation of the current
assignment.

The faulty plane can differ from the good one only inside the site's fanout
cone, so the D-frontier, the X-path check and the PO error check scan
:meth:`~repro.sim.compiled.CompiledCircuit.cone_rows_at` plus the site
instead of the whole circuit.  The search order is unchanged: the frontier
gate is the one of highest level, ties going to the earliest net in
``Circuit.topological_order()``; the backtrace picks inputs by level in gate
input order.

The crucial knob for TrojanZero is ``backtrack_limit``: faults whose
excitation requires rare, conflict-heavy justification exhaust the budget and
come back :data:`PodemStatus.ABORTED` — these are the coverage holes the
attacker's circuit edits hide in (paper Sec. II-B.3).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gate import GateType
from ..sim.compiled import compile_circuit
from .dcalc import CONTROLLING_VALUE, INVERTS, X, evaluate3
from .fault import StuckAtFault


class PodemStatus(enum.Enum):
    DETECTED = "detected"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    status: PodemStatus
    fault: StuckAtFault
    #: Complete test vector (PI name -> 0/1) when status is DETECTED; unassigned
    #: PIs are filled with 0 for determinism.
    test: Optional[Dict[str, int]] = None
    backtracks: int = 0
    decisions: int = 0

    @property
    def detected(self) -> bool:
        return self.status is PodemStatus.DETECTED


class _Search:
    """Planes and decision state of one :meth:`PodemEngine.generate` call."""

    __slots__ = ("site", "stuck", "good", "faulty", "cone", "cone_set", "cone_pos",
                 "assigned")

    def __init__(self, engine: "PodemEngine", site: int, stuck: int) -> None:
        self.site = site
        self.stuck = stuck
        self.good = list(engine._base)
        self.faulty = list(engine._base)
        live = engine._live
        #: Live gate rows the fault effect can reach, in row (level) order.
        self.cone = [r for r in engine._compiled.cone_rows_at(site) if live[r]]
        self.cone_set = set(self.cone)
        po = engine._po
        self.cone_pos = [r for r in self.cone if r in po]
        if site in po:
            self.cone_pos.append(site)
        #: PI row -> decided value.
        self.assigned: Dict[int, int] = {}


class PodemEngine:
    """Reusable PODEM engine for one combinational circuit."""

    def __init__(self, circuit: Circuit, backtrack_limit: int = 50) -> None:
        if circuit.is_sequential:
            raise NetlistError("PODEM operates on combinational circuits only")
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        compiled = compile_circuit(circuit)
        self._compiled = compiled
        self._index = compiled.index
        n = compiled.n_nets
        # A compiled form patched from an ancestor keeps rows of nets the
        # circuit no longer has; they are never evaluated or searched.
        self._live = [circuit.has_net(net) for net in compiled.order]
        self._node = compiled.node
        order = circuit.topological_order()
        self._n_nets = len(order)
        levels = circuit.levels()
        self._level = [0] * n
        self._topo = [0] * n
        for position, net in enumerate(order):
            row = self._index[net]
            self._level[row] = levels[net]
            self._topo[row] = position
        self._fanout = [
            [r for r in readers if self._live[r]] for readers in compiled.reader_rows()
        ]
        self._inputs = list(circuit.inputs)
        self._pi_rows = [self._index[pi] for pi in self._inputs]
        self._is_pi = [False] * n
        for row in self._pi_rows:
            self._is_pi[row] = True
        self._po = frozenset(self._index[po] for po in circuit.outputs)

        # The all-X plane: TIE rows set, everything they imply evaluated.
        base = [X] * n
        for row in compiled.tie0_idx.tolist():
            base[row] = 0
        for row in compiled.tie1_idx.tolist():
            base[row] = 1
        for row in range(n):
            node = self._node[row]
            if node is not None and self._live[row]:
                gate_type, ins = node
                base[row] = evaluate3(gate_type, [base[i] for i in ins])
        self._base = base

    # ------------------------------------------------------------------
    def generate(self, fault: StuckAtFault) -> PodemResult:
        """Try to generate a test for ``fault``."""
        if not self.circuit.has_net(fault.net):
            raise NetlistError(f"fault site {fault.net!r} not in circuit")
        search = _Search(self, self._index[fault.net], fault.value)
        search.faulty[search.site] = fault.value  # the net is stuck, unconditionally
        self._propagate(search, [search.site])
        assigned = search.assigned

        # Decision stack entries: [pi row, first_value, tried_alternative]
        decisions: List[List] = []
        backtracks = 0
        n_decisions = 0

        while True:
            if self._error_at_output(search):
                test = {
                    pi: assigned.get(row, 0)
                    for pi, row in zip(self._inputs, self._pi_rows)
                }
                return PodemResult(
                    PodemStatus.DETECTED, fault, test, backtracks, n_decisions
                )

            objective = self._objective(search)
            pi_choice: Optional[Tuple[int, int]] = None
            if objective is not None:
                pi_choice = self._backtrace(objective, search)

            if pi_choice is not None:
                pi, value = pi_choice
                decisions.append([pi, value, False])
                assigned[pi] = value
                n_decisions += 1
                self._set_inputs(search, [pi])
                continue

            # Dead end: no objective or backtrace failed — backtrack.
            changed: List[int] = []
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
                    assigned[pi] = 1 - value
                    changed.append(pi)
                    flipped = True
                    break
                decisions.pop()
                del assigned[pi]
                changed.append(pi)
            if not flipped:
                return PodemResult(
                    PodemStatus.UNTESTABLE, fault, None, backtracks, n_decisions
                )
            self._set_inputs(search, changed)

    # ------------------------------------------------------------------
    def _set_inputs(self, search: _Search, rows: List[int]) -> None:
        """Load the decided values (X if undecided) of PI ``rows`` and imply."""
        good, faulty, assigned = search.good, search.faulty, search.assigned
        for row in rows:
            value = assigned.get(row, X)
            good[row] = value
            if row != search.site:
                faulty[row] = value
        self._propagate(search, rows)

    def _propagate(self, search: _Search, changed: List[int]) -> None:
        """Re-evaluate the fanout of the ``changed`` rows in level order.

        Events stop at rows whose good and faulty values both stay put.
        Outside the site's cone the faulty plane equals the good one.
        """
        good, faulty = search.good, search.faulty
        site, stuck, cone_set = search.site, search.stuck, search.cone_set
        node, fanout = self._node, self._fanout
        heap: List[int] = []
        queued = set()
        for row in changed:
            for reader in fanout[row]:
                if reader not in queued:
                    queued.add(reader)
                    heapq.heappush(heap, reader)
        while heap:
            row = heapq.heappop(heap)
            gate_type, ins = node[row]
            good_in = [good[i] for i in ins]
            g_val = evaluate3(gate_type, good_in)
            if row == site:
                f_val = stuck
            elif row in cone_set:
                faulty_in = [faulty[i] for i in ins]
                f_val = g_val if faulty_in == good_in else evaluate3(gate_type, faulty_in)
            else:
                f_val = g_val
            if g_val == good[row] and f_val == faulty[row]:
                continue
            good[row] = g_val
            faulty[row] = f_val
            for reader in fanout[row]:
                if reader not in queued:
                    queued.add(reader)
                    heapq.heappush(heap, reader)

    @staticmethod
    def _error_at_output(search: _Search) -> bool:
        good, faulty = search.good, search.faulty
        for po in search.cone_pos:
            g, f = good[po], faulty[po]
            if g != X and f != X and g != f:
                return True
        return False

    def _objective(self, search: _Search) -> Optional[Tuple[int, int]]:
        """Next (row, value) goal, or None if the search hit a dead end."""
        good, faulty = search.good, search.faulty
        site_good = good[search.site]
        if site_good == X:
            # Excite the fault: drive the site to the opposite of the stuck value.
            return (search.site, 1 - search.stuck)
        if site_good == search.stuck:
            # Fault cannot be excited under this assignment — conflict.
            return None

        frontier = self._d_frontier(search)
        if not frontier:
            return None
        if not self._x_path_exists(search, frontier):
            return None
        # Advance the frontier gate closest to an output (smallest remaining
        # depth ≈ largest level is a decent proxy for "closest to PO"); ties
        # go to the earliest net in the circuit's topological order.
        level, topo = self._level, self._topo
        best = min(frontier, key=lambda row: (-level[row], topo[row]))
        gate_type, ins = self._node[best]
        ctrl = CONTROLLING_VALUE.get(gate_type)
        target = 1 - ctrl if ctrl is not None else 1
        for src in ins:
            if good[src] == X or faulty[src] == X:
                return (src, target)
        return None

    def _d_frontier(self, search: _Search) -> List[int]:
        """Cone gates whose output is still X on either plane but carry a D input."""
        good, faulty, node = search.good, search.faulty, self._node
        frontier = []
        for row in search.cone:
            if good[row] != X and faulty[row] != X:
                continue
            for src in node[row][1]:
                g, f = good[src], faulty[src]
                if g != X and f != X and g != f:
                    frontier.append(row)
                    break
        return frontier

    def _x_path_exists(self, search: _Search, frontier: List[int]) -> bool:
        """Can some frontier gate still reach a PO through undetermined nets?"""
        good, faulty, fanout, po = search.good, search.faulty, self._fanout, self._po
        stack = list(frontier)
        seen = set()
        while stack:
            row = stack.pop()
            if row in seen:
                continue
            seen.add(row)
            if row in po:
                return True  # every row on the stack is undetermined
            for reader in fanout[row]:
                if good[reader] == X or faulty[reader] == X:
                    stack.append(reader)
        return False

    def _backtrace(
        self, objective: Tuple[int, int], search: _Search
    ) -> Optional[Tuple[int, int]]:
        """Walk the objective back to an unassigned PI through X-valued nets."""
        good, node, level = search.good, self._node, self._level
        row, value = objective
        guard = 0
        max_steps = self._n_nets + 8
        while True:
            guard += 1
            if guard > max_steps:
                return None
            if self._is_pi[row]:
                if row in search.assigned:
                    return None  # objective asks to re-drive a decided PI
                return (row, value)
            if node[row] is None:
                return None  # constants cannot be justified
            gt, ins = node[row]
            if gt is GateType.NOT:
                row, value = ins[0], 1 - value
                continue
            if gt is GateType.BUFF:
                row = ins[0]
                continue
            if gt is GateType.MUX:
                d0, d1, sel = ins
                if good[sel] == 0:
                    row = d0
                elif good[sel] == 1:
                    row = d1
                else:
                    # Decide the select first; pick the branch whose data is
                    # already compatible if visible, else branch 0.
                    row, value = sel, 0
                continue
            if gt in (GateType.XOR, GateType.XNOR):
                parity = 1 if gt is GateType.XNOR else 0
                unknown = None
                for src in ins:
                    if good[src] == X:
                        if unknown is None:
                            unknown = src
                    else:
                        parity ^= good[src]
                if unknown is None:
                    return None
                row, value = unknown, value ^ parity
                continue
            # AND/NAND/OR/NOR
            ctrl = CONTROLLING_VALUE[gt]
            inverts = INVERTS[gt]
            needed = (1 - value) if inverts else value
            x_inputs = [s for s in ins if good[s] == X]
            if not x_inputs:
                return None
            if needed == ctrl:
                # One controlling input suffices: take the easiest (lowest level).
                row, value = min(x_inputs, key=level.__getitem__), ctrl
            else:
                # All inputs must be non-controlling: justify the hardest first.
                row, value = max(x_inputs, key=level.__getitem__), 1 - ctrl


def generate_test(
    circuit: Circuit, fault: StuckAtFault, backtrack_limit: int = 50
) -> PodemResult:
    """One-shot convenience wrapper."""
    return PodemEngine(circuit, backtrack_limit).generate(fault)
