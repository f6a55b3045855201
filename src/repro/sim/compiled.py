"""Compiled levelized simulation core: array-based gate evaluation.

This module compiles a :class:`~repro.netlist.circuit.Circuit` **once** into
flat NumPy structures so that a full bit-parallel simulation pass is a handful
of vectorized operations per (level, gate-type) group instead of one Python
iteration per gate.  It is the engine behind :class:`repro.sim.BitSimulator`
and :class:`repro.atpg.FaultSimulator`; callers normally keep using those
public APIs and get the compiled path transparently.

Level-schedule layout
---------------------
Compilation assigns every net a dense integer row index (topological order)
and builds:

* ``values``: a ``(n_nets, n_words)`` uint64 matrix — row *i* holds the packed
  simulation words of net *i* (64 patterns per word, bit ``k`` of word ``w``
  is pattern ``w*64 + k``, matching :func:`repro.sim.bitsim.pack_patterns`).
* ``schedule``: an ordered list of :class:`GateGroup` records.  All gates that
  share the same ``(logic level, gate type, arity)`` are grouped together;
  groups are sorted by level, so by the time a group is evaluated every row it
  reads has already been written.  A group evaluates as

  ``values[out_idx] = reduce(op, values[in_idx], axis=1)``

  where ``in_idx`` has shape ``(n_gates_in_group, arity)`` — one fancy-indexed
  gather, one ufunc reduction, and one scatter per group, independent of the
  number of gates in the group.
* constant rows: ``TIE0``/``TIE1`` rows are pre-filled when the matrix is
  allocated and never revisited.

Fault-simulation support
------------------------
:meth:`CompiledCircuit.cone_rows_at` gives, per fault site, the
topologically sorted rows of its fanout cone, walked over a CSR fanout
adjacency the compiled form owns.  PPSFP (:mod:`repro.atpg.ppsfp`), the
engine behind every :class:`~repro.atpg.faultsim.FaultSimulator` run, asks
:meth:`CompiledCircuit.batch_cone_schedule` for the group schedule
restricted to the union of a fault batch's cones and sweeps it once; PODEM
scans the same cone rows for its D-frontier.  Cone rows and per-site group
positions are cached on the compiled circuit, so every simulator built for
the same (unmutated) circuit shares them.

Sequential schedule
-------------------
Sequential circuits compile too: every DFF *output* net becomes an extra
source row alongside the PIs and TIE constants (it is a level-0 net — the
flip-flop breaks the timing loop), and the levelized group schedule covers
only the combinational fan-in.  One combinational *settle* of
:mod:`repro.sim.seqsim` is then a single :meth:`CompiledCircuit.run_matrix`
call with the state rows pre-loaded, and the edge-driven ripple update
(detect rising clock edges, latch ``d`` where they fired, re-settle) is a
handful of vectorized row operations over ``dff_clk_idx``/``dff_d_idx`` —
see :meth:`CompiledCircuit.step_sequential`.

Compilation caching
-------------------
:func:`compile_circuit` memoizes at three levels:

1. **attached** — the compiled form is stored on the circuit object itself;
   any structural mutation invalidates it (``Circuit._invalidate``), and
   ``Circuit.copy()`` carries it over, so unmutated copies share it.
2. **fingerprint** — a bounded LRU keyed by
   :meth:`Circuit.structural_fingerprint` catches structurally identical
   circuits that are *different objects* (edit/revert round-trips in
   :mod:`repro.core.salvage`, re-parsed netlists).
3. **patched** — when a circuit was :meth:`~Circuit.copy`-derived from one
   that is already compiled and differs only by gates tied to TIE0/TIE1
   (plus dead gates stripped), the ancestor's schedule is *patched*: row
   order and input-index arrays are shared, the tied rows move from their
   gate groups to the constant-row lists, and stripped rows simply keep
   evaluating harmlessly.  This is what makes salvage's per-candidate
   tie/strip/test trials run without a single cold compile.

``COMPILE_STATS`` counts hits per level so callers (and the perf harness)
can verify cache behaviour.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from ..netlist.gate import GATE_FUNCTION, BaseOp, GateType

#: Patterns per simulation word (one uint64 per 64 patterns).
WORD_BITS = 64

#: All 64 bits set, as the uint64 scalar used in vectorized inversions.
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Bound on the fired-DFF-set -> ripple sub-schedule cache (counters revisit
#: a handful of sets; an adversarial workload must not grow it unboundedly).
_FIRE_CACHE_MAX = 128

#: When the fired DFFs' cone union covers this fraction of the scheduled
#: rows, a full re-settle is cheaper (contiguous row slices instead of
#: gathered subgroups).
_FIRE_FULL_FRACTION = 0.6

_MISSING = object()

#: numpy reduction ufunc per associative base op.
_REDUCERS = {
    BaseOp.AND: np.bitwise_and,
    BaseOp.OR: np.bitwise_or,
    BaseOp.XOR: np.bitwise_xor,
}

#: Per gate type, from the gate-semantics table: ``(kernel, inverted)``,
#: where the kernel is the reduction ufunc or the BUF/MUX base op.  One
#: lookup per group evaluation (enum hashing is a Python-level call).
_GROUP_KERNEL = {
    gate_type: (_REDUCERS.get(op, op), inverted)
    for gate_type, (op, inverted) in GATE_FUNCTION.items()
}


@dataclass(frozen=True)
class GateGroup:
    """All gates of one type/arity on one logic level.

    ``out_idx`` has shape ``(n_gates,)``; ``in_idx`` has shape
    ``(n_gates, arity)``.  Both index rows of the value matrix.  ``out`` is
    the scatter target actually used during evaluation: row indexing assigns
    rows in schedule order, so full-schedule groups write one contiguous row
    *slice* (cheap basic indexing); cone-restricted subgroups fall back to an
    index array.
    """

    level: int
    gate_type: GateType
    out_idx: np.ndarray
    in_idx: np.ndarray
    out: object


def _build_row_adjacency(
    n_nets: int, schedule: List[GateGroup]
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR (starts, dst) of the row-level reads-edges of a group schedule."""
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for group in schedule:
        n_gates, arity = group.in_idx.shape
        src_parts.append(group.in_idx.ravel())
        dst_parts.append(np.repeat(group.out_idx, arity))
    if src_parts:
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        order = np.argsort(src, kind="stable")
        src = src[order]
        dst = dst[order].astype(np.intp)
    else:
        src = np.empty(0, dtype=np.intp)
        dst = np.empty(0, dtype=np.intp)
    starts = np.searchsorted(src, np.arange(n_nets + 1)).astype(np.intp)
    return starts, dst


def _evaluate_group(group: GateGroup, values: np.ndarray) -> None:
    """Evaluate one gate group in place on the ``(n_nets, n_words)`` matrix.

    The group's base op and inversion come from
    :data:`~repro.netlist.gate.GATE_FUNCTION`.  TIE rows are constant
    sources, so no group ever has the ZERO base op.
    """
    kernel, inverted = _GROUP_KERNEL[group.gate_type]
    in_idx = group.in_idx
    if in_idx.shape[0] == 1:
        # Single-gate group: basic row indexing (views) skips the gather
        # copies — these groups are ~half the schedule on real circuits, so
        # the per-group constant factor matters.
        row = in_idx[0]
        if kernel is BaseOp.BUF:
            acc = values[row[0]]
            values[group.out] = ~acc if inverted else acc
            return
        if kernel is BaseOp.MUX:
            d0 = values[row[0]]
            acc = ((values[row[1]] ^ d0) & values[row[2]]) ^ d0
        elif row.size == 2:
            acc = kernel(values[row[0]], values[row[1]])
        else:
            acc = kernel.reduce(values[row], axis=0)
    elif kernel is BaseOp.BUF:
        acc = values[in_idx[:, 0]]
    elif kernel is BaseOp.MUX:
        d0 = values[in_idx[:, 0]]
        # d0 XOR ((d0 XOR d1) AND sel): selects d1 where sel is set.
        acc = values[in_idx[:, 1]]
        np.bitwise_xor(acc, d0, out=acc)
        np.bitwise_and(acc, values[in_idx[:, 2]], out=acc)
        np.bitwise_xor(acc, d0, out=acc)
    elif in_idx.shape[1] == 2:
        acc = kernel(values[in_idx[:, 0]], values[in_idx[:, 1]])
    else:
        acc = kernel.reduce(values[in_idx], axis=1)
    if inverted:
        np.invert(acc, out=acc)
    values[group.out] = acc


class CompiledCircuit:
    """A circuit lowered to index arrays and a levelized group schedule.

    Combinational circuits get a pure feed-forward schedule.  Sequential
    circuits compile as well: DFF output nets are extra *source* rows (the
    caller loads the flip-flop state before :meth:`run_matrix`), and
    ``dff_idx``/``dff_d_idx``/``dff_clk_idx`` expose the row triples the
    edge-driven state update of :meth:`step_sequential` needs.
    """

    def __init__(self, circuit: Circuit) -> None:
        # Deliberately no reference to ``circuit`` is kept: compiled forms
        # are shared across circuit objects (fingerprint cache, copies) and
        # must not pin their source object alive or observe its mutations —
        # everything needed at runtime is lowered into arrays here.
        levels = circuit.levels()

        # Bucket gates by (level, type, arity); sources (PIs/constants/DFF
        # outputs) are kept apart because they have no evaluation step.
        sources: List[str] = []
        tie0_nets: List[str] = []
        tie1_nets: List[str] = []
        dff_nets: List[str] = []
        grouping: Dict[Tuple[int, GateType, int], List[str]] = {}
        for net in circuit.topological_order():
            gate = circuit.gate(net)
            gt = gate.gate_type
            if gt is GateType.INPUT:
                sources.append(net)
            elif gt is GateType.TIE0:
                sources.append(net)
                tie0_nets.append(net)
            elif gt is GateType.TIE1:
                sources.append(net)
                tie1_nets.append(net)
            elif gt is GateType.DFF:
                sources.append(net)
                dff_nets.append(net)
            else:
                grouping.setdefault((levels[net], gt, len(gate.inputs)), []).append(net)

        # Assign row indices in schedule order: sources first, then each group
        # as one contiguous run, so a group's scatter is a basic row slice.
        group_keys = sorted(
            grouping, key=lambda key: (key[0], key[1].value, key[2])
        )
        self.order: List[str] = list(sources)
        for key in group_keys:
            self.order.extend(grouping[key])
        self.index: Dict[str, int] = {net: i for i, net in enumerate(self.order)}
        self.n_nets = len(self.order)
        self.input_idx = np.array(
            [self.index[pi] for pi in circuit.inputs], dtype=np.intp
        )
        self.output_idx = np.array(
            [self.index[po] for po in circuit.outputs], dtype=np.intp
        )
        self.po_set = frozenset(self.output_idx.tolist())
        self.tie0_idx = np.array([self.index[n] for n in tie0_nets], dtype=np.intp)
        self.tie1_idx = np.array([self.index[n] for n in tie1_nets], dtype=np.intp)

        #: Sequential-schedule arrays: one entry per DFF, aligned.  State is a
        #: ``(n_dffs, n_words)`` matrix the caller owns; ``dff_idx`` are the
        #: rows the state is loaded into before a settle, ``dff_d_idx`` /
        #: ``dff_clk_idx`` are the settled rows the edge update reads.
        self.dff_names: Tuple[str, ...] = tuple(dff_nets)
        self.dff_idx = np.array([self.index[n] for n in dff_nets], dtype=np.intp)
        self.dff_d_idx = np.array(
            [self.index[circuit.gate(n).inputs[0]] for n in dff_nets], dtype=np.intp
        )
        self.dff_clk_idx = np.array(
            [self.index[circuit.gate(n).inputs[1]] for n in dff_nets], dtype=np.intp
        )
        self.is_sequential = bool(dff_nets)

        #: Per-net (gate_type, input row indices); None for INPUT/TIE rows.
        #: PODEM's event-driven implication walks it one gate at a time.
        self.node: List[object] = [None] * self.n_nets

        self.schedule: List[GateGroup] = []
        row = len(sources)
        for key in group_keys:
            level, gt, arity = key
            nets = grouping[key]
            in_rows = []
            for net in nets:
                rows = [self.index[src] for src in circuit.gate(net).inputs]
                in_rows.append(rows)
                self.node[self.index[net]] = (gt, tuple(rows))
            start, stop = row, row + len(nets)
            row = stop
            self.schedule.append(
                GateGroup(
                    level=level,
                    gate_type=gt,
                    out_idx=np.arange(start, stop, dtype=np.intp),
                    in_idx=np.array(in_rows, dtype=np.intp).reshape(len(nets), arity),
                    out=slice(start, stop),
                )
            )
        # Row-level fanout adjacency in CSR form (``_edge_starts[r] ..
        # _edge_starts[r+1]`` indexes ``_edge_dst``).  Cone extraction walks
        # this instead of the Circuit object, so a compiled form shared via
        # the fingerprint cache stays valid even if the circuit object it was
        # originally built from is mutated later.
        self._edge_starts, self._edge_dst = _build_row_adjacency(
            self.n_nets, self.schedule
        )
        self._cone_rows_cache: Dict[int, List[int]] = {}
        self._fire_cache: Dict[Tuple[int, ...], Optional[Tuple[GateGroup, ...]]] = {}
        self._row_sched_pos: Optional[np.ndarray] = None
        self._cone_groups_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # full-circuit evaluation
    # ------------------------------------------------------------------
    def new_matrix(self, n_words: int) -> np.ndarray:
        """Fresh ``(n_nets, n_words)`` value matrix with constant rows set.

        Every non-constant row is either a PI row (the caller fills it) or is
        written by the schedule, so the bulk allocation stays uninitialized.
        """
        values = np.empty((self.n_nets, n_words), dtype=np.uint64)
        if self.input_idx.size:
            values[self.input_idx] = 0
        if self.tie0_idx.size:
            values[self.tie0_idx] = 0
        if self.tie1_idx.size:
            values[self.tie1_idx] = ALL_ONES
        if self.dff_idx.size:
            values[self.dff_idx] = 0  # reset state; quiescent-settle default
        return values

    def run_matrix(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the whole schedule in place; PI/constant rows must be set."""
        for group in self.schedule:
            _evaluate_group(group, values)
        return values

    def simulate_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Simulate ``(n_inputs, n_words)`` packed PI words; returns the matrix."""
        packed_inputs = np.asarray(packed_inputs, dtype=np.uint64)
        if packed_inputs.ndim == 1:
            packed_inputs = packed_inputs.reshape(-1, 1)
        n_words = packed_inputs.shape[1]
        values = self.new_matrix(n_words)
        if self.input_idx.size:
            values[self.input_idx] = packed_inputs
        return self.run_matrix(values)

    # ------------------------------------------------------------------
    # sequential stepping
    # ------------------------------------------------------------------
    def step_sequential(
        self,
        values: np.ndarray,
        state: np.ndarray,
        prev_clk: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Apply one input vector to a sequential circuit, edge-driven.

        ``values`` is a full value matrix with the PI rows already set;
        ``state`` is the ``(n_dffs, n_words)`` flip-flop state (mutated in
        place); ``prev_clk`` is the clock snapshot from the previous step, or
        ``None`` for the first vector (which only establishes the baseline —
        no edges fire).  Returns the new clock snapshot.

        Semantics match the reference dict engine exactly: settle, then up to
        ``n_dffs + 2`` ripple passes of (detect rising edges vs. the snapshot,
        latch ``d`` where an edge fired, snapshot clocks, re-settle if
        anything fired).  Ripple re-settles are *cone-restricted*: only the
        fired DFFs' state rows changed, so only the union of their fanout
        cones (:meth:`dff_fire_schedule`) is re-evaluated — deep-counter
        workloads that fire an edge every cycle pay for the counter chain,
        not the whole schedule.
        """
        if state.size:
            values[self.dff_idx] = state
        self.run_matrix(values)
        if not self.dff_idx.size:
            return prev_clk
        if prev_clk is not None:
            for _ in range(self.dff_idx.size + 2):
                clk = values[self.dff_clk_idx]
                edge = ~prev_clk & clk
                prev_clk = clk  # fancy-indexed gather is already a fresh array
                if not edge.any():
                    break
                state &= ~edge
                state |= values[self.dff_d_idx] & edge
                values[self.dff_idx] = state
                fired = tuple(np.nonzero(edge.any(axis=1))[0].tolist())
                groups = self.dff_fire_schedule(fired)
                if groups is None:
                    self.run_matrix(values)
                else:
                    for group in groups:
                        _evaluate_group(group, values)
        return values[self.dff_clk_idx]

    # ------------------------------------------------------------------
    # fault-cone sub-schedules
    # ------------------------------------------------------------------
    def cone_rows_at(self, site: int) -> List[int]:
        """Topologically-sorted rows of row ``site``'s fanout cone (exclusive).

        Cached per site; PPSFP batch planning, PODEM's cone scans and the
        sequential ripple schedule all read it.
        """
        cached = self._cone_rows_cache.get(site)
        if cached is None:
            starts, dst = self._edge_starts, self._edge_dst
            seen = {site}
            stack = [site]
            while stack:
                row = stack.pop()
                for nxt in dst[starts[row] : starts[row + 1]].tolist():
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            seen.discard(site)
            cached = sorted(seen)
            self._cone_rows_cache[site] = cached
        return cached

    def reader_rows(self) -> List[List[int]]:
        """Per row, the rows that read it: the CSR fanout as Python lists."""
        starts = self._edge_starts.tolist()
        dst = self._edge_dst.tolist()
        return [dst[starts[row] : starts[row + 1]] for row in range(self.n_nets)]

    def _subschedule_for_rows(self, rows: List[int]) -> Tuple[GateGroup, ...]:
        """Restrict the group schedule to the (sorted) member ``rows``."""
        return tuple(group for _, group in self._iter_subschedule(rows))

    def _iter_subschedule(self, rows: List[int]):
        """Yield ``(schedule_position, restricted_group)`` for member ``rows``."""
        for position, group in enumerate(self.schedule):
            if isinstance(group.out, slice):
                # Each full group owns one contiguous row run, so the
                # member rows inside it form one bisectable span.
                start, stop = group.out.start, group.out.stop
                lo = bisect_left(rows, start)
                hi = bisect_left(rows, stop)
                if hi == lo:
                    continue
                if hi - lo == stop - start:
                    yield position, group
                    continue
                keep = np.array(rows[lo:hi], dtype=np.intp) - start
            else:
                # Patched groups scatter through an index array; select
                # members by membership in the (sorted) row list.
                rows_arr = np.asarray(rows, dtype=np.intp)
                pos = np.searchsorted(rows_arr, group.out_idx)
                pos_clip = np.minimum(pos, rows_arr.size - 1)
                mask = (pos < rows_arr.size) & (
                    rows_arr[pos_clip] == group.out_idx
                ) if rows_arr.size else np.zeros(group.out_idx.size, dtype=bool)
                if not mask.any():
                    continue
                if mask.all():
                    yield position, group
                    continue
                keep = np.nonzero(mask)[0]
            out_idx = group.out_idx[keep]
            yield position, GateGroup(
                level=group.level,
                gate_type=group.gate_type,
                out_idx=out_idx,
                in_idx=group.in_idx[keep],
                out=out_idx,
            )

    def dff_fire_schedule(
        self, fired: Tuple[int, ...]
    ) -> Optional[Tuple[GateGroup, ...]]:
        """Sub-schedule for a ripple re-settle after ``fired`` DFFs latched.

        ``fired`` holds indices into ``dff_idx`` (sorted, as produced by
        ``np.nonzero``).  Only the union of the fired DFFs' fanout cones can
        change when their state rows are reloaded, so re-settling just those
        rows is exact.  Returns ``None`` when a full re-settle is cheaper
        (the union covers most of the schedule).  Cached per fired set —
        ripple workloads (counters) revisit a handful of sets.
        """
        cached = self._fire_cache.get(fired, _MISSING)
        if cached is _MISSING:
            rows: set = set()
            for i in fired:
                rows.update(self.cone_rows_at(int(self.dff_idx[i])))
            n_scheduled = sum(group.out_idx.size for group in self.schedule)
            if len(rows) >= _FIRE_FULL_FRACTION * max(n_scheduled, 1):
                cached = None
            else:
                cached = self._subschedule_for_rows(sorted(rows))
            if len(self._fire_cache) < _FIRE_CACHE_MAX:
                self._fire_cache[fired] = cached
        return cached

    def batch_cone_schedule(
        self, sites: Sequence[int]
    ) -> Tuple[Tuple[GateGroup, ...], np.ndarray, np.ndarray]:
        """Union-of-cones sub-schedule for a PPSFP fault batch.

        Returns ``(groups, positions, po_rows)``: the levelized sub-schedule
        restricted to the union of the sites' fanout cones, each group's
        position in the *full* schedule (so per-site group sets from
        :meth:`cone_group_positions_at` can be mapped onto the union), and
        the sorted primary-output rows that can carry a detection — the PO
        rows inside the union plus any site that is itself a PO.  Evaluating
        ``groups`` once on a matrix whose site rows are forced propagates
        *all* the batch's faults in one sweep (see :mod:`repro.atpg.ppsfp`,
        which owns the per-group site re-forcing this requires).
        """
        rows: set = set()
        for site in sites:
            rows.update(self.cone_rows_at(int(site)))
        pairs = list(self._iter_subschedule(sorted(rows)))
        groups = tuple(group for _, group in pairs)
        positions = np.array([pos for pos, _ in pairs], dtype=np.intp)
        po = {row for row in rows if row in self.po_set}
        po.update(int(site) for site in sites if int(site) in self.po_set)
        return groups, positions, np.array(sorted(po), dtype=np.intp)

    def row_schedule_positions(self) -> np.ndarray:
        """Row -> position of the full-schedule group that writes it (-1: none)."""
        if self._row_sched_pos is None:
            positions = np.full(self.n_nets, -1, dtype=np.intp)
            for gpos, group in enumerate(self.schedule):
                if isinstance(group.out, slice):
                    positions[group.out] = gpos
                else:
                    positions[group.out_idx] = gpos
            self._row_sched_pos = positions
        return self._row_sched_pos

    def cone_group_positions_at(self, site: int) -> np.ndarray:
        """Sorted full-schedule positions of the groups writing ``site``'s cone.

        Cached per site — this is the static half of PPSFP batch planning.
        """
        cached = self._cone_groups_cache.get(site)
        if cached is None:
            rows = np.asarray(self.cone_rows_at(site), dtype=np.intp)
            # A membership mask, as in PPSFP planning: no ``np.unique``.
            member = np.zeros(len(self.schedule), dtype=bool)
            member[self.row_schedule_positions()[rows]] = True
            cached = np.flatnonzero(member)
            self._cone_groups_cache[site] = cached
        return cached


@dataclass
class CompileStats:
    """Counters for the three compile-cache levels (see module docstring)."""

    full_compiles: int = 0
    patched_compiles: int = 0
    fingerprint_hits: int = 0
    attached_hits: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "full_compiles": self.full_compiles,
            "patched_compiles": self.patched_compiles,
            "fingerprint_hits": self.fingerprint_hits,
            "attached_hits": self.attached_hits,
        }

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        return {k: v - before.get(k, 0) for k, v in self.snapshot().items()}


#: Process-wide compile counters; read with ``COMPILE_STATS.snapshot()``.
COMPILE_STATS = CompileStats()

#: Fingerprint-keyed LRU of compiled forms shared across circuit *objects*.
_SHARED_CACHE: "OrderedDict[str, CompiledCircuit]" = OrderedDict()
_SHARED_CACHE_MAX = 48

#: A patch inherits the ancestor's rows, dead ones included; recompile in
#: full once the live circuit shrinks below this fraction of the row count
#: (bounds the wasted evaluation across long accepted-edit chains).
_PATCH_MIN_LIVE_FRACTION = 0.7


def _tie_diff(circuit: Circuit, parent: Circuit) -> Optional[Dict[str, int]]:
    """Map of nets tied to constants if ``circuit`` is a tie/strip derivative
    of ``parent``; ``None`` when the edit is not patchable.

    Patchable means: no new nets, no PI changes, every changed driver became
    TIE0/TIE1, and nothing sequential was touched.  Removed (dead-stripped)
    nets are implicitly fine — their rows keep evaluating in the parent
    schedule without affecting any live net.
    """
    if circuit._inputs != parent._inputs:
        return None
    parent_gates = parent._gates
    tied: Dict[str, int] = {}
    for name, gate in circuit._gates.items():
        old = parent_gates.get(name)
        if old is None:
            return None  # new net: structure grew, no patch
        if old is gate or old == gate:
            continue
        if old.is_sequential or gate.is_sequential:
            return None  # DFF set changed; state rows would be wrong
        if gate.gate_type is GateType.TIE0:
            tied[name] = 0
        elif gate.gate_type is GateType.TIE1:
            tied[name] = 1
        else:
            return None
    return tied


def _build_patched(
    parent: CompiledCircuit, circuit: Circuit, tied: Dict[str, int]
) -> CompiledCircuit:
    """Derive a compiled form for ``circuit`` from an ancestor's schedule.

    Shares the row order, index map, and input-index arrays; the tied nets'
    rows move from their gate groups to the constant-row lists.  Rows of
    dead-stripped nets stay in the schedule (their evaluation is wasted but
    harmless — they read only rows that are still computed).
    """
    comp = CompiledCircuit.__new__(CompiledCircuit)
    comp.order = parent.order
    comp.index = parent.index
    comp.n_nets = parent.n_nets
    comp.input_idx = parent.input_idx
    comp.output_idx = np.array(
        [parent.index[po] for po in circuit.outputs], dtype=np.intp
    )
    comp.po_set = frozenset(comp.output_idx.tolist())
    tie0_new = sorted(parent.index[n] for n, v in tied.items() if v == 0)
    tie1_new = sorted(parent.index[n] for n, v in tied.items() if v == 1)
    comp.tie0_idx = np.concatenate(
        [parent.tie0_idx, np.array(tie0_new, dtype=np.intp)]
    )
    comp.tie1_idx = np.concatenate(
        [parent.tie1_idx, np.array(tie1_new, dtype=np.intp)]
    )
    comp.dff_names = parent.dff_names
    comp.dff_idx = parent.dff_idx
    comp.dff_d_idx = parent.dff_d_idx
    comp.dff_clk_idx = parent.dff_clk_idx
    comp.is_sequential = parent.is_sequential

    drop = {parent.index[n] for n in tied}
    comp.node = list(parent.node)
    for row in drop:
        comp.node[row] = None  # now a constant source row

    comp.schedule = []
    for group in parent.schedule:
        if isinstance(group.out, slice):
            hits = [r for r in drop if group.out.start <= r < group.out.stop]
        else:
            members = set(group.out_idx.tolist())
            hits = [r for r in drop if r in members]
        if not hits:
            comp.schedule.append(group)
            continue
        keep_mask = ~np.isin(group.out_idx, np.array(sorted(hits), dtype=np.intp))
        if not keep_mask.any():
            continue
        out_idx = group.out_idx[keep_mask]
        comp.schedule.append(
            GateGroup(
                level=group.level,
                gate_type=group.gate_type,
                out_idx=out_idx,
                in_idx=group.in_idx[keep_mask],
                out=out_idx,
            )
        )

    # Cut the reads-edges into the tied rows so fault cones no longer pass
    # through them (edges *out of* a tied row stay — readers still exist).
    if drop:
        starts, dst = parent._edge_starts, parent._edge_dst
        src = np.repeat(np.arange(parent.n_nets, dtype=np.intp), np.diff(starts))
        keep = ~np.isin(dst, np.array(sorted(drop), dtype=np.intp))
        src, comp._edge_dst = src[keep], dst[keep]
        comp._edge_starts = np.searchsorted(
            src, np.arange(parent.n_nets + 1)
        ).astype(np.intp)
    else:
        comp._edge_starts, comp._edge_dst = parent._edge_starts, parent._edge_dst
    comp._cone_rows_cache = {}
    comp._fire_cache = {}
    comp._row_sched_pos = None
    comp._cone_groups_cache = {}
    return comp


def _patch_from_ancestor(circuit: Circuit) -> Optional[CompiledCircuit]:
    """Try to derive a compiled form from the copy-ancestor chain."""
    parent = getattr(circuit, "_derived_from", None)
    for _ in range(8):  # accepted trials re-attach, so real chains are short
        if parent is None:
            return None
        if parent._compiled_cache is not None:
            break
        parent = getattr(parent, "_derived_from", None)
    else:
        return None
    parent_compiled: CompiledCircuit = parent._compiled_cache
    if parent_compiled is None:
        return None
    if len(circuit._gates) < _PATCH_MIN_LIVE_FRACTION * parent_compiled.n_nets:
        return None
    # The attached compiled form may be shared; diff against the gate map of
    # the circuit object it is attached to (structurally equal by invariant).
    tied = _tie_diff(circuit, parent)
    if tied is None:
        return None
    if any(po not in parent_compiled.index for po in circuit.outputs):
        return None
    return _build_patched(parent_compiled, circuit, tied)


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` through the attached / fingerprint / patch caches.

    The result is memoized on the circuit object until it is mutated, and in
    a bounded fingerprint-keyed LRU shared across circuit objects, so copies
    and edit/revert round-trips never recompile cold.  Single-gate constant
    ties (salvage trials) reuse the ancestor's schedule via patching.
    """
    cached = getattr(circuit, "_compiled_cache", None)
    if cached is not None:
        COMPILE_STATS.attached_hits += 1
        return cached
    key = circuit.structural_fingerprint()
    cached = _SHARED_CACHE.get(key)
    if cached is not None:
        COMPILE_STATS.fingerprint_hits += 1
        _SHARED_CACHE.move_to_end(key)
    else:
        cached = _patch_from_ancestor(circuit)
        if cached is not None:
            COMPILE_STATS.patched_compiles += 1
        else:
            cached = CompiledCircuit(circuit)
            COMPILE_STATS.full_compiles += 1
        _SHARED_CACHE[key] = cached
        while len(_SHARED_CACHE) > _SHARED_CACHE_MAX:
            _SHARED_CACHE.popitem(last=False)
    circuit._compiled_cache = cached
    # The ancestor link has served its purpose: patch walks stop at the
    # first compiled ancestor, so keeping it would only pin the whole copy
    # chain (one full Circuit per accepted salvage edit) in memory.
    circuit._derived_from = None
    return cached
