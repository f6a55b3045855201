"""PPSFP — parallel-pattern, parallel-fault stuck-at simulation.

This is the engine behind every :class:`repro.atpg.faultsim.FaultSimulator`
run, whatever the pattern count: one vector against every remaining fault
(PODEM's cross-drop) is the one-word case of the same sweep.  Simulating
one fault at a time pays one Python-level cone re-evaluation per fault; for
a fault list of hundreds (coverage-holes analysis, the defender's detection
matrix) that per-fault dispatch, not the numpy work inside each cone, is the
dominant cost.

This module packs up to :data:`FAULT_BATCH` faults into extra uint64
word-columns of *one* widened value matrix and propagates all of them in a
single levelized sweep:

1. **Widen** — for a pattern chunk of ``w`` words, the good matrix
   ``(n_nets, w)`` is tiled to ``(n_nets, B*w)``: fault *b* owns the column
   slice ``[b*w, (b+1)*w)``, which starts as a copy of the good values.
2. **Force** — fault *b*'s site row is forced to its stuck word inside its
   slice only (the per-slice stuck mask).  Forcing is re-applied after every
   evaluated group that writes a site row, because one fault's site can lie
   inside *another* fault's cone: levelization guarantees readers of a row
   sit in strictly later groups, so re-forcing between groups is exact.
3. **Sweep** — the union of the batch's fanout cones is evaluated once
   through the levelized group schedule
   (:meth:`~repro.sim.compiled.CompiledCircuit.batch_cone_schedule`).  Each
   group is evaluated only over the contiguous range of fault slots whose
   cones contain its output rows (faults are batched in site-row order, so
   overlapping cones land in adjacent slots and the ranges stay tight).
   Covering extra slots inside the range is sound: a row outside fault
   *b*'s cone has only good-valued inputs in slot *b*, so re-evaluating it
   reproduces the good value.
4. **Reduce** — detection is one batched ``XOR`` of the PO rows against the
   good values and one ``OR`` reduction over the PO axis, giving each fault
   its detect words for the chunk.

Two consumers share that sweep kernel.  :func:`ppsfp_detections` reduces
each fault's words to its first set bit (:func:`first_detections`, one
numpy reduction per batch) — the first detecting pattern, bit-exact with
the test suite's block/Python-int oracle ``reference_fault_sim`` (pinned by
``tests/test_ppsfp.py``).  It sweeps patterns in growing word chunks (64
patterns, then 256, then the budget width) with fault dropping at chunk
granularity: easy faults cost one narrow sweep, survivors amortize the
Python overhead over wider matrices, and because chunks are scanned in
pattern order the recorded index is still the *global* first detection.
``batch_size=1`` is the degenerate one-fault-per-sweep form of the same
kernel.  :func:`ppsfp_detect_words` keeps the words themselves, with no
dropping: the full detection matrix that static compaction in
:mod:`repro.atpg.generate` works from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.bitsim import ALL_ONES, WORD_BITS, pack_patterns, tail_mask
from ..sim.compiled import CompiledCircuit, GateGroup, _evaluate_group
from .fault import StuckAtFault

#: Max faults packed into one widened matrix (one word-column slice each).
FAULT_BATCH = 64

#: Byte budget for the widened ``(n_nets, B*w)`` matrix; it caps the pattern
#: chunk width, so arbitrarily large pattern sets stay bounded in memory.
MATRIX_BUDGET_BYTES = 256 << 20

#: Sentinel pattern index of a word with no set bit (see :func:`first_detections`).
_NO_HIT = np.iinfo(np.int64).max

#: Max batch plans memoized per compiled circuit.  Plans repeat whenever the
#: same fault list meets the same circuit again: every cell of a small
#: circuit simulates one collapsed list, and repeated thresholds replay
#: their whole ATPG.
_PLAN_CACHE_MAX = 256


def _plan_cache(compiled: CompiledCircuit) -> Dict:
    """Per-compiled-form plan memo (keyed by the batch's (site, value)s)."""
    cache = getattr(compiled, "_ppsfp_plans", None)
    if cache is None:
        cache = {}
        compiled._ppsfp_plans = cache
    return cache


def first_detections(detect: np.ndarray) -> np.ndarray:
    """First detecting pattern per row of a ``(n, w)`` detect-word block.

    Entry *i* is the index of row *i*'s first set bit (its first nonzero
    word, then that word's lowest set bit), or -1 when the row is all zero.
    One pass of ufuncs and reductions over the whole block, with no integer
    indexing: that releases the interpreter lock, which costs a hand-off
    whenever another thread is waiting for it.
    """
    lowest = detect & (np.uint64(0) - detect)  # two's complement isolates the bit
    # A power of two converts to float64 exactly, so frexp's exponent is its
    # bit index + 1; an empty word gives 0.
    _, exponent = np.frexp(lowest.astype(np.float64))
    offsets = np.arange(detect.shape[1]) * WORD_BITS - 1
    index = np.where(exponent > 0, exponent + offsets, _NO_HIT)
    first = index.min(axis=1, initial=_NO_HIT)
    return np.where(first == _NO_HIT, -1, first)


@dataclass
class _BatchPlan:
    """Precomputed sweep for one fault batch (chunk-width independent).

    ``lo``/``hi`` give, per union-schedule group, the contiguous range of
    fault slots whose cones need that group; ``forces[g]`` lists the
    ``(site_row, slot)`` stuck re-forcings to apply right after group ``g``
    (groups that overwrite another fault's site row).  ``touched`` is every
    row the sweep reads or writes — the only rows whose good values need to
    be replicated into the widened matrix.
    """

    sites: np.ndarray
    stuck: np.ndarray
    groups: Tuple[GateGroup, ...]
    po_rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    forces: List[List[Tuple[int, int]]]
    touched: np.ndarray


def _build_plan(
    compiled: CompiledCircuit, batch: Sequence[StuckAtFault]
) -> _BatchPlan:
    site_rows = [compiled.index[fault.net] for fault in batch]
    sites = np.array(site_rows, dtype=np.intp)
    stuck = np.array([ALL_ONES if f.value else 0 for f in batch], dtype=np.uint64)
    groups, positions, po_rows = compiled.batch_cone_schedule(site_rows)
    n_sched = len(compiled.schedule)
    n_faults = len(batch)
    # Per-group slot ranges, computed on full-schedule positions (the
    # per-site group sets are cached on the compiled form) and then mapped
    # onto the union sub-schedule via ``positions``.
    cone_groups = [compiled.cone_group_positions_at(site) for site in site_rows]
    group_pos = np.concatenate(cone_groups)
    slot_of = np.repeat(
        np.arange(n_faults, dtype=np.intp), [part.size for part in cone_groups]
    )
    lo_full = np.full(n_sched, n_faults, dtype=np.intp)
    hi_full = np.full(n_sched, -1, dtype=np.intp)
    np.minimum.at(lo_full, group_pos, slot_of)
    np.maximum.at(hi_full, group_pos, slot_of)
    lo = lo_full[positions]
    hi = hi_full[positions]
    # Site rows recomputed by some union group need re-forcing after it.
    forces: List[List[Tuple[int, int]]] = [[] for _ in range(len(groups))]
    site_pos = compiled.row_schedule_positions()[sites]
    gpos = np.searchsorted(positions, site_pos)
    # A sentinel past the last position keeps the lookup in bounds.
    recomputed = (site_pos >= 0) & (np.append(positions, -1)[gpos] == site_pos)
    for slot in np.flatnonzero(recomputed).tolist():
        forces[int(gpos[slot])].append((site_rows[slot], slot))
    # Rows the sweep touches: group inputs and outputs, POs, fault sites.
    # A membership mask instead of ``np.unique``: no sort, and no lazy
    # ``numpy.ma`` import (about 1.5 MB of resident memory).
    parts = [sites, po_rows]
    for group in groups:
        parts += (group.in_idx.ravel(), group.out_idx)
    touched = np.zeros(compiled.n_nets, dtype=bool)
    touched[np.concatenate(parts)] = True
    return _BatchPlan(
        sites, stuck, groups, po_rows, lo, hi, forces, np.flatnonzero(touched)
    )


def _run_batch(
    compiled: CompiledCircuit,
    plan: _BatchPlan,
    good: np.ndarray,
    masks,
) -> Optional[np.ndarray]:
    """Propagate one fault batch against one pattern chunk.

    ``good`` is the chunk's settled ``(n_nets, w)`` matrix; ``masks`` is the
    chunk's ``(w,)`` tail mask.  Returns the batch's ``(B, w)`` detect words
    (bit *p* of slot *b* is set iff chunk pattern *p* detects fault *b*), or
    ``None`` when no cone reaches a PO and no site is a PO.
    """
    n_words = good.shape[1]
    n_faults = len(plan.sites)
    if not plan.po_rows.size:
        return None

    # Widen: fault slot b owns columns [b*w, (b+1)*w).  Only the rows the
    # sweep touches get their good values replicated; the rest stay
    # uninitialized and are never read.
    values = np.empty((compiled.n_nets, n_faults * n_words), dtype=np.uint64)
    cube = values.reshape(compiled.n_nets, n_faults, n_words)
    cube[plan.touched] = good[plan.touched][:, None, :]
    cube[plan.sites, np.arange(n_faults)] = plan.stuck[:, None]

    for gpos, group in enumerate(plan.groups):
        view = values[:, plan.lo[gpos] * n_words : (plan.hi[gpos] + 1) * n_words]
        _evaluate_group(group, view)
        for row, slot in plan.forces[gpos]:
            values[row, slot * n_words : (slot + 1) * n_words] = plan.stuck[slot]

    # One batched XOR + OR over the PO axis: (n_po, B, w) -> (B, w).
    diff = cube[plan.po_rows] ^ good[plan.po_rows][:, None, :]
    return np.bitwise_or.reduce(diff, axis=0) & masks


def _chunk_widths(n_words: int, max_words: int) -> List[int]:
    """Chunk schedule: 1 word, 4 words, then ``max_words`` repeats.

    The first chunk (64 patterns) drops the easy majority of faults before
    any wide matrix is built, the second catches the stragglers cheaply,
    and the remaining words go to survivors in as few wide sweeps as the
    memory budget allows (per-group Python dispatch amortizes over width).
    """
    widths: List[int] = []
    width = 1
    left = n_words
    while left > 0:
        take = min(width, max_words, left)
        widths.append(take)
        left -= take
        width = 4 if width == 1 else max_words
    return widths


def _cone_signature(compiled: CompiledCircuit, site: int) -> Tuple[int, ...]:
    """PO rows a site's cone reaches — the batch-clustering key (memoized).

    Faults with equal/similar signatures propagate through overlapping
    logic, so sorting by signature packs them into adjacent slots and keeps
    the per-group slot ranges tight.
    """
    cache = getattr(compiled, "_ppsfp_signatures", None)
    if cache is None:
        cache = {}
        compiled._ppsfp_signatures = cache
    signature = cache.get(site)
    if signature is None:
        rows = compiled.cone_rows_at(site)
        signature = tuple(row for row in rows if row in compiled.po_set)
        cache[site] = signature
    return signature


def _good_and_excitable(
    compiled: CompiledCircuit,
    patterns: np.ndarray,
    faults: Sequence[StuckAtFault],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Good matrix and tail mask of the whole pattern set, plus excitability.

    One good-circuit pass covers every chunk (chunks are column views into
    it).  A fault whose site never differs from its stuck value under any
    pattern cannot be detected, so ``excitable[i]`` false lets it skip every
    sweep.
    """
    masks_all = tail_mask(patterns.shape[0])
    good_all = compiled.simulate_packed(pack_patterns(patterns))
    sites = np.array([compiled.index[f.net] for f in faults], dtype=np.intp)
    stuck = np.where(
        np.array([f.value for f in faults], dtype=bool)[:, None],
        ALL_ONES,
        np.uint64(0),
    )
    excitable = ((good_all[sites] ^ stuck) & masks_all).any(axis=1)
    return good_all, masks_all, excitable


def _plan_batches(
    compiled: CompiledCircuit, faults: Sequence[StuckAtFault], batch_size: int
) -> List[Tuple[List[int], _BatchPlan]]:
    """Split ``faults`` into sweep batches: (positions in ``faults``, plan).

    Faults are batched in cone-signature order so overlapping cones share
    adjacent slots (tight per-group slot ranges); plans are memoized per
    compiled circuit.
    """
    order = sorted(
        range(len(faults)),
        key=lambda i: (
            _cone_signature(compiled, compiled.index[faults[i].net]),
            compiled.index[faults[i].net],
            faults[i].value,
        ),
    )
    cache = _plan_cache(compiled)
    batches: List[Tuple[List[int], _BatchPlan]] = []
    for start in range(0, len(order), batch_size):
        positions = order[start : start + batch_size]
        key = tuple((compiled.index[faults[i].net], faults[i].value) for i in positions)
        plan = cache.get(key)
        if plan is None:
            plan = _build_plan(compiled, [faults[i] for i in positions])
            if len(cache) >= _PLAN_CACHE_MAX:
                cache.clear()
            cache[key] = plan
        batches.append((positions, plan))
    return batches


def _max_chunk_words(compiled: CompiledCircuit, batch_size: int) -> int:
    """Widest pattern chunk (in words) whose widened matrix fits the budget."""
    return max(1, MATRIX_BUDGET_BYTES // (max(compiled.n_nets, 1) * batch_size * 8))


def ppsfp_detections(
    compiled: CompiledCircuit,
    patterns: np.ndarray,
    faults: Iterable[StuckAtFault],
    batch_size: int = FAULT_BATCH,
) -> Dict[StuckAtFault, int]:
    """Fault -> first detecting pattern index, PPSFP-batched.

    Bit-exact with the test suite's ``reference_fault_sim`` oracle at every
    ``batch_size`` (1 sweeps one fault at a time): every fault is judged
    against the pattern set in order, and the reported index is the globally
    first detecting pattern.
    """
    remaining: List[StuckAtFault] = list(faults)
    patterns = np.atleast_2d(np.asarray(patterns))
    detected: Dict[StuckAtFault, int] = {}
    if patterns.shape[0] == 0 or not remaining:
        return detected
    batch_size = max(1, min(int(batch_size), FAULT_BATCH))
    good_all, masks_all, excitable = _good_and_excitable(compiled, patterns, remaining)
    remaining = [f for f, ok in zip(remaining, excitable) if ok]
    if not remaining:
        return detected
    batches: List[Tuple[List[StuckAtFault], _BatchPlan]] = []
    swept = 0  # faults covered by the current batch plans
    word0 = 0
    for width in _chunk_widths(masks_all.size, _max_chunk_words(compiled, batch_size)):
        # Drop at chunk granularity: detected faults never re-enter.  Batch
        # plans are rebuilt only when enough faults dropped to pay for the
        # planning (always after the first chunk, which drops the easy
        # majority); in between, already-detected faults ride along in their
        # old slots and ``setdefault`` keeps the first-detection index exact.
        undetected = [f for f in remaining if f not in detected]
        if not undetected:
            break
        if not batches or 4 * (swept - len(undetected)) >= swept:
            # ``remaining`` keeps the caller's fault order for the
            # undetected list; only the batches are signature-ordered.
            remaining = undetected
            batches = [
                ([remaining[i] for i in positions], plan)
                for positions, plan in _plan_batches(compiled, remaining, batch_size)
            ]
            swept = len(remaining)
        good = good_all[:, word0 : word0 + width]
        masks = masks_all[word0 : word0 + width]
        for batch, plan in batches:
            detect = _run_batch(compiled, plan, good, masks)
            if detect is None:
                continue
            for slot, index in enumerate(first_detections(detect).tolist()):
                if index >= 0:
                    detected.setdefault(batch[slot], word0 * WORD_BITS + index)
        word0 += width
    return detected


def ppsfp_detect_words(
    compiled: CompiledCircuit,
    patterns: np.ndarray,
    faults: Iterable[StuckAtFault],
) -> np.ndarray:
    """The ``(n_faults, n_words)`` uint64 detection matrix, no fault dropping.

    Row *i* belongs to the *i*-th fault: bit *p* of word ``p // 64`` is set
    iff pattern *p* detects it, and the tail bits past the last pattern are
    zero.  Same sweep kernel as :func:`ppsfp_detections`, but every fault is
    judged against every pattern, so chunks run at the full budget width.
    """
    faults = list(faults)
    patterns = np.atleast_2d(np.asarray(patterns))
    n_patterns = patterns.shape[0]
    words = np.zeros((len(faults), -(-n_patterns // WORD_BITS)), dtype=np.uint64)
    if n_patterns == 0 or not faults:
        return words
    good_all, masks_all, excitable = _good_and_excitable(compiled, patterns, faults)
    live = np.flatnonzero(excitable)
    batches = _plan_batches(compiled, [faults[i] for i in live], FAULT_BATCH)
    max_chunk = _max_chunk_words(compiled, FAULT_BATCH)
    for word0 in range(0, masks_all.size, max_chunk):
        good = good_all[:, word0 : word0 + max_chunk]
        masks = masks_all[word0 : word0 + max_chunk]
        for positions, plan in batches:
            detect = _run_batch(compiled, plan, good, masks)
            if detect is not None:
                words[live[positions], word0 : word0 + masks.size] = detect
    return words
