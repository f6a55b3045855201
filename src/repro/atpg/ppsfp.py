"""PPSFP — parallel-pattern, parallel-fault stuck-at simulation.

The single-fault matrix path of :class:`repro.atpg.faultsim.FaultSimulator`
pays one Python-level cone re-evaluation per fault: force the site row,
re-run the fanout-cone sub-schedule, XOR the PO rows.  For a fault list of
hundreds (the ATPG drop-loop, coverage-holes analysis, MERO sampling,
detector calibration) that per-fault Python dispatch is the dominant cost —
the numpy work per cone is tiny, the per-fault loop is not.

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
   good values and one ``OR`` reduction over the PO axis; per fault, the
   first set bit of its slice is the first detecting pattern — the same
   quantity the single-fault path and :func:`reference_fault_sim` report,
   bit-exactly (pinned by ``tests/test_ppsfp.py``).

Patterns are swept in geometrically growing word chunks (64 patterns, then
128, 256, ...) with fault dropping at chunk granularity: easy faults cost
one narrow sweep, survivors amortize the Python overhead over ever-wider
matrices, and because chunks are scanned in pattern order the recorded
index is still the *global* first detection.
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

#: Max batch plans memoized per compiled circuit (ATPG drop-loops
#: re-simulate stable survivor sets, so plans repeat across calls).
_PLAN_CACHE_MAX = 256


def _plan_cache(compiled: CompiledCircuit) -> Dict:
    """Per-compiled-form plan memo (keyed by the batch's (site, value)s)."""
    cache = getattr(compiled, "_ppsfp_plans", None)
    if cache is None:
        cache = {}
        compiled._ppsfp_plans = cache
    return cache


def _first_pattern(detect_words: np.ndarray) -> Optional[int]:
    """Index of the first set bit across a fault's (host) detect words."""
    nonzero = np.flatnonzero(detect_words)
    if nonzero.size == 0:
        return None
    word = int(nonzero[0])
    bits = int(detect_words[word])
    return word * WORD_BITS + ((bits & -bits).bit_length() - 1)


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

    sites: List[int]
    stuck: List[np.uint64]
    groups: Tuple[GateGroup, ...]
    po_rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    forces: List[List[Tuple[int, int]]]
    touched: np.ndarray


def _build_plan(
    compiled: CompiledCircuit, batch: Sequence[StuckAtFault]
) -> _BatchPlan:
    sites = [compiled.index[fault.net] for fault in batch]
    stuck = [ALL_ONES if fault.value else np.uint64(0) for fault in batch]
    groups, positions, po_rows = compiled.batch_cone_schedule(sites)
    n_sched = len(compiled.schedule)
    n_faults = len(batch)
    # Per-group slot ranges, computed on full-schedule positions (the
    # per-site group sets are cached on the compiled form) and then mapped
    # onto the union sub-schedule via ``positions``.
    untouched = np.intp(n_faults)
    lo_full = np.full(n_sched, untouched, dtype=np.intp)
    hi_full = np.full(n_sched, -1, dtype=np.intp)
    for slot, site in enumerate(sites):
        cone_groups = compiled.cone_group_positions_at(site)
        # Slots ascend, so the first touch fixes lo and every touch lifts hi.
        lo_full[cone_groups] = np.where(
            lo_full[cone_groups] == untouched, slot, lo_full[cone_groups]
        )
        hi_full[cone_groups] = slot
    lo = lo_full[positions]
    hi = hi_full[positions]
    # Site rows recomputed by some union group need re-forcing after it.
    forces: List[List[Tuple[int, int]]] = [[] for _ in range(len(groups))]
    row_positions = compiled.row_schedule_positions()
    for slot, site in enumerate(sites):
        pos = int(row_positions[site])
        if pos < 0:
            continue
        gpos = int(np.searchsorted(positions, pos))
        if gpos < positions.size and positions[gpos] == pos:
            forces[gpos].append((site, slot))
    # Rows the sweep touches: group inputs and outputs, POs, fault sites.
    parts: List[np.ndarray] = [
        np.asarray(sites, dtype=np.intp),
        po_rows.astype(np.intp),
    ]
    for group in groups:
        parts.append(group.in_idx.ravel())
        parts.append(group.out_idx)
    touched = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.intp)
    return _BatchPlan(sites, stuck, groups, po_rows, lo, hi, forces, touched)


def _run_batch(
    compiled: CompiledCircuit,
    plan: _BatchPlan,
    good: np.ndarray,
    masks,
) -> Dict[int, int]:
    """Propagate one fault batch against one pattern chunk.

    ``good`` is the chunk's settled ``(n_nets, w)`` matrix; ``masks`` is the
    chunk's ``(w,)`` tail mask.  Returns slot -> first detecting pattern
    *within the chunk*.
    """
    n_words = good.shape[1]
    n_faults = len(plan.sites)

    # Widen: fault slot b owns columns [b*w, (b+1)*w).  Only the rows the
    # sweep touches get their good values replicated; the rest stay
    # uninitialized and are never read.
    values = np.empty((compiled.n_nets, n_faults * n_words), dtype=np.uint64)
    cube = values.reshape(compiled.n_nets, n_faults, n_words)
    cube[plan.touched] = good[plan.touched][:, None, :]
    for slot, (site, word) in enumerate(zip(plan.sites, plan.stuck)):
        values[site, slot * n_words : (slot + 1) * n_words] = word

    for gpos, group in enumerate(plan.groups):
        view = values[:, plan.lo[gpos] * n_words : (plan.hi[gpos] + 1) * n_words]
        _evaluate_group(group, view)
        for row, slot in plan.forces[gpos]:
            values[row, slot * n_words : (slot + 1) * n_words] = plan.stuck[slot]

    detected: Dict[int, int] = {}
    if not plan.po_rows.size:
        return detected  # no PO in any cone and no site is a PO: undetectable
    # One batched XOR + OR over the PO axis: (n_po, B, w) -> (B, w).
    diff = cube[plan.po_rows] ^ good[plan.po_rows][:, None, :]
    detect = np.bitwise_or.reduce(diff, axis=0) & masks
    for slot in np.flatnonzero(detect.any(axis=1)):
        detected[int(slot)] = _first_pattern(detect[slot])
    return detected


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


def ppsfp_detections(
    compiled: CompiledCircuit,
    patterns: np.ndarray,
    faults: Iterable[StuckAtFault],
    batch_size: int = FAULT_BATCH,
) -> Dict[StuckAtFault, int]:
    """Fault -> first detecting pattern index, PPSFP-batched.

    Bit-exact with the single-fault matrix path and
    :func:`repro.atpg.faultsim.reference_fault_sim`: every fault is judged
    against the pattern set in order, and the reported index is the globally
    first detecting pattern.
    """
    remaining: List[StuckAtFault] = list(faults)
    patterns = np.atleast_2d(np.asarray(patterns))
    n_patterns = patterns.shape[0]
    detected: Dict[StuckAtFault, int] = {}
    if n_patterns == 0 or not remaining:
        return detected
    batch_size = max(1, min(int(batch_size), FAULT_BATCH))
    packed = pack_patterns(patterns)
    masks_all = tail_mask(n_patterns)
    max_chunk = max(
        1, MATRIX_BUDGET_BYTES // (max(compiled.n_nets, 1) * batch_size * 8)
    )
    # One good-circuit pass for the whole pattern set; chunks below are
    # column views into it (no schedule re-runs per chunk).
    good_all = compiled.simulate_packed(packed)
    # Excitation prefilter: a fault whose site never differs from its stuck
    # value under any pattern cannot be detected — skip its sweeps entirely.
    sites_arr = np.array(
        [compiled.index[f.net] for f in remaining], dtype=np.intp
    )
    stuck_col = np.where(
        np.array([f.value for f in remaining], dtype=bool)[:, None],
        ALL_ONES,
        np.uint64(0),
    )
    excitable = ((good_all[sites_arr] ^ stuck_col) & masks_all).any(axis=1)
    remaining = [f for f, ok in zip(remaining, excitable) if ok]
    if not remaining:
        return detected
    batches: List[Tuple[List[StuckAtFault], _BatchPlan]] = []
    swept = 0  # faults covered by the current batch plans
    word0 = 0
    for width in _chunk_widths(masks_all.size, max_chunk):
        # Drop at chunk granularity: detected faults never re-enter.  Batch
        # plans are rebuilt only when enough faults dropped to pay for the
        # planning (always after the first chunk, which drops the easy
        # majority); in between, already-detected faults ride along in their
        # old slots and ``setdefault`` keeps the first-detection index exact.
        undetected = [f for f in remaining if f not in detected]
        if not undetected:
            break
        if not batches or 4 * (swept - len(undetected)) >= swept:
            remaining = undetected
            # Batch in cone-signature order so overlapping cones share
            # adjacent slots (tight per-group slot ranges); ``remaining``
            # keeps the caller's fault order for the undetected list.
            ordered = sorted(
                remaining,
                key=lambda f: (
                    _cone_signature(compiled, compiled.index[f.net]),
                    compiled.index[f.net],
                    f.value,
                ),
            )
            batches = []
            for start in range(0, len(ordered), batch_size):
                batch = ordered[start : start + batch_size]
                key = tuple((compiled.index[f.net], f.value) for f in batch)
                plan = _plan_cache(compiled).get(key)
                if plan is None:
                    plan = _build_plan(compiled, batch)
                    cache = _plan_cache(compiled)
                    if len(cache) >= _PLAN_CACHE_MAX:
                        cache.clear()
                    cache[key] = plan
                batches.append((batch, plan))
            swept = len(remaining)
        good = good_all[:, word0 : word0 + width]
        masks = masks_all[word0 : word0 + width]
        for batch, plan in batches:
            for slot, first in _run_batch(compiled, plan, good, masks).items():
                detected.setdefault(batch[slot], word0 * WORD_BITS + first)
        word0 += width
    return detected
