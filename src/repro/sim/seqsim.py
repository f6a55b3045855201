"""Cycle-accurate sequential simulation for Trojan-infected circuits.

The TrojanZero counter trigger (Fig. 4) is an *asynchronous* ripple counter:
each DFF is clocked by a circuit net (the rare trigger node) or by the
previous stage's output — no global clock is added to the host circuit.  The
simulator therefore works edge-driven per applied input vector:

1. settle the combinational logic with the current flip-flop states,
2. find DFFs whose clock net saw a rising edge (vs. the previous settle),
3. update those states with their settled ``d`` values,
4. repeat — a state change may ripple a new edge into the next stage —
   until no edges remain (bounded by #DFFs + 2 iterations).

Many independent input *sequences* are simulated in parallel, packed 64 per
uint64 word, which makes Monte-Carlo trigger-probability estimation cheap.

Engine
------
:class:`SequentialSimulator` runs on the compiled levelized core of
:mod:`repro.sim.compiled`: the circuit compiles once into a ``(n_nets,
n_words)`` value matrix plus a per-(level, type, arity) group schedule in
which every DFF *output* is a source row alongside the PIs.  A combinational
settle is then a single :meth:`~repro.sim.compiled.CompiledCircuit.run_matrix`
call, and the edge detection / state latch of the ripple loop is a few
vectorized row operations over the ``dff_clk_idx``/``dff_d_idx`` row triples
(:meth:`~repro.sim.compiled.CompiledCircuit.step_sequential`).  The compiled
schedule is cached on the circuit (and in the structural-fingerprint cache),
so every Monte-Carlo session, salvage trial, and functional test over the
same netlist shares one compile.

Batched extraction: :meth:`SequentialSimulator.run_sequences_nets` packs the
whole ``(n_seqs, n_steps, n_inputs)`` sequence block with one
``np.packbits`` call, steps the matrix, gathers only the *watched* net rows
per step, and unpacks them in a handful of chunked ``np.unpackbits`` calls —
no per-net, per-step Python bit extraction anywhere.

Differential tests pin it against ``ReferenceSequentialSimulator``, the
per-gate dict interpreter in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from .bitsim import pack_patterns, unpack_patterns
from .compiled import CompiledCircuit, compile_circuit

#: Word budget for the per-chunk watched-row buffer of
#: :meth:`SequentialSimulator.run_sequences_nets` (bounds peak memory of the
#: final unpack at ~64x this many bytes).
_CHUNK_WORD_BUDGET = 1 << 19


class SequentialSimulator:
    """Edge-driven simulator for circuits that may contain DFFs.

    Pure combinational circuits are handled too (they simply have no state),
    so functional-testing code can treat N, N' and N'' uniformly.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._compiled: CompiledCircuit = compile_circuit(circuit)
        self._dffs: List[str] = list(self._compiled.dff_names)
        self._state: Optional[np.ndarray] = None
        self._prev_clk: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._n_words = 0

    @property
    def dff_nets(self) -> Tuple[str, ...]:
        return tuple(self._dffs)

    def reset(self, n_sequences: int) -> None:
        """Zero all flip-flop states for ``n_sequences`` parallel sequences."""
        self._n_words = (n_sequences + 63) // 64
        self._state = np.zeros((len(self._dffs), self._n_words), dtype=np.uint64)
        self._prev_clk = None
        self._values = self._compiled.new_matrix(self._n_words)

    def _step_matrix(self, packed_pi_words: np.ndarray) -> np.ndarray:
        """One vector step on the reusable matrix; returns the settled matrix.

        ``packed_pi_words`` is ``(n_inputs, n_words)``; PI rows are loaded,
        the combinational schedule settles, and the edge-driven ripple loop
        updates the flip-flop state in place.
        """
        values = self._values
        if self._compiled.input_idx.size:
            values[self._compiled.input_idx] = packed_pi_words
        self._prev_clk = self._compiled.step_sequential(
            values, self._state, self._prev_clk
        )
        return values

    def step_packed(self, packed_inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Apply one input vector (packed across sequences); returns settled nets.

        Compatibility shim around the matrix engine: materializes a
        net-keyed dict (copies, safe to hold across steps).  Batched callers
        should prefer :meth:`run_sequences_nets`.
        """
        if self._state is None:
            if self._dffs:
                raise RuntimeError("call reset() before stepping")
            n_words = len(next(iter(packed_inputs.values()))) if packed_inputs else 1
            self.reset(64 * n_words)
        if self.circuit.inputs:
            packed = np.stack(
                [
                    np.asarray(packed_inputs[pi], dtype=np.uint64)
                    for pi in self.circuit.inputs
                ]
            )
        else:
            packed = np.zeros((0, self._n_words), dtype=np.uint64)
        values = self._step_matrix(packed)
        index = self._compiled.index
        return {
            net: values[index[net]].copy()
            for net in self._compiled.order
            if net in self.circuit
        }

    # ------------------------------------------------------------------
    # batched sequence APIs
    # ------------------------------------------------------------------
    def _check_sequences(self, sequences: np.ndarray) -> np.ndarray:
        sequences = np.asarray(sequences)
        if sequences.ndim != 3:
            raise ValueError(f"sequences must be 3-D, got shape {sequences.shape}")
        if sequences.shape[2] != len(self.circuit.inputs):
            raise ValueError(
                f"expected {len(self.circuit.inputs)} inputs, got {sequences.shape[2]}"
            )
        return sequences

    def run_sequences_nets(
        self, sequences: np.ndarray, nets: Sequence[str]
    ) -> np.ndarray:
        """Simulate ``(n_seqs, n_steps, n_inputs)`` watching only ``nets``.

        Returns ``(n_seqs, n_steps, len(nets))`` uint8.  This is the batched
        workhorse behind :meth:`run_sequences`, :meth:`run_sequence_tracking`,
        Monte-Carlo Pft estimation, and empirical toggle rates: input packing
        happens in one vectorized call for the whole block, and the watched
        rows are unpacked in large step-chunks instead of one bit at a time.
        """
        sequences = self._check_sequences(sequences)
        n_seqs, n_steps, n_inputs = sequences.shape
        self.reset(n_seqs)
        n_words = self._n_words
        rows = np.array(
            [self._compiled.index[net] for net in nets], dtype=np.intp
        )
        out = np.zeros((n_seqs, n_steps, len(nets)), dtype=np.uint8)
        if n_steps == 0 or n_seqs == 0:
            return out
        # One packbits pass for the whole block: steps fold into the signal
        # axis, giving (n_steps, n_inputs, n_words) packed PI words.
        packed_steps = pack_patterns(
            sequences.reshape(n_seqs, n_steps * n_inputs)
        ).reshape(n_steps, n_inputs, n_words)

        if rows.size == 0:
            for t in range(n_steps):
                self._step_matrix(packed_steps[t])
            return out
        chunk = max(1, _CHUNK_WORD_BUDGET // (rows.size * max(n_words, 1)))
        buffer = np.empty(
            (min(chunk, n_steps), rows.size, n_words), dtype=np.uint64
        )
        t = 0
        while t < n_steps:
            span = min(chunk, n_steps - t)
            for k in range(span):
                values = self._step_matrix(packed_steps[t + k])
                buffer[k] = values[rows]
            unpacked = unpack_patterns(
                buffer[:span].reshape(span * rows.size, n_words), n_seqs
            )
            out[:, t : t + span, :] = unpacked.reshape(n_seqs, span, rows.size)
            t += span
        return out

    def run_sequences(self, sequences: np.ndarray) -> np.ndarray:
        """Simulate ``(n_seqs, n_steps, n_inputs)``; returns outputs of same rank.

        Returns ``(n_seqs, n_steps, n_outputs)`` uint8.
        """
        return self.run_sequences_nets(sequences, self.circuit.outputs)

    def run_sequence_tracking(
        self, sequence: np.ndarray, watch: List[str]
    ) -> Dict[str, np.ndarray]:
        """Simulate a single ``(n_steps, n_inputs)`` sequence, recording ``watch`` nets.

        Returns net -> ``(n_steps,)`` uint8 trace.  Used for trigger analysis
        and the case-study example.  All watched nets are extracted in one
        batched unpack (via :meth:`run_sequences_nets`), not one bit per net
        per step.
        """
        sequence = np.atleast_2d(np.asarray(sequence))
        traces = self.run_sequences_nets(sequence[np.newaxis], list(watch))[0]
        return {net: traces[:, i].copy() for i, net in enumerate(watch)}
