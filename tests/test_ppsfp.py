"""Differential tests pinning the PPSFP engine bit-exactly.

``FaultSimulator.run`` must agree fault-for-fault, index-for-index with
``reference_fault_sim``, the per-gate/Python-int oracle in
``tests/oracles.py``.  Every ``run`` goes through the parallel-pattern
parallel-fault engine (``repro.atpg.ppsfp``), which packs up to 64 faults
into extra word-column slices of one widened matrix; a single pattern is
its one-word case.

The suite sweeps seeded random circuits, fault-batch sizes on both sides of
the 64-slot word boundary (1, 7, 64, 100+), and pattern counts on both sides
of the 64-bit word boundary (1, 63, 64, 65, 130, 200) — the places where
masking or slot arithmetic would break first.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import reference_fault_sim
from repro.atpg import FaultSimulator, StuckAtFault, full_fault_list
from repro.atpg.ppsfp import FAULT_BATCH, ppsfp_detections
from repro.bench import c17, c432_like, c880_like
from repro.netlist import Circuit, GateType
from repro.sim.bitsim import WORD_BITS
from repro.sim.compiled import compile_circuit

_GATE_TYPES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUFF,
]


def random_circuit(seed: int, n_inputs: int = 8, n_gates: int = 60) -> Circuit:
    """Seeded random combinational DAG with reconvergent fan-out.

    Each gate draws its fan-in from *all* earlier nets, so deep cones and
    shared subcones (the hard cases for cone-restricted evaluation) appear
    naturally.  Roughly a third of the gates are made primary outputs, plus
    every sink, so detection visibility varies across faults.
    """
    rng = np.random.default_rng(seed)
    circuit = Circuit(f"rand{seed}")
    nets = [circuit.add_input(f"i{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        gate_type = _GATE_TYPES[rng.integers(len(_GATE_TYPES))]
        fan_in = 1 if gate_type in (GateType.NOT, GateType.BUFF) else int(
            rng.integers(2, min(4, len(nets)) + 1)
        )
        ins = rng.choice(len(nets), size=fan_in, replace=False)
        nets.append(circuit.add_gate(f"g{g}", gate_type, [nets[i] for i in ins]))
    driven = {inp for net in circuit.nets for inp in circuit.gate(net).inputs}
    sinks = [n for n in nets[n_inputs:] if n not in driven]
    chosen = {n for n in nets[n_inputs:] if rng.random() < 0.3}
    for net in sorted(chosen | set(sinks)):
        circuit.set_output(net)
    return circuit


def _patterns(circuit: Circuit, n_patterns: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n_patterns, len(circuit.inputs))) < 0.5).astype(np.uint8)


def _sample_faults(circuit: Circuit, n: int, seed: int):
    faults = full_fault_list(circuit)
    if len(faults) <= n:
        return faults
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(faults), n, replace=False)
    return [faults[i] for i in sorted(chosen)]


def _assert_same_outcome(circuit, patterns, faults, drop_detected=True):
    """``run`` and the oracle agree on detections AND first-pattern indices."""
    want = reference_fault_sim(circuit, patterns, faults, drop_detected=drop_detected)
    got = FaultSimulator(circuit).run(patterns, faults)
    assert got.detected == want.detected
    assert got.undetected == want.undetected


class TestRandomCircuitDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_ppsfp_matches_reference_and_single(self, seed):
        circuit = random_circuit(seed)
        patterns = _patterns(circuit, 130, seed + 100)
        faults = _sample_faults(circuit, 100, seed + 200)
        _assert_same_outcome(circuit, patterns, faults)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_no_dropping_mode(self, seed):
        circuit = random_circuit(seed, n_inputs=6, n_gates=40)
        patterns = _patterns(circuit, 200, seed)
        faults = _sample_faults(circuit, 80, seed)
        _assert_same_outcome(circuit, patterns, faults, drop_detected=False)

    @pytest.mark.parametrize("n_faults", [1, 7, 64, 100])
    def test_batch_size_boundaries(self, n_faults):
        """Fault counts straddling the 64-slot batch width."""
        circuit = random_circuit(7)
        patterns = _patterns(circuit, 96, 7)
        faults = _sample_faults(circuit, n_faults, 7)
        _assert_same_outcome(circuit, patterns, faults)

    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 130, 200])
    def test_pattern_tail_boundaries(self, n_patterns):
        """Pattern counts straddling the 64-bit word boundary (tail masks)."""
        circuit = random_circuit(8)
        patterns = _patterns(circuit, n_patterns, 8)
        faults = _sample_faults(circuit, 48, 8)
        _assert_same_outcome(circuit, patterns, faults)

    def test_explicit_batch_size_sweep(self):
        """``ppsfp_detections`` itself at sub-word batch widths."""
        circuit = random_circuit(9)
        compiled = compile_circuit(circuit)
        patterns = _patterns(circuit, 130, 9)
        faults = _sample_faults(circuit, 70, 9)
        want = reference_fault_sim(
            circuit, patterns, faults, drop_detected=False
        ).detected
        for batch_size in (1, 7, 64):
            got = ppsfp_detections(compiled, patterns, faults, batch_size=batch_size)
            assert got == want, f"batch_size={batch_size}"


class TestIscasDifferential:
    def test_c880_bit_exact(self):
        circuit = c880_like()
        patterns = _patterns(circuit, 256, 42)
        faults = _sample_faults(circuit, 128, 42)
        _assert_same_outcome(circuit, patterns, faults)

    def test_c432_undetectable_faults_survive(self):
        """Faults the patterns never excite stay undetected, in caller order."""
        circuit = c432_like()
        patterns = _patterns(circuit, 100, 3)
        faults = _sample_faults(circuit, 120, 3)
        _assert_same_outcome(circuit, patterns, faults, drop_detected=False)


class TestSizeDispatch:
    """No pattern count bypasses PPSFP, with or without the detect words."""

    @pytest.mark.parametrize("n_patterns", [1, WORD_BITS])
    def test_one_word_runs_use_ppsfp(self, monkeypatch, n_patterns):
        circuit = c880_like()
        patterns = _patterns(circuit, n_patterns, 0)
        faults = _sample_faults(circuit, 2 * FAULT_BATCH, 0)
        import repro.atpg.faultsim as fs

        calls = []
        for name in ("ppsfp_detections", "ppsfp_detect_words"):
            real = getattr(fs, name)
            monkeypatch.setattr(
                fs, name, lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k)
            )
        want = reference_fault_sim(circuit, patterns, faults)
        sim = FaultSimulator(circuit)
        assert sim.run(patterns, faults).detected == want.detected
        assert sim.run(patterns, faults, words=True).detected == want.detected
        assert len(calls) == 2

    def test_large_runs_use_ppsfp_even_for_one_fault(self, monkeypatch):
        circuit = c17()
        patterns = _patterns(circuit, WORD_BITS + 1, 0)
        faults = [StuckAtFault("N22", 0)]
        calls = []
        import repro.atpg.faultsim as fs

        real = fs.ppsfp_detections
        monkeypatch.setattr(
            fs, "ppsfp_detections", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        outcome = FaultSimulator(circuit).run(patterns, faults)
        assert calls, "a run over more than one word should dispatch to PPSFP"
        want = reference_fault_sim(circuit, patterns, faults)
        assert outcome.detected == want.detected
        assert outcome.undetected == want.undetected
