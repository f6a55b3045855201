"""Differential tests: compiled levelized engine vs. the reference interpreters.

The compiled engine (``repro.sim.compiled``) must be bit-exact against the
per-gate reference interpreters of ``tests/oracles.py`` on randomized
circuits and on the bundled ISCAS-like benches, for both plain bit-parallel
simulation and stuck-at fault simulation (PPSFP, with the oracle dropping
detected faults or not).
"""

import numpy as np
import pytest

from oracles import reference_fault_sim, reference_run_packed
from repro.atpg import FaultSimulator, full_fault_list
from repro.bench import c17, c432_like, c499_like, c880_like
from repro.netlist import Circuit, GateType
from repro.sim import (
    BitSimulator,
    compile_circuit,
    pack_patterns,
    unpack_patterns,
)

_GATE_CHOICES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUFF,
    GateType.MUX,
]


def random_circuit(seed: int, max_gates: int = 24) -> Circuit:
    """Random combinational circuit with constants, MUXes, and fanout."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(f"rand{seed}")
    available = [circuit.add_input(f"i{k}") for k in range(int(rng.integers(2, 6)))]
    circuit.add_gate("tie0", GateType.TIE0, ())
    circuit.add_gate("tie1", GateType.TIE1, ())
    available += ["tie0", "tie1"]
    for g in range(int(rng.integers(1, max_gates + 1))):
        gate_type = _GATE_CHOICES[rng.integers(len(_GATE_CHOICES))]
        if gate_type in (GateType.NOT, GateType.BUFF):
            arity = 1
        elif gate_type is GateType.MUX:
            arity = 3
        else:
            arity = int(rng.integers(2, 4))
        inputs = [available[rng.integers(len(available))] for _ in range(arity)]
        name = f"g{g}"
        circuit.add_gate(name, gate_type, inputs)
        available.append(name)
    for net in circuit.nets:
        if not circuit.gate(net).is_input and not circuit.fanout(net):
            circuit.set_output(net)
    if not circuit.outputs:
        circuit.set_output(available[-1])
    return circuit


def _patterns(circuit: Circuit, n_patterns: int, seed: int = 99) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n_patterns, len(circuit.inputs))) < 0.5).astype(np.uint8)


def assert_all_nets_match(circuit: Circuit, patterns: np.ndarray) -> None:
    packed = pack_patterns(patterns)
    packed_inputs = {pi: packed[i] for i, pi in enumerate(circuit.inputs)}
    compiled = BitSimulator(circuit).run_packed(packed_inputs)
    reference = reference_run_packed(circuit, packed_inputs)
    assert set(compiled) == set(reference)
    n = patterns.shape[0]
    for net in reference:
        got = unpack_patterns(compiled[net][np.newaxis, :], n)
        want = unpack_patterns(reference[net][np.newaxis, :], n)
        assert (got == want).all(), net


class TestBitSimEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_circuits(self, seed):
        circuit = random_circuit(seed)
        n_patterns = int(np.random.default_rng(seed).integers(1, 150))
        assert_all_nets_match(circuit, _patterns(circuit, n_patterns, seed))

    @pytest.mark.parametrize("build", [c17, c432_like, c499_like, c880_like])
    def test_bundled_benches(self, build):
        circuit = build()
        assert_all_nets_match(circuit, _patterns(circuit, 200))

    def test_run_nets_matches_run_full(self, c17_circuit):
        pats = _patterns(c17_circuit, 100)
        full = BitSimulator(c17_circuit).run_full(pats)
        nets = ["N22", "N10", "N1"]
        selected = BitSimulator(c17_circuit).run_nets(pats, nets)
        for col, net in enumerate(nets):
            assert (selected[:, col] == full[net]).all()


class TestFaultSimEquivalence:
    # ``drop`` switches the oracle's dropping; the compiled engine has no
    # such switch and must match the oracle's first indices either way.
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_patterns", [33, 130])
    @pytest.mark.parametrize("drop", [True, False])
    def test_random_circuits(self, seed, n_patterns, drop):
        circuit = random_circuit(seed, max_gates=16)
        faults = full_fault_list(circuit)
        patterns = _patterns(circuit, n_patterns, seed)
        got = FaultSimulator(circuit).run(patterns, faults)
        want = reference_fault_sim(circuit, patterns, faults, drop_detected=drop)
        assert got.detected == want.detected  # same faults AND same first index
        assert got.undetected == want.undetected
        assert got.patterns_applied == want.patterns_applied

    @pytest.mark.parametrize("drop", [True, False])
    def test_bundled_bench(self, c432_circuit, drop):
        faults = full_fault_list(c432_circuit)[::5]
        patterns = _patterns(c432_circuit, 150)
        got = FaultSimulator(c432_circuit).run(patterns, faults)
        want = reference_fault_sim(c432_circuit, patterns, faults, drop_detected=drop)
        assert got.detected == want.detected
        assert set(got.undetected) == set(want.undetected)


class TestPackingVectorized:
    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        n_patterns = int(rng.integers(1, 200))
        n_signals = int(rng.integers(1, 9))
        pats = (rng.random((n_patterns, n_signals)) < 0.5).astype(np.uint8)
        assert (unpack_patterns(pack_patterns(pats), n_patterns) == pats).all()

    def test_bit_order_within_and_across_words(self):
        pats = np.zeros((130, 2), dtype=np.uint8)
        pats[0, 0] = 1
        pats[63, 0] = 1
        pats[64, 1] = 1
        pats[129, 1] = 1
        packed = pack_patterns(pats)
        assert packed.shape == (2, 3)
        assert packed[0, 0] == np.uint64((1 << 63) | 1)
        assert packed[1, 1] == np.uint64(1)
        assert packed[1, 2] == np.uint64(1 << 1)

    def test_empty_pattern_block(self):
        packed = pack_patterns(np.zeros((0, 3), dtype=np.uint8))
        assert packed.shape == (3, 0)
        assert unpack_patterns(packed, 0).shape == (0, 3)


class TestCompilationCache:
    def test_cache_reused_until_mutation(self, c17_circuit):
        first = compile_circuit(c17_circuit)
        assert compile_circuit(c17_circuit) is first
        c17_circuit.add_gate("extra", GateType.NOT, ("N22",))
        second = compile_circuit(c17_circuit)
        assert second is not first
        assert "extra" in second.index

    def test_copies_share_cache_until_mutation(self, c17_circuit):
        original = compile_circuit(c17_circuit)
        clone = c17_circuit.copy("clone")
        assert compile_circuit(clone) is original  # no cold recompile
        clone.add_gate("extra", GateType.NOT, ("N22",))
        diverged = compile_circuit(clone)
        assert diverged is not original
        assert "extra" in diverged.index
        # The original circuit's compiled form is untouched by the clone edit.
        assert compile_circuit(c17_circuit) is original

    def test_schedule_covers_every_logic_gate(self, c880_circuit):
        compiled = compile_circuit(c880_circuit)
        scheduled = sum(group.out_idx.size for group in compiled.schedule)
        constants = compiled.tie0_idx.size + compiled.tie1_idx.size
        assert scheduled + constants == c880_circuit.num_logic_gates
