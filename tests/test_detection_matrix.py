"""The no-drop detection matrix and the static compaction built on it.

``FaultSimulator.run(..., words=True)`` returns, per fault, its uint64
detect words over every pattern.  Bit *p* of fault *f* must be set iff
pattern *p* alone detects *f* under :func:`oracles.reference_fault_sim`,
for pattern counts inside one word and across several: the PPSFP sweep
produces the matrix at every count.

Compaction in :func:`generate_test_set` reads that matrix once instead of
re-simulating per pattern; :func:`oracles.reference_compact` is the old
per-pattern loop, and the kept rows must be identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import reference_compact, reference_fault_sim
from repro.atpg import (
    AtpgConfig,
    FaultSimulator,
    StuckAtFault,
    collapse_faults,
    full_fault_list,
    generate_test_set,
)
from repro.atpg.generate import _compact
from repro.bench import c17, c432_like, c880_like
from repro.bench.generators import Builder, declare_inputs
from repro.netlist import Circuit
from repro.sim import BitSimulator
from repro.sim.bitsim import WORD_BITS, unpack_patterns

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle_words(circuit, patterns, faults) -> np.ndarray:
    """Detect words built one pattern at a time from the reference engine."""
    words = np.zeros((len(faults), -(-len(patterns) // WORD_BITS)), dtype=np.uint64)
    for p in range(len(patterns)):
        hit = reference_fault_sim(circuit, patterns[p : p + 1], faults).detected
        for row, fault in enumerate(faults):
            if fault in hit:
                words[row, p // WORD_BITS] |= np.uint64(1 << (p % WORD_BITS))
    return words


def random_patterns(circuit, n_patterns, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((n_patterns, len(circuit.inputs))) < 0.5).astype(np.uint8)


@st.composite
def builder_circuits(draw):
    """Random combinational circuits assembled from the generator blocks."""
    circuit = Circuit("gen")
    builder = Builder(circuit)
    nets = declare_inputs(circuit, "x", draw(st.integers(2, 6)))
    blocks = {
        "AND": 2, "NAND": 2, "OR": 2, "NOR": 3, "XOR": 2, "XNOR": 2,
        "NOT": 1, "BUFF": 1, "MUX": 3, "xor_nand": 2, "mux2_nand": 3,
        "full_adder": 3, "full_adder_nand": 3,
    }
    for _ in range(draw(st.integers(1, 12))):
        name = draw(st.sampled_from(sorted(blocks)))
        arity = min(blocks[name], len(nets))
        if name in ("MUX", "mux2_nand", "full_adder", "full_adder_nand") and arity < 3:
            name = "NAND"
        picks = draw(
            st.lists(st.integers(0, len(nets) - 1), min_size=arity, max_size=arity, unique=True)
        )
        made = getattr(builder, name)(*[nets[i] for i in picks])
        nets.extend(made if isinstance(made, tuple) else (made,))
    for net in circuit.nets:
        if not circuit.gate(net).is_input and not circuit.fanout(net):
            circuit.set_output(net)
    return circuit


class TestDetectWords:
    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 128, 129])
    def test_bits_match_reference_per_pattern(self, n_patterns):
        circuit = c432_like()
        faults = collapse_faults(circuit)[::5]
        patterns = random_patterns(circuit, n_patterns, seed=n_patterns)
        got = FaultSimulator(circuit).run(patterns, faults, words=True)
        assert got.words.shape == (len(faults), -(-n_patterns // WORD_BITS))
        assert got.words.dtype == np.uint64
        np.testing.assert_array_equal(got.words, oracle_words(circuit, patterns, faults))

    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 128, 129])
    def test_tail_bits_past_last_pattern_are_zero(self, n_patterns):
        circuit = c17()
        faults = full_fault_list(circuit)
        patterns = random_patterns(circuit, n_patterns, seed=7)
        words = FaultSimulator(circuit).run(patterns, faults, words=True).words
        tail = n_patterns % WORD_BITS
        if tail:
            assert not (words[:, -1] >> np.uint64(tail)).any()
        assert words.any()

    def test_po_sites_and_never_excited_faults(self):
        circuit = c17()
        # Every pattern drives N1 and N3 high, so N10 = NAND(N1, N3) is
        # constant 0: its stuck-at-0 is never excited.
        patterns = random_patterns(circuit, 100, seed=3)
        patterns[:, circuit.inputs.index("N1")] = 1
        patterns[:, circuit.inputs.index("N3")] = 1
        po_faults = [StuckAtFault(po, v) for po in circuit.outputs for v in (0, 1)]
        dormant = StuckAtFault("N10", 0)
        faults = po_faults + [dormant]
        words = FaultSimulator(circuit).run(patterns, faults, words=True).words
        np.testing.assert_array_equal(words, oracle_words(circuit, patterns, faults))
        assert not words[-1].any()
        # A PO-site fault is detected exactly where the good PO differs.
        good = BitSimulator(circuit).run(patterns)
        detects = unpack_patterns(words, len(patterns))
        for col, fault in enumerate(po_faults):
            good_po = good[:, circuit.outputs.index(fault.net)]
            np.testing.assert_array_equal(detects[:, col], good_po != fault.value)

    def test_duplicate_faults_get_identical_rows(self):
        circuit = c432_like()
        faults = collapse_faults(circuit)[:40]
        patterns = random_patterns(circuit, 130, seed=11)
        words = FaultSimulator(circuit).run(patterns, faults + faults, words=True).words
        np.testing.assert_array_equal(words[:40], words[40:])

    @pytest.mark.parametrize("n_patterns", [64, 150])
    def test_detected_matches_dropping_run(self, n_patterns):
        circuit = c432_like()
        faults = collapse_faults(circuit)
        patterns = random_patterns(circuit, n_patterns, seed=5)
        sim = FaultSimulator(circuit)
        with_words = sim.run(patterns, faults, words=True)
        plain = sim.run(patterns, faults)
        assert with_words.detected == plain.detected
        assert with_words.undetected == plain.undetected

    @_SETTINGS
    @given(builder_circuits(), st.integers(1, 140), st.integers(0, 2**31))
    def test_generator_circuits(self, circuit, n_patterns, seed):
        faults = full_fault_list(circuit)
        patterns = random_patterns(circuit, n_patterns, seed)
        expected = oracle_words(circuit, patterns, faults)
        got = FaultSimulator(circuit).run(patterns, faults, words=True).words
        np.testing.assert_array_equal(got, expected)


class TestCompactionOracle:
    @pytest.mark.parametrize("make", [c17, c432_like, c880_like])
    def test_flow_keeps_reference_rows(self, make):
        circuit = make()
        config = AtpgConfig(backtrack_limit=20, target_coverage=0.97)
        uncompacted = generate_test_set(
            circuit, AtpgConfig(backtrack_limit=20, target_coverage=0.97, compaction=False)
        )
        expected = reference_compact(
            FaultSimulator(circuit), uncompacted.patterns, collapse_faults(circuit)
        )
        np.testing.assert_array_equal(generate_test_set(circuit, config).patterns, expected)

    @_SETTINGS
    @given(builder_circuits(), st.integers(2, 100), st.integers(0, 2**31))
    def test_random_pattern_sets(self, circuit, n_patterns, seed):
        faults = collapse_faults(circuit)
        patterns = random_patterns(circuit, n_patterns, seed)
        sim = FaultSimulator(circuit)
        words = sim.run(patterns, faults, words=True).words
        kept = patterns[_compact(unpack_patterns(words, n_patterns).astype(bool))]
        np.testing.assert_array_equal(kept, reference_compact(sim, patterns, faults))

    @_SETTINGS
    @given(builder_circuits())
    def test_flow_on_generator_circuits(self, circuit):
        config = AtpgConfig(random_blocks=2, block_size=16, seed=3)
        uncompacted = generate_test_set(
            circuit, AtpgConfig(random_blocks=2, block_size=16, seed=3, compaction=False)
        )
        expected = reference_compact(
            FaultSimulator(circuit), uncompacted.patterns, collapse_faults(circuit)
        )
        np.testing.assert_array_equal(generate_test_set(circuit, config).patterns, expected)

    @pytest.mark.parametrize(
        "config",
        [
            AtpgConfig(backtrack_limit=20, compaction=False),
            AtpgConfig(backtrack_limit=20, max_patterns=10),
            AtpgConfig(backtrack_limit=20, target_coverage=0.9),
        ],
        ids=["no-compaction", "max-patterns-10", "target-0.9"],
    )
    @pytest.mark.parametrize("make", [c17, c432_like])
    def test_covered_matches_resimulation(self, make, config):
        circuit = make()
        faults = collapse_faults(circuit)
        ts = generate_test_set(circuit, config)
        detected = FaultSimulator(circuit).run(ts.patterns, faults).detected
        assert ts.covered == set(detected)
        assert ts.detected_faults == len(detected)
