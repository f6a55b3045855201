"""Unit tests for fault simulation, validated against a brute-force oracle."""

import numpy as np
import pytest

from repro.atpg import FaultSimulator, StuckAtFault, fault_coverage, full_fault_list
from repro.netlist import Circuit, GateType, NetlistError, tie_net_to_constant
from repro.sim import BitSimulator, exhaustive_patterns


def brute_force_detects(circuit, pattern, fault):
    """Oracle: simulate the faulty circuit built by tying the net."""
    faulty = circuit.copy("faulty")
    if faulty.gate(fault.net).is_input:
        # Model a stuck input by inserting a tie and rewiring readers.
        faulty.add_gate("__stuck", GateType.TIE1 if fault.value else GateType.TIE0, ())
        for reader in list(faulty.fanout(fault.net)):
            faulty.rewire_input(reader, fault.net, "__stuck")
        if fault.net in faulty.outputs:
            faulty.unset_output(fault.net)
            faulty.set_output("__stuck")
    else:
        tie_net_to_constant(faulty, fault.net, fault.value)
    good = BitSimulator(circuit).run(np.atleast_2d(pattern))
    col = {name: i for i, name in enumerate(faulty.outputs)}
    bad_raw = BitSimulator(faulty).run(np.atleast_2d(pattern))
    order = [col[o] if o in col else col["__stuck"] for o in circuit.outputs]
    bad = bad_raw[:, order]
    return bool((good != bad).any())


class TestAgainstBruteForce:
    def test_c17_exhaustive_agreement(self, c17_circuit):
        faults = full_fault_list(c17_circuit)
        pats = exhaustive_patterns(5)
        sim = FaultSimulator(c17_circuit)
        outcome = sim.run(pats, faults)
        for fault in faults:
            expected = any(
                brute_force_detects(c17_circuit, pats[k], fault)
                for k in range(pats.shape[0])
            )
            assert (fault in outcome.detected) == expected, fault

    def test_first_detecting_pattern_index(self, c17_circuit):
        faults = [StuckAtFault("N22", 1)]
        pats = exhaustive_patterns(5)
        sim = FaultSimulator(c17_circuit)
        outcome = sim.run(pats, faults)
        idx = outcome.detected[faults[0]]
        assert brute_force_detects(c17_circuit, pats[idx], faults[0])
        for k in range(idx):
            assert not brute_force_detects(c17_circuit, pats[k], faults[0])


class TestFaultDropping:
    def test_coverage_metric(self, c17_circuit):
        pats = exhaustive_patterns(5)
        cov = fault_coverage(c17_circuit, pats, full_fault_list(c17_circuit))
        assert cov == 1.0  # c17 is fully testable

    def test_zero_patterns(self, c17_circuit):
        sim = FaultSimulator(c17_circuit)
        outcome = sim.run(
            np.zeros((0, 5), dtype=np.uint8), full_fault_list(c17_circuit)
        )
        assert not outcome.detected
        assert outcome.coverage == 0.0


class TestConeRestriction:
    def test_fault_outside_output_cone_never_detected(self):
        c = Circuit("deadend")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("live", GateType.NOT, ("a",))
        c.add_gate("dead", GateType.AND, ("a", "b"))
        c.set_output("live")
        sim = FaultSimulator(c)
        outcome = sim.run(exhaustive_patterns(2), [StuckAtFault("dead", 0)])
        assert not outcome.detected

    def test_multiword_blocks(self, c432_circuit, rng):
        """Detection results identical whether patterns arrive in one call
        or split across block boundaries."""
        faults = full_fault_list(c432_circuit)[:60]
        pats = (rng.random((130, 32)) < 0.5).astype(np.uint8)
        sim = FaultSimulator(c432_circuit)
        whole = set(sim.run(pats, faults).detected)
        first = set(sim.run(pats[:64], faults).detected)
        second = set(sim.run(pats[64:], faults).detected)
        assert whole == first | second


# One PPSFP sweep over one word and one over a second chunk, each with and
# without the no-drop detection matrix.
_SHAPES = pytest.mark.parametrize(
    "n_patterns, words",
    [(3, False), (3, True), (70, False), (70, True)],
    ids=["one-word", "one-word-words", "ppsfp", "ppsfp-words"],
)


class TestTypedInputErrors:
    @_SHAPES
    def test_wrong_pattern_width(self, c17_circuit, n_patterns, words):
        sim = FaultSimulator(c17_circuit)
        pats = np.zeros((n_patterns, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="expected 5 input columns, got 4"):
            sim.run(pats, full_fault_list(c17_circuit), words=words)

    @_SHAPES
    def test_unknown_fault_site(self, c17_circuit, n_patterns, words):
        sim = FaultSimulator(c17_circuit)
        pats = np.zeros((n_patterns, 5), dtype=np.uint8)
        faults = full_fault_list(c17_circuit) + [StuckAtFault("nope", 0)]
        with pytest.raises(NetlistError, match="'nope'"):
            sim.run(pats, faults, words=words)
