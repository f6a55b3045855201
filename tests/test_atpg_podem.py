"""Unit tests for PODEM: completeness on c17, validity, redundancy, aborts."""

import numpy as np
import pytest

from repro.atpg import (
    FaultSimulator,
    PodemEngine,
    PodemStatus,
    StuckAtFault,
    collapse_faults,
    full_fault_list,
    generate_test,
)
from repro.netlist import Circuit, GateType, NetlistError


class TestPodemOnC17:
    def test_every_fault_testable_and_test_valid(self, c17_circuit):
        """c17 is fully testable; each PODEM vector must really detect."""
        engine = PodemEngine(c17_circuit, backtrack_limit=100)
        simulator = FaultSimulator(c17_circuit)
        for fault in full_fault_list(c17_circuit):
            result = engine.generate(fault)
            assert result.status is PodemStatus.DETECTED, fault
            vector = np.array(
                [[result.test[pi] for pi in c17_circuit.inputs]], dtype=np.uint8
            )
            assert simulator.detects(vector, fault), fault

    def test_collapsed_list_also_covered(self, c17_circuit):
        engine = PodemEngine(c17_circuit)
        for fault in collapse_faults(c17_circuit):
            assert engine.generate(fault).detected


class TestRedundantFaults:
    def test_redundant_fault_untestable(self):
        """out = OR(a, AND(a, b)) absorbs: the AND output sa0 is redundant."""
        c = Circuit("redundant")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("m", GateType.AND, ("a", "b"))
        c.add_gate("out", GateType.OR, ("a", "m"))
        c.set_output("out")
        result = generate_test(c, StuckAtFault("m", 0), backtrack_limit=200)
        assert result.status is PodemStatus.UNTESTABLE

    def test_constant_fed_fault_untestable(self):
        c = Circuit("tied")
        c.add_input("a")
        c.add_gate("one", GateType.TIE1, ())
        c.add_gate("out", GateType.AND, ("a", "one"))
        c.set_output("out")
        # 'one' stuck-at-1 is the existing value: unexcitable.
        result = generate_test(c, StuckAtFault("one", 1))
        assert result.status is PodemStatus.UNTESTABLE

    def test_unobservable_fault_untestable(self):
        c = Circuit("unobs")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("dead", GateType.AND, ("a", "b"))
        c.add_gate("out", GateType.NOT, ("a",))
        c.add_gate("sink", GateType.BUFF, ("dead",))
        c.set_output("out")
        result = generate_test(c, StuckAtFault("dead", 0))
        assert result.status is PodemStatus.UNTESTABLE


class TestBacktrackLimit:
    def test_zero_budget_aborts_conflicted_faults(self):
        """A fault needing backtracks aborts under a zero budget.

        out = AND(XOR(a,b), XNOR(a,b)) is constant 0; exciting it to 1 forces
        contradictory requirements, so the search must backtrack (and with
        limit 0, abort rather than prove redundancy).
        """
        c = Circuit("conflict")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("x1", GateType.XOR, ("a", "b"))
        c.add_gate("x2", GateType.XNOR, ("a", "b"))
        c.add_gate("out", GateType.AND, ("x1", "x2"))
        c.set_output("out")
        result = generate_test(c, StuckAtFault("out", 0), backtrack_limit=0)
        assert result.status is PodemStatus.ABORTED
        # With budget the same fault is proven untestable.
        result = generate_test(c, StuckAtFault("out", 0), backtrack_limit=50)
        assert result.status is PodemStatus.UNTESTABLE

    def test_backtracks_counted(self, c17_circuit):
        engine = PodemEngine(c17_circuit, backtrack_limit=100)
        results = [engine.generate(f) for f in full_fault_list(c17_circuit)]
        assert all(r.backtracks <= 100 for r in results)


class TestPodemValidity:
    def test_test_vector_complete(self, c17_circuit):
        result = generate_test(c17_circuit, StuckAtFault("N22", 1))
        assert result.detected
        assert set(result.test) == set(c17_circuit.inputs)
        assert all(v in (0, 1) for v in result.test.values())

    def test_sequential_rejected(self):
        c = Circuit()
        c.add_input("clk")
        c.add_gate("q", GateType.DFF, ("qn", "clk"))
        c.add_gate("qn", GateType.NOT, ("q",))
        c.set_output("q")
        with pytest.raises(NetlistError, match="combinational"):
            PodemEngine(c)

    def test_unknown_fault_site_rejected(self, c17_circuit):
        engine = PodemEngine(c17_circuit)
        with pytest.raises(NetlistError, match="'nope'"):
            engine.generate(StuckAtFault("nope", 0))

    def test_rare_excitation_found_on_wide_and(self, rare_node_circuit):
        """PODEM (unlike random testing) excites a 2^-8 node directly."""
        result = generate_test(rare_node_circuit, StuckAtFault("rare", 0))
        assert result.detected
        assert all(result.test[f"a{i}"] == 1 for i in range(8))
        # Observability through OR requires b = 0.
        assert result.test["b"] == 0

    def test_validity_on_benchmark_sample(self, c432_circuit, rng):
        """On a real-size circuit every claimed detection must be genuine."""
        engine = PodemEngine(c432_circuit, backtrack_limit=30)
        simulator = FaultSimulator(c432_circuit)
        faults = collapse_faults(c432_circuit)
        sample_idx = rng.choice(len(faults), size=40, replace=False)
        for idx in sample_idx:
            fault = faults[int(idx)]
            result = engine.generate(fault)
            if result.status is PodemStatus.DETECTED:
                vector = np.array(
                    [[result.test[pi] for pi in c432_circuit.inputs]], dtype=np.uint8
                )
                assert simulator.detects(vector, fault), fault
