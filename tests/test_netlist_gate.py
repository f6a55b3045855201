"""Unit tests for the gate primitives."""

import itertools

import numpy as np
import pytest

from repro.atpg.dcalc import X, evaluate3
from repro.netlist.gate import (
    COMBINATIONAL_TYPES,
    FIXED_ARITY,
    Gate,
    GateType,
    SEQUENTIAL_TYPES,
    VARIADIC_TYPES,
    check_arity,
    evaluate_gate,
)
from repro.prob.gates import TRANSFER
from repro.sim.compiled import GateGroup, _evaluate_group


class TestEvaluateGate:
    @pytest.mark.parametrize(
        "gate_type,inputs,expected",
        [
            (GateType.AND, (1, 1, 1), 1),
            (GateType.AND, (1, 0, 1), 0),
            (GateType.NAND, (1, 1), 0),
            (GateType.NAND, (0, 1), 1),
            (GateType.OR, (0, 0, 0), 0),
            (GateType.OR, (0, 1, 0), 1),
            (GateType.NOR, (0, 0), 1),
            (GateType.NOR, (1, 0), 0),
            (GateType.XOR, (1, 1), 0),
            (GateType.XOR, (1, 0), 1),
            (GateType.XOR, (1, 1, 1), 1),
            (GateType.XNOR, (1, 1), 1),
            (GateType.XNOR, (1, 0), 0),
            (GateType.NOT, (0,), 1),
            (GateType.NOT, (1,), 0),
            (GateType.BUFF, (1,), 1),
            (GateType.BUFF, (0,), 0),
            (GateType.TIE0, (), 0),
            (GateType.TIE1, (), 1),
        ],
    )
    def test_truth_values(self, gate_type, inputs, expected):
        assert evaluate_gate(gate_type, inputs) == expected

    @pytest.mark.parametrize("d0,d1,sel", list(itertools.product((0, 1), repeat=3)))
    def test_mux_full_truth_table(self, d0, d1, sel):
        expected = d1 if sel else d0
        assert evaluate_gate(GateType.MUX, (d0, d1, sel)) == expected

    def test_nand_is_inverted_and(self):
        for bits in itertools.product((0, 1), repeat=3):
            assert evaluate_gate(GateType.NAND, bits) == 1 - evaluate_gate(
                GateType.AND, bits
            )

    def test_xor_parity_semantics(self):
        for bits in itertools.product((0, 1), repeat=4):
            assert evaluate_gate(GateType.XOR, bits) == sum(bits) % 2

    def test_sequential_types_have_no_evaluation(self):
        with pytest.raises(ValueError):
            evaluate_gate(GateType.DFF, (0, 1))

    def test_input_type_has_no_evaluation(self):
        with pytest.raises(ValueError):
            evaluate_gate(GateType.INPUT, ())


class TestArity:
    def test_fixed_arity_enforced(self):
        with pytest.raises(ValueError):
            check_arity(GateType.NOT, 2)
        with pytest.raises(ValueError):
            check_arity(GateType.MUX, 2)
        with pytest.raises(ValueError):
            check_arity(GateType.TIE0, 1)
        check_arity(GateType.NOT, 1)
        check_arity(GateType.MUX, 3)

    def test_variadic_gates_accept_wide_fanin(self):
        for n in (1, 2, 5, 16):
            check_arity(GateType.AND, n)

    def test_variadic_gates_reject_zero_inputs(self):
        with pytest.raises(ValueError):
            check_arity(GateType.AND, 0)

    def test_dff_takes_data_and_clock(self):
        check_arity(GateType.DFF, 2)
        with pytest.raises(ValueError):
            check_arity(GateType.DFF, 1)


class TestGateRecord:
    def test_construction_validates_arity(self):
        with pytest.raises(ValueError):
            Gate("g", GateType.NOT, ("a", "b"))

    def test_inputs_are_normalized_to_tuple(self):
        g = Gate("g", GateType.AND, ["a", "b"])
        assert g.inputs == ("a", "b")

    def test_with_inputs_creates_new_gate(self):
        g = Gate("g", GateType.AND, ("a", "b"))
        g2 = g.with_inputs(("x", "y"))
        assert g2.inputs == ("x", "y")
        assert g.inputs == ("a", "b")
        assert g2.name == "g"

    def test_classification_flags(self):
        assert Gate("i", GateType.INPUT).is_input
        assert Gate("d", GateType.DFF, ("a", "b")).is_sequential
        assert Gate("t", GateType.TIE1).is_constant
        assert not Gate("g", GateType.AND, ("a", "b")).is_sequential

    def test_evaluate_method_matches_function(self):
        g = Gate("g", GateType.NOR, ("a", "b"))
        assert g.evaluate((0, 0)) == 1
        assert g.evaluate((1, 0)) == 0


class TestTypeSets:
    def test_partitions_are_disjoint(self):
        assert not (COMBINATIONAL_TYPES & SEQUENTIAL_TYPES)

    def test_every_type_classified(self):
        for gt in GateType:
            assert (
                gt in COMBINATIONAL_TYPES
                or gt in SEQUENTIAL_TYPES
                or gt is GateType.INPUT
            )

    def test_variadic_subset_of_combinational(self):
        assert VARIADIC_TYPES <= COMBINATIONAL_TYPES

    def test_fixed_arity_values(self):
        assert FIXED_ARITY[GateType.MUX] == 3
        assert FIXED_ARITY[GateType.DFF] == 2
        assert FIXED_ARITY[GateType.TIE0] == 0


def _arities(gate_type):
    if gate_type in FIXED_ARITY:
        return [FIXED_ARITY[gate_type]]
    return [1, 2, 3]


_TYPE_ARITY = [
    (gt, arity)
    for gt in sorted(COMBINATIONAL_TYPES, key=lambda gt: gt.value)
    for arity in _arities(gt)
]


class TestGateFunctionTable:
    """Every evaluator derived from ``GATE_FUNCTION`` agrees on every type."""

    @pytest.mark.parametrize(
        "gate_type,arity", _TYPE_ARITY, ids=[f"{gt}-{n}" for gt, n in _TYPE_ARITY]
    )
    def test_evaluators_agree(self, gate_type, arity):
        binary = list(itertools.product((0, 1), repeat=arity))
        truth = {bits: evaluate_gate(gate_type, bits) for bits in binary}
        for bits, out in truth.items():
            assert evaluate3(gate_type, bits) == out
            assert TRANSFER[gate_type]([float(b) for b in bits]) == float(out)
        # An X input: the output is known iff every completion agrees.
        for values in itertools.product((0, 1, X), repeat=arity):
            outs = {
                truth[bits]
                for bits in binary
                if all(v == X or v == b for v, b in zip(values, bits))
            }
            want = outs.pop() if len(outs) == 1 else X
            assert evaluate3(gate_type, values) == want, values
        if arity:  # TIE rows are constant sources, never a scheduled group
            self._check_group(gate_type, arity, binary, truth)

    @staticmethod
    def _check_group(gate_type, arity, binary, truth):
        # Bit k of input row i holds input i of the k-th binary tuple; rows
        # ``arity`` and ``arity + 1`` receive the gate outputs.
        values = np.zeros((arity + 2, 1), dtype=np.uint64)
        for k, bits in enumerate(binary):
            for i, b in enumerate(bits):
                values[i, 0] |= np.uint64(b << k)
        mask = (1 << len(binary)) - 1
        want = sum(out << k for k, out in enumerate(truth.values()))
        ins = np.arange(arity, dtype=np.intp)
        single = GateGroup(
            1, gate_type, np.array([arity]), ins[None, :], slice(arity, arity + 1)
        )
        _evaluate_group(single, values)
        assert int(values[arity, 0]) & mask == want
        values[arity:] = 0
        outs = np.array([arity, arity + 1], dtype=np.intp)
        multi = GateGroup(1, gate_type, outs, np.stack([ins, ins]), outs)
        _evaluate_group(multi, values)
        assert [int(v) & mask for v in values[arity:, 0]] == [want, want]
