"""Three-valued logic kernel for the D-calculus.

PODEM tracks two parallel planes — the *good* circuit and the *faulty*
circuit — each in three-valued logic {0, 1, X}.  The classic five D-calculus
symbols fall out of the pair: D = (good 1, faulty 0), D̄ = (0, 1), and 0/1/X
when the planes agree.

Values are plain ints: 0, 1, and :data:`X` (= 2).
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..netlist.gate import GATE_FUNCTION, BaseOp, GateType, derive_evaluators

#: The unknown value.
X = 2


def v_and(values: Sequence[int]) -> int:
    """3-valued AND: 0 dominates, then X, else 1."""
    saw_x = False
    for v in values:
        if v == 0:
            return 0
        if v == X:
            saw_x = True
    return X if saw_x else 1


def v_or(values: Sequence[int]) -> int:
    """3-valued OR: 1 dominates, then X, else 0."""
    saw_x = False
    for v in values:
        if v == 1:
            return 1
        if v == X:
            saw_x = True
    return X if saw_x else 0


def v_xor(values: Sequence[int]) -> int:
    """3-valued XOR: any X poisons the parity."""
    acc = 0
    for v in values:
        if v == X:
            return X
        acc ^= v
    return acc


def v_not(value: int) -> int:
    if value == X:
        return X
    return 1 - value


def v_mux(d0: int, d1: int, sel: int) -> int:
    if sel == 0:
        return d0
    if sel == 1:
        return d1
    if d0 == d1 and d0 != X:
        return d0
    return X


_EVAL3 = derive_evaluators(
    {
        BaseOp.AND: v_and,
        BaseOp.OR: v_or,
        BaseOp.XOR: v_xor,
        BaseOp.BUF: lambda values: values[0],
        BaseOp.MUX: lambda values: v_mux(values[0], values[1], values[2]),
        BaseOp.ZERO: lambda values: 0,
    },
    v_not,
)


def evaluate3(gate_type: GateType, inputs: Sequence[int]) -> int:
    """3-valued evaluation of any combinational gate type."""
    try:
        fn = _EVAL3[gate_type]
    except KeyError:
        raise ValueError(f"cannot evaluate {gate_type} in 3-valued logic") from None
    return fn(inputs)


#: Does the gate invert its base AND/OR/XOR/BUF/MUX function?
INVERTS: Dict[GateType, bool] = {
    gate_type: inverted for gate_type, (_, inverted) in GATE_FUNCTION.items()
}

#: Controlling input value of the AND- and OR-based types (others have none).
CONTROLLING_VALUE: Dict[GateType, int] = {
    gate_type: 0 if op is BaseOp.AND else 1
    for gate_type, (op, _) in GATE_FUNCTION.items()
    if op in (BaseOp.AND, BaseOp.OR)
}


def d_symbol(good: int, faulty: int) -> str:
    """Render a (good, faulty) pair as the classic five-valued symbol."""
    if good == X or faulty == X:
        return "X"
    if good == faulty:
        return str(good)
    return "D" if good == 1 else "D'"
