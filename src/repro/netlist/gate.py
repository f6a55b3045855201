"""Gate-level primitives: gate types, logic evaluation, and the Gate record.

The gate vocabulary follows the ISCAS85 ``.bench`` format (AND, NAND, OR, NOR,
XOR, XNOR, NOT, BUFF) extended with the cells TrojanZero needs for Trojan
insertion: constants (TIE0/TIE1), 2:1 multiplexers (MUX), and D flip-flops
(DFF) for the asynchronous counter trigger of Fig. 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple


class GateType(enum.Enum):
    """Primitive gate/cell types understood by every layer of the library."""

    INPUT = "INPUT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUFF = "BUFF"
    MUX = "MUX"  # inputs: (d0, d1, select)
    TIE0 = "TIE0"
    TIE1 = "TIE1"
    DFF = "DFF"  # inputs: (d, clk); output toggles state on rising clk edge

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class BaseOp(enum.Enum):
    """The uninverted core function of a combinational gate type."""

    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    BUF = "BUF"  # the single input
    MUX = "MUX"  # inputs: (d0, d1, select)
    ZERO = "ZERO"  # constant 0, no inputs


#: The one gate-semantics table: ``GateType -> (base op, inverted)``.  Every
#: evaluator (scalar, three-valued, bit-parallel, probabilistic) implements
#: the six base ops and applies the inversion, so a type's meaning lives here
#: and nowhere else.  INPUT and DFF have no combinational function.
GATE_FUNCTION: Dict[GateType, Tuple[BaseOp, bool]] = {
    GateType.AND: (BaseOp.AND, False),
    GateType.NAND: (BaseOp.AND, True),
    GateType.OR: (BaseOp.OR, False),
    GateType.NOR: (BaseOp.OR, True),
    GateType.XOR: (BaseOp.XOR, False),
    GateType.XNOR: (BaseOp.XOR, True),
    GateType.BUFF: (BaseOp.BUF, False),
    GateType.NOT: (BaseOp.BUF, True),
    GateType.MUX: (BaseOp.MUX, False),
    GateType.TIE0: (BaseOp.ZERO, False),
    GateType.TIE1: (BaseOp.ZERO, True),
}


#: Gate types whose output is a pure function of current inputs.
COMBINATIONAL_TYPES = frozenset(GATE_FUNCTION)

#: Gate types that hold state.
SEQUENTIAL_TYPES = frozenset({GateType.DFF})

#: Gate types that accept an arbitrary number (>= 2) of inputs.
VARIADIC_TYPES = frozenset(
    gate_type
    for gate_type, (op, _) in GATE_FUNCTION.items()
    if op in (BaseOp.AND, BaseOp.OR, BaseOp.XOR)
)

#: Exact input arity for the fixed-arity types.
FIXED_ARITY: Dict[GateType, int] = {
    GateType.INPUT: 0,
    GateType.NOT: 1,
    GateType.BUFF: 1,
    GateType.MUX: 3,
    GateType.TIE0: 0,
    GateType.TIE1: 0,
    GateType.DFF: 2,
}


def derive_evaluators(
    base: Dict[BaseOp, Callable], invert: Callable
) -> Dict[GateType, Callable]:
    """Per-type evaluators from per-base-op kernels and one inversion.

    ``base[op]`` maps a gate's input sequence to the uninverted output;
    ``invert`` maps an output to its complement in the caller's domain.
    """

    def inverted(fn: Callable) -> Callable:
        return lambda inputs: invert(fn(inputs))

    return {
        gate_type: inverted(base[op]) if inv else base[op]
        for gate_type, (op, inv) in GATE_FUNCTION.items()
    }


def _eval_and(bits: Sequence[int]) -> int:
    out = 1
    for b in bits:
        out &= b
    return out


def _eval_or(bits: Sequence[int]) -> int:
    out = 0
    for b in bits:
        out |= b
    return out


def _eval_xor(bits: Sequence[int]) -> int:
    out = 0
    for b in bits:
        out ^= b
    return out


#: Scalar (single-bit) evaluation; values are plain ints 0/1.
_SCALAR = derive_evaluators(
    {
        BaseOp.AND: _eval_and,
        BaseOp.OR: _eval_or,
        BaseOp.XOR: _eval_xor,
        BaseOp.BUF: lambda bits: bits[0],
        BaseOp.MUX: lambda bits: bits[1] if bits[2] else bits[0],
        BaseOp.ZERO: lambda bits: 0,
    },
    lambda bit: 1 - bit,
)


def evaluate_gate(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate a combinational gate on scalar 0/1 inputs.

    Raises ``ValueError`` for sequential or INPUT types, which have no
    combinational function.
    """
    try:
        fn = _SCALAR[gate_type]
    except KeyError:
        raise ValueError(f"{gate_type} has no combinational evaluation") from None
    return fn(inputs)


def check_arity(gate_type: GateType, n_inputs: int) -> None:
    """Raise ``ValueError`` if ``n_inputs`` is illegal for ``gate_type``."""
    if gate_type in FIXED_ARITY:
        expected = FIXED_ARITY[gate_type]
        if n_inputs != expected:
            raise ValueError(
                f"{gate_type} requires exactly {expected} input(s), got {n_inputs}"
            )
    elif gate_type in VARIADIC_TYPES:
        if n_inputs < 1:
            raise ValueError(f"{gate_type} requires at least 1 input, got {n_inputs}")
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown gate type {gate_type}")


@dataclass
class Gate:
    """One gate instance: a named output net driven by ``gate_type`` over ``inputs``.

    The gate's name doubles as the name of the net it drives (standard for
    ISCAS-style netlists, where every net has exactly one driver).
    """

    name: str
    gate_type: GateType
    inputs: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        check_arity(self.gate_type, len(self.inputs))

    @property
    def is_sequential(self) -> bool:
        return self.gate_type in SEQUENTIAL_TYPES

    @property
    def is_input(self) -> bool:
        return self.gate_type is GateType.INPUT

    @property
    def is_constant(self) -> bool:
        return self.gate_type in (GateType.TIE0, GateType.TIE1)

    def evaluate(self, input_values: Sequence[int]) -> int:
        """Scalar combinational evaluation (see :func:`evaluate_gate`)."""
        return evaluate_gate(self.gate_type, input_values)

    def with_inputs(self, new_inputs: Sequence[str]) -> "Gate":
        """Return a copy of this gate reading from ``new_inputs``."""
        return Gate(self.name, self.gate_type, tuple(new_inputs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(self.inputs)
        return f"{self.name} = {self.gate_type}({args})"
