"""Per-gate-type signal-probability transfer functions.

This is the paper's "gate library": *"we develop a library comprising of
basic and complex gates. Each gate computes the probabilities (Pg=0, Pg=1) at
its output node based on the probabilities of signals at its inputs"*
(Sec. II-B.2).  Inputs are assumed statistically independent — the standard
assumption in signal-probability analysis, also made by the paper; the
Monte-Carlo estimator in :mod:`repro.prob.montecarlo` quantifies the error
this introduces on reconvergent circuits.

All functions take/return P(signal = 1); P(= 0) is the complement.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..netlist.gate import BaseOp, GateType, derive_evaluators


def p_and(p_inputs: Sequence[float]) -> float:
    """P(AND = 1) = product of input one-probabilities."""
    out = 1.0
    for p in p_inputs:
        out *= p
    return out


def p_or(p_inputs: Sequence[float]) -> float:
    """P(OR = 1) = 1 - product of input zero-probabilities."""
    out = 1.0
    for p in p_inputs:
        out *= 1.0 - p
    return 1.0 - out


def p_xor(p_inputs: Sequence[float]) -> float:
    """P(XOR = 1) via the parity recurrence p' = p + q - 2 p q."""
    out = 0.0
    for p in p_inputs:
        out = out + p - 2.0 * out * p
    return out


def p_mux(p_inputs: Sequence[float]) -> float:
    """P(MUX = 1) = (1 - Ps) Pd0 + Ps Pd1 for inputs (d0, d1, select)."""
    d0, d1, sel = p_inputs
    return (1.0 - sel) * d0 + sel * d1


#: Per-type transfer functions, derived from the gate-semantics table.
TRANSFER: Dict[GateType, Callable[[Sequence[float]], float]] = derive_evaluators(
    {
        BaseOp.AND: p_and,
        BaseOp.OR: p_or,
        BaseOp.XOR: p_xor,
        BaseOp.BUF: lambda ps: ps[0],
        BaseOp.MUX: p_mux,
        BaseOp.ZERO: lambda ps: 0.0,
    },
    lambda p: 1.0 - p,
)


def gate_output_probability(gate_type: GateType, p_inputs: Sequence[float]) -> float:
    """P(output = 1) for ``gate_type`` under input independence.

    DFF outputs are handled by the caller (steady-state pass-through of the
    ``d`` probability), because they need circuit context.
    """
    try:
        fn = TRANSFER[gate_type]
    except KeyError:
        raise ValueError(f"no probability transfer function for {gate_type}") from None
    p = fn(p_inputs)
    # Clamp tiny floating excursions so downstream thresholds are robust.
    if p < 0.0:
        return 0.0
    if p > 1.0:
        return 1.0
    return p
