"""The event-driven PODEM engine against the full re-implication oracle.

:class:`repro.atpg.PodemEngine` implies only the fanout of the PIs a step
changed and scans only the fault's cone; :func:`oracles.reference_podem`
re-implies and rescans the whole circuit on every step.  The search order
is the same, so every field of every result must match: status, test
vector, backtracks and decisions.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import reference_podem
from repro.atpg import PodemEngine, StuckAtFault, collapse_faults
from repro.bench import c17, c432_like, c880_like
from repro.bench.generators import Builder, declare_inputs
from repro.netlist import Circuit, GateType
from repro.netlist.transform import strip_dead_logic, tie_net_to_constant
from repro.power.synthesis import optimize_netlist
from repro.sim.compiled import COMPILE_STATS, compile_circuit

BACKTRACK_LIMITS = (0, 20, 50)


def fields(result):
    return (result.status, result.test, result.backtracks, result.decisions)


def assert_matches_oracle(circuit, faults, backtrack_limit):
    engine = PodemEngine(circuit, backtrack_limit)
    for fault in faults:
        got = fields(engine.generate(fault))
        want = fields(reference_podem(circuit, fault, backtrack_limit))
        assert got == want, fault


@pytest.fixture(scope="module")
def baselines():
    """The ``optimize_netlist`` baselines the defender runs ATPG on."""
    return {
        name: optimize_netlist(build())
        for name, build in (("c17", c17), ("c432", c432_like), ("c880", c880_like))
    }


@pytest.mark.parametrize("backtrack_limit", BACKTRACK_LIMITS)
@pytest.mark.parametrize("name", ["c17", "c432", "c880"])
def test_every_collapsed_fault_matches_oracle(baselines, name, backtrack_limit):
    circuit = baselines[name]
    assert_matches_oracle(circuit, collapse_faults(circuit), backtrack_limit)


def test_patched_compile_with_dead_rows_matches_oracle():
    """A tie/strip derivative compiles by patching its ancestor's schedule,
    which keeps rows of the stripped nets; the engine must ignore them."""
    parent = c432_like()
    compile_circuit(parent)
    child = parent.copy()
    victim = next(n for n in parent.internal_nets() if parent.fanout(n))
    tie_net_to_constant(child, victim, 0)
    assert strip_dead_logic(child)
    before = COMPILE_STATS.patched_compiles
    compiled = compile_circuit(child)
    assert COMPILE_STATS.patched_compiles == before + 1
    assert any(not child.has_net(net) for net in compiled.order)
    assert_matches_oracle(child, collapse_faults(child)[::3], 20)


# -- random circuits -------------------------------------------------------

_BLOCKS = {
    "AND": 2, "NAND": 2, "OR": 3, "NOR": 2, "XOR": 2, "XNOR": 3,
    "NOT": 1, "BUFF": 1, "MUX": 3, "xor_nand": 2, "mux2_nand": 3,
    "full_adder": 3, "TIE0": 0, "TIE1": 0,
}


@st.composite
def random_circuits(draw):
    """Combinational circuits from the generator blocks, constants included."""
    circuit = Circuit("gen")
    builder = Builder(circuit)
    nets = declare_inputs(circuit, "x", draw(st.integers(2, 6)))
    for _ in range(draw(st.integers(2, 14))):
        name = draw(st.sampled_from(sorted(_BLOCKS)))
        if name in ("TIE0", "TIE1"):
            nets.append(builder.gate(GateType[name], ()))
            continue
        arity = _BLOCKS[name]
        if arity > len(nets):
            name, arity = "NAND", 2
        picks = draw(
            st.lists(st.integers(0, len(nets) - 1), min_size=arity, max_size=arity, unique=True)
        )
        made = getattr(builder, name)(*[nets[i] for i in picks])
        nets.extend(made if isinstance(made, tuple) else (made,))
    for net in circuit.nets:
        gate = circuit.gate(net)
        if not gate.is_input and not gate.is_constant and not circuit.fanout(net):
            circuit.set_output(net)
    if not circuit.outputs:
        circuit.set_output(nets[-1])
    return circuit


def reconvergent_stems(circuit):
    """Nets with two readers whose fanout cones meet again."""
    stems = []
    for net in circuit.nets:
        readers = circuit.fanout(net)
        cones = [circuit.fanout_cone(r) for r in readers]
        if any(a & b for i, a in enumerate(cones) for b in cones[i + 1 :]):
            stems.append(net)
    return stems


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuit=random_circuits(), backtrack_limit=st.sampled_from([0, 2, 20]))
def test_random_circuits_match_oracle(circuit, backtrack_limit):
    sites = set(circuit.inputs) | set(circuit.outputs) | set(reconvergent_stems(circuit))
    faults = [StuckAtFault(net, value) for net in sorted(sites) for value in (0, 1)]
    assert_matches_oracle(circuit, faults, backtrack_limit)
