"""Property-based tests (hypothesis) over randomly generated circuits.

These pin the core invariants of the library:

* bit-parallel simulation agrees with scalar gate evaluation;
* ``.bench`` serialization round-trips;
* constant folding and synthesis cleanup preserve function;
* fault simulation agrees with a brute-force faulty-copy oracle;
* analytic signal probability is exact on fanout-free circuits and always a
  probability; SCOAP measures are sane;
* the binomial trigger tail is a monotone probability.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg import FaultSimulator, StuckAtFault, collapse_faults, full_fault_list
from repro.atpg.testability import INFINITY, compute_testability
from repro.bench import parse_bench, write_bench
from repro.netlist import (
    Circuit,
    GateType,
    propagate_constants,
    strip_dead_logic,
    tie_net_to_constant,
)
from repro.power import optimize_netlist
from repro.prob import signal_probabilities
from repro.sim import BitSimulator, compare_on_patterns, pack_patterns, unpack_patterns
from repro.trojan import binomial_tail_at_least

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

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_circuits(draw, max_gates=20, fanout_free=False):
    """Random valid combinational circuit."""
    n_inputs = draw(st.integers(min_value=2, max_value=5))
    circuit = Circuit("hyp")
    available = [circuit.add_input(f"i{k}") for k in range(n_inputs)]
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    for g in range(n_gates):
        gate_type = draw(st.sampled_from(_GATE_CHOICES))
        if gate_type in (GateType.NOT, GateType.BUFF):
            arity = 1
        elif gate_type is GateType.MUX:
            arity = 3
        else:
            arity = draw(st.integers(min_value=2, max_value=3))
        if fanout_free and len(available) < arity:
            break
        if fanout_free:
            idx = draw(
                st.lists(
                    st.integers(0, len(available) - 1),
                    min_size=arity,
                    max_size=arity,
                    unique=True,
                )
            )
            inputs = [available[i] for i in idx]
            for i in sorted(idx, reverse=True):
                available.pop(i)
        else:
            inputs = [
                available[draw(st.integers(0, len(available) - 1))]
                for _ in range(arity)
            ]
            if gate_type in (GateType.XOR, GateType.XNOR):
                inputs = list(dict.fromkeys(inputs))  # parity cancels dups
                if len(inputs) < 2:
                    gate_type = GateType.NOT if gate_type is GateType.XNOR else GateType.BUFF
                    inputs = inputs[:1]
        name = f"g{g}"
        circuit.add_gate(name, gate_type, inputs)
        available.append(name)
    # Every sink becomes an output so nothing is trivially dead.
    for net in circuit.nets:
        if not circuit.gate(net).is_input and not circuit.fanout(net):
            circuit.set_output(net)
    if not circuit.outputs:
        circuit.set_output(available[-1])
    return circuit


@st.composite
def circuit_and_patterns(draw, **kwargs):
    circuit = draw(random_circuits(**kwargs))
    n = draw(st.integers(min_value=1, max_value=80))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    patterns = (rng.random((n, len(circuit.inputs))) < 0.5).astype(np.uint8)
    return circuit, patterns


class TestSimulationProperties:
    @_SETTINGS
    @given(circuit_and_patterns())
    def test_bitsim_matches_scalar_evaluation(self, case):
        circuit, patterns = case
        fast = BitSimulator(circuit).run(patterns)
        order = circuit.topological_order()
        for row, out in zip(patterns, fast):
            values = {pi: int(row[i]) for i, pi in enumerate(circuit.inputs)}
            for net in order:
                gate = circuit.gate(net)
                if gate.is_input:
                    continue
                values[net] = gate.evaluate([values[s] for s in gate.inputs])
            assert list(out) == [values[o] for o in circuit.outputs]

    @_SETTINGS
    @given(
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=1, max_value=8),
        st.integers(0, 2**31),
    )
    def test_pack_unpack_roundtrip(self, n_patterns, n_signals, seed):
        rng = np.random.default_rng(seed)
        pats = (rng.random((n_patterns, n_signals)) < 0.5).astype(np.uint8)
        assert (unpack_patterns(pack_patterns(pats), n_patterns) == pats).all()


class TestSerializationProperties:
    @_SETTINGS
    @given(circuit_and_patterns())
    def test_bench_roundtrip_equivalent(self, case):
        circuit, patterns = case
        rebuilt = parse_bench(write_bench(circuit), name="rt")
        assert compare_on_patterns(circuit, rebuilt, patterns).equivalent


class TestTransformProperties:
    @_SETTINGS
    @given(circuit_and_patterns(), st.integers(0, 2**31))
    def test_constant_fold_preserves_function(self, case, seed):
        circuit, patterns = case
        rng = np.random.default_rng(seed)
        internal = [g.name for g in circuit.logic_gates()]
        victim = internal[rng.integers(len(internal))]
        value = int(rng.integers(2))
        tied = circuit.copy("tied")
        tie_net_to_constant(tied, victim, value)
        folded = tied.copy("folded")
        propagate_constants(folded)
        strip_dead_logic(folded)
        assert compare_on_patterns(tied, folded, patterns).equivalent

    @_SETTINGS
    @given(circuit_and_patterns())
    def test_optimize_netlist_preserves_function(self, case):
        circuit, patterns = case
        optimized = optimize_netlist(circuit)
        assert compare_on_patterns(circuit, optimized, patterns).equivalent

    @_SETTINGS
    @given(circuit_and_patterns())
    def test_strip_dead_logic_never_touches_live_outputs(self, case):
        circuit, patterns = case
        before = BitSimulator(circuit).run(patterns)
        stripped = circuit.copy("stripped")
        strip_dead_logic(stripped)
        after = BitSimulator(stripped).run(patterns)
        assert (before == after).all()


class TestFaultSimProperties:
    @_SETTINGS
    @given(circuit_and_patterns(max_gates=12), st.integers(0, 2**31))
    def test_fault_sim_matches_faulty_copy(self, case, seed):
        circuit, patterns = case
        rng = np.random.default_rng(seed)
        internal = [g.name for g in circuit.logic_gates()]
        victim = internal[rng.integers(len(internal))]
        fault = StuckAtFault(victim, int(rng.integers(2)))
        outcome = FaultSimulator(circuit).run(patterns, [fault])
        faulty = circuit.copy("faulty")
        tie_net_to_constant(faulty, fault.net, fault.value)
        differs = not compare_on_patterns(circuit, faulty, patterns).equivalent
        assert (fault in outcome.detected) == differs


class TestProbabilityProperties:
    @_SETTINGS
    @given(random_circuits())
    def test_probabilities_are_probabilities(self, circuit):
        probs = signal_probabilities(circuit)
        assert all(0.0 <= p <= 1.0 for p in probs.values())

    @_SETTINGS
    @given(random_circuits(max_gates=8, fanout_free=True))
    def test_exact_on_fanout_free_circuits(self, circuit):
        if len(circuit.inputs) > 10:
            return
        probs = signal_probabilities(circuit)
        from repro.sim import exhaustive_patterns

        values = BitSimulator(circuit).run_full(
            exhaustive_patterns(len(circuit.inputs))
        )
        for net, p in probs.items():
            assert p == pytest.approx(values[net].mean(), abs=1e-9), net


class TestTestabilityProperties:
    @_SETTINGS
    @given(random_circuits())
    def test_scoap_measures_sane(self, circuit):
        t = compute_testability(circuit)
        for net in circuit.nets:
            gate = circuit.gate(net)
            if gate.is_input:
                assert t.cc0[net] == 1 and t.cc1[net] == 1
            elif not gate.is_constant:
                assert t.cc0[net] >= 1 or t.cc0[net] >= INFINITY
                assert t.cc1[net] >= 1 or t.cc1[net] >= INFINITY
        for po in circuit.outputs:
            assert t.co[po] == 0

    @_SETTINGS
    @given(random_circuits(max_gates=10))
    def test_collapse_is_a_partition(self, circuit):
        collapsed = collapse_faults(circuit)
        raw = full_fault_list(circuit)
        assert len(collapsed) <= len(raw)
        assert len(set(collapsed)) == len(collapsed)


class TestTriggerMathProperties:
    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=400),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=40),
    )
    def test_binomial_tail_is_probability(self, n, p, k):
        tail = binomial_tail_at_least(n, p, k)
        assert 0.0 <= tail <= 1.0

    @_SETTINGS
    @given(
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=0.001, max_value=0.999),
    )
    def test_binomial_tail_monotone_in_k(self, n, p):
        tails = [binomial_tail_at_least(n, p, k) for k in range(0, min(n, 12))]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
