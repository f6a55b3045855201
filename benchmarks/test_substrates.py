"""Micro-benchmarks of the substrate layers (throughput-style, many rounds).

These track the performance of the pieces everything else leans on: logic
simulation, fault simulation, PODEM, probability propagation, SCOAP, and the
power model — so a regression in any of them shows up here first.
"""

import numpy as np
import pytest

from repro.atpg import (
    FaultSimulator,
    PodemEngine,
    StuckAtFault,
    collapse_faults,
)
from repro.atpg.testability import compute_testability
from repro.bench import c880_like
from repro.power import analyze, map_circuit
from repro.prob import signal_probabilities, switching_activity
from repro.sim import BitSimulator, SequentialSimulator
from repro.trojan import insert_counter_trojan


@pytest.fixture(scope="module")
def c880():
    return c880_like()


@pytest.fixture(scope="module")
def patterns(c880):
    rng = np.random.default_rng(0)
    return (rng.random((256, len(c880.inputs))) < 0.5).astype(np.uint8)


def test_bench_bitsim_256_vectors(benchmark, c880, patterns):
    sim = BitSimulator(c880)
    out = benchmark(sim.run, patterns)
    assert out.shape == (256, len(c880.outputs))


def test_bench_seqsim_trojaned_circuit(benchmark, patterns):
    infected = c880_like()
    insert_counter_trojan(infected, infected.outputs[0], infected.nets[80], 3)
    sim = SequentialSimulator(infected)
    seqs = patterns[:64][np.newaxis, :, :]

    def run():
        return sim.run_sequences(seqs)

    out = benchmark(run)
    assert out.shape[1] == 64


def test_bench_fault_simulation(benchmark, c880, patterns):
    sim = FaultSimulator(c880)
    faults = collapse_faults(c880)[:200]

    def run():
        return sim.run(patterns[:64], list(faults))

    outcome = benchmark(run)
    assert outcome.detected or outcome.undetected


def test_bench_podem_single_fault(benchmark, c880):
    engine = PodemEngine(c880, backtrack_limit=30)
    fault = StuckAtFault(c880.outputs[0], 0)
    result = benchmark(engine.generate, fault)
    assert result.status is not None


def test_bench_signal_probabilities(benchmark, c880):
    probs = benchmark(signal_probabilities, c880)
    assert len(probs) == len(c880.nets)


def test_bench_switching_activity(benchmark, c880):
    act = benchmark(switching_activity, c880)
    assert len(act) == len(c880.nets)


def test_bench_scoap(benchmark, c880):
    t = benchmark(compute_testability, c880)
    assert len(t.co) == len(c880.nets)


def test_bench_technology_mapping(benchmark, c880, library):
    mapped = benchmark(map_circuit, c880, library)
    assert mapped.cell_count >= c880.num_logic_gates


def test_bench_power_analysis(benchmark, c880, library):
    report = benchmark(analyze, c880, library)
    assert report.total_uw > 0
