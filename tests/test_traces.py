"""Tests for the side-channel trace lab (`repro.traces`).

Covers the toggle kernel shared with Monte-Carlo toggle rates, the
trace-vs-aggregate-power energy consistency invariant, noise-model
determinism, detector calibration/verdicts, the evasion harness, and
serial-vs-parallel campaign payload parity with the ``traces`` suite.
"""

import numpy as np
import pytest

from oracles import ReferenceSequentialSimulator
from repro.api import ExperimentSpec, load_records, run_campaign, run_experiment
from repro.bench import c17, c432_like, c499_like
from repro.power import analyze, switching_energy_fj, tech65_library
from repro.prob.montecarlo import mc_toggle_rates
from repro.sim.bitsim import BitSimulator, toggle_matrix
from repro.sim.seqsim import SequentialSimulator
from repro.traces import (
    CorrTraceDetector,
    DomTraceDetector,
    GaussianNoise,
    Jitter,
    NoiseChain,
    ProcessVariation,
    Quantization,
    TraceGenerator,
    TraceLabConfig,
    TvlaTraceDetector,
    leakage_assessment,
    trace_evasion_experiment,
    welch_t_statistic,
)
from repro.trojan import insert_counter_trojan


@pytest.fixture(scope="module")
def library():
    return tech65_library()


def random_sequence(circuit, n_vectors, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((n_vectors, len(circuit.inputs))) < 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# toggle kernel
# ---------------------------------------------------------------------------
class TestToggleKernel:
    def test_matches_naive_comparison(self):
        rng = np.random.default_rng(3)
        bits = (rng.random((50, 7)) < 0.5).astype(np.uint8)
        want = (bits[1:] != bits[:-1]).astype(np.uint8)
        assert (toggle_matrix(bits, axis=0) == want).all()

    def test_axis_selection(self):
        rng = np.random.default_rng(4)
        bits = (rng.random((3, 20, 5)) < 0.5).astype(np.uint8)
        got = toggle_matrix(bits, axis=1)
        want = (bits[:, 1:, :] != bits[:, :-1, :]).astype(np.uint8)
        assert got.shape == (3, 19, 5)
        assert (got == want).all()

    def test_mc_toggle_rates_match_per_net_reference(self):
        # The batched kernel must reproduce the per-net loop it replaced.
        circuit = c17()
        n = 512
        rates = mc_toggle_rates(circuit, n, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        sequence = (rng.random((n, len(circuit.inputs))) < 0.5).astype(np.uint8)
        values = BitSimulator(circuit).run_full(sequence)
        for net, bits in values.items():
            want = float(np.mean(bits[1:] != bits[:-1]))
            assert rates[net].value == pytest.approx(want, abs=0.0)

    def test_mc_toggle_rates_sequential_circuit(self):
        circuit = c17()
        insert_counter_trojan(circuit, "N22", "N10", n_bits=2)
        rates = mc_toggle_rates(circuit, 256, np.random.default_rng(2))
        assert set(rates) == set(circuit.nets)
        assert all(0.0 <= e.value <= 1.0 for e in rates.values())


# ---------------------------------------------------------------------------
# trace generation
# ---------------------------------------------------------------------------
class TestTraceGenerator:
    def test_combinational_trace_consistent_with_analyze(self, library):
        """Mean per-cycle trace energy == dynamic power / frequency, exactly
        (same sequence, same toggle kernel, same per-net energy table)."""
        circuit = c499_like()
        n = 2048
        gen = TraceGenerator(circuit, library)
        trace = gen.pattern_pair_trace(random_sequence(circuit, n, seed=11))
        rates = mc_toggle_rates(circuit, n, np.random.default_rng(11))
        activity = {net: est.value for net, est in rates.items()}
        report = analyze(circuit, library, activity=activity)
        got_uw = float(trace.mean()) * library.params.frequency_hz * 1e-9
        assert got_uw == pytest.approx(report.dynamic_uw, rel=1e-9)

    def test_sequential_trace_consistent_with_analyze(self, library):
        """Same invariant on a DFF-bearing (Trojan-infected) circuit."""
        circuit = c432_like()
        insert_counter_trojan(
            circuit, victim=circuit.outputs[0],
            clock_source=circuit.internal_nets()[10], n_bits=3,
        )
        n = 2048
        gen = TraceGenerator(circuit, library)
        trace = gen.generate(random_sequence(circuit, n, seed=7)[np.newaxis])[0]
        rates = mc_toggle_rates(circuit, n, np.random.default_rng(7))
        activity = {net: est.value for net, est in rates.items()}
        report = analyze(circuit, library, activity=activity)
        got_uw = float(trace.mean()) * library.params.frequency_hz * 1e-9
        assert got_uw == pytest.approx(report.dynamic_uw, rel=1e-9)

    def test_trace_shapes(self, library):
        circuit = c17()
        gen = TraceGenerator(circuit, library)
        seqs = np.stack([random_sequence(circuit, 9, seed=s) for s in range(4)])
        traces = gen.generate(seqs)
        assert traces.shape == (4, 8)
        assert (traces >= 0.0).all()
        batch = gen.batch(seqs)
        assert batch.n_traces == 4 and batch.n_cycles == 8
        assert batch.nets_watched == len(circuit.nets)

    def test_cone_restriction_is_partial_sum(self, library):
        circuit = c17()
        full = TraceGenerator(circuit, library)
        cone = TraceGenerator(circuit, library, cone_roots=["N10"])
        assert set(cone.nets) < set(full.nets)
        seqs = random_sequence(circuit, 32, seed=1)[np.newaxis]
        t_full = full.generate(seqs)
        t_cone = cone.generate(seqs)
        assert (t_cone <= t_full + 1e-9).all()

    def test_energies_match_power_model(self, library):
        circuit = c17()
        gen = TraceGenerator(circuit, library)
        table = switching_energy_fj(circuit, library)
        for net, e in zip(gen.nets, gen.energies_fj):
            assert e == table[net]

    def test_chip_weights_deterministic_and_clipped(self, library):
        from repro.detect import VariationModel

        gen = TraceGenerator(c17(), library)
        model = VariationModel(dynamic_sigma=0.5)  # large: exercise the clip
        w1 = gen.chip_weights(model, np.random.default_rng(5))
        w2 = gen.chip_weights(model, np.random.default_rng(5))
        assert (w1 == w2).all()
        ratio = w1 / gen.energies_fj
        assert (ratio >= 0.5 - 1e-12).all() and (ratio <= 1.5 + 1e-12).all()


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------
class TestNoiseModels:
    @pytest.fixture()
    def traces(self):
        rng = np.random.default_rng(0)
        return 100.0 + rng.random((6, 40)) * 10.0

    def test_noise_deterministic_per_seed(self, traces):
        chain = NoiseChain(
            (GaussianNoise(sigma_fj=1.0), Jitter(1), Quantization(bits=10, full_scale_fj=150.0))
        )
        a = chain.apply(traces, np.random.default_rng(42))
        b = chain.apply(traces, np.random.default_rng(42))
        c = chain.apply(traces, np.random.default_rng(43))
        assert (a == b).all()
        assert not (a == c).all()

    def test_gaussian_noise_perturbs(self, traces):
        noisy = GaussianNoise(sigma_fj=1.0).apply(traces, np.random.default_rng(1))
        assert noisy.shape == traces.shape
        assert not np.allclose(noisy, traces)
        # Zero-noise chain is the identity (fresh array, same values).
        clean = GaussianNoise().apply(traces, np.random.default_rng(1))
        assert (clean == traces).all() and clean is not traces

    def test_process_variation_gain_is_chipwide(self, traces):
        model = ProcessVariation()
        out = model.apply(traces, np.random.default_rng(2))
        # One multiplicative gain per acquisition: the ratio field is nearly
        # constant (up to the small per-sample measurement noise).
        ratio = out / traces
        assert ratio.std() < 0.02
        assert abs(ratio.mean() - 1.0) < 0.2

    def test_quantization_snaps_to_grid(self, traces):
        q = Quantization(bits=6, full_scale_fj=128.0)
        out = q.apply(traces, np.random.default_rng(3))
        lsb = 128.0 / 63.0
        steps = out / lsb
        assert np.allclose(steps, np.round(steps))
        assert out.max() <= 128.0 + 1e-9

    def test_jitter_rolls_rows(self, traces):
        out = Jitter(max_shift_cycles=2).apply(traces, np.random.default_rng(4))
        for row_in, row_out in zip(traces, out):
            assert sorted(row_in) == pytest.approx(sorted(row_out))
            shifts = [
                s for s in range(-2, 3)
                if np.allclose(np.roll(row_in, s), row_out)
            ]
            assert shifts, "row was not a bounded circular shift"


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------
#: Shared nominal trace: every synthetic population measures the same
#: "device design" plus white noise, differing only by the injected shift.
_BASE_TRACE = 50.0 + 5.0 * np.random.default_rng(99).random(64)


def _null_sets(n_sets, n_traces=8, seed=0, shift=0.0, shift_mask=None):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n_sets):
        s = _BASE_TRACE + rng.normal(0.0, 1.0, size=(n_traces, _BASE_TRACE.size))
        if shift and shift_mask is not None:
            s = s + shift * shift_mask[np.newaxis, :]
        sets.append(s)
    return sets


class TestDetectors:
    def test_welch_t_zero_for_identical_means(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, (200, 16))
        b = rng.normal(0, 1, (200, 16))
        t = welch_t_statistic(a, b)
        assert np.abs(t).max() < 5.0

    def test_welch_t_detects_shift(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, (200, 16))
        b = rng.normal(0, 1, (200, 16))
        b[:, 3] += 2.0
        assessment = leakage_assessment(a, b)
        assert assessment.leaks
        assert assessment.n_leaky_cycles >= 1
        t = welch_t_statistic(a, b)
        assert int(np.argmax(np.abs(t))) == 3

    def test_tvla_detector_flags_shifted_population(self):
        golden = _null_sets(12, seed=3)
        mask = np.zeros(64)
        mask[10:14] = 1.0
        bad = _null_sets(6, seed=4, shift=3.0, shift_mask=mask)
        clean = _null_sets(6, seed=5)
        det = TvlaTraceDetector()
        det.calibrate(golden)
        assert det.detection_rate(bad) == 1.0
        assert det.detection_rate(clean) <= 0.2
        assert det.assessment(bad[0]).leaks

    def test_tvla_requires_golden_population(self):
        det = TvlaTraceDetector()
        with pytest.raises(ValueError, match="golden"):
            det.calibrate(_null_sets(3))
        with pytest.raises(RuntimeError, match="calibrate"):
            det.statistic(np.zeros((4, 8)))

    @pytest.mark.parametrize("cls", [DomTraceDetector, CorrTraceDetector])
    def test_keyed_detectors_catch_correlated_injection(self, cls):
        mask = np.zeros(64)
        mask[::8] = 1.0  # hypothesized trigger fires at every 8th sample
        activity = np.stack([mask, np.roll(mask, 3)])
        golden = _null_sets(12, seed=6)
        infected = [s + 4.0 * mask[np.newaxis, :] for s in _null_sets(6, seed=7)]
        clean = _null_sets(6, seed=8)
        det = cls(activity=activity)
        det.calibrate(golden)
        assert det.detection_rate(infected) == 1.0
        assert det.detection_rate(clean) <= 0.2

    def test_keyed_detector_requires_activity(self):
        det = DomTraceDetector()
        with pytest.raises(ValueError, match="activity"):
            det.calibrate(_null_sets(8))


# ---------------------------------------------------------------------------
# evasion harness
# ---------------------------------------------------------------------------
class TestTraceEvasion:
    @pytest.fixture(scope="class")
    def experiment(self):
        library = tech65_library()
        golden = c432_like()
        infected = golden.copy(f"{golden.name}_tz")
        rare = infected.internal_nets()[40]
        insert_counter_trojan(
            infected, victim=infected.outputs[0], clock_source=rare, n_bits=2
        )
        config = TraceLabConfig(n_sequences=12, n_vectors=17, n_repeats=4)
        report = trace_evasion_experiment(
            golden, infected, library, n_chips=10, seed=21, config=config
        )
        return golden, infected, library, config, report

    def test_verdict_schema(self, experiment):
        *_, report = experiment
        for rates in (report.golden_rates, report.additive_rates, report.trojanzero_rates):
            assert set(rates) == {"tvla", "dom", "corr"}
            assert all(0.0 <= r <= 1.0 for r in rates.values())
        assert report.additive_overhead_pct > 0
        assert isinstance(report.trojanzero_evades(), bool)

    def test_additive_ht_is_caught(self, experiment):
        *_, report = experiment
        assert report.additive_detected()

    def test_golden_rarely_flagged(self, experiment):
        *_, report = experiment
        assert all(rate <= 0.34 for rate in report.golden_rates.values())

    def test_diagnostics_populated(self, experiment):
        *_, config, report = experiment
        diag = report.trace_diagnostics
        assert diag["config"]["n_sequences"] == config.n_sequences
        assert diag["nets_watched"]["trojanzero"] > diag["nets_watched"]["golden"]
        assert set(diag["max_statistic"]) == {"golden", "additive", "trojanzero"}
        assert diag["hypothesis_nets"]

    def test_same_seed_is_bit_identical(self, experiment):
        golden, infected, library, config, report = experiment
        again = trace_evasion_experiment(
            golden, infected, library, n_chips=10, seed=21, config=config
        )
        assert again.golden_rates == report.golden_rates
        assert again.additive_rates == report.additive_rates
        assert again.trojanzero_rates == report.trojanzero_rates
        d1, d2 = report.trace_diagnostics, again.trace_diagnostics
        assert d1["max_statistic"] == d2["max_statistic"]
        assert d1["thresholds"] == d2["thresholds"]


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------
class TestCampaignIntegration:
    def test_trace_detector_record_and_parity(self, tmp_path):
        """A campaign cell can request the trace suite by registry name, and
        1-vs-2-worker runs produce bit-identical payloads."""
        from repro.api import CampaignSpec

        specs = [
            ExperimentSpec(
                circuit="c432", pth=0.975, design="counter2", seed=3,
                detector="traces", detector_chips=10,
            ),
            ExperimentSpec(
                circuit="c432", pth=0.95, design="counter2", seed=3,
                detector="traces", detector_chips=10,
            ),
        ]
        campaign = CampaignSpec.of(specs, name="traces-parity")
        out = tmp_path / "records.jsonl"
        result = run_campaign(campaign, jobs=2, out=out)
        assert not result.errors
        by_id = {r.spec.cell_id(): r for r in load_records(out)}
        for spec in specs:
            serial = run_experiment(spec)
            parallel = by_id[spec.cell_id()]
            assert serial.payload_dict() == parallel.payload_dict()
            assert serial.detection is not None
            assert serial.detection["suite"] == "traces"
            assert set(serial.detection["trojanzero_rates"]) == {"tvla", "dom", "corr"}
            # Trace diagnostics ride outside the payload, like runtime.
            assert serial.traces is not None
            assert "traces" not in serial.payload_dict()
            assert "max_statistic" in serial.traces


# ---------------------------------------------------------------------------
# cone-restricted ripple re-settles (deep-counter workload)
# ---------------------------------------------------------------------------
class TestConeRestrictedResettle:
    def test_pi_clocked_counter_matches_reference(self):
        """Worst case for the restricted re-settle: the counter clocks from a
        PI that toggles every other vector, so edges fire constantly."""
        circuit = c17()
        instance = insert_counter_trojan(circuit, "N22", "N1", n_bits=4)
        n_steps = 64
        seqs = np.zeros((3, n_steps, len(circuit.inputs)), dtype=np.uint8)
        seqs[0, :, 0] = np.arange(n_steps) % 2  # deterministic edge pump
        rng = np.random.default_rng(12)
        seqs[1:] = (rng.random((2, n_steps, len(circuit.inputs))) < 0.5).astype(np.uint8)
        watch = list(circuit.nets)
        got = SequentialSimulator(circuit).run_sequences_nets(seqs, watch)
        want = ReferenceSequentialSimulator(circuit).run_sequences_nets(seqs, watch)
        assert (got == want).all()
        # The edge pump must actually saturate the counter.
        trig = watch.index(instance.trigger_net)
        assert got[0, :, trig].any()

    def test_fire_schedule_cache_is_bounded_and_reused(self):
        from repro.sim import compile_circuit

        circuit = c17()
        insert_counter_trojan(circuit, "N22", "N1", n_bits=3)
        compiled = compile_circuit(circuit)
        seqs = np.zeros((1, 40, len(circuit.inputs)), dtype=np.uint8)
        seqs[0, :, 0] = np.arange(40) % 2
        SequentialSimulator(circuit).run_sequences_nets(seqs, [circuit.outputs[0]])
        assert 0 < len(compiled._fire_cache) <= 128
        # Restricted sub-schedules never cover the whole schedule here.
        for groups in compiled._fire_cache.values():
            assert groups is None or len(groups) <= len(compiled.schedule)
