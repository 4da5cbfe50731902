"""The benchmark's patch points still exist in the package.

``bench/`` wraps package functions and methods by name.  Installing its
tracer and its record capture looks every one of them up, so a deletion or a
rename fails here in well under a second, without running a workload.
"""

import contextlib
import math
from pathlib import Path

import numpy as np
import pytest

from qcdetect import (
    Detector,
    GeometricPrior,
    GridSpec,
    Scenario,
    SubsetWeights,
    cli,
    gaussian_stream,
    montecarlo,
)
from qcdetect.statistics import DetectorState

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_and_record_capture_install(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer, capture_records

    original = montecarlo.simulate_runs
    # the CLI holds its own binding, which both hooks patch alongside montecarlo's
    assert cli.simulate_runs is original
    with contextlib.ExitStack() as stack:
        capture_records(stack, [])
        Tracer().install(stack)
        assert cli.simulate_runs is montecarlo.simulate_runs
        assert montecarlo.simulate_runs is not original
    assert cli.simulate_runs is montecarlo.simulate_runs is original


def test_stopping_times_reads_out_once_per_step_through_log_shiryaev(monkeypatch):
    """The tracer's ``statistics.readout`` span covers the read-out of every step.

    The read-out must go through ``DetectorState.log_shiryaev``, the attribute
    the tracer wraps, once per step the scan takes.
    """
    calls = []
    original = DetectorState.log_shiryaev

    def counting(state, *args, **kwargs):
        calls.append(state.n)
        return original(state, *args, **kwargs)

    monkeypatch.setattr(DetectorState, "log_shiryaev", counting)
    n, horizon = 3, 120
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    data = np.random.default_rng(5).normal(size=(16, horizon, n))
    data[:, 40:, :2] += 1.0
    for window_m1 in (None, 10):
        detector = Detector("shiryaev-mixture", scenario, GeometricPrior(rho=0.05),
                            GridSpec.common_amplitude((0.5, 1.0), n), SubsetWeights.uniform(n),
                            window_m1=window_m1)
        calls.clear()
        stopped = detector.stopping_times(data, [math.log(1e3)])
        assert (stopped > 0).all() and stopped.max() < horizon  # the scan ends early
        assert calls == list(range(1, int(stopped.max()) + 1))


@pytest.mark.parametrize("window_m1", [None, 4], ids=["recursion", "window"])
def test_tracer_reads_the_state_of_each_engine(monkeypatch, window_m1):
    """The names the tracer reads off a ``DetectorState`` exist on both engines."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    n = 3
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    weights = SubsetWeights.uniform(n)
    detector = Detector("sr-mixture", scenario, GeometricPrior(rho=0.1),
                        GridSpec.common_amplitude((0.5, 1.0), n), weights, window_m1=window_m1)
    data = np.random.default_rng(1).normal(size=(4, 30, n))
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        tracer.install(stack)
        detector.stopping_times(data, [math.log(50.0)])
    calls = tracer.summary()["calls"]
    assert calls["detectors.stopping_times"] == 1 and calls["statistics.advance"] > 0
    assert tracer.maxima["state_bytes"] > 0
    assert tracer.maxima["subsets"] == weights.n_subsets
    assert tracer.counts["row_steps"] == 4 * 30


def test_generation_is_traced_once_per_replication_and_once_per_span(monkeypatch):
    """``model.rng`` counts replications and ``scenarios.generate`` spans, nested.

    A span's replications are generated inside its ``Scenario.generate`` call,
    each from a generator that ``montecarlo.replication_rng`` re-keys, so every
    ``model.rng`` span is a child of a ``scenarios.generate`` span.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    n, horizon, n_reps = 2, 30, 10
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    detector = Detector("shiryaev-mixture", scenario, GeometricPrior(rho=0.05),
                        GridSpec.common_amplitude((0.5, 1.0), n), SubsetWeights.uniform(n))
    monkeypatch.setattr(montecarlo, "SPAN_BUDGET_BYTES", 3 * detector.row_bytes(horizon))
    mc = montecarlo.MCConfig(replications=n_reps, master_seed=4, horizon=horizon)
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        tracer.install(stack)
        montecarlo.simulate_runs(detector, 1e3, mc, montecarlo.PriorNuSampler((1,)))
    calls = tracer.summary()["calls"]
    assert calls["model.rng"] == n_reps
    assert calls["scenarios.generate"] == 4  # spans of 3, 3, 3 and 1 replications
    names = [span[0] for span in tracer.spans]
    parents = [names[span[3]] for span in tracer.spans if span[0] == "model.rng"]
    assert parents == ["scenarios.generate"] * n_reps


def test_tracer_counts_the_window_engines_fallback_past_a_745_nat_lead(monkeypatch):
    """``likelihood.esp_terms`` counts the log-domain DP the window engine falls back to.

    The engine's read-out runs ``likelihood.log_esp``, which redoes an element in
    ``likelihood.log_elementary_symmetric``, the binding the tracer wraps,
    once one stream leads another by over ~745 nats; without a lead it never
    does.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    grid = GridSpec.common_amplitude((0.5, 1.0), 2)
    weights = SubsetWeights(p=(1.0, 0.5), K=2)
    weights.log_normalizer  # computed here, so only the engine's DP is counted
    terms = []
    for means in ((0.0, 0.0), (300.0, 50.0)):
        increments = np.asarray(means) + np.random.default_rng(6).normal(size=(8, 6, 2, 2))
        state = DetectorState(GeometricPrior(rho=0.1), grid, weights, n_reps=8, window_m1=3)
        tracer = Tracer()
        with contextlib.ExitStack() as stack:
            tracer.install(stack)
            for t in range(increments.shape[1]):
                state.advance(increments[:, t]).log_shiryaev()
        terms.append(tracer.counts["esp_terms"])
    assert terms[0] == 0 and terms[1] > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_captured_oc_sweep_records_are_each_levels_own_pass(tmp_path, monkeypatch, workers):
    """The benchmark's record capture sees 2·L records, delay passes then PFA passes by α.

    Each record equals the standalone ``simulate_runs`` of the sweep's one
    statistic at its level's threshold, though the sweep scans each dataset
    once for all levels.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    from test_cli import PRIOR_NU
    from tracer import capture_records

    monkeypatch.setattr(montecarlo, "_CHUNK", 20)  # 3 spans, so workers = 2 fans out
    text = PRIOR_NU.replace("replications = 150", "replications = 60")
    path = tmp_path / "sweep.ini"
    path.write_text(text + "\n[sweep]\nalphas = 0.1, 0.02, 0.1\nr = 1\n")
    records = []
    with contextlib.ExitStack() as stack:
        capture_records(stack, records)
        argv = ["oc-sweep", "--config", str(path), "--workers", str(workers)]
        assert cli.main(argv) == cli.EXIT_OK
    config = cli.load_config(str(path))
    statistic, mc = cli.build_detector(config), cli.build_mc(config, None, 1)
    delay = cli.build_change(config.change, statistic.scenario, mc.horizon)
    expected = [
        montecarlo.simulate_runs(statistic, statistic.threshold(alpha), mc, sampler)
        for sampler in (delay, montecarlo.NO_CHANGE_SAMPLER)
        for alpha in config.sweep.alphas
    ]
    assert len(records) == len(expected) == 2 * 3
    for got, want in zip(records, expected):
        np.testing.assert_array_equal(got.nu, want.nu)
        np.testing.assert_array_equal(got.stopped, want.stopped)
