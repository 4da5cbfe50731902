"""The benchmark's patch points still exist in the package.

``bench/`` wraps package functions and methods by name.  Installing its
tracer and its record capture looks every one of them up, so a deletion or a
rename fails here in well under a second, without running a workload.
"""

import contextlib
from pathlib import Path

import numpy as np
import pytest

from qcdetect import (
    Detector,
    DetectorConfig,
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
        config = DetectorConfig(kind="shiryaev-mixture", threshold_A=1e3, window_m1=window_m1)
        detector = Detector(config, scenario, GeometricPrior(rho=0.05),
                            GridSpec.common_amplitude((0.5, 1.0), n), SubsetWeights.uniform(n))
        calls.clear()
        stopped = detector.stopping_times(data)
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
    config = DetectorConfig(kind="sr-mixture", threshold_A=50.0, window_m1=window_m1)
    detector = Detector(config, scenario, GeometricPrior(rho=0.1),
                        GridSpec.common_amplitude((0.5, 1.0), n), weights)
    data = np.random.default_rng(1).normal(size=(4, 30, n))
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        tracer.install(stack)
        detector.stopping_times(data)
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
    config = DetectorConfig(kind="shiryaev-mixture", threshold_A=1e3)
    detector = Detector(config, scenario, GeometricPrior(rho=0.05),
                        GridSpec.common_amplitude((0.5, 1.0), n), SubsetWeights.uniform(n))
    monkeypatch.setattr(montecarlo, "SPAN_BUDGET_BYTES", 3 * detector.row_bytes(horizon))
    mc = montecarlo.MCConfig(replications=n_reps, master_seed=4, horizon=horizon)
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        tracer.install(stack)
        montecarlo.simulate_runs(detector, mc, montecarlo.PriorNuSampler((1,)))
    calls = tracer.summary()["calls"]
    assert calls["model.rng"] == n_reps
    assert calls["scenarios.generate"] == 4  # spans of 3, 3, 3 and 1 replications
    names = [span[0] for span in tracer.spans]
    parents = [names[span[3]] for span in tracer.spans if span[0] == "model.rng"]
    assert parents == ["scenarios.generate"] * n_reps
