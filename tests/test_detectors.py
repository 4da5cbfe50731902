"""Stopping rules and threshold calibration."""

import math

import numpy as np
import pytest

from qcdetect import (
    ChangeSpec,
    Detector,
    DetectorConfig,
    GridSpec,
    NO_CHANGE,
    PriorSpec,
    Scenario,
    SubsetWeights,
    gaussian_stream,
    replication_rng,
    threshold_cost,
    threshold_shiryaev,
    threshold_sr,
)


def single_stream_setup(theta=1.0, rho=0.1, q=0.0):
    scenario = Scenario((gaussian_stream(theta=theta),))
    grid = GridSpec.degenerate((theta,))
    weights = SubsetWeights.uniform(1)
    prior = PriorSpec.geometric(rho=rho, q=q)
    return scenario, grid, weights, prior


# -- thresholds -------------------------------------------------------------------


def test_threshold_shiryaev_values():
    assert threshold_shiryaev(0.05) == pytest.approx(19.0, rel=1e-12)
    assert threshold_shiryaev(0.5) == pytest.approx(1.0, rel=1e-12)
    assert threshold_shiryaev(0.005) == pytest.approx(199.0, rel=1e-12)


def test_threshold_shiryaev_range_checks():
    with pytest.raises(ValueError):
        threshold_shiryaev(0.0)
    with pytest.raises(ValueError):
        threshold_shiryaev(1.0)
    with pytest.raises(ValueError):
        threshold_shiryaev(0.5, q=0.6)  # alpha must stay below 1 - q


def test_threshold_sr_values():
    assert threshold_sr(0.1, 0.0, PriorSpec.geometric(rho=0.5)) == pytest.approx(10.0)
    # b = 0.9, mean = 9: (5 * 0.9 + 9) / 0.01
    assert threshold_sr(0.01, 5.0, PriorSpec.geometric(rho=0.1)) == pytest.approx(1350.0)


def test_threshold_sr_rejects_degenerate_and_heavy_priors():
    with pytest.raises(ValueError):
        threshold_sr(0.1, 0.0, PriorSpec.point_mass(0))  # bound is zero
    with pytest.raises(ValueError):
        threshold_sr(0.1, 0.0, PriorSpec.polynomial_tail(beta=1.0))  # infinite mean


def test_threshold_cost_first_order_closed_form():
    assert threshold_cost(1e-3, 1, 1.0) == pytest.approx(1000.0, rel=1e-12)
    assert threshold_cost(0.01, 1, 1.0, scale=13.5) == pytest.approx(1350.0, rel=1e-12)


def test_threshold_cost_quadratic_case():
    # r=2, D=0.5, c=1e-4: A log A = 1e4
    a = threshold_cost(1e-4, 2, 0.5)
    assert 1e3 < a < 1e4
    assert a * math.log(a) == pytest.approx(1e4, rel=1e-10)


def test_threshold_cost_residuals_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = 10.0 ** rng.uniform(-6, -2)
        r = float(rng.integers(1, 4))
        d = 10.0 ** rng.uniform(-1, 1)
        a = threshold_cost(c, r, d)
        target = 1.0 / c
        residual = abs(r * d * a * math.log(a) ** (r - 1) - target) / target
        assert residual <= 1e-10


def test_threshold_cost_infeasible():
    with pytest.raises(ValueError):
        threshold_cost(2.0, 1, 1.0)  # would give A <= 1


# -- detector construction ----------------------------------------------------------


def test_detector_requires_threshold_above_head_odds():
    scenario, grid, weights, _ = single_stream_setup()
    prior = PriorSpec.geometric(rho=0.1, q=0.5)  # head odds = 1
    config = DetectorConfig(kind="shiryaev-mixture", threshold_A=0.9)
    with pytest.raises(ValueError):
        Detector(config, scenario, prior, grid, weights)


def test_detector_rejects_thresholds_beyond_the_log_clamp():
    scenario, grid, weights, prior = single_stream_setup()
    for kind in ("shiryaev-mixture", "sr-mixture"):
        with pytest.raises(ValueError, match="clamp"):
            Detector(
                DetectorConfig(kind=kind, threshold_A=math.exp(701.0)),
                scenario, prior, grid, weights,
            )
        Detector(
            DetectorConfig(kind=kind, threshold_A=math.exp(699.0)), scenario, prior, grid, weights
        )


def _two_stream_detector():
    scenario = Scenario((gaussian_stream(theta=1.0), gaussian_stream(theta=1.0)))
    grid = GridSpec.common_amplitude((1.0,), 2)
    config = DetectorConfig(kind="shiryaev-mixture", threshold_A=50.0)
    return Detector(config, scenario, PriorSpec.geometric(rho=0.1), grid, SubsetWeights.uniform(2))


def test_data_of_the_wrong_width_is_rejected():
    detector = _two_stream_detector()
    data = np.random.default_rng(0).normal(size=(4, 80, 3)) + 1.0
    with pytest.raises(ValueError, match="3 streams, scenario has 2"):
        detector.log_trajectories(data)
    with pytest.raises(ValueError, match="3 streams, scenario has 2"):
        detector.stopping_times(data)
    with pytest.raises(ValueError, match="3 streams, scenario has 2"):
        detector.run(data[0])


def test_non_finite_data_is_rejected():
    detector = _two_stream_detector()
    data = np.random.default_rng(0).normal(size=(4, 80, 2))
    for bad in (math.nan, math.inf):
        poisoned = data.copy()
        poisoned[1, 50, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            detector.log_trajectories(poisoned)
        with pytest.raises(ValueError, match="finite"):
            detector.stopping_times(poisoned)
        with pytest.raises(ValueError, match="finite"):
            detector.run(poisoned[1])


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(kind="unknown", threshold_A=1.0)
    with pytest.raises(ValueError):
        DetectorConfig(kind="sr-mixture", threshold_A=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(kind="shiryaev-putative", threshold_A=5.0)  # a one-point grid instead
    with pytest.raises(ValueError):
        DetectorConfig(kind="sr-mixture", threshold_A=5.0, head_start_omega=-1.0)
    with pytest.raises(ValueError, match="sr-mixture"):
        DetectorConfig(kind="shiryaev-mixture", threshold_A=5.0, head_start_omega=1.5)
    with pytest.raises(ValueError, match="needs a window"):
        DetectorConfig(kind="sr-mixture", threshold_A=5.0, window_m0=1)
    with pytest.raises(ValueError, match="exceeds"):
        DetectorConfig(kind="sr-mixture", threshold_A=5.0, window_m1=3, window_m0=4)
    DetectorConfig(kind="sr-mixture", threshold_A=5.0, window_m1=3, window_m0=3)


def test_pfa_bound():
    scenario, grid, weights, prior = single_stream_setup()
    shiryaev = Detector(
        DetectorConfig(kind="shiryaev-mixture", threshold_A=19.0),
        scenario, prior, grid, weights,
    )
    assert shiryaev.pfa_bound() == pytest.approx(0.05)
    sr = Detector(
        DetectorConfig(kind="sr-mixture", threshold_A=90.0),
        scenario, prior, grid, weights,
    )
    assert sr.pfa_bound() == pytest.approx(0.1)  # mean(nu) = 9


# -- running ----------------------------------------------------------------------------


def test_run_stops_immediately_on_overwhelming_signal():
    scenario, grid, weights, prior = single_stream_setup(theta=20.0, q=0.5)
    config = DetectorConfig(kind="shiryaev-mixture", threshold_A=1.01)  # barely above q/(1-q)
    detector = Detector(config, scenario, prior, grid, weights)
    batch = scenario.generate([ChangeSpec(nu=-1, subset=(0,))], 50, [replication_rng(0, 0)])[0]
    result = detector.run(batch)
    assert result.stopped_at == 1
    assert result.trajectory.shape == (1,)


def test_run_censors_under_pure_noise_and_huge_threshold():
    scenario, grid, weights, prior = single_stream_setup()
    config = DetectorConfig(kind="shiryaev-mixture", threshold_A=1e9)
    detector = Detector(config, scenario, prior, grid, weights)
    batch = scenario.generate([ChangeSpec(NO_CHANGE, ())], 100, [replication_rng(1, 0)])[0]
    result = detector.run(batch)
    assert result.censored
    assert result.stopped_at is None
    assert result.trajectory.shape == (100,)


def test_run_respects_max_horizon():
    scenario, grid, weights, prior = single_stream_setup()
    config = DetectorConfig(kind="shiryaev-mixture", threshold_A=1e9)
    detector = Detector(config, scenario, prior, grid, weights)
    batch = scenario.generate([ChangeSpec(NO_CHANGE, ())], 100, [replication_rng(1, 0)])[0]
    result = detector.run(batch, max_horizon=30)
    assert result.trajectory.shape == (30,)


def test_stopping_time_monotone_in_threshold():
    scenario, grid, weights, prior = single_stream_setup()
    data = np.stack(
        [
            scenario.generate([ChangeSpec(nu=5, subset=(0,))], 80, [replication_rng(3, r)])[0]
            for r in range(100)
        ]
    )
    for kind in ("shiryaev-mixture", "sr-mixture"):
        low = Detector(
            DetectorConfig(kind=kind, threshold_A=10.0), scenario, prior, grid, weights
        )
        high = Detector(
            DetectorConfig(kind=kind, threshold_A=40.0), scenario, prior, grid, weights
        )
        t_low = low.stopping_times(data)
        t_high = high.stopping_times(data)
        resolved = (t_low > 0) & (t_high > 0)
        assert np.all(t_high[resolved] >= t_low[resolved])
        # a run that crosses the high bar also crossed the low one
        assert np.all(t_low[t_high > 0] > 0)


def test_windowed_detector_runs():
    scenario, grid, weights, prior = single_stream_setup()
    config = DetectorConfig(kind="sr-mixture", threshold_A=50.0, window_m1=10)
    detector = Detector(config, scenario, prior, grid, weights)
    batch = scenario.generate([ChangeSpec(nu=0, subset=(0,))], 60, [replication_rng(5, 0)])[0]
    result = detector.run(batch)
    assert result.stopped_at is not None
