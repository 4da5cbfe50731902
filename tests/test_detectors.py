"""Stopping rules and threshold calibration."""

import math
import tracemalloc

import numpy as np
import pytest

from qcdetect import likelihood
from qcdetect import (
    ChangeSpec,
    Detector,
    DetectorState,
    FlatWeights,
    GeometricPrior,
    GridSpec,
    NO_CHANGE,
    PointMassPrior,
    PolynomialTailPrior,
    Scenario,
    SubsetWeights,
    direct_log_statistic,
    gaussian_stream,
    replication_rng,
    threshold_cost,
    threshold_shiryaev,
    threshold_sr,
)
from qcdetect.detectors import MAX_RECURSION_SUBSETS, check_moment_order
from qcdetect.scenarios import ARChannelSpec


def single_stream_setup(theta=1.0, rho=0.1, q=0.0):
    scenario = Scenario((gaussian_stream(theta=theta),))
    grid = GridSpec.degenerate((theta,))
    weights = SubsetWeights.uniform(1)
    prior = GeometricPrior(rho=rho, q=q)
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
    assert threshold_sr(0.1, 0.0, GeometricPrior(rho=0.5)) == pytest.approx(10.0)
    # b = 0.9, mean = 9: (5 * 0.9 + 9) / 0.01
    assert threshold_sr(0.01, 5.0, GeometricPrior(rho=0.1)) == pytest.approx(1350.0)


def test_threshold_sr_rejects_degenerate_and_heavy_priors():
    with pytest.raises(ValueError):
        threshold_sr(0.1, 0.0, PointMassPrior(0))  # bound is zero
    with pytest.raises(ValueError):
        threshold_sr(0.1, 0.0, PolynomialTailPrior(beta=1.0))  # infinite mean


def test_threshold_cost_first_order_closed_form():
    assert threshold_cost(1e-3, 1, 1.0) == pytest.approx(1000.0, rel=1e-12)
    assert threshold_cost(0.01, 1, 1.0 / 13.5) == pytest.approx(1350.0, rel=1e-12)


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


def test_shiryaev_rule_rejects_a_point_mass_prior():
    scenario, grid, weights, _ = single_stream_setup()
    prior = PointMassPrior(5)  # P(nu >= 6) = 0: the statistic is undefined from n = 6 on
    with pytest.raises(ValueError, match="point-mass"):
        Detector("shiryaev-mixture", scenario, prior, grid, weights)
    Detector("sr-mixture", scenario, prior, grid, weights)


def test_engines_agree_beyond_e700():
    # six streams changing in two of them: the log statistic passes 700 near the
    # stop, and the recursion stops where the window engine's direct sum does
    n, horizon = 6, 400
    scenario = Scenario(tuple(gaussian_stream(theta=3.0) for _ in range(n)))
    grid = GridSpec.common_amplitude((1.5, 3.0), n)
    weights = SubsetWeights.uniform(n)
    prior = GeometricPrior(rho=0.01)
    data = scenario.generate(
        [ChangeSpec(nu=0, subset=(0, 1))] * 4, horizon, [replication_rng(3, r) for r in range(4)]
    )
    stops = [
        Detector(
            "shiryaev-mixture", scenario, prior, grid, weights, window_m1=m1,
        ).stopping_times(data, [699.0])[:, 0]
        for m1 in (None, horizon)
    ]
    np.testing.assert_array_equal(stops[0], [76, 82, 80, 78])
    np.testing.assert_array_equal(stops[1], stops[0])


def _two_stream_detector():
    scenario = Scenario((gaussian_stream(theta=1.0), gaussian_stream(theta=1.0)))
    grid = GridSpec.common_amplitude((1.0,), 2)
    return Detector("shiryaev-mixture", scenario, GeometricPrior(rho=0.1), grid,
                    SubsetWeights.uniform(2))


def test_data_of_the_wrong_width_is_rejected():
    detector = _two_stream_detector()
    data = np.random.default_rng(0).normal(size=(4, 80, 3)) + 1.0
    with pytest.raises(ValueError, match="3 streams, scenario has 2"):
        detector.log_trajectories(data)
    with pytest.raises(ValueError, match="3 streams, scenario has 2"):
        detector.stopping_times(data, [math.log(50.0)])
    with pytest.raises(ValueError, match=r"\[replications, horizon, streams\]"):
        detector.stopping_times(data[0], [math.log(50.0)])


def test_a_grid_or_weights_over_other_streams_is_rejected():
    scenario = Scenario((gaussian_stream(theta=1.0), gaussian_stream(theta=1.0)))
    kind = "shiryaev-mixture"
    prior, grid = GeometricPrior(rho=0.1), GridSpec.common_amplitude((1.0,), 2)
    weights = SubsetWeights.uniform(2)
    with pytest.raises(ValueError, match="grid covers 3 streams, scenario has 2"):
        Detector(kind, scenario, prior, GridSpec.common_amplitude((1.0,), 3), weights)
    with pytest.raises(ValueError, match="subset weights cover 3 streams, scenario has 2"):
        Detector(kind, scenario, prior, grid, SubsetWeights.uniform(3))


def test_non_finite_data_is_rejected():
    detector = _two_stream_detector()
    data = np.random.default_rng(0).normal(size=(4, 80, 2))
    for bad in (math.nan, math.inf):
        poisoned = data.copy()
        poisoned[1, 50, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            detector.log_trajectories(poisoned)
        with pytest.raises(ValueError, match="finite"):
            detector.stopping_times(poisoned, [math.log(50.0)])


def test_config_validation():
    scenario, grid, weights, prior = single_stream_setup()

    def build(kind, **options):
        return Detector(kind, scenario, prior, grid, weights, **options)

    with pytest.raises(ValueError):
        build("unknown")
    with pytest.raises(ValueError):
        build("shiryaev-putative")  # a one-point grid instead
    with pytest.raises(ValueError):
        build("sr-mixture", omega=-1.0)
    with pytest.raises(ValueError, match="sr-mixture"):
        build("shiryaev-mixture", omega=1.5)
    with pytest.raises(ValueError, match="needs a window"):
        build("sr-mixture", window_m0=1)
    with pytest.raises(ValueError, match="exceeds"):
        build("sr-mixture", window_m1=3, window_m0=4)
    build("sr-mixture", window_m1=3, window_m0=3)


def test_pfa_bound():
    scenario, grid, weights, prior = single_stream_setup()
    shiryaev = Detector("shiryaev-mixture", scenario, prior, grid, weights)
    assert shiryaev.pfa_bound(19.0) == pytest.approx(0.05)
    sr = Detector("sr-mixture", scenario, prior, grid, weights)
    assert sr.pfa_bound(90.0) == pytest.approx(0.1)  # mean(nu) = 9


@pytest.mark.parametrize(
    "kind, omega", [("shiryaev-mixture", 0.0), ("sr-mixture", 0.0), ("sr-mixture", 1.5)]
)
def test_threshold_is_the_level_threshold_of_the_statistic(kind, omega):
    scenario, grid, weights, prior = single_stream_setup(q=0.2)
    detector = Detector(kind, scenario, prior, grid, weights, window_m1=4, omega=omega)
    for alpha in (0.5, 0.01, 1e-6):
        a = detector.threshold(alpha)
        if kind == "shiryaev-mixture":
            assert a == threshold_shiryaev(alpha, prior.q)  # bit-equal threshold
        else:
            assert a == threshold_sr(alpha, omega, prior)
        assert detector.log_level(a) == math.log(a)
        assert detector.pfa_bound(a) == pytest.approx(alpha, rel=1e-12)
    with pytest.raises(ValueError, match="^calibration failed: alpha"):
        detector.threshold(0.9 if kind == "shiryaev-mixture" else 1.0)  # past 1 - q, or 1
    with pytest.raises(ValueError, match="^calibration failed: threshold .* got inf$"):
        detector.threshold(1e-320)


def test_first_order_rate_adds_the_tail_rate_for_the_shiryaev_rule_only():
    scenario = Scenario((gaussian_stream(theta=1.0), gaussian_stream(theta=2.0)))
    prior = GeometricPrior(rho=0.1)

    def detector(kind):
        return Detector(
            kind, scenario, prior, GridSpec.common_amplitude((1.0,), 2),
            SubsetWeights.uniform(2),
        )

    shiryaev, sr = detector("shiryaev-mixture"), detector("sr-mixture")
    # a Gaussian stream's rate is theta^2 / 2; theta defaults to the nominal values
    assert sr.first_order_rate((0, 1)) == 0.5 + 2.0
    assert shiryaev.first_order_rate((0, 1)) == 2.5 + prior.tail_rate
    assert sr.first_order_rate((1,), (3.0,)) == 4.5
    assert shiryaev.first_order_rate((0,), (0.0,)) == prior.tail_rate
    with pytest.raises(ValueError, match=r"I \+ mu > 0, got 0.0"):
        sr.first_order_rate((0,), (0.0,))


def test_first_order_rate_refuses_a_change_that_does_not_fit_the_scenario():
    scenario = Scenario(tuple(gaussian_stream() for _ in range(3)))
    detector = Detector(
        "shiryaev-mixture", scenario,
        GeometricPrior(rho=0.1), GridSpec.common_amplitude((1.0,), 3), SubsetWeights.uniform(3),
    )
    rate = detector.first_order_rate((0, 1), (1.0, 1.0))
    for subset, theta in (((0, 1), (1.0,)), ((0, 7), None), ((0, 7), (1.0, 1.0)), ((1, 1), None)):
        with pytest.raises(ValueError, match="invalid change: "):
            detector.first_order_rate(subset, theta)
    # the nominal parameters pair with their streams in the subset's own order
    assert detector.first_order_rate((1, 0)) == rate


# -- running ----------------------------------------------------------------------------


def test_run_stops_immediately_on_overwhelming_signal():
    scenario, grid, weights, prior = single_stream_setup(theta=20.0, q=0.5)
    detector = Detector("shiryaev-mixture", scenario, prior, grid, weights)
    log_a = detector.log_level(1.01)  # barely above q/(1-q)
    batch = scenario.generate([ChangeSpec(nu=-1, subset=(0,))], 50, [replication_rng(0, 0)])
    assert detector.stopping_times(batch, [log_a])[:, 0].tolist() == [1]
    assert detector.log_trajectories(batch)[0, 0] >= math.log(1.01)


def test_run_censors_under_pure_noise_and_huge_threshold():
    scenario, grid, weights, prior = single_stream_setup()
    detector = Detector("shiryaev-mixture", scenario, prior, grid, weights)
    batch = scenario.generate([ChangeSpec(NO_CHANGE, ())], 100, [replication_rng(1, 0)])
    assert detector.stopping_times(batch, [math.log(1e9)])[:, 0].tolist() == [-1]
    trajectory = detector.log_trajectories(batch)
    assert trajectory.shape == (1, 100)
    assert np.all(trajectory < math.log(1e9))


def test_stopping_time_monotone_in_threshold():
    scenario, grid, weights, prior = single_stream_setup()
    data = np.stack(
        [
            scenario.generate([ChangeSpec(nu=5, subset=(0,))], 80, [replication_rng(3, r)])[0]
            for r in range(100)
        ]
    )
    for kind in ("shiryaev-mixture", "sr-mixture"):
        detector = Detector(kind, scenario, prior, grid, weights)
        t_low = detector.stopping_times(data, [math.log(10.0)])[:, 0]
        t_high = detector.stopping_times(data, [math.log(40.0)])[:, 0]
        resolved = (t_low > 0) & (t_high > 0)
        assert np.all(t_high[resolved] >= t_low[resolved])
        # a run that crosses the high bar also crossed the low one
        assert np.all(t_low[t_high > 0] > 0)


def test_windowed_detector_runs():
    scenario, grid, weights, prior = single_stream_setup()
    detector = Detector("sr-mixture", scenario, prior, grid, weights, window_m1=10)
    batch = scenario.generate([ChangeSpec(nu=0, subset=(0,))], 60, [replication_rng(5, 0)])
    assert detector.stopping_times(batch, [math.log(50.0)])[0, 0] > 0


@pytest.mark.parametrize(
    "window_m1, horizon", [(0, 120), (5, 120), (50, 120), (500, 120), (500, 7), (0, 7)]
)
def test_window_stopping_times_peak_within_row_bytes(window_m1, horizon):
    # no change and an unreachable threshold: all 16 rows run the whole horizon;
    # the window buffer grows from one step, so a short run holds few steps
    n, n_reps = 6, 16
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    grid = GridSpec.common_amplitude((0.5, 1.0), n)
    detector = Detector("sr-mixture", scenario, GeometricPrior(rho=0.01), grid,
                        SubsetWeights.uniform(n, 2), window_m1=window_m1)
    changes = [ChangeSpec(NO_CHANGE, ())] * n_reps
    data = scenario.generate(changes, horizon, [replication_rng(7, r) for r in range(n_reps)])
    tracemalloc.start()
    try:
        assert (detector.stopping_times(data, [math.log(1e300)]) == -1).all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_reps * detector.row_bytes(horizon)


def test_recursion_stopping_times_peak_within_row_bytes():
    # S = 1023 subsets, so the engine's [S, P, R] arrays outweigh the data
    n, horizon, n_reps = 10, 120, 64
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    grid = GridSpec.common_amplitude((0.5, 1.0), n)
    detector = Detector("sr-mixture", scenario, GeometricPrior(rho=0.01), grid, SubsetWeights.uniform(n))
    changes = [ChangeSpec(NO_CHANGE, ())] * n_reps
    data = scenario.generate(changes, horizon, [replication_rng(7, r) for r in range(n_reps)])
    tracemalloc.start()
    try:
        assert (detector.stopping_times(data, [math.log(1e300)]) == -1).all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_reps * detector.row_bytes(horizon)


@pytest.mark.parametrize("window_m1", [None, 5])
def test_increments_that_are_not_finite_raise_instead_of_censoring(window_m1):
    # a grid point of 1e200 passes the grid's check, but its squared drift overflows
    scenario, grid, weights, prior = single_stream_setup()
    grid = GridSpec.degenerate((1e200,))
    detector = Detector("sr-mixture", scenario, prior, grid, weights, window_m1=window_m1)
    data = scenario.generate([ChangeSpec(nu=0, subset=(0,))], 40, [replication_rng(5, 0)])
    with pytest.raises(ValueError, match="increments of step 1 are not finite"):
        detector.stopping_times(data, [math.log(50.0)])
    with pytest.raises(ValueError, match="increments of step 1 are not finite"):
        detector.log_trajectories(data)


@pytest.mark.parametrize("window_m1", [None, 5])
def test_increments_not_finite_in_a_later_block_name_their_step(window_m1):
    # the template is 0 but at phase 40, where the squared signal overflows:
    # every increment of the first block is finite, and so the block check's
    # fallback must find step 40 in the second
    signal = tuple(1e200 if phase == 39 else 0.0 for phase in range(64))
    scenario = Scenario((ARChannelSpec(signal=signal),))
    grid, weights = GridSpec.degenerate((1.0,)), SubsetWeights.uniform(1)
    detector = Detector("sr-mixture", scenario, GeometricPrior(rho=0.1), grid, weights,
                        window_m1=window_m1)
    data = np.random.default_rng(5).normal(size=(3, 60, 1))
    with pytest.raises(ValueError, match="increments of step 40 are not finite"):
        detector.stopping_times(data, [math.log(1e6)])
    with pytest.raises(ValueError, match="increments of step 40 are not finite"):
        detector.log_trajectories(data)


def _wide_setup(n):
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    grid = GridSpec.common_amplitude((1.0,), n)
    return scenario, GeometricPrior(rho=0.1), grid, SubsetWeights.uniform(n)


def test_window_engine_never_lists_subsets(monkeypatch):
    def no_listing(*args):
        raise AssertionError("the subsets were enumerated")

    # SubsetWeights lists the subsets through this one function
    monkeypatch.setattr(likelihood, "subset_masks", no_listing)
    n = 22  # 4,194,303 subsets
    detector = Detector("sr-mixture", *_wide_setup(n), window_m1=3)
    data = np.random.default_rng(0).normal(size=(2, 6, n))
    assert detector.stopping_times(data, [math.log(1e6)]).shape == (2, 1)
    assert np.isfinite(detector.log_trajectories(data)).all()
    state = DetectorState(FlatWeights(), detector.grid, detector.weights, window_m1=3)
    assert state.basis.n_subsets == 2**n - 1


def test_recursion_beyond_the_subset_budget_is_rejected():
    assert SubsetWeights.uniform(12).n_subsets == MAX_RECURSION_SUBSETS
    for kind in ("shiryaev-mixture", "sr-mixture"):
        Detector(kind, *_wide_setup(12))
        with pytest.raises(ValueError, match=r"8191 subsets .*\[detector\] window_m1"):
            Detector(kind, *_wide_setup(13))
        Detector(kind, *_wide_setup(13), window_m1=5)


@pytest.mark.parametrize(
    "m1, m0, valid",
    [(0, 0, True), (3, 3, True), (None, 1, False), (3, 4, False), (-1, 0, False)],
)
def test_config_and_state_share_one_window_rule(m1, m0, valid):
    scenario, grid, weights, prior = single_stream_setup()
    builds = (
        lambda: Detector("sr-mixture", scenario, prior, grid, weights, window_m1=m1, window_m0=m0),
        lambda: DetectorState(prior, grid, weights, window_m1=m1, window_m0=m0),
        lambda: direct_log_statistic(np.zeros((1, 1, 1)), prior, grid, weights, n=1, m1=m1, m0=m0),
    )
    for build in builds:
        if valid:
            build()
        else:
            with pytest.raises(ValueError, match="window"):
                build()


@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_non_finite_head_start_is_rejected_by_config_and_calibration(omega):
    scenario, grid, weights, prior = single_stream_setup()
    with pytest.raises(ValueError, match="head start"):
        Detector("sr-mixture", scenario, prior, grid, weights, omega=omega)
    with pytest.raises(ValueError, match="head start"):
        threshold_sr(0.1, omega, GeometricPrior(rho=0.1))


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.5, 0])
def test_moment_order_must_be_finite_and_at_least_one(r):
    with pytest.raises(ValueError, match="moment order"):
        check_moment_order(r)
    with pytest.raises(ValueError, match="moment order"):
        threshold_cost(1e-3, r, 1.0)


@pytest.mark.parametrize(
    "solve",
    [
        lambda: threshold_shiryaev(1e-320),
        lambda: threshold_sr(1e-320, 0.0, GeometricPrior(rho=0.1)),
        lambda: threshold_cost(1e-320, 1.0, 0.5),
        # for r > 1 the solve used to give up on its bracket instead
        lambda: threshold_cost(1e-320, 2.0, 0.5),
    ],
    ids=["shiryaev", "sr", "cost", "cost-r2"],
)
def test_no_threshold_function_returns_inf(solve):
    with pytest.raises(ValueError, match="threshold must be positive and finite, got inf"):
        solve()


def test_moment_order_accepts_finite_orders_from_one():
    for r in (1, 1.0, 2.5, 7):
        check_moment_order(r)


def test_threshold_cost_rejects_non_finite_cost_and_constant():
    with pytest.raises(ValueError, match="c = nan"):
        threshold_cost(math.nan, 2, 1)
    for c, D in [(math.inf, 1.0), (1e-3, math.nan), (1e-3, math.inf), (0.0, 1.0)]:
        with pytest.raises(ValueError, match="c and D must be positive and finite"):
            threshold_cost(c, 2, D)
