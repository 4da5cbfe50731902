"""Information rates, the average-risk constant, and slope diagnostics."""

import math

import numpy as np
import pytest

from qcdetect import (
    ARChannelSpec,
    GridSpec,
    MixtureChannelSpec,
    Scenario,
    SubsetWeights,
    d_constant,
    estimate_kl_slope,
    gaussian_stream,
)


def test_kl_ar_values():
    # theta^2 Q / (2 sigma^2)
    assert gaussian_stream().kl_rate(1.0) == pytest.approx(0.5)
    assert gaussian_stream().kl_rate(0.0) == 0.0
    # AR(1) beta=0.5, unit signal: steady residual 0.5, Q = 0.25, theta = 2
    ar = ARChannelSpec(coeffs=(0.5,), sigma=1.0, signal=(1.0,), theta=2.0)
    assert ar.kl_rate(2.0) == pytest.approx(0.5)
    noisier = ARChannelSpec(coeffs=(0.5,), sigma=2.0, signal=(1.0,))
    assert noisier.kl_rate(2.0) == pytest.approx(0.125)


def test_kl_mixture_values():
    # (theta - mu2)^2 / (2 sigma^2)
    def rate(theta, mu2, sigma):
        channel = MixtureChannelSpec(
            beta_mix=0.5, mu1=mu2 - 5.0, mu2=mu2, sigma=sigma, theta=theta
        )
        return channel.kl_rate(theta)

    assert rate(1.0, 0.0, 1.0) == pytest.approx(0.5)
    assert rate(0.7, 0.7, 1.0) == 0.0
    assert rate(2.0, 0.0, 2.0) == pytest.approx(0.5)
    assert rate(1.0, 0.5, 1.2) == pytest.approx(0.25 / 2.88)


def test_kl_mixture_refuses_a_mean_nearer_mu1():
    # nearer mu1 the slope is about (theta - mu1)^2 / 2 = 0.02, not (theta - mu2)^2 / 2
    channel = MixtureChannelSpec(beta_mix=0.5, mu1=2.0, mu2=0.0, theta=0.8)
    for theta in (1.8, 1.0, 3.0):
        with pytest.raises(ValueError, match="closer to mu2"):
            channel.kl_rate(theta)
    assert channel.kl_rate(0.9) == pytest.approx(0.405)


def test_d_constant_single_component():
    grid = GridSpec.degenerate((1.0,))
    weights = SubsetWeights.uniform(1)
    assert d_constant(weights, grid, [[0.5]], 0.0, 1) == pytest.approx(2.0, rel=1e-14)
    # exact reciprocal power for any r
    assert d_constant(weights, grid, [[0.5]], 0.0, 3) == pytest.approx(8.0, rel=1e-14)


def test_d_constant_two_streams_uniform_subsets():
    # subsets {1}, {2}, {1,2} with p_B = 1/3: (2 + 2 + 1) / 3
    grid = GridSpec.degenerate((1.0, 1.0))
    weights = SubsetWeights.uniform(2, 2)
    assert d_constant(weights, grid, [[0.5, 0.5]], 0.0, 1) == pytest.approx(5.0 / 3.0, rel=1e-14)


def test_d_constant_tail_rate_shifts_denominators():
    grid = GridSpec.degenerate((1.0,))
    weights = SubsetWeights.uniform(1)
    base = d_constant(weights, grid, [[0.5]], 0.0, 1)
    shifted = d_constant(weights, grid, [[0.5]], 0.01, 1)
    assert shifted == pytest.approx(1.0 / 0.51, rel=1e-14)
    assert shifted < base


def test_d_constant_grid_mixture():
    grid = GridSpec(theta_points=((0.5,), (1.0,)), weights=(0.25, 0.75))
    weights = SubsetWeights.uniform(1)
    expected = 0.25 / 0.125 + 0.75 / 0.5
    assert d_constant(weights, grid, [[0.125], [0.5]], 0.0, 1) == pytest.approx(expected, rel=1e-14)


def test_d_constant_rejects_zero_denominator():
    grid = GridSpec.degenerate((1.0,))
    weights = SubsetWeights.uniform(1)
    with pytest.raises(ValueError):
        d_constant(weights, grid, [[0.0]], 0.0, 1)


@pytest.mark.parametrize(
    "rates,mu", [([[-0.5]], 0.0), ([[np.nan]], 0.0), ([[np.inf]], 0.0), ([[0.5]], -0.01)]
)
def test_d_constant_rejects_bad_rates_and_tail_rate(rates, mu):
    grid = GridSpec.degenerate((1.0,))
    with pytest.raises(ValueError, match="rate"):
        d_constant(SubsetWeights.uniform(1), grid, rates, mu, 1)


@pytest.mark.parametrize("mu, r", [(np.nan, 1), (0.0, np.nan), (0.0, 0.5)])
def test_d_constant_rejects_a_nan_tail_rate_and_a_bad_moment_order(mu, r):
    grid = GridSpec.degenerate((1.0,))
    with pytest.raises(ValueError, match="tail rate|moment order"):
        d_constant(SubsetWeights.uniform(1), grid, [[0.5]], mu, r)


def test_info_numbers_for_scenario():
    scenario = Scenario((gaussian_stream(theta=1.0), gaussian_stream(theta=1.0)))
    grid = GridSpec.common_amplitude([0.5, 1.0], 2)
    rates = scenario.kl_per_stream(grid.points)
    np.testing.assert_allclose(rates, [[0.125, 0.125], [0.5, 0.5]])
    weights = SubsetWeights.uniform(2, 2)
    # subsets {1}, {2}, {1,2} with p_B = 1/3 and grid weights 1/2 each
    expected = (2 / 0.135 + 1 / 0.26 + 2 / 0.51 + 1 / 1.01) / 6
    assert d_constant(weights, grid, rates, 0.01, 1) == pytest.approx(expected, rel=1e-12)


def test_slope_estimate_matches_ar_rate():
    channel = ARChannelSpec(coeffs=(), sigma=1.0, signal=(1.0,), theta=1.0)
    est = estimate_kl_slope(channel, 1.0, 10_000, 50, master_seed=3)
    assert abs(est.mean - 0.5) / 0.5 <= 0.05


def test_slope_estimate_zero_amplitude():
    channel = gaussian_stream(theta=0.0)
    est = estimate_kl_slope(channel, 0.0, 2_000, 20, master_seed=4)
    assert est.mean == 0.0


def test_slope_estimate_matches_mixture_rate():
    channel = MixtureChannelSpec(beta_mix=0.3, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.8)
    est = estimate_kl_slope(channel, 0.8, 10_000, 50, master_seed=5)
    target = channel.kl_rate(0.8)
    assert abs(est.mean - target) / target <= 0.05


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_slope_estimate_rejects_a_non_finite_theta(theta):
    # a NaN theta used to return an estimate with mean NaN
    with pytest.raises(ValueError, match="theta must be finite"):
        estimate_kl_slope(gaussian_stream(), theta, 10, 4, 0)


def test_slope_standard_error_scales_with_replications():
    # quadrupling the replications roughly halves the standard error; the
    # nominal factor is 2 and the band absorbs the noise of the SD estimate
    channel = gaussian_stream(theta=1.0)
    small = estimate_kl_slope(channel, 1.0, 200, 100, master_seed=6)
    large = estimate_kl_slope(channel, 1.0, 200, 400, master_seed=6)
    ratio = small.stderr / large.stderr
    assert 1.6 <= ratio <= 2.5
