"""AR signal channels, mixture channels, and their likelihood increments."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from qcdetect import (
    ARChannelSpec,
    ChangeSpec,
    Detector,
    GeometricPrior,
    GridSpec,
    MCConfig,
    MixtureChannelSpec,
    NO_CHANGE,
    PolynomialTailPrior,
    Scenario,
    SubsetWeights,
    gaussian_stream,
    q_constant,
    replication_rng,
)
from qcdetect.scenarios import (
    NO_CHANGE_SAMPLER,
    FixedChangeSampler,
    JointSampler,
    PriorNuSampler,
)
from qcdetect import montecarlo, scenarios


def one_path(channel, horizon, post_from, theta, rng):
    """One stream of ``horizon`` samples carrying ``theta`` from index ``post_from`` on."""
    change = ChangeSpec(nu=post_from, subset=(0,), theta=(theta,))
    return Scenario((channel,)).generate([change], horizon, [rng])[0, :, 0]


def test_ar_residual_first_sample_passthrough():
    # lags before the first sample are zero
    assert ARChannelSpec(coeffs=(0.5,)).residuals([3.7])[-1] == 3.7


def test_ar_residual_hand_value():
    assert ARChannelSpec(coeffs=(0.5,)).residuals([2.0, 3.0])[-1] == pytest.approx(2.0)


def test_ar_residual_zero_history():
    assert ARChannelSpec(coeffs=(0.4, 0.2)).residuals([0.0, 0.0, 0.0])[-1] == 0.0


def test_residuals_invert_the_noise_recursion():
    # the generator filters white noise through 1 / (1 - sum_j b_j z^-j);
    # residuals() applies the inverse filter and must give the noise back
    channel = ARChannelSpec(coeffs=(0.6, -0.2, 0.1), sigma=1.5)
    noise = np.random.default_rng(12).normal(0.0, 1.5, size=(4, 200))
    x = lfilter([1.0], np.concatenate(([1.0], -np.asarray(channel.coeffs))), noise, axis=-1)
    np.testing.assert_allclose(channel.residuals(x), noise, rtol=0.0, atol=1e-12)


def test_ar_stability_check():
    with pytest.raises(ValueError):
        ARChannelSpec(coeffs=(1.05,))
    with pytest.raises(ValueError):
        ARChannelSpec(coeffs=(0.9, 0.2))  # companion radius > 1
    ARChannelSpec(coeffs=(0.5, 0.3))  # stable


def test_ar_channel_validation():
    with pytest.raises(ValueError):
        ARChannelSpec(sigma=0.0)
    with pytest.raises(ValueError):
        ARChannelSpec(signal=())
    with pytest.raises(ValueError):
        ARChannelSpec(theta=-0.5)


def test_ar_llr_increment_values():
    # white noise, so the residuals are the raw values: x = 1.3, s = 0.7, sigma = 1
    channel = ARChannelSpec(signal=(0.7,))
    assert channel.log_lr_increments(np.array([1.3]), np.array([0.0]))[0, 0] == 0.0
    unit = gaussian_stream().log_lr_increments(np.array([1.0]), np.array([1.0]))
    assert unit[0, 0] == pytest.approx(0.5)


def test_ar_llr_increment_mean_under_change():
    # E[increment] = theta^2 s_res^2 / (2 sigma^2) when the signal is present
    rng = np.random.default_rng(0)
    theta, s_res, sigma = 1.0, 1.0, 1.0
    x = theta * s_res + rng.normal(0.0, sigma, 200_000)
    values = theta * s_res * x / sigma**2 - theta**2 * s_res**2 / (2 * sigma**2)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - 0.5) <= 3 * se


def test_q_constant_cases():
    assert q_constant((1.0,), (0.5,)) == pytest.approx(0.25, abs=1e-14)
    assert q_constant((0.0,), (0.5,)) == 0.0
    assert q_constant((1.0, 3.0), ()) == pytest.approx(5.0, abs=1e-14)  # mean of squares
    # template [1, 0] under AR(1) 0.5: steady residuals alternate 1, -0.5
    assert q_constant((1.0, 0.0), (0.5,)) == pytest.approx(0.625, abs=1e-14)
    # AR(2) and AR(3) templates of several samples, bit for bit as recorded
    pinned = [
        ((1.0, -0.5, 0.25), (0.6, -0.2), "0x1.7c28f5c28f5c3p-1"),
        ((0.3, 1.7, -2.2, 0.9, 0.1), (1.2, -0.5), "0x1.10feef5ec80c6p+3"),
        ((2.0, 0.0, -1.0, 0.5), (0.5, 0.2, -0.3), "0x1.3c51eb851eb86p+1"),
        ((0.7, -1.3, 0.4, 1.1, -0.6, 2.5, 0.0), (0.9, -0.4, 0.1), "0x1.20b7f80ac441dp+2"),
        ((1.0, 0.1), (-0.3, 0.4, 0.2), "0x1.973eab367a0f9p-3"),
    ]
    for signal, coeffs, bits in pinned:
        assert q_constant(signal, coeffs) == float.fromhex(bits)
        channel = ARChannelSpec(coeffs=coeffs, sigma=1.0, signal=signal)
        assert channel.kl_rate(2.0) == 4.0 * float.fromhex(bits) / 2.0


def test_residuals_under_no_change_are_white():
    channel = ARChannelSpec(coeffs=(0.6, -0.2), sigma=1.5, signal=(1.0,), theta=1.0)
    rng = replication_rng(17, 0)
    x = one_path(channel, 40_000, 40_000, 0.0, rng)
    resid = channel.residuals(x)
    n = resid.size
    assert abs(resid.mean()) <= 3 * 1.5 / math.sqrt(n)
    # SE of the sample variance of N(0, s^2) is s^2 sqrt(2/n)
    assert abs(resid.var(ddof=1) - 1.5**2) <= 3 * 1.5**2 * math.sqrt(2.0 / n)


def test_ar_increments_match_predictive_densities():
    # each increment is log f(x_n | past) - log g(x_n | past), observation by observation
    channel = ARChannelSpec(coeffs=(0.4, 0.1), sigma=0.9, signal=(1.0, 0.5), theta=0.8)
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, 30)
    vector = channel.log_lr_increments(x, np.array([0.8]))[:, 0]
    density_ratio = channel.log_predictive_post(x, 0.8) - channel.log_predictive_pre(x)
    np.testing.assert_allclose(vector, density_ratio, rtol=0.0, atol=1e-12)


def test_mixture_channel_validation():
    with pytest.raises(ValueError):
        MixtureChannelSpec(beta_mix=0.0, mu1=2.0, theta=0.5)
    with pytest.raises(ValueError):
        MixtureChannelSpec(beta_mix=0.5, mu1=2.0, sigma=0.0, theta=0.5)
    with pytest.raises(ValueError):
        # post-change mean closer to mu1 than to mu2 never resolves the mixture
        MixtureChannelSpec(beta_mix=0.5, mu1=2.0, mu2=0.0, theta=1.8)


def test_mixture_increment_telescopes_to_density_ratio():
    channel = MixtureChannelSpec(beta_mix=0.4, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.6)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(0.3, 1.0, 50)
        inc = channel.log_lr_increments(x, np.array([0.6]))[:, 0]
        closed = channel.log_predictive_post(x, 0.6) - channel.log_predictive_pre(x)
        worst = max(worst, np.max(np.abs(np.cumsum(inc) - np.cumsum(closed))))
    assert worst <= 1e-10


def test_mixture_increments_match_predictive_densities():
    # the pre-change predictive density carries the mixture's running
    # component ratio, so the identity holds for the partial sums
    channel = MixtureChannelSpec(beta_mix=0.3, mu1=2.5, mu2=0.5, sigma=1.1, theta=1.0)
    rng = np.random.default_rng(2)
    x = rng.normal(1.0, 1.0, 40)
    vector = channel.log_lr_increments(x, np.array([1.0]))[:, 0]
    density_ratio = channel.log_predictive_post(x, 1.0) - channel.log_predictive_pre(x)
    np.testing.assert_allclose(np.cumsum(vector), np.cumsum(density_ratio), rtol=0.0, atol=1e-12)


def test_mixture_increment_vanishing_mixing_probability():
    # as beta -> 0 the pre-change law is pure N(mu2, sigma^2)
    channel = MixtureChannelSpec(beta_mix=1e-12, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.6)
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, 20)
    inc = channel.log_lr_increments(x, np.array([0.6]))[:, 0]
    pure = 0.6 * x - 0.18  # (theta - mu2) x / s^2 - theta^2 / (2 s^2)
    np.testing.assert_allclose(inc, pure, atol=1e-9)


def test_mixture_indistinguishable_observation_keeps_ratio():
    # at x = (mu1 + mu2)/2 both components have equal density
    channel = MixtureChannelSpec(beta_mix=0.3, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.7)
    x = 1.0
    value = channel.log_lr_increments(np.array([x]), np.array([0.7]))[0, 0]
    assert channel.gap_penalties(np.array([x]))[0] == 0.0
    l2 = 0.7 * x - 0.7**2 / 2.0
    assert value == pytest.approx(l2, abs=1e-14)


def test_mixture_component_ratio_collapses_post_change():
    # under the post-change law log G_n / n -> I2 - I1 < 0
    channel = MixtureChannelSpec(beta_mix=0.4, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.6)
    rng = replication_rng(23, 0)
    n = 10_000
    x = one_path(channel, n, 0, 0.6, rng)
    log_g = np.cumsum(channel._log_component_ratio(x))
    expected = channel.kl_rate(0.6) - (0.6 - 2.0) ** 2 / 2.0  # I2 - I1
    assert log_g[-1] / n == pytest.approx(expected, rel=0.10)


def test_mixture_slope_approaches_information_rate():
    channel = MixtureChannelSpec(beta_mix=0.4, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.6)
    rng = replication_rng(29, 0)
    n = 10_000
    x = one_path(channel, n, 0, 0.6, rng)
    inc = channel.log_lr_increments(x, np.array([0.6]))[:, 0]
    assert inc.sum() / n == pytest.approx(channel.kl_rate(0.6), rel=0.05)


def test_mixture_latent_component_frequency():
    channel = MixtureChannelSpec(beta_mix=0.3, mu1=8.0, mu2=0.0, sigma=0.5, theta=1.0)
    hits = 0
    n = 2000
    for rep in range(n):
        x = one_path(channel, 1, 1, 0.0, replication_rng(31, rep))
        hits += x[0] > 4.0  # component means are 16 sigma apart
    assert abs(hits / n - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / n)


def test_scenario_increments_shape_and_alignment():
    scenario = Scenario(
        (
            gaussian_stream(theta=1.0),
            MixtureChannelSpec(beta_mix=0.3, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.7),
        )
    )
    points = np.array([[0.5, 0.6], [1.0, 0.8]])
    rng = np.random.default_rng(4)
    data = scenario.generate([ChangeSpec(nu=5, subset=(0,))], 12, [rng])[0]
    inc = scenario.log_lr_increments(data, points)
    assert inc.shape == (12, 2, 2)
    for i, channel in enumerate(scenario.channels):
        single = channel.log_lr_increments(data[:, i], points[:, i])
        np.testing.assert_array_equal(inc[:, :, i], single)


def test_scenario_refuses_a_stream_axis_that_is_not_n():
    scenario = Scenario((gaussian_stream(), gaussian_stream()))
    points = np.array([[0.5, 0.6], [1.0, 0.8]])
    data = np.zeros((4, 10, 2))
    for wide in (np.zeros((4, 10, 3)), np.zeros((4, 10, 1))):
        with pytest.raises(ValueError, match=f"data has {wide.shape[-1]} streams, scenario has 2"):
            scenario.log_lr_increments(wide, points)
    for bad in (np.ones((2, 3)), np.ones((2, 1)), np.ones(2)):
        expected = re.escape(f"grid points have shape {bad.shape}, expected [P, 2]")
        with pytest.raises(ValueError, match=expected):
            scenario.log_lr_increments(data, bad)
        with pytest.raises(ValueError, match=expected):
            scenario.kl_per_stream(bad)
    assert scenario.log_lr_increments(data, points).shape == (4, 10, 2, 2)
    assert scenario.kl_per_stream(points).shape == (2, 2)


def blocked_increments(scenario, data, points, cuts):
    """``Scenario.log_lr_increments`` block by block over ``[cuts[i], cuts[i+1])``."""
    carry = np.zeros(data.shape[:-2] + (scenario.n_streams,))
    blocks = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        lead = min(t0, scenario.lags)
        blocks.append(scenario.log_lr_increments(data[:, t0 - lead:t1], points, t0, carry))
    return np.concatenate(blocks, axis=1)


def random_cuts(rng, horizon):
    """Block boundaries from 0 to ``horizon``, always with blocks starting at 1 and 2."""
    inner = rng.choice(np.arange(3, horizon), size=6, replace=False)
    return [0, 1, 2, *sorted(inner.tolist()), horizon]


AR3_PERIOD5 = ARChannelSpec(
    coeffs=(0.5, -0.3, 0.2), sigma=1.3, signal=(1.0, -0.5, 2.0, 0.25, 0.75), theta=0.8
)
MIXTURE = MixtureChannelSpec(beta_mix=0.3, mu1=-1.0, mu2=0.0, sigma=1.1, theta=0.9)
BLOCKED_SCENARIOS = {
    "ar3-period5": Scenario((AR3_PERIOD5, ARChannelSpec(coeffs=(0.4, 0.1), signal=(1.0, 2.0)))),
    "mixture": Scenario((MIXTURE, MixtureChannelSpec(beta_mix=0.6, mu1=2.0, theta=0.5))),
    "mixed": Scenario((AR3_PERIOD5, MIXTURE, gaussian_stream(theta=0.7))),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_SCENARIOS))
@pytest.mark.parametrize("seed", range(4))
def test_blocked_increments_equal_the_whole_path_bit_for_bit(name, seed):
    # period 5 does not divide the scan's 32-step block; blocks start before p = 3
    scenario = BLOCKED_SCENARIOS[name]
    rng = np.random.default_rng(seed)
    horizon = 97
    changes = [ChangeSpec(nu=int(nu), subset=(0, 1)) for nu in rng.integers(0, horizon, 5)]
    rngs = [replication_rng(40 + seed, r) for r in range(len(changes))]
    data = scenario.generate(changes, horizon, rngs)
    points = np.array([[0.5] * scenario.n_streams, [1.0] * scenario.n_streams])
    whole = scenario.log_lr_increments(data, points)
    cuts = random_cuts(rng, horizon)
    assert np.array_equal(blocked_increments(scenario, data, points, cuts), whole)


@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_increments_are_the_channels_own_calls_stored_stream_major_rows_last(n_points):
    # AR(0), AR(2) and mixture streams; the whole path, then block by block with carry
    scenario = Scenario(
        (gaussian_stream(theta=0.7), ARChannelSpec(coeffs=(0.4, 0.1), signal=(1.0, 2.0, -0.5)), MIXTURE)
    )
    n, n_reps, horizon = scenario.n_streams, 4, 50
    rng = np.random.default_rng(60 + n_points)
    changes = [ChangeSpec(nu=int(nu), subset=(0, 2)) for nu in rng.integers(0, horizon, n_reps)]
    data = scenario.generate(changes, horizon, [replication_rng(61, r) for r in range(n_reps)])
    points = rng.uniform(0.2, 1.5, size=(n_points, n))

    def own_calls(t0, t1, carry):
        return np.stack([
            ch.log_lr_increments(
                data[:, t0 - min(t0, ch.lags):t1, i], points[:, i], t0,
                None if carry is None else carry[:, i],
            )
            for i, ch in enumerate(scenario.channels)
        ], axis=-1)

    whole = scenario.log_lr_increments(data, points)
    assert whole.shape == (n_reps, horizon, n_points, n)
    assert (whole == own_calls(0, horizon, None)).all()
    # the memory is [N, T, P, R]: one step's [P, R] of a stream is contiguous
    assert whole.transpose(3, 1, 2, 0).flags.c_contiguous
    carry, own_carry = np.zeros((n_reps, n)), np.zeros((n_reps, n))
    for t0, t1 in zip([0, 1, 2, 17, 32], [1, 2, 17, 32, horizon]):
        lead = min(t0, scenario.lags)
        block = scenario.log_lr_increments(data[:, t0 - lead:t1], points, t0, carry)
        assert (block == own_calls(t0, t1, own_carry)).all()
        assert (block == whole[:, t0:t1]).all()
        assert block.transpose(3, 1, 2, 0).flags.c_contiguous
        assert (carry == own_carry).all()


def test_mixture_gap_penalties_have_the_bits_of_the_two_sided_difference():
    # one softplus over the T + 1 running log G values, sliced twice
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 40))
    carry = rng.normal(size=4)
    log_g = np.cumsum(np.concatenate([carry[:, None], MIXTURE._log_component_ratio(x)], axis=-1), axis=-1)
    v = MIXTURE.log_odds
    expected = np.logaddexp(0.0, v + log_g[:, :-1]) - np.logaddexp(0.0, v + log_g[:, 1:])
    got = MIXTURE.gap_penalties(x, carry)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.array_equal(carry, log_g[:, -1])


def test_a_mixture_block_needs_its_carry():
    x = np.zeros((2, 8))
    with pytest.raises(ValueError, match="running log G"):
        MIXTURE.log_lr_increments(x, np.array([0.9]), start=4)


def test_scenario_requires_channels():
    with pytest.raises(ValueError):
        Scenario(())


def reference_stream(channel, horizon, post_from, theta, rng):
    """One stream drawn and shaped on its own, the law a span must reproduce."""
    if isinstance(channel, MixtureChannelSpec):
        component_mean = channel.mu1 if rng.random() < channel.beta_mix else channel.mu2
        z = rng.normal(0.0, 1.0, size=horizon)
        mean = np.full(horizon, component_mean)
        mean[post_from:] = theta
        return mean + channel.sigma * z
    x = rng.normal(0.0, channel.sigma, size=horizon)
    if channel.coeffs:
        x = lfilter([1.0], np.concatenate(([1.0], -np.asarray(channel.coeffs))), x)
    x[post_from:] += theta * channel.signal_sequence(horizon)[post_from:]
    return x


def reference_replication(scenario, change, horizon, rng):
    theta = {}
    if change.nu != NO_CHANGE:
        values = change.theta or [scenario.channels[i].theta for i in change.subset]
        theta = dict(zip(change.subset, values))
    cols = [
        reference_stream(
            channel,
            horizon,
            max(change.nu, 0) if i in theta else horizon,
            theta.get(i, 0.0),
            rng,
        )
        for i, channel in enumerate(scenario.channels)
    ]
    return np.stack(cols, axis=-1)


SPAN_SCENARIOS = {
    "ar0": Scenario(
        (
            ARChannelSpec(coeffs=(), sigma=1.0, signal=(1.0,), theta=1.0),
            ARChannelSpec(coeffs=(), sigma=0.5, signal=(1.0, -0.5), theta=0.8),
            ARChannelSpec(coeffs=(), sigma=2.0, signal=(0.5, 1.0, 1.5), theta=1.7),
        )
    ),
    "ar1": Scenario(
        (
            ARChannelSpec(coeffs=(0.6,), sigma=1.0, signal=(1.0,), theta=1.0),
            ARChannelSpec(coeffs=(-0.4,), sigma=0.5, signal=(1.0, -0.5), theta=0.8),
            ARChannelSpec(coeffs=(0.3,), sigma=2.0, signal=(0.5, 1.0, 1.5), theta=1.7),
        )
    ),
    "ar2": Scenario(
        (
            ARChannelSpec(coeffs=(0.4, -0.3), sigma=1.0, signal=(1.0,), theta=1.0),
            ARChannelSpec(coeffs=(0.0, 0.5), sigma=0.5, signal=(1.0, -0.5), theta=0.8),
            ARChannelSpec(coeffs=(-0.2, -0.3), sigma=2.0, signal=(0.5, 1.0, 1.5), theta=1.7),
        )
    ),
    "mixture": Scenario(
        (
            MixtureChannelSpec(beta_mix=0.3, mu1=-1.0, mu2=0.0, sigma=1.0, theta=1.0),
            MixtureChannelSpec(beta_mix=0.6, mu1=2.0, mu2=0.5, sigma=0.7, theta=-0.5),
            MixtureChannelSpec(beta_mix=0.5, mu1=-3.0, mu2=1.0, sigma=1.5, theta=2.0),
        )
    ),
    "mixed": Scenario(
        (
            ARChannelSpec(coeffs=(0.4, -0.3), sigma=2.0, signal=(0.5, 1.0, 1.5), theta=1.7),
            MixtureChannelSpec(beta_mix=0.3, mu1=-1.0, mu2=0.0, sigma=1.0, theta=1.0),
            ARChannelSpec(coeffs=(0.6,), sigma=0.5, signal=(1.0, -0.5), theta=0.8),
        )
    ),
}


def reference_change(sampler, prior, rng):
    """A replication's change drawn on its own: one scalar draw per uniform, then a ``ChangeSpec``."""
    if isinstance(sampler, FixedChangeSampler):
        return sampler.change
    nu = int(prior.change_points(np.array([[rng.random() for _ in range(prior.uniforms)]]))[0])
    if isinstance(sampler, PriorNuSampler):
        return ChangeSpec(nu, sampler.subset, sampler.theta)
    b = min(int(np.searchsorted(sampler.subset_cdf, rng.random(), side="right")), len(sampler.subsets) - 1)
    p = min(int(np.searchsorted(sampler.point_cdf, rng.random(), side="right")), len(sampler.points) - 1)
    subset = sampler.subsets[b]
    return ChangeSpec(nu, subset, tuple(sampler.points[p][i] for i in subset))


SPAN_PRIORS = {
    "geometric": GeometricPrior(rho=0.08, q=0.15),
    "polynomial": PolynomialTailPrior(beta=0.5, q=0.2),
}
SPAN_HORIZON = 25
SPAN_SAMPLERS = {
    "nu-inside": lambda detector: FixedChangeSampler(ChangeSpec(nu=9, subset=(2, 0), theta=(1.2, 0.7))),
    "nu-minus-one": lambda detector: FixedChangeSampler(ChangeSpec(nu=-1, subset=(1,))),
    "nu-beyond": lambda detector: FixedChangeSampler(ChangeSpec(nu=SPAN_HORIZON, subset=(0, 1))),
    "none": lambda detector: NO_CHANGE_SAMPLER,
    "prior-nu": lambda detector: PriorNuSampler((2, 0), (1.1, 0.9)),
    "joint": JointSampler.for_detector,
}


@pytest.mark.parametrize("kind", sorted(SPAN_SCENARIOS))
@pytest.mark.parametrize("sampler_name", sorted(SPAN_SAMPLERS))
@pytest.mark.parametrize("prior_name", sorted(SPAN_PRIORS))
def test_span_generation_equals_per_replication_generation(kind, sampler_name, prior_name, monkeypatch):
    """Every span's data is each replication generated alone, bit for bit, for any span split."""
    scenario, prior = SPAN_SCENARIOS[kind], SPAN_PRIORS[prior_name]
    detector = Detector(
        "shiryaev-mixture",
        scenario,
        prior,
        GridSpec.common_amplitude((0.5, 1.5), 3),
        SubsetWeights(p=(1.0, 0.5, 2.0), K=2),
    )
    sampler = SPAN_SAMPLERS[sampler_name](detector)
    spans = []
    monkeypatch.setattr(
        Detector, "stopping_times",
        lambda self, data, log_thresholds: spans.append(data) or np.zeros((len(data), 1)),
    )
    mc = MCConfig(replications=40, master_seed=17, horizon=SPAN_HORIZON)
    splits = [(0, 40), (0, 1), (1, 12), (13, 27)]
    nus = {}
    for start, count in splits:
        _, nu, _ = montecarlo._simulate_span(
            detector, sampler, mc, start, count, [detector.log_level(50.0)]
        )
        data = spans.pop()
        assert data.shape == (count, SPAN_HORIZON, 3)
        for j, k in enumerate(range(start, start + count)):
            change = reference_change(sampler, prior, replication_rng(17, k))
            alone = replication_rng(17, k)
            reference_change(sampler, prior, alone)  # the draws before the noise
            assert nu[j] == change.nu
            expected = scenario.generate([change], SPAN_HORIZON, [alone])[0]
            assert_same_bits(data[j], expected)
            alone = replication_rng(17, k)
            reference_change(sampler, prior, alone)
            assert_same_bits(data[j], reference_replication(scenario, change, SPAN_HORIZON, alone))
            nus[k] = int(nu[j])
    if sampler_name in ("prior-nu", "joint"):
        # the draws cover changes before the start, inside and beyond the horizon
        values = np.array(list(nus.values()))
        assert (values == -1).any() and ((values >= 0) & (values < SPAN_HORIZON)).any()
        assert (values >= SPAN_HORIZON).any()


@pytest.mark.parametrize(
    "p, K", [((1.0, 2.0, 0.5), 3), ((0.5, 1.0, 2.0, 3.0), 2), ((0.3, 1.7, 0.9, 2.2, 1.1), 5)]
)
def test_joint_sampler_inverts_its_cdf_over_subsets_by_size_then_lexicographically(p, K):
    n = len(p)
    weights = SubsetWeights(p=p, K=K)
    detector = Detector(
        "shiryaev-mixture", Scenario((gaussian_stream(),) * n), GeometricPrior(rho=0.05),
        GridSpec.common_amplitude((0.5, 1.0), n), weights,
    )
    sampler = JointSampler.for_detector(detector)
    expected = [c for size in range(1, K + 1) for c in itertools.combinations(range(n), size)]
    assert sampler.subsets == tuple(expected)
    masks = np.zeros((len(expected), n), dtype=bool)
    for s, subset in enumerate(expected):
        masks[s, list(subset)] = True
    cdf = np.cumsum(np.exp(masks @ weights.log_p + weights.log_normalizer))
    np.testing.assert_array_equal(np.array(sampler.subset_cdf).view(np.int64), cdf.view(np.int64))


def test_joint_sampler_builds_its_masks_once_and_stays_hashable(monkeypatch):
    n, prior = 5, GeometricPrior(rho=0.05)
    detector = Detector(
        "shiryaev-mixture", Scenario((gaussian_stream(),) * n), prior,
        GridSpec.common_amplitude((0.5, 1.0), n), SubsetWeights(p=(0.3, 1.7, 0.9, 2.2, 1.1), K=3),
    )
    sampler = JointSampler.for_detector(detector)
    assert sampler == JointSampler.for_detector(detector)
    assert hash(sampler) == hash(JointSampler.for_detector(detector))
    masks = np.array([detector.scenario.affected_streams(b)[0] for b in sampler.subsets])
    np.testing.assert_array_equal(sampler.masks, masks)
    assert not sampler.masks.flags.writeable
    u = np.array([replication_rng(41, rep).random(sampler.uniforms(prior)) for rep in range(400)])
    b_idx = np.searchsorted(sampler.subset_cdf, u[:, prior.uniforms], side="right")

    def listing(*args, **kwargs):
        raise AssertionError("the masks are listed again")

    monkeypatch.setattr(Scenario, "affected_streams", listing)
    _, affected, _ = sampler.changes(prior, u, detector.scenario)
    np.testing.assert_array_equal(affected, masks[np.minimum(b_idx, len(masks) - 1)])
    with pytest.raises(ValueError, match="cover 5 streams, the scenario has 4"):
        sampler.changes(prior, u, Scenario((gaussian_stream(),) * 4))


def test_span_generation_needs_one_generator_per_change():
    scenario = SPAN_SCENARIOS["ar1"]
    changes = [ChangeSpec(NO_CHANGE, ())] * 2
    with pytest.raises(ValueError):
        scenario.generate(changes, 10, [replication_rng(0, 0)])
    with pytest.raises(ValueError):  # an iterator that runs out
        scenario.generate(changes, 10, iter([replication_rng(0, 0)]))


# -- the in-repo AR filter against scipy's lfilter ------------------------------------


def lfilter_ar(x, coeffs):
    return lfilter([1.0], np.concatenate(([1.0], -np.asarray(coeffs))), x, axis=-1)


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


FILTER_COEFFS = [(0.5,), (-0.5,), (0.0, 0.5), (-0.2, -0.3), (0.6, -0.2, -0.1), (0.3, 0.0, -0.2, -0.1)]


@pytest.mark.parametrize("coeffs", FILTER_COEFFS, ids=str)
@pytest.mark.parametrize("reps", [1, 7, 1024])
@pytest.mark.parametrize("horizon", [1, 2, 400])
def test_ar_filter_is_lfilter_bit_for_bit(coeffs, reps, horizon):
    rng = np.random.default_rng(reps * 1000 + horizon)
    x = rng.normal(size=(reps, horizon))
    u = rng.random(x.shape)
    x[u < 0.1] = 0.0
    x[u > 0.9] = -0.0
    # a leading run of signed zeros keeps the state at zero, where only
    # lfilter's exact operations (0.0 + x first, the 0 * x terms) give its signs
    lead = min(horizon, 6)
    x[:, :lead] = np.where(rng.random((reps, lead)) < 0.5, 0.0, -0.0)
    expected = lfilter_ar(x, coeffs)
    time_major = x.T.copy()
    scenarios.ar_filter(time_major, coeffs)
    assert_same_bits(time_major.T, expected)
    scenarios.ar_filter(x.T, coeffs)  # in place through the transposed view
    assert_same_bits(x, expected)


@pytest.mark.parametrize("coeffs", [(), (0.6,), (0.4, -0.3), (0.5, 0.0, -0.2)], ids=len)
def test_ar_generation_equals_the_per_replication_law(coeffs):
    channel = ARChannelSpec(coeffs=coeffs, sigma=0.7, signal=(1.0, -0.5, 0.25), theta=0.8)
    horizon, reps = 60, 40
    post_from = np.random.default_rng(3).integers(0, horizon + 1, size=reps)
    post_from[:4] = (0, 1, horizon - 1, horizon)
    theta = np.linspace(0.0, 2.0, reps)
    changes = [ChangeSpec(nu=int(p), subset=(0,), theta=(t,)) for p, t in zip(post_from, theta)]
    rngs = [replication_rng(5, r) for r in range(reps)]
    batch = Scenario((channel,)).generate(changes, horizon, rngs)[..., 0]
    expected = np.stack(
        [
            reference_stream(channel, horizon, post_from[r], theta[r], replication_rng(5, r))
            for r in range(reps)
        ]
    )
    assert batch.shape == (reps, horizon)
    assert_same_bits(batch, expected)


@pytest.mark.parametrize("kind", ["ar", "mixture"])
def test_generation_peaks_within_a_tenth_of_its_output(kind):
    """A span holds one copy of its data: no ``[R, T]`` mask, signal or zero copy per stream."""
    if kind == "ar":
        channels = tuple(ARChannelSpec(coeffs=(0.5, -0.2), theta=1.0) for _ in range(4))
    else:
        channels = tuple(MixtureChannelSpec(beta_mix=0.3, mu1=-1.0, theta=1.0) for _ in range(4))
    scenario = Scenario(channels)
    reps, horizon = 256, 2000
    # half the rows change inside the horizon, half never do
    changes = [ChangeSpec(nu=r * 7, subset=(0, 2)) for r in range(reps)]
    rngs = [replication_rng(3, r) for r in range(reps)]
    tracemalloc.start()
    try:
        data = scenario.generate(changes, horizon, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.nbytes == 8 * reps * horizon * 4  # 16.4 MB
    assert peak <= 1.1 * data.nbytes
