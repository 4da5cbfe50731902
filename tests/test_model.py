"""Prior distributions, change specs, and data generation."""

import math

import numpy as np
import pytest

from qcdetect import (
    ChangeSpec,
    GeometricPrior,
    NO_CHANGE,
    PointMassPrior,
    PolynomialTailPrior,
    PriorSpec,
    Scenario,
    gaussian_stream,
    replication_rng,
)
from qcdetect.scenarios import ARChannelSpec


def test_geometric_mass_head():
    prior = GeometricPrior(rho=0.5)
    assert prior.mass(0) == 0.5


def test_geometric_mass_with_head_mass():
    # (1-q) * rho * (1-rho)^k = 0.5 * 0.5 * 0.5
    prior = GeometricPrior(rho=0.5, q=0.5)
    assert prior.mass(1) == pytest.approx(0.125, abs=1e-15)


def test_polynomial_tail_zeta_normalizer():
    # sum (k+1)^-2 = pi^2/6, so pi_0 = 6/pi^2
    prior = PolynomialTailPrior(beta=1.0)
    assert prior.mass(0) == pytest.approx(6.0 / math.pi**2, abs=1e-12)


def test_geometric_tail_values():
    prior = GeometricPrior(rho=0.5)
    assert prior.tail(0) == 1.0
    assert prior.tail(2) == pytest.approx(0.25, abs=1e-15)


def test_tail_at_zero_is_one_minus_head_mass():
    for prior in (
        GeometricPrior(rho=0.3, q=0.3),
        PolynomialTailPrior(beta=1.5, q=0.3),
        PointMassPrior(4, q=0.3),
    ):
        assert prior.tail(0) == pytest.approx(0.7, abs=1e-15)


def test_tail_is_elementwise_on_arrays():
    n = np.array([[0, 1, 4], [5, 17, 300]])
    for prior in (
        GeometricPrior(rho=0.3, q=0.3),
        PolynomialTailPrior(beta=1.5, q=0.3),
        PointMassPrior(4, q=0.3),
    ):
        tails = prior.tail(n)
        assert tails.shape == n.shape
        expected = [[prior.tail(int(k)) for k in row] for row in n]
        np.testing.assert_allclose(tails, expected, rtol=1e-14, atol=0.0)
        with pytest.raises(ValueError):
            prior.tail(np.array([3, -1]))


@pytest.mark.parametrize(
    "prior",
    [
        GeometricPrior(rho=0.2),
        GeometricPrior(rho=0.05, q=0.25),
        PolynomialTailPrior(beta=0.8),
        PolynomialTailPrior(beta=2.5, q=0.1),
        PointMassPrior(7, q=0.05),
    ],
)
def test_mass_sums_to_one_with_analytic_tail(prior):
    partial = sum(prior.mass(k) for k in range(10_001))
    total = partial + prior.tail(10_001) + prior.q
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "prior",
    [
        GeometricPrior(rho=0.2, q=0.1),
        PolynomialTailPrior(beta=1.2),
        PointMassPrior(500),
    ],
)
def test_tail_differences_recover_mass(prior):
    for n in range(1000):
        assert prior.tail(n) - prior.tail(n + 1) == pytest.approx(
            prior.mass(n), abs=1e-12
        )


def test_geometric_tail_rate_matches_log_tail_slope():
    prior = GeometricPrior(rho=0.3)
    n = 1000
    assert abs(prior.log_tail(n)) / n == pytest.approx(
        abs(math.log1p(-0.3)), abs=1e-6
    )
    assert prior.tail_rate == pytest.approx(abs(math.log1p(-0.3)))


def test_polynomial_tail_rate_is_zero():
    assert PolynomialTailPrior(beta=1.0).tail_rate == 0.0


def test_point_mass_has_no_tail_rate():
    with pytest.raises(ValueError):
        PointMassPrior(3).tail_rate


def test_prior_means():
    assert GeometricPrior(rho=0.1).mean() == pytest.approx(9.0)
    assert PointMassPrior(5).mean() == 5.0
    assert math.isinf(PolynomialTailPrior(beta=1.0).mean())
    # sum k (k+1)^-(1+b) / zeta(1+b) = (zeta(b) - zeta(1+b)) / zeta(1+b)
    from scipy.special import zeta

    beta = 2.0
    expected = (zeta(beta) - zeta(1 + beta)) / zeta(1 + beta)
    assert PolynomialTailPrior(beta=beta).mean() == pytest.approx(expected, rel=1e-12)


def test_invalid_priors_rejected():
    with pytest.raises(ValueError):
        GeometricPrior(rho=0.0)
    with pytest.raises(ValueError):
        GeometricPrior(rho=0.5, q=1.0)
    with pytest.raises(ValueError):
        PolynomialTailPrior(beta=0.0)
    with pytest.raises(ValueError):
        PointMassPrior(-1)
    # each family checks its own parameter and the head mass on direct construction
    for build in (
        lambda: GeometricPrior(rho=0.1, q=1.5),
        lambda: GeometricPrior(rho=0.0),
        lambda: GeometricPrior(rho=math.nan),
        lambda: PolynomialTailPrior(beta=-1.0),
        lambda: PolynomialTailPrior(beta=math.nan),
        lambda: PolynomialTailPrior(beta=2.0, q=-0.1),
        lambda: PointMassPrior(k0=-1, q=0.2),
        lambda: PointMassPrior(k0=3, q=1.0),
    ):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(TypeError):
        PriorSpec(q=0.1)  # the base has no family


def test_sample_point_mass_is_degenerate():
    rng = np.random.default_rng(0)
    prior = PointMassPrior(5)
    assert prior.uniforms == 0
    assert (prior.change_points(rng.random((10, prior.uniforms))) == 5).all()


def test_sample_near_degenerate_geometric():
    rng = np.random.default_rng(0)
    prior = GeometricPrior(rho=1.0 - 1e-15)
    assert (prior.change_points(rng.random((100, 1))) == 0).all()


def test_sample_geometric_mean():
    prior = GeometricPrior(rho=0.1)
    rng = np.random.default_rng(2024)
    n = 1_000_000
    values = prior.change_points(rng.random((n, 1))).astype(float)
    se = math.sqrt(0.9) / 0.1 / math.sqrt(n)
    assert abs(values.mean() - 9.0) <= 3 * se


def test_sample_polynomial_tail_matches_masses():
    prior = PolynomialTailPrior(beta=2.0, q=0.2)
    rng = np.random.default_rng(7)
    n = 50_000
    values = prior.change_points(rng.random((n, 1))).astype(float)
    assert abs((values == -1).mean() - 0.2) <= 3 * math.sqrt(0.2 * 0.8 / n)
    for k in (0, 1, 3):
        p = prior.mass(k)
        assert abs((values == k).mean() - p) <= 4 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("prior", [PolynomialTailPrior(0.01), GeometricPrior(1e-20)])
def test_sample_caps_a_far_change_point_below_no_change(prior):
    # most of these draws lie past 2**62; uncapped they overflowed the int64 records
    rng = np.random.default_rng(3)
    draws = prior.change_points(rng.random((5000, 1)))
    assert draws.min() >= 0 and draws.max() == NO_CHANGE - 1


def test_sample_head_mass_frequency():
    prior = GeometricPrior(rho=0.4, q=0.3)
    rng = np.random.default_rng(11)
    n = 50_000
    hits = (prior.change_points(rng.random((n, 1))) == -1).sum()
    assert abs(hits / n - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / n)


# -- generation -----------------------------------------------------------------


def _scenario():
    return Scenario((gaussian_stream(theta=2.0), ARChannelSpec(coeffs=(0.5,), theta=1.0)))


def test_generate_is_reproducible():
    scenario = _scenario()
    change = ChangeSpec(nu=3, subset=(0, 1))
    a = scenario.generate([change], 20, [replication_rng(5, 0)])[0]
    b = scenario.generate([change], 20, [replication_rng(5, 0)])[0]
    np.testing.assert_array_equal(a, b)


def test_change_before_start_equals_change_at_zero():
    # nu = -1 and nu = 0 put every observation post-change
    scenario = _scenario()
    a = scenario.generate([ChangeSpec(nu=-1, subset=(0,))], 15, [replication_rng(1, 0)])[0]
    b = scenario.generate([ChangeSpec(nu=0, subset=(0,))], 15, [replication_rng(1, 0)])[0]
    np.testing.assert_array_equal(a, b)


def test_change_beyond_horizon_is_pure_noise():
    scenario = _scenario()
    late = ChangeSpec(nu=50, subset=(0,))
    with_change = scenario.generate([late], 20, [replication_rng(2, 0)])[0]
    noise = scenario.generate([ChangeSpec(NO_CHANGE, ())], 20, [replication_rng(2, 0)])[0]
    np.testing.assert_array_equal(with_change, noise)


def test_zero_amplitude_change_equals_no_change():
    scenario = _scenario()
    change = ChangeSpec(nu=0, subset=(0, 1), theta=(0.0, 0.0))
    a = scenario.generate([change], 25, [replication_rng(3, 0)])[0]
    b = scenario.generate([ChangeSpec(NO_CHANGE, ())], 25, [replication_rng(3, 0)])[0]
    np.testing.assert_array_equal(a, b)


def test_generate_rejects_bad_inputs():
    scenario = _scenario()
    with pytest.raises(ValueError):
        scenario.generate([ChangeSpec(nu=0, subset=(0,))], 0, [replication_rng(0, 0)])
    with pytest.raises(ValueError):
        scenario.generate([ChangeSpec(nu=0, subset=(5,))], 10, [replication_rng(0, 0)])


def test_change_spec_validation():
    with pytest.raises(ValueError):
        ChangeSpec(nu=-2, subset=(0,))
    with pytest.raises(ValueError):
        ChangeSpec(nu=0, subset=())
    with pytest.raises(ValueError):
        ChangeSpec(nu=0, subset=(0, 1), theta=(1.0,))
    spec = ChangeSpec(nu=2, subset=(1, 0), theta=(0.5, 1.5))
    assert spec.subset == (0, 1)
    assert spec.theta == (1.5, 0.5)


def test_change_spec_sorts_theta_with_its_stream():
    spec = ChangeSpec(nu=0, subset=(2, 0), theta=(0.5, 2.0))
    assert spec.subset == (0, 2)
    assert spec.theta == (2.0, 0.5)
    assert ChangeSpec(nu=0, subset=(2, 0, 1), theta=(3.0, 1.0, 2.0)).theta == (1.0, 2.0, 3.0)
    # a repeated stream is rejected with or without theta
    with pytest.raises(ValueError, match="twice"):
        ChangeSpec(nu=0, subset=(1, 1))
    with pytest.raises(ValueError, match="twice"):
        ChangeSpec(nu=0, subset=(1, 1), theta=(0.5, 2.0))


def test_replication_rng_counter_keying():
    a = replication_rng(99, 1).normal(size=4)
    b = replication_rng(99, 1).normal(size=4)
    c = replication_rng(99, 2).normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
def test_polynomial_tail_exponent_must_be_positive_and_finite(beta):
    with pytest.raises(ValueError, match="tail exponent"):
        PolynomialTailPrior(beta=beta)


SEEDS_AND_REPLICATIONS = [
    (seed, rep) for seed in (0, 1, 2**63, 2**64 - 1) for rep in (0, 1, 1023, 2**64 - 1)
]


def fresh_rng(seed, rep):
    return np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))


def used_rng():
    """A generator mid-stream: a partly read block and a buffered 32-bit half."""
    rng = replication_rng(5, 9)
    rng.normal(size=3)
    rng.integers(0, 7, dtype=np.uint32)
    return rng


@pytest.mark.parametrize("seed, rep", SEEDS_AND_REPLICATIONS)
def test_a_re_keyed_generator_is_a_fresh_one_draw_for_draw(seed, rep):
    horizon = 40
    rng = replication_rng(seed, rep, used_rng())
    assert repr(rng.bit_generator.state) == repr(fresh_rng(seed, rep).bit_generator.state)
    # uniforms, normals of every size 1..T, then mixed sequences of both
    plans = [
        [("random", 1)] * 5 + [("random", 7)],
        [("normal", size) for size in range(1, horizon + 1)],
        [("random", 1), ("normal", 3), ("random", 2), ("normal", horizon), ("random", 1), ("normal", 1)],
    ]
    for plan in plans:
        rng = replication_rng(seed, rep, used_rng())
        fresh = fresh_rng(seed, rep)
        for method, size in plan:
            np.testing.assert_array_equal(
                getattr(rng, method)(size=size), getattr(fresh, method)(size=size)
            )
        assert replication_rng(seed, rep, rng) is rng  # re-keyed in place


def quantile_by_bisection(prior, v):
    """One draw's inverse-CDF of the polynomial tail, one scalar zeta per probe."""
    from scipy.special import zeta

    s = 1.0 + prior.beta
    z0 = zeta(s, 1.0)
    target = 1.0 - v
    hi = 1
    while hi < NO_CHANGE and zeta(s, hi + 1.0) / z0 > target:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if zeta(s, mid + 1.0) / z0 > target:
            lo = mid
        else:
            hi = mid
    return hi - 1


def change_point_by_draw(prior, u):
    if u < prior.q:
        return -1
    v = (u - prior.q) / (1.0 - prior.q)
    if isinstance(prior, PolynomialTailPrior):
        return min(quantile_by_bisection(prior, v), NO_CHANGE - 1)
    return min(prior._quantile(v), NO_CHANGE - 1)


@pytest.mark.parametrize("q", [0.0, 0.2])
@pytest.mark.parametrize(
    "family", [lambda q: PolynomialTailPrior(b, q=q) for b in (0.05, 0.5, 2.0)]
    + [lambda q: GeometricPrior(rho=0.03, q=q)],
    ids=["poly-0.05", "poly-0.5", "poly-2", "geometric"],
)
def test_change_points_equal_the_per_draw_inverse_cdf(family, q):
    prior = family(q)
    u = np.random.default_rng(21).random((400, 1))
    u[:4, 0] = (0.0, q, np.nextafter(1.0, 0.0), 0.5)
    expected = [change_point_by_draw(prior, x) for x in u[:, 0].tolist()]
    assert prior.change_points(u).tolist() == expected
