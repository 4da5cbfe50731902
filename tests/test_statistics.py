"""Running mixed statistics: recursions, window-limited sums, posterior identity."""

import copy
import math
import re

import numpy as np
import pytest
from scipy.special import logsumexp

from qcdetect import (
    ChangeSpec,
    GeometricPrior,
    GridSpec,
    MixtureChannelSpec,
    PointMassPrior,
    Scenario,
    SubsetWeights,
    gaussian_stream,
    mixture_lr_dp,
    posterior_no_change,
)
from qcdetect.scenarios import ARChannelSpec
from qcdetect.statistics import (
    DetectorState, FlatWeights, _log_inputs, direct_log_statistic, window_log_statistic,
)
from qcdetect.verify import posterior_direct_bayes


def make_pair_setup():
    scenario = Scenario(
        (
            ARChannelSpec(coeffs=(0.5,), sigma=1.0, signal=(1.0,), theta=0.8),
            MixtureChannelSpec(beta_mix=0.3, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.7),
        )
    )
    grid = GridSpec(theta_points=((0.5, 0.6), (1.0, 0.8)), weights=(0.5, 0.5))
    weights = SubsetWeights(p=(1.0, 1.5), K=2)
    prior = GeometricPrior(rho=0.1, q=0.05)
    return scenario, grid, weights, prior


def unit_increment_setup():
    # theta = 0 makes every log LR increment identically zero
    scenario = Scenario((gaussian_stream(theta=0.0),))
    grid = GridSpec.degenerate((0.0,))
    weights = SubsetWeights.uniform(1)
    return scenario, grid, weights


# -- grid validation ---------------------------------------------------------------


def test_grid_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        GridSpec(theta_points=((0.5,), (1.0,)), weights=(0.5, 0.6))


def test_grid_points_must_be_distinct():
    with pytest.raises(ValueError):
        GridSpec(theta_points=((1.0,), (1.0,)), weights=(0.5, 0.5))


def test_grid_weights_must_be_positive():
    with pytest.raises(ValueError):
        GridSpec(theta_points=((0.5,), (1.0,)), weights=(1.0, 0.0))


def test_grid_points_must_share_a_dimension_and_match_the_weights():
    with pytest.raises(ValueError, match="same dimension"):
        GridSpec(theta_points=((0.5,), (1.0, 2.0)), weights=(0.5, 0.5))
    with pytest.raises(ValueError, match="3 weights for 2 points"):
        GridSpec(theta_points=((0.5,), (1.0,)), weights=(0.25, 0.25, 0.5))


def test_common_amplitude_grid():
    grid = GridSpec.common_amplitude([0.5, 1.0], 3)
    assert grid.points.shape == (2, 3)
    assert grid.weights == (0.5, 0.5)


def test_common_amplitude_grid_of_no_amplitudes_is_refused_by_the_grid_check():
    with pytest.raises(ValueError, match="at least one parameter point"):
        GridSpec.common_amplitude((), 3)


# -- initial values ------------------------------------------------------------------


def test_shiryaev_starts_at_head_odds():
    scenario, grid, weights = unit_increment_setup()
    for q in (0.0, 0.3):
        prior = GeometricPrior(rho=0.5, q=q)
        state = DetectorState(prior, grid, weights)
        assert np.exp(state.log_shiryaev()[0]) == pytest.approx(q / (1 - q), abs=1e-15)


def test_sr_starts_at_head_start():
    scenario, grid, weights = unit_increment_setup()
    state = DetectorState(FlatWeights(3.0), grid, weights)
    assert np.exp(state.log_shiryaev()[0]) == pytest.approx(3.0, rel=1e-15)


def test_flat_weights_reject_a_negative_head_start():
    with pytest.raises(ValueError, match="head start"):
        FlatWeights(-1.0)


# -- closed forms under unit likelihood ratios ----------------------------------------


def test_shiryaev_unit_lr_closed_form():
    # S(n) = (1-rho)^-n - 1 for q = 0; checked against direct summation
    scenario, grid, weights = unit_increment_setup()
    prior = GeometricPrior(rho=0.5)
    inc = np.zeros((1, 1, 1))
    state = DetectorState(prior, grid, weights)
    for n in range(1, 6):
        state.advance(inc)
        direct = sum(math.exp(prior.log_mass(k)) for k in range(n)) / prior.tail(n)
        assert np.exp(state.log_shiryaev()[0]) == pytest.approx(2.0**n - 1.0, rel=1e-12)
        assert np.exp(state.log_shiryaev()[0]) == pytest.approx(direct, rel=1e-12)


def test_shiryaev_unit_lr_recurrence():
    # S(n) = (rho + S(n-1)) / (1 - rho)
    scenario, grid, weights = unit_increment_setup()
    prior = GeometricPrior(rho=0.3)
    inc = np.zeros((1, 1, 1))
    state = DetectorState(prior, grid, weights)
    previous = 0.0
    for _ in range(10):
        state.advance(inc)
        expected = (0.3 + previous) / 0.7
        assert np.exp(state.log_shiryaev()[0]) == pytest.approx(expected, rel=1e-12)
        previous = expected


@pytest.mark.parametrize("omega,expected", [(0.0, 7.0), (3.0, 10.0)])
def test_sr_unit_lr_linear_growth(omega, expected):
    scenario, grid, weights = unit_increment_setup()
    state = DetectorState(FlatWeights(omega), grid, weights)
    inc = np.zeros((1, 1, 1))
    for _ in range(7):
        state.advance(inc)
    assert np.exp(state.log_shiryaev()[0]) == pytest.approx(expected, rel=1e-12)


# -- recursion vs direct summation ------------------------------------------------------


def test_recursion_matches_direct_sum():
    scenario, grid, weights, prior = make_pair_setup()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = scenario.generate([ChangeSpec(nu=7, subset=(0, 1))], 50, [rng])[0]
        inc = scenario.log_lr_increments(data, grid.points)
        for weighting in (prior, FlatWeights(2.0)):
            state = DetectorState(weighting, grid, weights)
            for t in range(50):
                state.advance(inc[None, t])
                direct = direct_log_statistic(inc[: t + 1], weighting, grid, weights, n=t + 1)
                worst = max(worst, abs(state.log_shiryaev()[0] - direct))
    assert worst <= 1e-9


def test_windowed_state_covering_origin_is_bit_identical_to_full():
    scenario, grid, weights, prior = make_pair_setup()
    rng = np.random.default_rng(3)
    data = scenario.generate([ChangeSpec(nu=10, subset=(0,))], 40, [rng])[0]
    inc = scenario.log_lr_increments(data, grid.points)
    for weighting in (prior, FlatWeights(1.0)):
        state = DetectorState(weighting, grid, weights, window_m1=100)
        for t in range(40):
            state.advance(inc[None, t])
            full = direct_log_statistic(inc[: t + 1], weighting, grid, weights, n=t + 1)
            assert state.log_shiryaev()[0] == full


def test_window_m1_zero_keeps_single_term():
    scenario, grid, weights, prior = make_pair_setup()
    rng = np.random.default_rng(4)
    data = scenario.generate([ChangeSpec(nu=2, subset=(0,))], 6, [rng])[0]
    inc = scenario.log_lr_increments(data, grid.points)
    n = 4
    value = direct_log_statistic(inc[:n], prior, grid, weights, n=n, m1=0)
    # only k = n-1 remains: pi_{n-1} Lambda(n-1, n) / tail(n)
    log_lam = logsumexp(mixture_lr_dp(inc[n - 1], weights) + grid.log_weights)
    expected = prior.log_mass(n - 1) + log_lam - prior.log_tail(n)
    assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("m1", [0, 1, 3])
def test_window_state_keeps_m1_plus_one_steps_and_equals_the_direct_sum(m1):
    scenario, grid, weights, prior = make_pair_setup()
    rng = np.random.default_rng(6)
    data = scenario.generate([ChangeSpec(nu=3, subset=(0, 1))], 12, [rng])[0]
    inc = scenario.log_lr_increments(data, grid.points)
    state = DetectorState(prior, grid, weights, window_m1=m1)
    for t in range(12):
        state.advance(inc[None, t])
        assert state._window.shape[2] == min(t + 1, m1 + 1)  # [N, R, steps, P]
        direct = direct_log_statistic(inc[: t + 1], prior, grid, weights, n=t + 1, m1=m1)
        assert state.log_shiryaev()[0] == direct


def test_windowed_sums_match_brute_force_oracle():
    # plain-python re-summation over the window, m1 = 8, m0 in {0, 2}, 20 steps
    scenario, grid, weights, prior = make_pair_setup()
    rng = np.random.default_rng(5)
    data = scenario.generate([ChangeSpec(nu=6, subset=(0, 1))], 20, [rng])[0]
    inc = scenario.log_lr_increments(data, grid.points)
    m1 = 8
    omega = 1.3

    def log_lam(k, n):
        per_point = [
            mixture_lr_dp(inc[k:n, p].sum(axis=0), weights) + grid.log_weights[p]
            for p in range(grid.n_points)
        ]
        return logsumexp(per_point)

    for m0 in (0, 2):
        for n in range(1, 21):
            k_lo = max(0, n - (m1 + 1))
            terms_s, terms_r = [], []
            for k in range(k_lo, n - m0):
                terms_s.append(prior.log_mass(k) + log_lam(k, n))
                terms_r.append(log_lam(k, n))
            if k_lo == 0:  # the window reaches the origin: the head summand
                terms_s.append(math.log(prior.q) + log_lam(0, n))
                terms_r.append(math.log(omega) + log_lam(0, n))
            expected_s = logsumexp(terms_s) - prior.log_tail(n)
            expected_r = logsumexp(terms_r)
            got_s = direct_log_statistic(inc[:n], prior, grid, weights, n=n, m1=m1, m0=m0)
            got_r = direct_log_statistic(
                inc[:n], FlatWeights(omega), grid, weights, n=n, m1=m1, m0=m0
            )
            assert got_s == pytest.approx(expected_s, abs=1e-10)
            assert got_r == pytest.approx(expected_r, abs=1e-10)
    # before the first candidate change point and without a head weight: zero
    empty = direct_log_statistic(inc[:2], FlatWeights(0.0), grid, weights, n=2, m1=m1, m0=2)
    assert empty == -math.inf


def test_window_shorter_than_range_rejected():
    scenario, grid, weights, prior = make_pair_setup()
    rng = np.random.default_rng(6)
    data = scenario.generate([ChangeSpec(nu=3, subset=(0,))], 12, [rng])[0]
    inc = scenario.log_lr_increments(data, grid.points)
    # times 4..12 are needed; the history ends at time n = 12
    with pytest.raises(ValueError):
        direct_log_statistic(inc[5:], prior, grid, weights, n=12, m1=8)
    # enough history for the same window is accepted
    direct_log_statistic(inc[3:], prior, grid, weights, n=12, m1=8)


def test_window_m0_drops_most_recent_terms():
    scenario, grid, weights, prior = make_pair_setup()
    rng = np.random.default_rng(7)
    data = scenario.generate([ChangeSpec(nu=3, subset=(0,))], 10, [rng])[0]
    inc = scenario.log_lr_increments(data, grid.points)
    n, m1, m0 = 9, 5, 2
    got = direct_log_statistic(inc[:n], FlatWeights(), grid, weights, n=n, m1=m1, m0=m0)
    terms = []
    for k in range(n - (m1 + 1), n - m0):
        per_point = [
            mixture_lr_dp(inc[k:n, p].sum(axis=0), weights) + grid.log_weights[p]
            for p in range(grid.n_points)
        ]
        terms.append(logsumexp(per_point))
    assert got == pytest.approx(logsumexp(terms), abs=1e-12)


# -- posterior identity -----------------------------------------------------------------


def test_posterior_identity_against_direct_bayes():
    scenario, grid, weights, prior = make_pair_setup()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        data = scenario.generate([ChangeSpec(nu=8, subset=(0, 1))], 40, [rng])[0]
        oracle = posterior_direct_bayes(scenario, data, prior, grid, weights)
        inc = scenario.log_lr_increments(data, grid.points)
        state = DetectorState(prior, grid, weights)
        for t in range(40):
            state.advance(inc[None, t])
            worst = max(worst, abs(posterior_no_change(state.log_shiryaev())[0] - oracle[t]))
    assert worst <= 1e-9


# -- structure ---------------------------------------------------------------------------


def test_degenerate_grid_reduces_to_single_parameter_mixture():
    scenario, _, weights, prior = make_pair_setup()
    theta = (0.8, 0.7)
    grid = GridSpec.degenerate(theta)
    rng = np.random.default_rng(9)
    data = scenario.generate([ChangeSpec(nu=4, subset=(0, 1))], 30, [rng])[0]
    inc = scenario.log_lr_increments(data, grid.points)
    state = DetectorState(prior, grid, weights)
    # single-parameter mixture: per-subset recursions without any theta layer
    masks = weights.masks
    log_pb = weights.log_p_subsets
    log_s = np.full(masks.shape[0], -np.inf if prior.q == 0 else math.log(prior.head_odds()))
    for t in range(30):
        state.advance(inc[None, t])
        llr = masks.astype(float) @ inc[t, 0]
        log_s = (
            llr
            + np.logaddexp(log_s + prior.log_tail(t), prior.log_mass(t))
            - prior.log_tail(t + 1)
        )
        single = logsumexp(log_s + log_pb)
        assert state.log_shiryaev()[0] == pytest.approx(single, abs=1e-12)


def test_statistics_are_nonnegative():
    scenario, grid, weights, prior = make_pair_setup()
    rng = np.random.default_rng(10)
    data = scenario.generate([ChangeSpec(nu=2, subset=(0,))], 25, [rng])[0]
    inc = scenario.log_lr_increments(data, grid.points)
    for weighting in (prior, FlatWeights()):
        state = DetectorState(weighting, grid, weights)
        for t in range(25):
            state.advance(inc[None, t])
            assert np.exp(state.log_shiryaev()[0]) >= 0.0


def test_point_mass_prior_exhausts_shiryaev_support():
    scenario, grid, weights = unit_increment_setup()
    prior = PointMassPrior(1)
    state = DetectorState(prior, grid, weights)
    inc = np.zeros((1, 1, 1))
    state.advance(inc)  # n = 1 fine
    with pytest.raises(ValueError, match="tail"):
        state.advance(inc)  # tail(2) = 0


def test_window_kernel_refuses_a_vanished_point_mass_tail():
    scenario, grid, weights = unit_increment_setup()
    prior = PointMassPrior(3, q=0.5)
    window = np.zeros((1, 3, 1))  # [N, m, P]: the head term alone, log q + log C
    assert np.isfinite(window_log_statistic(window, prior, grid, weights, n=3, m0=0))
    with pytest.raises(ValueError, match="prior tail vanishes at n=4"):
        window_log_statistic(window, prior, grid, weights, n=4, m0=0)


def test_state_refuses_increments_of_the_wrong_shape_and_a_basis_over_other_streams():
    _, grid, weights, prior = make_pair_setup()  # P = 2, N = 2
    for window_m1 in (None, 3):
        state = DetectorState(prior, grid, weights, n_reps=3, window_m1=window_m1)
        with pytest.raises(ValueError, match=re.escape("shape (3, 2, 2), got (2, 2, 2)")):
            state.advance(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="subset weights cover 3 streams, grid 2"):
        DetectorState(prior, grid, SubsetWeights.uniform(3))


def test_log_statistic_is_exact_beyond_e700():
    scenario, grid, weights = unit_increment_setup()
    inc = np.full((1, 3, 1, 1), 500.0)
    state = DetectorState(FlatWeights(), grid, weights)
    for t in range(3):
        state.advance(inc[:, t])
    direct = direct_log_statistic(inc, FlatWeights(), grid, weights, n=3)
    # log R(3) = log(e^1500 + e^1000 + e^500), far beyond 700
    assert state.log_shiryaev()[0] == pytest.approx(1500.0, rel=0.0, abs=1e-9)
    np.testing.assert_allclose(state.log_shiryaev(), direct, rtol=0.0, atol=1e-9)


# -- subset sums and the screened read-out ----------------------------------------


def member_fold(increments, n_streams, K):
    """Per-subset sums added member by member from the smallest member up."""
    from qcdetect.likelihood import subset_masks

    masks = subset_masks(n_streams, K)
    out = np.empty(increments.shape[:-2] + (len(masks), increments.shape[-2]))
    for s, row in enumerate(masks):
        members = np.flatnonzero(row)
        acc = increments[..., members[0]].copy()
        for i in members[1:]:
            acc += increments[..., i]
        out[..., s, :] = acc
    return out


def test_prefix_subset_sums_equal_the_member_fold_bit_for_bit():
    rng = np.random.default_rng(12)
    for n in range(1, 9):
        grid = GridSpec(theta_points=((0.5,) * n, (1.0,) * n), weights=(0.3, 0.7))
        for k in range(1, n + 1):
            state = DetectorState(FlatWeights(), grid, SubsetWeights.uniform(n, K=k))
            # magnitudes spread over 16 decades, so any other order of the adds shows
            inc = rng.normal(size=(3, 4, 2, n)) * 10.0 ** rng.uniform(-8, 8, size=(3, 4, 2, n))
            expected = np.moveaxis(member_fold(inc, n, k).view(np.int64), (-2, -1), (0, 1))
            np.testing.assert_array_equal(state.subset_llrs(inc).view(np.int64), expected)
            np.testing.assert_array_equal(
                state.subset_llrs(inc[:, 1]).view(np.int64), expected[:, :, :, 1]
            )


def test_retain_keeps_the_rows_last_state_contiguous():
    n = 3
    grid = GridSpec.common_amplitude((0.5, 1.0), n)
    state = DetectorState(FlatWeights(), grid, SubsetWeights.uniform(n), n_reps=40)
    state.advance(np.random.default_rng(14).normal(size=(40, 2, n)))
    before, keep = state.log_components.copy(), np.arange(40) % 3 != 0
    state.retain(keep)
    # a non-contiguous state would slow every later step and copy in every read-out
    assert state.log_components.flags.c_contiguous and state.n_reps == keep.sum()
    np.testing.assert_array_equal(state.log_components, before[..., keep])


def test_subset_sums_refuse_increments_of_the_wrong_width():
    n = 3
    state = DetectorState(FlatWeights(), GridSpec.common_amplitude((0.5, 1.0), n), SubsetWeights.uniform(n))
    for width in (2, 4):
        with pytest.raises(ValueError, match=rf"\[\.\.\., P, 3\], got shape \(4, 2, {width}\)"):
            state.subset_llrs(np.zeros((4, 2, width)))
    assert state.subset_llrs(np.zeros((4, 2, n))).shape == (SubsetWeights.uniform(n).n_subsets, 2, 4)


@pytest.mark.parametrize("window_m1", [None, 4], ids=["recursion", "window"])
def test_retain_takes_only_a_boolean_mask_over_every_row(window_m1):
    n = 3
    grid = GridSpec.common_amplitude((0.5, 1.0), n)
    state = DetectorState(FlatWeights(), grid, SubsetWeights.uniform(n), n_reps=4, window_m1=window_m1)
    state.advance(np.random.default_rng(15).normal(size=(4, 2, n)))
    before = state.log_shiryaev()
    # an index array would keep a different number of rows on each engine, a short
    # mask a prefix: both are refused, and the state is left as it was
    for rows in (np.array([0, 1, 1, 1]), np.array([True]), np.ones(5, dtype=bool), np.ones((4, 1), dtype=bool)):
        with pytest.raises(ValueError, match=r"boolean mask of shape \(4,\)"):
            state.retain(rows)
        assert state.n_reps == 4
    state.retain(np.array([False, True, True, False]))
    assert state.n_reps == 2
    np.testing.assert_array_equal(state.log_shiryaev(), before[1:3])


def test_direct_sum_refuses_a_history_of_the_wrong_grid_or_stream_width():
    prior = GeometricPrior(rho=0.1)
    grid = GridSpec.common_amplitude((1.0,), 2)  # one point
    weights = SubsetWeights.uniform(2)
    inc = np.random.default_rng(16).normal(size=(3, 2, 2))
    for bad in (inc, inc[:, :1, :1], np.zeros((3, 1, 3))):
        with pytest.raises(ValueError, match=re.escape(f"{bad.shape} must end in (P, N) = (1, 2)")):
            direct_log_statistic(bad, prior, grid, weights, n=3)
    direct_log_statistic(inc[:, :1], prior, grid, weights, n=3)


def test_screened_readout_is_exact_or_below_the_floor():
    n = 4
    grid = GridSpec(theta_points=((0.5,) * n, (1.5,) * n), weights=(0.8, 0.2))
    weights = SubsetWeights(p=(0.3, 1.0, 2.0, 2.5), K=3)
    rng = np.random.default_rng(13)
    counts = np.zeros(2, dtype=int)  # rows screened, rows read out exactly
    for weighting in (GeometricPrior(rho=0.05, q=0.1), FlatWeights()):
        state = DetectorState(weighting, grid, weights, n_reps=64)
        shift = rng.uniform(0.0, 1.5, size=(64, 1, n))
        for t in range(30):
            state.advance(rng.normal(shift[:, 0, None] * (t >= 10), 1.0, size=(64, 2, n)))
            full = state.log_shiryaev()
            bound = state.log_components.max(axis=(0, 1)) + state.basis.log_joint_total
            assert (full <= bound + 1e-12).all()
            for floor in (*np.quantile(full, [0.1, 0.5, 0.9]), full[0], -1e3, 1e3):
                screened = bound < floor - 1e-9 * max(1.0, abs(floor))
                value = state.log_shiryaev(floor)
                np.testing.assert_array_equal(
                    value[~screened].view(np.int64), full[~screened].view(np.int64)
                )
                assert (value[screened] < floor).all()
                assert (full[screened] < floor).all()
                counts += screened.sum(), (~screened).sum()
    assert counts.min() > 1000


@pytest.mark.parametrize("n", [3, 6], ids=["14-components", "126-components"])
def test_a_rows_readout_does_not_depend_on_the_other_exact_rows(n):
    # S * P = 14 and 126 (subsets x points); a sum that adds one row's
    # components in another order when fewer rows are read out would show here
    grid = GridSpec(theta_points=((0.5,) * n, (1.5,) * n), weights=(0.4, 0.6))
    n_reps = 40
    state = DetectorState(GeometricPrior(rho=0.05, q=0.1), grid, SubsetWeights.uniform(n), n_reps=n_reps)
    rng = np.random.default_rng(17)
    for _ in range(6):
        state.advance(rng.normal(0.0, 3.0, size=(n_reps, 2, n)))
    full = state.log_shiryaev().view(np.int64)
    for i in range(n_reps):
        others = rng.permutation(np.delete(np.arange(n_reps), i))
        for rows in ([i], [i, others[0]], [i, *others[:2]], range(n_reps)):
            exact = np.isin(np.arange(n_reps), rows)
            # a floor of 1e300 screens every row but those read out exactly
            value = state.log_shiryaev(np.where(exact, -np.inf, 1e300))
            assert value.view(np.int64)[i] == full[i]
            kept = copy.deepcopy(state)
            kept.retain(exact)
            assert kept.log_shiryaev().view(np.int64)[exact[:i].sum()] == full[i]


def test_grid_caches_read_only_points_and_log_weights():
    grid = GridSpec(theta_points=((0.5, 0.7), (1.0, 0.9)), weights=(0.6, 0.4))
    fresh = {
        "points": np.asarray(grid.theta_points), "log_weights": np.log(np.asarray(grid.weights))
    }
    for name, expected in fresh.items():
        cached = getattr(grid, name)
        assert getattr(grid, name) is cached and not cached.flags.writeable
        np.testing.assert_array_equal(cached, expected)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_flat_weights_reject_a_head_start_that_is_not_finite(omega):
    with pytest.raises(ValueError, match="head start"):
        FlatWeights(omega)


# -- the window kernel's suffix sums on pairs of grid points ------------------------


@pytest.mark.parametrize("lo", [0, 2])
@pytest.mark.parametrize("points", [1, 2, 3, 4])
def test_paired_suffix_sums_equal_the_pointwise_cumsum_bit_for_bit(points, lo):
    # windows cut from the middle of the engine's buffer, after a retain and past a slide
    n, m1 = 3, 4
    grid = GridSpec.common_amplitude(np.linspace(0.5, 1.5, points), n)
    state = DetectorState(FlatWeights(), grid, SubsetWeights.uniform(n), n_reps=6, window_m1=m1)
    log_p = np.log([0.2, 0.3, 0.5]).reshape(n, 1, 1, 1)
    rng = np.random.default_rng(17)
    starts, slides = set(), 0
    for t in range(14):
        # magnitudes spread over 12 decades, so any other order of the adds shows
        shape = (state.n_reps, points, n)
        stop = state._stop
        state.advance(rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape))
        slides += state._stop <= stop
        if t == 6:
            state.retain(np.arange(state.n_reps) % 3 != 1)
        window = state._window
        starts.add(state._stop - window.shape[2])
        expected = np.cumsum(window[..., ::-1, :], axis=-2)[..., lo:, :] + log_p
        assert np.array_equal(_log_inputs(window, log_p, lo).view(np.int64), expected.view(np.int64))
    assert slides > 0 and max(starts) > 0 and state.n_reps == 4


def odd_grid_setup():
    scenario, _, weights, prior = make_pair_setup()
    grid = GridSpec(theta_points=((0.5, 0.6), (1.0, 0.8), (0.7, 0.9)), weights=(0.3, 0.3, 0.4))
    return scenario, grid, weights, prior


@pytest.mark.parametrize("m0", [0, 2])
def test_window_engine_equals_the_direct_sum_at_an_odd_number_of_points(m0):
    scenario, grid, weights, prior = odd_grid_setup()
    changes = [ChangeSpec(nu=5, subset=(0, 1)), ChangeSpec(nu=9, subset=(1,))]
    rngs = [np.random.default_rng(18), np.random.default_rng(19)]
    inc = scenario.log_lr_increments(scenario.generate(changes, 20, rngs), grid.points)
    m1 = 4
    for weighting in (prior, FlatWeights(1.0)):
        state = DetectorState(weighting, grid, weights, n_reps=2, window_m1=m1, window_m0=m0)
        for t in range(20):
            state.advance(inc[:, t])
            direct = direct_log_statistic(
                inc[:, : t + 1], weighting, grid, weights, n=t + 1, m1=m1, m0=m0
            )
            assert (state.log_shiryaev() == direct).all()


def test_window_kernel_refuses_a_strided_point_axis_and_the_direct_sum_copies_it():
    scenario, grid, weights, prior = odd_grid_setup()
    data = scenario.generate([ChangeSpec(nu=2, subset=(0,))], 6, [np.random.default_rng(20)])[0]
    inc = scenario.log_lr_increments(data, grid.points)  # [T, P, N]
    expected = direct_log_statistic(inc, prior, grid, weights, n=6)
    strided = np.moveaxis(inc, -1, 0)  # [N, T, P], points N * 8 bytes apart
    assert strided.strides[-1] == 8 * weights.n_streams
    with pytest.raises(ValueError, match="contiguous point axis"):
        window_log_statistic(strided, prior, grid, weights, n=6, m0=0)
    contiguous = np.ascontiguousarray(strided)
    with pytest.raises(ValueError, match="float64"):
        window_log_statistic(contiguous.astype(np.float32), prior, grid, weights, n=6, m0=0)
    assert window_log_statistic(contiguous, prior, grid, weights, n=6, m0=0) == expected
    assert direct_log_statistic(np.asfortranarray(inc), prior, grid, weights, n=6) == expected
