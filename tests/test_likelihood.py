"""Elementary symmetric DP and subset-mixture likelihood ratios."""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from qcdetect import (
    SubsetWeights,
    mixture_lr_dp,
    mixture_lr_enumerate,
)
from qcdetect import likelihood
from qcdetect.likelihood import (
    MAX_LISTED_SUBSETS,
    log_add_exp,
    log_elementary_symmetric,
    logsumexp,
    logsumexp_tree,
    subset_masks,
)


def elementary_symmetric(values, K: int) -> np.ndarray:
    """Reference e_0..e_K of the inputs (e_0 = 1), by the linear-domain DP."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if not 1 <= K <= n:
        raise ValueError(f"K must be in [1, {n}], got {K}")
    e = np.zeros(values.shape[:-1] + (K + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        for j in range(min(i + 1, K), 0, -1):
            e[..., j] += values[..., i] * e[..., j - 1]
    return e


def esp_brute(values, K):
    """Independent oracle: sum subset products by explicit enumeration."""
    out = [1.0]
    for j in range(1, K + 1):
        out.append(sum(math.prod(c) for c in combinations(values, j)))
    return np.array(out)


def test_esp_binomial():
    np.testing.assert_allclose(elementary_symmetric([1, 1, 1], 3), [1, 3, 3, 1])


def test_esp_two_values():
    np.testing.assert_allclose(elementary_symmetric([2, 3], 2), [1, 5, 6])


def test_esp_single_value():
    np.testing.assert_allclose(elementary_symmetric([4.2], 1), [1, 4.2])


def test_esp_rejects_bad_order():
    with pytest.raises(ValueError):
        elementary_symmetric([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        elementary_symmetric([1.0, 2.0], 3)


def test_esp_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        values = rng.uniform(-2.0, 2.0, n)
        np.testing.assert_allclose(
            elementary_symmetric(values, k), esp_brute(values, k), rtol=1e-12, atol=1e-12
        )


def test_log_esp_matches_plain_esp():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        log_values = rng.uniform(-3.0, 3.0, n)
        expected = np.log(elementary_symmetric(np.exp(log_values), k))
        np.testing.assert_allclose(
            log_elementary_symmetric(log_values, k)[1:], expected[1:], atol=1e-10
        )


def test_log_esp_with_zero_values_is_exact_and_quiet():
    # log 0 = -inf entries: e_j of the remaining values, with no warning
    log_values = np.array([[-np.inf, 0.5, -np.inf, -1.0], [-np.inf] * 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loge = log_elementary_symmetric(log_values, 3)
    assert loge.shape == (2, 4)
    np.testing.assert_array_equal(loge[1], [0.0, -np.inf, -np.inf, -np.inf])
    assert loge[0, 1] == pytest.approx(np.logaddexp(0.5, -1.0), rel=0, abs=1e-15)
    assert loge[0, 2] == 0.5 + -1.0 and loge[0, 3] == -np.inf


def test_log_esp_of_one_vector_has_shape_k_plus_one():
    loge = log_elementary_symmetric(np.log([1.0, 2.0, 3.0]), 2)
    assert loge.shape == (3,)
    np.testing.assert_allclose(np.exp(loge), [1.0, 6.0, 11.0], rtol=1e-14)


# -- the log-add-exp kernel against np.logaddexp -------------------------------------

EPS = np.finfo(float).eps


def lae(x, y):
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.empty(x.shape)
    return log_add_exp(x, y, out, np.empty_like(out))


def test_log_add_exp_within_ulps_of_numpy():
    # |x - y| spans exact ties to complete underflow of exp(-|x - y|)
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 30.0, 700.0):
        x = rng.normal(scale=scale, size=(64, 63, 2))
        near = x + rng.normal(size=x.shape)
        y = np.where(rng.random(x.shape) < 0.5, near, rng.normal(scale=scale, size=x.shape))
        bound = 4 * EPS * np.maximum.reduce([np.abs(x), np.abs(y), np.ones_like(x)])
        assert np.all(np.abs(lae(x, y) - np.logaddexp(x, y)) <= bound)


def test_log_add_exp_is_exact_at_infinities_and_ties():
    finite = np.array([-745.0, -1.5, -0.0, 0.0, 2.0**-30, 3.25, 709.0])
    inf = np.full_like(finite, np.inf)
    for x, y in [(-inf, finite), (finite, -inf), (finite, finite), (-inf, -inf), (inf, inf),
                 (inf, finite)]:
        np.testing.assert_array_equal(lae(x, y), np.logaddexp(x, y))
    np.testing.assert_array_equal(lae(-inf, finite), finite)
    np.testing.assert_array_equal(lae(finite, finite), finite + math.log(2.0))


def test_log_add_exp_updates_in_place_and_takes_a_scalar():
    x = np.array([[-np.inf, 0.0], [1.0, -3.0]])
    expected = lae(x, np.full_like(x, -1.0))
    log_add_exp(x, -1.0, x, np.empty_like(x))
    np.testing.assert_array_equal(x, expected)
    assert x[0, 0] == -1.0


def test_log_add_exp_on_0d_arrays():
    out, work = np.empty(()), np.empty(())
    got = log_add_exp(np.array(1.0), np.array(1.0), out, work)
    assert got is out and got.shape == () and float(got) == 1.0 + math.log(2.0)


def test_log_add_exp_raises_no_warning_at_the_exp_limits():
    rng = np.random.default_rng(8)
    x = rng.uniform(-760.0, 760.0, size=4096)
    y = np.concatenate([-x[:2048], rng.uniform(-760.0, 760.0, size=2048)])
    x[::97] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lae(x, y)
    assert np.all(np.isfinite(got))


def normalizer(p, K):
    return math.exp(SubsetWeights(p=tuple(p), K=K).log_normalizer)


def test_normalizer_uniform_identity():
    # sum of e_j over j=1..N at p_i = p equals (1+p)^N - 1
    assert normalizer([1.0, 1.0, 1.0], 3) == pytest.approx(1.0 / 7.0, rel=1e-14)
    assert normalizer([1.0, 1.0], 1) == pytest.approx(0.5, rel=1e-14)
    assert normalizer([4.0], 1) == pytest.approx(0.25, rel=1e-14)
    p = 0.7
    assert normalizer([p] * 6, 6) == pytest.approx(1.0 / ((1 + p) ** 6 - 1), rel=1e-12)


def test_normalizer_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        normalizer([1.0, 0.0], 1)
    with pytest.raises(ValueError):
        normalizer([1.0, -2.0], 2)


def test_subset_count_matches_enumeration():
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert SubsetWeights.uniform(n, k).n_subsets == len(subset_masks(n, k))


def test_subsets_are_listed_by_size_then_lexicographically():
    for n in range(1, 9):
        for k in range(1, n + 1):
            masks = subset_masks(n, k)
            assert masks.dtype == bool
            listed = [tuple(np.flatnonzero(row)) for row in masks]
            expected = [c for size in range(1, k + 1) for c in combinations(range(n), size)]
            assert listed == expected


def test_subset_listing_beyond_its_budget_is_refused():
    # every subset of 20 streams fits; 21 streams, or 25 at K = 25, do not
    assert SubsetWeights.uniform(20).n_subsets <= MAX_LISTED_SUBSETS
    for n, k in [(21, 21), (25, 25), (40, 6)]:
        assert SubsetWeights.uniform(n, k).n_subsets > MAX_LISTED_SUBSETS
        with pytest.raises(ValueError, match="budget"):
            subset_masks(n, k)


def test_subset_weights_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        w = SubsetWeights(p=tuple(rng.uniform(0.1, 3.0, n)), K=k)
        masks = subset_masks(n, k)
        total = sum(
            normalizer(w.p, w.K) * math.prod(w.p[i] for i in np.flatnonzero(m)) for m in masks
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_mixture_lr_is_one_under_no_evidence():
    for n, k in [(1, 1), (3, 2), (5, 5), (8, 3)]:
        w = SubsetWeights.uniform(n, k)
        assert mixture_lr_dp(np.zeros(n), w) == pytest.approx(0.0, abs=1e-12)


def test_mixture_lr_two_stream_hand_value():
    # subsets {1}, {2}, {1,2} with C = 1/3: (2 + 4 + 8) / 3
    w = SubsetWeights(p=(1.0, 1.0), K=2)
    value = mixture_lr_dp(np.log([2.0, 4.0]), w)
    assert value == pytest.approx(math.log(14.0 / 3.0), abs=1e-12)


def test_enumerate_single_stream():
    w = SubsetWeights(p=(2.5,), K=1)
    assert mixture_lr_enumerate(np.array([0.713]), w) == pytest.approx(0.713, abs=1e-12)


def test_enumerate_uniform_no_evidence():
    w = SubsetWeights.uniform(3, 1)
    assert mixture_lr_enumerate(np.zeros(3), w) == pytest.approx(0.0, abs=1e-12)


def test_enumerate_hand_enumeration():
    # p = (1,2,3), K = 2, LR = (e, e^2, e^3); C = 1/(6 + 11) = 1/17
    w = SubsetWeights(p=(1.0, 2.0, 3.0), K=2)
    e = math.e
    expected = math.log(
        (1 * e + 2 * e**2 + 3 * e**3 + 2 * e**3 + 3 * e**4 + 6 * e**5) / 17.0
    )
    assert mixture_lr_enumerate(np.array([1.0, 2.0, 3.0]), w) == pytest.approx(
        expected, abs=1e-12
    )


def test_dp_matches_enumeration_small_dimensions(monkeypatch):
    # log LRs spread over +-900 put one stream over ~620 nats ahead of the next,
    # where a shifted e_j (j >= 2) underflows and the DP falls back to the log domain
    fallbacks = []
    original = likelihood.log_elementary_symmetric

    def counting(log_values, K):
        fallbacks.append(np.shape(log_values)[0])
        return original(log_values, K)

    monkeypatch.setattr(likelihood, "log_elementary_symmetric", counting)
    rng = np.random.default_rng(42)
    wide = np.random.default_rng(43)
    worst = 0.0
    for n in range(1, 13):
        for K in range(1, n + 1):
            for _ in range(5):
                w = SubsetWeights(p=tuple(rng.uniform(0.1, 2.5, n)), K=K)
                w.log_normalizer  # computed here, so only the DP's fallback is counted
                inputs = [rng.uniform(-20.0, 20.0, n)]
                if K >= 2:
                    inputs.append(wide.uniform(-900.0, 900.0, n))
                for llr in inputs:
                    worst = max(
                        worst, abs(mixture_lr_dp(llr, w) - mixture_lr_enumerate(llr, w))
                    )
    assert worst <= 1e-9
    assert len(fallbacks) > 50


def test_dp_matches_enumeration_ten_streams():
    rng = np.random.default_rng(9)
    w = SubsetWeights(p=(0.5,) * 10, K=10)
    for _ in range(20):
        llr = rng.uniform(-5.0, 5.0, 10)
        dp = mixture_lr_dp(llr, w)
        brute = mixture_lr_enumerate(llr, w)
        assert dp == pytest.approx(brute, rel=1e-10, abs=1e-10)


def log_expm1(t):
    """log(e^t - 1), stable for both tiny and large t."""
    return math.log(math.expm1(t)) if t < 30.0 else t + math.log1p(-math.exp(-t))


def test_product_form_identity_full_k():
    # for K = N: Lambda = C * (prod(1 + p_i LR_i) - 1)
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        w = SubsetWeights(p=tuple(rng.uniform(0.2, 2.0, n)), K=n)
        llr = rng.uniform(-30.0, 30.0, n)
        t = np.logaddexp(0.0, w.log_p + llr).sum()
        product_form = w.log_normalizer + log_expm1(t)
        assert mixture_lr_dp(llr, w) == pytest.approx(product_form, abs=1e-10)


def test_mixture_lr_monotone_in_each_stream():
    rng = np.random.default_rng(8)
    w = SubsetWeights(p=(1.0, 0.5, 2.0), K=2)
    llr = rng.uniform(-3.0, 3.0, 3)
    base = mixture_lr_dp(llr, w)
    for i in range(3):
        bumped = llr.copy()
        bumped[i] += 0.1
        assert mixture_lr_dp(bumped, w) > base


def test_mixture_lr_no_overflow_at_extreme_logs():
    w = SubsetWeights.uniform(6, 3)
    for value in (600.0, -600.0):
        out = mixture_lr_dp(np.full(6, value), w)
        assert math.isfinite(out)


def test_mixture_lr_rejects_nonfinite():
    w = SubsetWeights.uniform(2, 1)
    with pytest.raises(ValueError):
        mixture_lr_dp(np.array([0.0, math.nan]), w)


def test_enumeration_rejects_large_n():
    # 67M subsets: refused by the listing budget before any is listed
    w = SubsetWeights.uniform(26)
    with pytest.raises(ValueError, match="budget"):
        mixture_lr_enumerate(np.zeros(26), w)


def test_batched_dp_matches_scalar_calls():
    rng = np.random.default_rng(12)
    w = SubsetWeights(p=(1.0, 1.3, 0.7), K=2)
    block = rng.uniform(-4.0, 4.0, size=(5, 4, 3))
    batched = mixture_lr_dp(block, w)
    assert batched.shape == (5, 4)
    for i in range(5):
        for j in range(4):
            assert batched[i, j] == pytest.approx(mixture_lr_dp(block[i, j], w), abs=1e-12)


# -- the log-sum-exp kernel ----------------------------------------------------------

EDGE_ROWS = np.array(
    [
        [1.5, 1.5, 0.0, -2.0],  # tied maxima
        [3.0, 3.0, 3.0, 3.0],  # all tied
        [-np.inf, 0.7, -np.inf, -1.0],  # partly -inf
        [-np.inf, -np.inf, -np.inf, -np.inf],  # all -inf
        [np.inf, 2.0, -1.0, 0.0],  # +inf entry
        [np.inf, np.inf, -np.inf, 1.0],  # tied +inf
        [-745.0, -744.5, -800.0, -1e308],  # underflowing terms
        [709.0, 708.5, 700.0, 1e-300],  # near overflow
        [np.nan, 1.0, -np.inf, np.inf],  # NaN
    ]
)


def assert_near_scipy(got, a, axis):
    """Within 4 ulps of max(1, |scipy's value|), and equal where scipy's is not finite."""
    expected = scipy_logsumexp(a, axis=axis)
    assert np.shape(got) == np.shape(expected)
    got, expected = np.atleast_1d(got), np.atleast_1d(expected)
    finite = np.isfinite(expected)
    np.testing.assert_array_equal(got[~finite], expected[~finite])
    got, expected = got[finite], expected[finite]
    assert np.all(np.abs(got - expected) <= 4 * EPS * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize(
    "shape, axis",
    [
        ((7,), None),
        ((7,), 0),
        ((5, 9), -1),
        ((5, 9), 0),
        ((5, 9), None),
        ((4, 7, 2), (1, 2)),
        ((4, 7, 2), (0, 2)),
        ((3, 11, 2, 3), -1),
        ((3, 11, 2, 3), None),
    ],
)
def test_logsumexp_within_ulps_of_scipy(shape, axis):
    rng = np.random.default_rng(len(shape))
    for scale in (1e-3, 1.0, 40.0, 700.0):
        a = rng.normal(scale=scale, size=shape)
        assert_near_scipy(logsumexp(a, axis), a, axis)


def test_logsumexp_on_non_contiguous_views():
    rng = np.random.default_rng(3)
    loge = rng.normal(scale=20.0, size=(6, 5, 4))
    loge[..., 0] = 0.0
    loge[1, 2, 3] = -np.inf
    for view, axis in [
        (loge[..., 1:], -1),
        (loge[:, ::2, 1:], (1, 2)),
        (loge.transpose(2, 0, 1), 0),
        (loge[::-1, :, 2], None),
    ]:
        assert not view.flags.c_contiguous
        assert_near_scipy(logsumexp(view, axis), view, axis)


def test_logsumexp_is_exact_at_infinities_and_nan_and_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = logsumexp(EDGE_ROWS, -1)
        columns = logsumexp(EDGE_ROWS, 0)
    assert rows[3] == -np.inf
    assert rows[4] == rows[5] == np.inf
    assert np.isnan(rows[8]) and np.isnan(columns[0])
    assert columns[1] == columns[3] == np.inf
    assert rows[1] == 3.0 + math.log(4.0)
    assert_near_scipy(rows[:8], EDGE_ROWS[:8], -1)
    for row in EDGE_ROWS[:8]:
        assert_near_scipy(logsumexp(row), row, None)


def test_logsumexp_tree_is_logsumexp_over_the_leading_axis():
    rng = np.random.default_rng(4)
    for m in (1, 2, 7, 14, 126):
        for scale in (1e-3, 1.0, 40.0, 700.0):
            a = rng.normal(scale=scale, size=(m, 5))
            assert_near_scipy(logsumexp_tree(a.copy()), a, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns = logsumexp_tree(EDGE_ROWS.T.copy())
    rows = logsumexp(EDGE_ROWS, -1)
    finite = np.isfinite(rows)
    np.testing.assert_array_equal(columns[~finite], rows[~finite])  # -inf, +inf and NaN
    assert columns[1] == 3.0 + math.log(4.0)
    assert_near_scipy(columns[:8], EDGE_ROWS[:8], -1)


def test_logsumexp_of_scalars_lists_and_0d_arrays():
    for value in (2.5, np.array(2.5), [2.5]):
        got = logsumexp(value)
        assert type(got) is np.float64 and got == 2.5
    assert type(logsumexp([0.5, 0.25])) is np.float64
    assert logsumexp([1, 2, 3]) == pytest.approx(math.log(math.exp(1) + math.exp(2) + math.exp(3)))
    rows = logsumexp([[0, 1], [1, 1]], 1)
    assert type(rows) is np.ndarray and rows.shape == (2,)
    assert rows[1] == 1.0 + math.log(2.0)


def test_subset_weights_list_the_subsets_once_in_read_only_arrays():
    weights = SubsetWeights(p=(0.5, 1.0, 2.0, 3.0), K=3)
    masks = subset_masks(4, 3)
    log_p = np.log(np.asarray(weights.p))
    fresh = {
        "log_p": log_p, "masks": masks, "log_p_subsets": masks @ log_p + weights.log_normalizer
    }
    for name, expected in fresh.items():
        cached = getattr(weights, name)
        assert getattr(weights, name) is cached  # computed once
        assert not cached.flags.writeable
        np.testing.assert_array_equal(cached, expected)
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0
    assert weights.members == tuple(tuple(np.flatnonzero(row).tolist()) for row in masks)
    assert math.fsum(np.exp(weights.log_p_subsets)) == pytest.approx(1.0, abs=1e-12)
