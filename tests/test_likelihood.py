"""Elementary symmetric DP and subset-mixture likelihood ratios."""

import math
from itertools import combinations

import numpy as np
import pytest
import scipy
from numpy.lib import NumpyVersion
from scipy.special import logsumexp as scipy_logsumexp

from qcdetect import (
    SubsetWeights,
    elementary_symmetric,
    mixture_lr_dp,
    mixture_lr_enumerate,
    normalizer,
)
from qcdetect.likelihood import log_elementary_symmetric, logsumexp, subset_masks


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


def test_subset_weights_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        w = SubsetWeights(p=tuple(rng.uniform(0.1, 3.0, n)), K=k)
        masks = subset_masks(n, k)
        total = sum(
            w.normalizer * math.prod(w.p[i] for i in np.flatnonzero(m)) for m in masks
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


def test_dp_matches_enumeration_small_dimensions():
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in range(1, 13):
        for K in range(1, n + 1):
            for _ in range(5):
                w = SubsetWeights(p=tuple(rng.uniform(0.1, 2.5, n)), K=K)
                llr = rng.uniform(-20.0, 20.0, n)
                worst = max(
                    worst, abs(mixture_lr_dp(llr, w) - mixture_lr_enumerate(llr, w))
                )
    assert worst <= 1e-9


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
    w = SubsetWeights.uniform(26, 1)
    with pytest.raises(ValueError):
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


# -- the log-sum-exp kernel against scipy ------------------------------------------

SCIPY_ALGORITHM = NumpyVersion(scipy.__version__) >= "1.17.0"


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


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
    ]
)


@pytest.mark.skipif(
    not SCIPY_ALGORITHM,
    reason=f"the kernel copies scipy 1.17's algorithm; scipy {scipy.__version__} differs",
)
class TestLogSumExpMatchesScipy:
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
    def test_random_inputs(self, shape, axis):
        a = np.random.default_rng(len(shape)).normal(scale=40.0, size=shape)
        assert_same_bits(logsumexp(a, axis), scipy_logsumexp(a, axis=axis))

    @pytest.mark.parametrize("axis", [-1, 0, None, (0, 1)])
    def test_ties_and_infinities(self, axis):
        assert_same_bits(logsumexp(EDGE_ROWS, axis), scipy_logsumexp(EDGE_ROWS, axis=axis))

    def test_each_edge_row_alone(self):
        for row in EDGE_ROWS:
            assert_same_bits(logsumexp(row), scipy_logsumexp(row))

    def test_non_contiguous_views(self):
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
            assert_same_bits(logsumexp(view, axis), scipy_logsumexp(view, axis=axis))

    def test_scalars_and_lists(self):
        assert_same_bits(logsumexp(2.5), scipy_logsumexp(2.5))
        assert_same_bits(logsumexp([1, 2, 3]), scipy_logsumexp([1, 2, 3]))
        assert_same_bits(logsumexp([[0, 1], [1, 1]], 1), scipy_logsumexp([[0, 1], [1, 1]], axis=1))
        assert type(logsumexp([0.5, 0.25])) is type(scipy_logsumexp([0.5, 0.25]))
