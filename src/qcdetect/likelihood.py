"""Mixture likelihood ratios over subsets of affected streams.

For independent streams with factorized subset weights
``p_B = C * prod_{i in B} p_i`` the subset-mixture likelihood ratio

    Lambda = C * sum_{B, 1 <= |B| <= K} prod_{i in B} p_i * LR_i

equals ``C * sum_{j=1..K} e_j(p_1 LR_1, ..., p_N LR_N)`` where ``e_j`` is the
j-th elementary symmetric polynomial.  The DP below evaluates all ``e_j`` in
``O(N K)`` in the log domain, which keeps the cost polynomial in the number of
streams and avoids overflow for log likelihood ratios up to +/-600.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

ENUMERATION_LIMIT = 25


def logsumexp(a, axis=None):
    """``log(sum(exp(a)))`` over ``axis`` (an int, a tuple or None for all).

    The real-input algorithm of ``scipy.special.logsumexp`` (scipy 1.17),
    operation for operation, so the two agree bit for bit: the maxima are
    split off with their tie count ``m``, the rest is summed after the shift,
    and ``log(sum(exp(a)))`` replaces any result that is not finite.  It skips
    scipy's array-API dispatch and only runs that unshifted fallback where it
    is needed.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if axis is None:
        axis = tuple(range(a.ndim))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        infinite = ~np.isfinite(out)
        if infinite.any():
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(infinite, direct, out)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def elementary_symmetric(values, K: int) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_K of the inputs (e_0 = 1)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if not 1 <= K <= n:
        raise ValueError(f"K must be in [1, {n}], got {K}")
    e = np.zeros(values.shape[:-1] + (K + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        top = min(i + 1, K)
        for j in range(top, 0, -1):
            e[..., j] += values[..., i] * e[..., j - 1]
    return e


def log_elementary_symmetric(log_values: np.ndarray, K: int) -> np.ndarray:
    """log e_0..e_K of exp(log_values), accumulated with log-sum-exp.

    Works on the last axis; leading axes are broadcast (batched evaluation).
    """
    log_values = np.asarray(log_values, dtype=float)
    n = log_values.shape[-1]
    if not 1 <= K <= n:
        raise ValueError(f"K must be in [1, {n}], got {K}")
    loge = np.full(log_values.shape[:-1] + (K + 1,), -np.inf)
    loge[..., 0] = 0.0
    for i in range(n):
        top = min(i + 1, K)
        for j in range(top, 0, -1):
            loge[..., j] = np.logaddexp(loge[..., j], log_values[..., i] + loge[..., j - 1])
    return loge


@dataclass(frozen=True)
class SubsetWeights:
    """Factorized weights over subsets of at most K affected streams.

    ``p_B = normalizer * prod_{i in B} p_i`` over all subsets with
    ``1 <= |B| <= K``; the weights sum to one by construction.
    """

    p: tuple[float, ...]
    K: int

    def __post_init__(self):
        p = tuple(float(v) for v in self.p)
        if any(v <= 0.0 for v in p):
            raise ValueError("per-stream weights must be positive")
        if not 1 <= self.K <= len(p):
            raise ValueError(f"K must be in [1, {len(p)}], got {self.K}")
        object.__setattr__(self, "p", p)

    @classmethod
    def uniform(cls, n_streams: int, K: int | None = None) -> "SubsetWeights":
        """p_i = 1 for all streams (uniform over subsets within each size)."""
        if K is None:
            K = n_streams
        return cls(p=(1.0,) * n_streams, K=K)

    @property
    def n_streams(self) -> int:
        return len(self.p)

    @property
    def log_p(self) -> np.ndarray:
        return np.log(np.asarray(self.p))

    @cached_property
    def log_normalizer(self) -> float:
        # computed once per instance; frozen dataclasses still carry a __dict__
        loge = log_elementary_symmetric(self.log_p, self.K)
        return -float(logsumexp(loge[1:]))

    @property
    def normalizer(self) -> float:
        return float(np.exp(self.log_normalizer))


def normalizer(p, K: int) -> float:
    """The constant C making the factorized subset weights sum to one."""
    return SubsetWeights(p=tuple(p), K=K).normalizer


def mixture_lr_dp(stream_log_lrs, weights: SubsetWeights):
    """log of the subset-mixture likelihood ratio, via the symmetric-polynomial DP.

    ``stream_log_lrs`` has the per-stream log LRs on its last axis; leading
    axes are batched.  Cost is O(N K) per evaluation.
    """
    llr = np.asarray(stream_log_lrs, dtype=float)
    if llr.shape[-1] != weights.n_streams:
        raise ValueError(
            f"got {llr.shape[-1]} per-stream values for {weights.n_streams} streams"
        )
    if not np.all(np.isfinite(llr)):
        raise ValueError("per-stream log likelihood ratios must be finite")
    loge = log_elementary_symmetric(weights.log_p + llr, weights.K)
    mixed = logsumexp(loge[..., 1:], axis=-1) + weights.log_normalizer
    return float(mixed) if np.ndim(mixed) == 0 else mixed


def subset_masks(n_streams: int, K: int) -> np.ndarray:
    """Boolean membership masks for all subsets with 1 <= |B| <= K.

    Rows are ordered by subset size, lexicographic within a size; this order is
    the library-wide convention for indexing subsets.
    """
    rows = []
    for size in range(1, K + 1):
        for combo in combinations(range(n_streams), size):
            row = np.zeros(n_streams, dtype=bool)
            row[list(combo)] = True
            rows.append(row)
    return np.array(rows)


def log_subset_weights(weights: SubsetWeights, masks: np.ndarray | None = None) -> np.ndarray:
    """log p_B for every subset, aligned with ``subset_masks`` order."""
    if masks is None:
        masks = subset_masks(weights.n_streams, weights.K)
    return masks @ weights.log_p + weights.log_normalizer


def mixture_lr_enumerate(stream_log_lrs, weights: SubsetWeights) -> float:
    """Exact subset-sum evaluation of the mixture LR (exponential oracle)."""
    llr = np.asarray(stream_log_lrs, dtype=float)
    if llr.ndim != 1:
        raise ValueError("enumeration takes a single vector of per-stream values")
    n = llr.shape[0]
    if n != weights.n_streams:
        raise ValueError(f"got {n} per-stream values for {weights.n_streams} streams")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration is limited to N <= {ENUMERATION_LIMIT} streams")
    masks = subset_masks(n, weights.K)
    terms = log_subset_weights(weights, masks) + masks @ llr
    return float(logsumexp(terms))
