"""Mixture likelihood ratios over subsets of affected streams.

For independent streams with factorized subset weights
``p_B = C * prod_{i in B} p_i`` the subset-mixture likelihood ratio

    Lambda = C * sum_{B, 1 <= |B| <= K} prod_{i in B} p_i * LR_i

equals ``C * sum_{j=1..K} e_j(p_1 LR_1, ..., p_N LR_N)`` where ``e_j`` is the
j-th elementary symmetric polynomial.  The DP below evaluates all ``e_j`` in
``O(N K)`` in the log domain, which keeps the cost polynomial in the number of
streams and avoids overflow at any magnitude of the log likelihood ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

#: Most subsets ``subset_masks`` lists: every subset of 20 streams, listed in
#: under a second.  Time and memory grow with the count.
MAX_LISTED_SUBSETS = 2**20


def count_subsets(n_streams: int, K: int) -> int:
    """The number of subsets of ``n_streams`` streams with 1 <= |B| <= K."""
    return sum(math.comb(n_streams, k) for k in range(1, K + 1))


def logsumexp(a, axis=None):
    """``log(sum(exp(a)))`` over ``axis`` (an int, a tuple or None for all).

    ``max + log(sum(exp(a - max)))`` with the maximum along ``axis`` as the
    shift, so no ``exp`` overflows.  Where that maximum is not finite the
    shift is 0: a row of all -inf gives -inf and a row with a +inf entry gives
    +inf, exactly, and NaN in gives NaN out, with no warning.  A reduction to
    a single value returns a numpy scalar.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a_max = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    terms = a - shift
    with np.errstate(divide="ignore", over="ignore"):
        np.exp(terms, out=terms)
        out = np.log(np.sum(terms, axis=axis, keepdims=True)) + shift
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def log_add_exp(x, y, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``out = max(x, y) + log1p(exp(-|x - y|))``, into the caller's buffers.

    Each pass is a numpy SIMD ufunc, several times faster than the scalar libm
    calls of ``np.logaddexp``; ``out`` may be ``x``.  It is not bit-identical
    to ``np.logaddexp`` (a few elements in a thousand differ in the last bit,
    which may depend on the SIMD path numpy dispatches on a CPU), but exact at
    infinities: ``x = -inf`` gives ``y``, a tie ``x == y`` gives ``y + log 2``.
    """
    np.minimum(x, y, out=work)
    np.maximum(x, y, out=out)
    with np.errstate(invalid="ignore"):
        np.subtract(work, out, out=work)  # -|x - y|; NaN only for a tie at infinity
    np.fmin(work, 0.0, out=work)
    np.exp(work, out=work)
    np.log1p(work, out=work)
    return np.add(out, work, out=out)


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
    """log e_0..e_K of exp(log_values), accumulated with ``log_add_exp``.

    Works on the last axis; leading axes are broadcast (batched evaluation).
    The DP keeps e_j first, so that each ``loge[j, ...]`` is contiguous.  Its
    sums are ``max + log1p(exp(-|d|))`` on numpy's SIMD ufuncs: not
    bit-identical to ``np.logaddexp``, and the last bit may depend on the SIMD
    path numpy dispatches on a CPU.
    """
    log_values = np.asarray(log_values, dtype=float)
    n = log_values.shape[-1]
    if not 1 <= K <= n:
        raise ValueError(f"K must be in [1, {n}], got {K}")
    loge = np.full((K + 1,) + log_values.shape[:-1], -np.inf)
    loge[0, ...] = 0.0
    term = np.empty(log_values.shape[:-1])
    work = np.empty_like(term)
    for i in range(n):
        if i < K:  # e_{i+1}'s first term; adding it to exp(-inf) = 0 is exact
            np.add(log_values[..., i], loge[i, ...], out=loge[i + 1, ...])
        for j in range(min(i, K), 0, -1):
            np.add(log_values[..., i], loge[j - 1, ...], out=term)
            log_add_exp(loge[j, ...], term, loge[j, ...], work)
    return np.moveaxis(loge, 0, -1)


@dataclass(frozen=True)
class SubsetWeights:
    """Factorized weights over subsets of at most K affected streams.

    ``p_B = C * prod_{i in B} p_i`` over all subsets with ``1 <= |B| <= K``,
    where ``log C = log_normalizer`` makes the weights sum to one.  The
    subsets are listed here once, on first use; callers read ``masks``,
    ``members`` and ``log_p_subsets`` instead of listing them again.  Each
    cached array is computed once per instance and is read-only.
    """

    p: tuple[float, ...]
    K: int

    def __post_init__(self):
        p = tuple(float(v) for v in self.p)
        if not all(0.0 < v < math.inf for v in p):
            raise ValueError(f"per-stream weights must be positive and finite, got {p}")
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
    def n_subsets(self) -> int:
        """The number of subsets with 1 <= |B| <= K, counted without listing them."""
        return count_subsets(self.n_streams, self.K)

    @cached_property
    def log_p(self) -> np.ndarray:
        return read_only(np.log(np.asarray(self.p)))

    @cached_property
    def log_normalizer(self) -> float:
        loge = log_elementary_symmetric(self.log_p, self.K)
        return -float(logsumexp(loge[1:]))

    @cached_property
    def masks(self) -> np.ndarray:
        """Membership masks ``[S, N]`` of the subsets, in ``subset_masks`` order."""
        return read_only(subset_masks(self.n_streams, self.K))

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """The streams of each subset, ascending, in ``masks`` order."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.masks)

    @cached_property
    def log_p_subsets(self) -> np.ndarray:
        """log p_B of each subset ``[S]``, in ``masks`` order."""
        return read_only(self.masks @ self.log_p + self.log_normalizer)


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: a cached array no caller may change."""
    array.flags.writeable = False
    return array


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
    the library-wide convention for indexing subsets.  More than
    ``MAX_LISTED_SUBSETS`` subsets are refused before any is listed.
    """
    count = count_subsets(n_streams, K)
    if count > MAX_LISTED_SUBSETS:
        raise ValueError(f"listing {count} subsets exceeds the budget of {MAX_LISTED_SUBSETS}")
    masks = np.zeros((count, n_streams), dtype=bool)
    start = 0
    for size in range(1, K + 1):
        n_size = math.comb(n_streams, size)
        # the members of each subset of this size: [n_size, size]
        members = np.fromiter(
            combinations(range(n_streams), size), dtype=(np.intp, size), count=n_size
        )
        masks[start:start + n_size][np.arange(n_size)[:, None], members] = True
        start += n_size
    return masks


def mixture_lr_enumerate(stream_log_lrs, weights: SubsetWeights) -> float:
    """Exact subset-sum evaluation of the mixture LR (exponential oracle)."""
    llr = np.asarray(stream_log_lrs, dtype=float)
    if llr.ndim != 1:
        raise ValueError("enumeration takes a single vector of per-stream values")
    n = llr.shape[0]
    if n != weights.n_streams:
        raise ValueError(f"got {n} per-stream values for {weights.n_streams} streams")
    terms = weights.log_p_subsets + weights.masks @ llr
    return float(logsumexp(terms))
