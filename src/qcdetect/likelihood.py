"""Mixture likelihood ratios over subsets of affected streams.

For independent streams with factorized subset weights
``p_B = C * prod_{i in B} p_i`` the subset-mixture likelihood ratio

    Lambda = C * sum_{B, 1 <= |B| <= K} prod_{i in B} p_i * LR_i

equals ``C * sum_{j=1..K} e_j(p_1 LR_1, ..., p_N LR_N)`` where ``e_j`` is the
j-th elementary symmetric polynomial.  ``log_esp``, the one DP that the window
engine and ``mixture_lr_dp`` both run, evaluates all ``e_j`` in ``O(N K)``: in
the linear domain after a max shift, and in the log domain where a shifted
``e_j`` would underflow, so any magnitude of the log likelihood ratios is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Most subsets ``subset_masks`` lists: every subset of 20 streams, 21 MB of
#: masks listed in 0.05 s (median of 7 on a 2-core Xeon).  Time and memory
#: grow with the count.
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
    shift = _shift(np.max(a, axis=axis, keepdims=True))
    terms = a - shift
    with np.errstate(divide="ignore", over="ignore"):
        np.exp(terms, out=terms)
        out = np.log(np.sum(terms, axis=axis, keepdims=True)) + shift
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def logsumexp_tree(x: np.ndarray) -> np.ndarray:
    """``logsumexp(x, axis=0)`` of a fresh ``[m, r]`` array, which it overwrites: ``[r]``.

    It shifts and exponentiates as ``logsumexp`` does, in place, and then sums
    the ``m`` rows by a halving tree, ``x[:h] += x[m-h:m]`` with ``h = m // 2``
    until one row is left.  Every column takes the same adds in the same
    order, so its bits do not depend on ``r``, the columns beside it or the
    memory layout.  ``x.sum(axis=0)`` does not promise that: numpy adds the
    rows one by one for many columns but pairwise for one, so a column's last
    bit would depend on how many columns are summed with it.
    """
    shift = _shift(x.max(axis=0))
    x -= shift
    with np.errstate(divide="ignore", over="ignore"):
        np.exp(x, out=x)
        m = x.shape[0]
        while m > 1:
            h = m // 2
            x[:h] += x[m - h:m]
            m -= h
        return np.log(x[0]) + shift


def _shift(a_max: np.ndarray) -> np.ndarray:
    """The log-sum-exp shift: the maximum, or 0 where it is not finite."""
    return np.where(np.isfinite(a_max), a_max, 0.0)


def log_add_exp(x, y, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``out = max(x, y) + log1p(exp(-|x - y|))``, into the caller's buffers.

    Each pass is a numpy SIMD ufunc, several times faster than the scalar libm
    calls of ``np.logaddexp``; ``out`` may be ``x``.  It is not bit-identical
    to ``np.logaddexp`` (a few elements in a thousand differ in the last bit,
    which may depend on the SIMD path numpy dispatches on a CPU), but exact at
    infinities: ``x = -inf`` gives ``y``, a tie ``x == y`` gives ``y + log 2``.
    A finite scalar ``y`` ties with no infinity, so that path skips the guard
    that maps the tie's NaN to 0; it changes no bit there.
    """
    np.minimum(x, y, out=work)
    np.maximum(x, y, out=out)
    with np.errstate(invalid="ignore"):
        np.subtract(work, out, out=work)  # -|x - y|; NaN only for a tie at infinity
    if not (np.ndim(y) == 0 and math.isfinite(y)):
        np.fmin(work, 0.0, out=work)
    np.exp(work, out=work)
    np.log1p(work, out=work)
    return np.add(out, work, out=out)


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


#: Smallest ``e_j`` of the shifted inputs ``log_esp`` keeps.  Each ``e_j`` at or
#: above it carries full relative precision; a smaller one may have been
#: flushed to 0, and ``e_j e^{j c}`` can still dominate the sum when one stream
#: leads another by over ~745 nats, so its element is redone in the log domain.
ESP_FLOOR = 2.0**-900


def log_esp(inputs, K: int) -> np.ndarray:
    """log e_1..e_K ``[K, ...]`` of the stream-major log inputs ``[N, ...]``.

    ``inputs()`` returns them as a fresh array, which the DP overwrites; it is
    called again only if an element falls back.  The DP runs in the linear
    domain: on ``y_i = exp(x_i - c)`` with ``c = max_i x_i``, it adds stream
    ``i``'s terms ``y_i e_{j-1}`` to each ``e_j``, one multiply and one add
    over contiguous slices, and then ``log e_j = log e_j(y) + j c``.  An
    element where some ``e_j(y)`` is below ``ESP_FLOOR`` or NaN is redone by
    ``log_elementary_symmetric``.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = inputs()
        n_streams = y.shape[0]
        shift = y[0].copy()
        for i in range(1, n_streams):
            np.maximum(shift, y[i], out=shift)
        y -= shift
        np.exp(y, out=y)
        e = np.empty((K,) + shift.shape)  # e[j - 1] = e_j
        e[0] = y[0]
        for i in range(1, n_streams):
            product = y[i - 1]  # stream i - 1 is done: its slice is scratch
            for j in range(min(i + 1, K), 1, -1):
                if j == i + 1:  # e_j's first term
                    np.multiply(y[i], e[j - 2], out=e[j - 1])
                else:
                    np.multiply(y[i], e[j - 2], out=product)
                    e[j - 1] += product
            e[0] += y[i]
        low = ~(e >= ESP_FLOOR).all(axis=0)
        np.log(e, out=e)
        for j in range(1, K + 1):
            e[j - 1] += shift if j == 1 else j * shift
    if low.any():
        x = np.moveaxis(inputs()[:, low], 0, -1)
        e[:, low] = log_elementary_symmetric(x, K)[:, 1:].T
    return e


@dataclass(frozen=True)
class SubsetWeights:
    """Factorized weights over subsets of at most K affected streams.

    ``p_B = C * prod_{i in B} p_i`` over all subsets with ``1 <= |B| <= K``,
    where ``log C = log_normalizer`` makes the weights sum to one.  The
    subsets are listed here once, on first use, parent first (see
    ``subset_masks``); callers read ``masks``, ``members`` and
    ``log_p_subsets``, all in that order, instead of listing them again.  Each
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
    axes are batched.  Cost is O(N K) per evaluation, in ``log_esp``.
    """
    llr = np.asarray(stream_log_lrs, dtype=float)
    if llr.shape[-1] != weights.n_streams:
        raise ValueError(
            f"got {llr.shape[-1]} per-stream values for {weights.n_streams} streams"
        )
    if not np.all(np.isfinite(llr)):
        raise ValueError("per-stream log likelihood ratios must be finite")
    rows = (weights.log_p + llr).reshape(-1, weights.n_streams)
    loge = log_esp(lambda: rows.T.copy(), weights.K)  # [K, rows]
    mixed = logsumexp(loge, axis=0).reshape(llr.shape[:-1]) + weights.log_normalizer
    return float(mixed) if np.ndim(mixed) == 0 else mixed


def subset_masks(n_streams: int, K: int) -> np.ndarray:
    """Boolean membership masks ``[S, N]`` of all subsets with 1 <= |B| <= K.

    The rows list the subsets parent first, stream by stream: for stream
    ``j``, the singleton ``{j}`` and then ``B + {j}`` for each subset ``B``
    listed before it with ``|B| < K``, in their order.  So the subsets whose
    largest member is ``j`` are one contiguous group, and the parents ``B``
    they extend all come before it; at ``K = N`` the row of a subset is its
    bitmask less one.  This is the one order of subsets in the library.  More
    than ``MAX_LISTED_SUBSETS`` subsets are refused before any is listed.
    """
    count = count_subsets(n_streams, K)
    if count > MAX_LISTED_SUBSETS:
        raise ValueError(f"listing {count} subsets exceeds the budget of {MAX_LISTED_SUBSETS}")
    masks = np.zeros((count, n_streams), dtype=bool)
    sizes = np.zeros(count, dtype=np.intp)
    start = 0
    for j in range(n_streams):
        masks[start, j], sizes[start] = True, 1
        parents = np.flatnonzero(sizes[:start] < K)
        rows = slice(start + 1, start + 1 + len(parents))
        masks[rows] = masks[parents]
        masks[rows, j] = True
        sizes[rows] = sizes[parents] + 1
        start = rows.stop
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
