"""Running Shiryaev and Shiryaev-Roberts statistics mixed over subsets and parameters.

Both statistics are weighted sums of likelihood ratios over candidate change
points; they differ only in the weights.  When the per-observation increments
do not depend on the hypothesized change point, each (subset, parameter)
component satisfies a one-step recursion:

    S_{B,t}(n) = L_{B,t}(n) * (S_{B,t}(n-1) * P(nu >= n-1) + pi_{n-1}) / P(nu >= n)

with ``S(0) = q / (1-q)``.  Under a ``PriorSpec`` this is the Shiryaev
statistic.  Under ``FlatWeights`` (``pi_k = 1``, ``P(nu >= n) = 1``, head
start ``omega`` in place of ``q``) it is the Shiryaev-Roberts statistic
``R(n) = L(n) * (R(n-1) + 1)`` with ``R(0) = omega``.  The emitted statistic
is the subset/parameter mixture of the components.  A window-limited mode sums
the mixture likelihood ratio directly over the last ``m1 + 1`` candidate
change points instead, which bounds memory and also serves as the oracle for
the recursion.  All state is kept in the log domain, clamped at +/-700 with a
saturation flag (a saturated statistic is already far beyond any usable
threshold).

The no-change posterior satisfies ``P(nu >= n | data) = 1 / (S(n) + 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .likelihood import (
    SubsetWeights,
    log_elementary_symmetric,
    log_subset_weights,
    logsumexp,
    subset_masks,
)
from .model import PriorSpec

LOG_CLAMP = 700.0


@dataclass(frozen=True)
class GridSpec:
    """Discretized mixing measure over post-change parameters.

    Each row of ``theta_points`` is a per-stream parameter vector; ``weights``
    are the matching probabilities (positive, summing to one).
    """

    theta_points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        points = tuple(tuple(float(v) for v in row) for row in self.theta_points)
        weights = tuple(float(w) for w in self.weights)
        if not points:
            raise ValueError("grid needs at least one parameter point")
        width = len(points[0])
        if any(len(row) != width for row in points):
            raise ValueError("all parameter points must have the same dimension")
        if len(points) != len(set(points)):
            raise ValueError("parameter points must be distinct")
        if len(weights) != len(points):
            raise ValueError(f"{len(weights)} weights for {len(points)} points")
        if any(w <= 0.0 for w in weights):
            raise ValueError("grid weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"grid weights must sum to 1, got {sum(weights)!r}")
        object.__setattr__(self, "theta_points", points)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def common_amplitude(cls, amplitudes, n_streams: int, weights=None) -> "GridSpec":
        """Each grid point assigns one amplitude to every stream."""
        amplitudes = tuple(float(a) for a in amplitudes)
        if weights is None:
            weights = (1.0 / len(amplitudes),) * len(amplitudes)
        return cls(
            theta_points=tuple((a,) * n_streams for a in amplitudes),
            weights=tuple(weights),
        )

    @classmethod
    def degenerate(cls, theta) -> "GridSpec":
        """All mass on a single parameter vector: a putative-parameter rule."""
        return cls(theta_points=(tuple(float(t) for t in np.atleast_1d(theta)),), weights=(1.0,))

    @property
    def n_points(self) -> int:
        return len(self.theta_points)

    @property
    def n_streams(self) -> int:
        return len(self.theta_points[0])

    @property
    def points(self) -> np.ndarray:
        return np.asarray(self.theta_points)

    @property
    def log_weights(self) -> np.ndarray:
        return np.log(np.asarray(self.weights))


class MixtureBasis:
    """Precomputed subset masks and log mixing weights for one (grid, weights) pair."""

    def __init__(self, grid: GridSpec, weights: SubsetWeights):
        if weights.n_streams != grid.n_streams:
            raise ValueError(
                f"subset weights cover {weights.n_streams} streams, grid {grid.n_streams}"
            )
        self.grid = grid
        self.weights = weights
        self.masks = subset_masks(weights.n_streams, weights.K)
        self.members = [np.flatnonzero(row) for row in self.masks]
        self.log_p_subset = log_subset_weights(weights, self.masks)
        self.log_w = grid.log_weights
        # joint log weight of each (subset, point) component
        self.log_joint = self.log_p_subset[:, None] + self.log_w[None, :]

    @property
    def n_subsets(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class FlatWeights:
    """Change-point weights of the Shiryaev-Roberts statistic.

    ``pi_k = 1`` and ``P(nu >= n) = 1``, with the head start ``omega`` in place
    of the head mass: the Shiryaev sum under these weights is ``R(n)``.  A
    ``PriorSpec`` is the other weighting ``DetectorState`` takes.
    """

    omega: float = 0.0

    def __post_init__(self):
        if self.omega < 0.0:
            raise ValueError(f"head start must be >= 0, got {self.omega}")

    @property
    def q(self) -> float:
        """The weight of the "changed before the start" summand."""
        return self.omega

    def log_mass(self, k: int) -> float:
        return 0.0

    def log_tail(self, n: int) -> float:
        return 0.0

    def head_odds(self) -> float:
        """The starting value ``R(0) = omega``."""
        return self.omega


class DetectorState:
    """Batched running state of the statistic under one change-point weighting.

    ``weighting`` is a ``PriorSpec`` for the Shiryaev statistic or
    ``FlatWeights`` for the Shiryaev-Roberts statistic.  ``increments``
    passed to the update operations have shape ``[R, P, N]`` (replications x
    grid points x streams).  In recursive mode the state holds
    per-(subset, point) log components of shape ``[R, S, P]``; in window mode
    it holds the raw increment history and re-evaluates the direct sum.
    Every update is row by row, so ``retain`` can drop replications that have
    stopped without changing the arithmetic of the others.
    """

    def __init__(
        self,
        weighting: PriorSpec | FlatWeights,
        grid: GridSpec,
        weights: SubsetWeights,
        *,
        n_reps: int = 1,
        window_m1: int | None = None,
        window_m0: int = 0,
    ):
        if window_m1 is not None and window_m1 < 0:
            raise ValueError(f"window length must be >= 0, got {window_m1}")
        if not 0 <= window_m0 <= (0 if window_m1 is None else window_m1):
            raise ValueError("need 0 <= m0 <= m1, and m0 = 0 without a window")
        self.weighting = weighting
        self.basis = MixtureBasis(grid, weights)
        self.n_reps = int(n_reps)
        self.window_m1 = window_m1
        self.window_m0 = int(window_m0)
        self.n = 0
        self.saturated = np.zeros(self.n_reps, dtype=bool)
        start = _safe_log(weighting.head_odds())
        if window_m1 is None:
            shape = (self.n_reps, self.basis.n_subsets, self.basis.grid.n_points)
            self.log_components = np.full(shape, start)
        else:
            self._hist: list[np.ndarray] = []
            self._log_value = np.full(self.n_reps, start)

    # -- internals -----------------------------------------------------------

    def _check_increments(self, increments: np.ndarray) -> np.ndarray:
        inc = np.asarray(increments, dtype=float)
        if inc.ndim == 2:
            inc = inc[None]
        expected = (self.n_reps, self.basis.grid.n_points, self.basis.weights.n_streams)
        if inc.shape != expected:
            raise ValueError(f"increments must have shape {expected}, got {inc.shape}")
        return inc

    def subset_llrs(self, increments) -> np.ndarray:
        """Sum per-stream increments ``[..., P, N]`` over each subset: ``[..., S, P]``.

        Accumulated member by member so every element's arithmetic is the same
        whether it is summed alone, with other replications or with other steps.
        """
        inc = np.asarray(increments, dtype=float)
        out = np.empty(inc.shape[:-2] + (self.basis.n_subsets, inc.shape[-2]))
        for s, members in enumerate(self.basis.members):
            acc = inc[..., members[0]].copy()
            for i in members[1:]:
                acc += inc[..., i]
            out[..., s, :] = acc
        return out

    def _check_subset_llrs(self, subset_llrs) -> np.ndarray:
        if self.window_m1 is not None:
            raise ValueError("joint increments are only supported by the recursion")
        llr = np.asarray(subset_llrs, dtype=float)
        if llr.ndim == 2:
            llr = llr[None]
        expected = (self.n_reps, self.basis.n_subsets, self.basis.grid.n_points)
        if llr.shape != expected:
            raise ValueError(f"joint increments must have shape {expected}, got {llr.shape}")
        return llr

    def _advance_recursive(self, llr: np.ndarray) -> None:
        n = self.n + 1
        log_tail = self.weighting.log_tail(n)
        if log_tail == -math.inf:
            raise ValueError(f"prior tail vanishes at n={n}; the Shiryaev statistic is undefined")
        prev = self.log_components + self.weighting.log_tail(n - 1)
        log_pi = self.weighting.log_mass(n - 1)
        self.log_components = llr + np.logaddexp(prev, log_pi) - log_tail
        over = self.log_components > LOG_CLAMP
        if over.any():
            self.saturated |= over.any(axis=(1, 2))
        np.clip(self.log_components, -LOG_CLAMP, LOG_CLAMP, out=self.log_components)
        self.n = n

    def _advance_window(self, inc: np.ndarray) -> None:
        self._hist.append(inc)
        keep = self.window_m1 + 1
        if len(self._hist) > keep:
            del self._hist[: len(self._hist) - keep]
        self.n += 1
        self._log_value = direct_log_statistic(
            np.stack(self._hist, axis=1),  # [R, m, P, N], oldest first
            self.weighting,
            self.basis.grid,
            self.basis.weights,
            n=self.n,
            m1=self.window_m1,
            m0=self.window_m0,
        )

    # -- public stepping -------------------------------------------------------

    def advance(self, increments=None, *, subset_llrs=None) -> "DetectorState":
        """Absorb one observation vector.

        ``increments`` are the per-stream log LR increments ``[R, P, N]``.  A
        recursive state takes instead ``subset_llrs``, the per-(subset, point)
        increments ``[R, S, P]`` in ``subset_masks`` order: either the sums
        ``subset_llrs()`` computes, for a block of steps at once, or the joint
        increments of a cross-stream-dependent post-change model, where the
        increment of a subset is not the sum of per-stream terms.
        """
        if (increments is None) == (subset_llrs is None):
            raise ValueError("pass exactly one of increments and subset_llrs")
        if subset_llrs is not None:
            self._advance_recursive(self._check_subset_llrs(subset_llrs))
        elif self.window_m1 is not None:
            self._advance_window(self._check_increments(increments))
        else:
            self._advance_recursive(self.subset_llrs(self._check_increments(increments)))
        return self

    def retain(self, rows) -> None:
        """Keep only the replications ``rows`` selects (a mask or indices) in the state."""
        self.saturated = self.saturated[rows]
        self.n_reps = self.saturated.shape[0]
        if self.window_m1 is None:
            self.log_components = self.log_components[rows]
        else:
            self._hist = [inc[rows] for inc in self._hist]
            self._log_value = self._log_value[rows]

    # -- value -----------------------------------------------------------------

    def log_shiryaev(self) -> np.ndarray:
        """The log statistic ``[R]``: log S(n) under a prior, log R(n) under flat weights."""
        if self.window_m1 is None:
            return logsumexp(self.log_components + self.basis.log_joint[None], axis=(1, 2))
        return self._log_value

    #: Read-outs are named after the rule; both return the same statistic.
    log_sr = log_shiryaev


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def direct_log_statistic(
    increments,
    weighting: PriorSpec | FlatWeights,
    grid: GridSpec,
    weights: SubsetWeights,
    *,
    n: int,
    m1: int | None = None,
    m0: int = 0,
):
    """Window-limited log statistic at time ``n`` by direct summation over change points.

    ``increments`` is ``[..., T, P, N]`` holding the increments of times
    ``n - T + 1 .. n``; it must cover times ``max(1, n - m1) .. n``.  Sums
    ``pi_k * Lambda_{p,W}(k, n)`` for ``k = n - min(n, m1+1) .. n-1-m0`` and
    normalizes by the tail ``P(nu >= n)`` of ``weighting``.  When the window
    reaches back to the origin the head weight ``q`` contributes
    ``q * Lambda(0, n)`` as the "changed before the start" summand, so a window
    with ``m1 >= n`` follows the exact same arithmetic path as the unwindowed
    statistic (``m1=None``).  For ``n <= m0`` no change point is a candidate
    yet and the head summand is all there is.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim < 3:
        raise ValueError("increment history must be [..., T, P, N]")
    if n < 1:
        raise ValueError("the statistics are defined from n = 1 on")
    log_tail = weighting.log_tail(n)
    if log_tail == -math.inf:
        raise ValueError(f"prior tail vanishes at n={n}; statistic undefined")
    m = n if m1 is None else min(n, m1 + 1)
    if inc.shape[-3] < m:
        raise ValueError(
            f"window of length {m} needs increments from time {n - m + 1}, "
            f"history starts at {n - inc.shape[-3] + 1}"
        )
    window = inc[..., inc.shape[-3] - m:, :, :]
    # suffix sums: entry j-1 along the window axis is the log LR over (n-j, n]
    suffix = np.cumsum(window[..., ::-1, :, :], axis=-3)
    loge = log_elementary_symmetric(weights.log_p + suffix, weights.K)
    log_lam_theta = logsumexp(loge[..., 1:], axis=-1) + weights.log_normalizer
    log_lam = logsumexp(log_lam_theta + grid.log_weights, axis=-1)
    if m0 < m:
        log_pi = np.array([weighting.log_mass(n - j) for j in range(m0 + 1, m + 1)])
        value = logsumexp(log_pi + log_lam[..., m0:m], axis=-1)
    else:
        value = np.full(log_lam.shape[:-1], -math.inf)
    if m == n and weighting.q > 0.0:
        value = np.logaddexp(value, math.log(weighting.q) + log_lam[..., m - 1])
    value = value - log_tail
    return float(value) if np.ndim(value) == 0 else value


def posterior_no_change(log_shiryaev) -> np.ndarray:
    """P(nu >= n | data) from the log Shiryaev statistic: 1 / (S + 1)."""
    return np.exp(-np.logaddexp(0.0, np.asarray(log_shiryaev, dtype=float)))
