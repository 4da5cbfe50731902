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
the recursion.  Both engines take the per-stream increments of one step at a
time; the recursion sums them over each subset as it steps.  All state is kept
in the log domain, where it neither overflows nor needs a clamp, so both
engines reach any finite threshold.

The joint weights ``p_B * W(theta)`` of the components sum to one, so the log
statistic never exceeds its largest log component (plus the log of the
weights' sum, 0 up to rounding).  A stopping rule only asks whether the
statistic reaches a threshold, so the recursion's read-out runs its
log-sum-exp only on rows where that bound does.

Both engines add in the log domain with ``likelihood.log_add_exp``, which is
``max + log1p(exp(-|d|))`` on numpy's SIMD ufuncs: not bit-identical to
``np.logaddexp``, and the last bit may depend on the SIMD path numpy dispatches
on a CPU.  On one machine, results are the same for any worker count.

The no-change posterior satisfies ``P(nu >= n | data) = 1 / (S(n) + 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .likelihood import SubsetWeights, log_add_exp, log_elementary_symmetric, logsumexp, read_only
from .model import PriorSpec


@dataclass(frozen=True)
class GridSpec:
    """Discretized mixing measure over post-change parameters.

    Each row of ``theta_points`` is a per-stream parameter vector; ``weights``
    are the matching probabilities (positive, summing to one).  ``points`` and
    ``log_weights`` are computed once and read-only.
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
        if not all(math.isfinite(v) for row in points for v in row):
            raise ValueError("parameter points must be finite")
        if len(points) != len(set(points)):
            raise ValueError("parameter points must be distinct")
        if len(weights) != len(points):
            raise ValueError(f"{len(weights)} weights for {len(points)} points")
        if not all(w > 0.0 for w in weights):
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

    @cached_property
    def points(self) -> np.ndarray:
        return read_only(np.asarray(self.theta_points))

    @cached_property
    def log_weights(self) -> np.ndarray:
        return read_only(np.log(np.asarray(self.weights)))


class MixtureBasis:
    """Subset sums and joint log weights for one (grid, weights) pair.

    Only the recursion reads ``prefix``, ``log_joint`` and ``log_joint_total``;
    all are built on first use from the subsets ``weights`` lists, so the
    window engine never enumerates them.
    """

    def __init__(self, grid: GridSpec, weights: SubsetWeights):
        if weights.n_streams != grid.n_streams:
            raise ValueError(
                f"subset weights cover {weights.n_streams} streams, grid {grid.n_streams}"
            )
        self.grid = grid
        self.weights = weights
        self.n_subsets = weights.n_subsets

    @cached_property
    def prefix(self) -> list[tuple[int, int]]:
        """``(parent, last)`` for each subset after the singletons, in listing order.

        The subset is its ``parent`` (itself less its largest member ``last``,
        listed one size earlier) plus stream ``last``.  The singletons come
        first, stream by stream.
        """
        index = {b: s for s, b in enumerate(self.weights.members)}
        return [(index[b[:-1]], b[-1]) for b in self.weights.members[self.weights.n_streams:]]

    @cached_property
    def log_joint(self) -> np.ndarray:
        """Joint log weight of each (subset, point) component: ``[S, P]``."""
        return self.weights.log_p_subsets[:, None] + self.grid.log_weights[None, :]

    @cached_property
    def log_joint_total(self) -> float:
        """``logsumexp(log_joint)``: 0 up to rounding, as the weights sum to one."""
        return float(logsumexp(self.log_joint))


@dataclass(frozen=True)
class FlatWeights:
    """Change-point weights of the Shiryaev-Roberts statistic.

    ``pi_k = 1`` and ``P(nu >= n) = 1``, with the head start ``omega`` in place
    of the head mass: the Shiryaev sum under these weights is ``R(n)``.  A
    ``PriorSpec`` is the other weighting ``DetectorState`` takes.
    """

    omega: float = 0.0

    def __post_init__(self):
        # the one check of the head start; NaN fails it too
        if not 0.0 <= self.omega < math.inf:
            raise ValueError(f"head start omega must be finite and >= 0, got {self.omega}")

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
    ``FlatWeights`` for the Shiryaev-Roberts statistic.  ``advance`` takes the
    increments of one step, ``[R, P, N]`` (replications x grid points x
    streams).  In recursive mode the state holds per-(subset, point) log
    components of shape ``[R, S, P]``, which ``advance`` updates in place with
    the step's subset sums; in window mode it holds the increments of the last
    ``m1 + 1`` steps, ``[R, <= m1+1, P, N]``, and re-evaluates the direct sum.
    Every update is row by row, so ``retain`` can drop replications that have
    stopped without changing the arithmetic of the others.  Since the
    components' joint weights sum to one, the log statistic of a row is at
    most its largest log component plus ``MixtureBasis.log_joint_total``;
    ``log_shiryaev(floor)`` uses this bound to skip the exact read-out of rows
    provably below ``floor``.  The update adds with ``log_add_exp``, not
    ``np.logaddexp``; a value may differ from the latter's in its last bit.
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
        check_window(window_m1, window_m0)
        self.weighting = weighting
        self.basis = MixtureBasis(grid, weights)
        self.n_reps = int(n_reps)
        self.window_m1 = window_m1
        self.window_m0 = int(window_m0)
        self.n = 0
        odds = weighting.head_odds()
        start = math.log(odds) if odds > 0.0 else -math.inf
        if window_m1 is None:
            shape = (self.n_reps, self.basis.n_subsets, self.basis.grid.n_points)
            self.log_components = np.full(shape, start)
        else:
            # the window's increments, oldest first
            self._window = np.empty((self.n_reps, 0, grid.n_points, weights.n_streams))
            self._log_value = np.full(self.n_reps, start)

    # -- internals -----------------------------------------------------------

    def subset_llrs(self, increments) -> np.ndarray:
        """Sum per-stream increments ``[..., P, N]`` over each subset: ``[..., S, P]``.

        Each subset's sum is its parent's sum plus the increment of its largest
        member (``MixtureBasis.prefix``): the member-by-member fold from the
        smallest member up, one add per subset.  The recursion sums one step
        ``[R, P, N]`` at a time; an element's arithmetic does not depend on the
        other replications or steps summed with it.
        """
        inc = np.asarray(increments, dtype=float)
        n, n_points = inc.shape[-1], inc.shape[-2]
        # subset-major, so each add runs over contiguous memory
        sums = np.empty((self.basis.n_subsets,) + inc.shape[:-1])  # [S, ..., P]
        sums[:n] = np.moveaxis(inc, -1, 0)
        for s, (parent, last) in enumerate(self.basis.prefix, start=n):
            np.add(sums[parent], sums[last], out=sums[s])
        # move the subset axis in with each point vector copied as one element
        vector = np.dtype((np.void, 8 * n_points))
        out = np.ascontiguousarray(np.moveaxis(sums.view(vector)[..., 0], 0, -1))
        return out.view(float).reshape(inc.shape[:-2] + (self.basis.n_subsets, n_points))

    def _advance_recursive(self, llr: np.ndarray) -> None:
        n = self.n + 1
        log_tail = self.weighting.log_tail(n)
        if log_tail == -math.inf:
            raise ValueError(f"prior tail vanishes at n={n}; the Shiryaev statistic is undefined")
        log_c = self.log_components
        log_c += self.weighting.log_tail(n - 1)
        log_mass = self.weighting.log_mass(n - 1)
        if log_mass > -math.inf:  # adding exp(-inf) = 0 leaves every component as it is
            log_add_exp(log_c, log_mass, log_c, np.empty_like(log_c))
        log_c += llr
        log_c -= log_tail
        self.n = n

    def _advance_window(self, inc: np.ndarray) -> None:
        window = np.concatenate((self._window, inc[:, None]), axis=1)
        self._window = window[:, -(self.window_m1 + 1):]  # only the newest when m1 = 0
        self.n += 1
        self._log_value = direct_log_statistic(
            self._window,
            self.weighting,
            self.basis.grid,
            self.basis.weights,
            n=self.n,
            m1=self.window_m1,
            m0=self.window_m0,
        )

    # -- public stepping -------------------------------------------------------

    def advance(self, increments) -> "DetectorState":
        """Absorb one observation vector: the per-stream log LR increments ``[R, P, N]``."""
        inc = np.asarray(increments, dtype=float)
        expected = (self.n_reps, self.basis.grid.n_points, self.basis.weights.n_streams)
        if inc.shape != expected:
            raise ValueError(f"increments must have shape {expected}, got {inc.shape}")
        if self.window_m1 is None:
            self._advance_recursive(self.subset_llrs(inc))
        else:
            self._advance_window(inc)
        return self

    def retain(self, rows) -> None:
        """Keep only the replications ``rows`` selects (a mask or indices) in the state."""
        if self.window_m1 is None:
            self.log_components = self.log_components[rows]
            self.n_reps = self.log_components.shape[0]
        else:
            self._window = self._window[rows]
            self._log_value = self._log_value[rows]
            self.n_reps = self._log_value.shape[0]

    # -- value -----------------------------------------------------------------

    def log_shiryaev(self, floor: float | None = None) -> np.ndarray:
        """The log statistic ``[R]``: log S(n) under a prior, log R(n) under flat weights.

        With a ``floor``, the recursion reads out exactly only the rows whose
        bound ``max(log_components) + log_joint_total`` reaches ``floor`` less
        a rounding margin; every other row gets its bound, which is below
        ``floor``.  The bound holds because the joint weights sum to one.
        """
        if self.window_m1 is not None:
            return self._log_value
        log_joint = self.basis.log_joint[None]
        if floor is None:
            return logsumexp(self.log_components + log_joint, axis=(1, 2))
        # the row maxima as a reduction over the first axis of a transposed
        # copy, which runs elementwise across rows instead of row by row
        columns = np.ascontiguousarray(self.log_components.reshape(self.n_reps, -1).T)
        bound = columns.max(axis=0) + self.basis.log_joint_total
        exact = ~(bound < floor - 1e-9 * max(1.0, abs(floor)))
        if exact.all():
            return logsumexp(self.log_components + log_joint, axis=(1, 2))
        if exact.any():
            bound[exact] = logsumexp(self.log_components[exact] + log_joint, axis=(1, 2))
        return bound

    #: Read-outs are named after the rule; both return the same statistic.
    log_sr = log_shiryaev


def check_window(m1: int | None, m0: int) -> None:
    """The window rule: ``0 <= m0 <= m1``, or no window (``m1 = None``) and ``m0 = 0``."""
    if m1 is None and m0 != 0:
        raise ValueError(f"window offset m0 = {m0} needs a window length m1")
    if m1 is not None and not 0 <= m0 <= m1:
        raise ValueError(f"window offset m0 = {m0} is negative or exceeds m1 = {m1}")


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
