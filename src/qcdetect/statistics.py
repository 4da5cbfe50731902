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
time; the recursion sums them over each subset as it steps, with one
broadcast add per stream over its subsets, which are listed parent first
(``likelihood.subset_masks``), so a step costs a fixed number of numpy calls
whatever the subset count.  All state is kept in the log domain, where it
neither overflows nor needs a clamp, so both engines reach any finite
threshold.

A stopping rule only asks whether the statistic reaches a threshold, so both
engines read a row out exactly only where an upper bound of its log statistic
reaches it, less a rounding margin (``may_reach``); every other row reads its
bound.  The joint weights ``p_B * W(theta)`` of the components sum to one, so
the recursion's bound is its largest log component (plus the log of the
weights' sum, 0 up to rounding).  The window's bound ``U`` costs ``O(P N)``
a row and step.  No component grows in one step by more than ``log M(n)``,
the largest over the grid points of the sum of the ``K`` largest positive
stream increments; the slot that enters the window starts from a likelihood
ratio of one, and the slots that leave only lower the sum.  So the
recursion formula above, stepped on one component,

    U(n) = log M(n) + logaddexp(U(n-1) + log P(nu >= n-1), log pi_{n-1}) - log P(nu >= n)

from ``U(0) = log S(0)``, the head odds that carry ``q`` (or ``omega``),
never falls below the window statistic, and it restarts from each exact
read-out.  An increment that is NaN or +inf makes the bound NaN or +inf, and
such a row is read exactly.  With ``m0 > 0`` a slot enters the sum with the
likelihood ratio of ``m0 + 1`` steps, so there the bound is ``+inf``.

The recursion adds in the log domain with ``likelihood.log_add_exp``, which
is ``max + log1p(exp(-|d|))`` on numpy's SIMD ufuncs: not bit-identical to
``np.logaddexp``, and the last bit may depend on the SIMD path numpy
dispatches on a CPU.  Its read-out is ``likelihood.logsumexp_tree``: the
shift of ``likelihood.logsumexp`` (``max + log(sum(exp(a - max)))``, not
scipy's bits) with the components of each replication summed by a halving
tree, replications last, in one fixed order: the order the subsets are
listed in.  So a replication's value does not depend on how many others are
read out with it, as it would under numpy's ``sum(axis=0)``.  The window
engine's read-out and the direct sum ``direct_log_statistic`` run one kernel,
``window_log_statistic``, row by row: suffix sums cumulated backwards from
the newest step, two grid points at a time as one complex column (the same
bits as one at a time), ``likelihood.log_esp`` (the elementary-symmetric DP
that ``mixture_lr_dp`` runs too: linear after a max shift over the streams,
in the log domain only where a shifted ``e_j`` would underflow), and one
``logsumexp`` over subset sizes, points and change points.  So the engine
equals the direct sum bit for bit.  On one machine, results are the same for
any worker count.

The no-change posterior satisfies ``P(nu >= n | data) = 1 / (S(n) + 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# log_elementary_symmetric is unused here, but the benchmark's tracer reads and
# patches this binding by name, as it does ``DetectorState.log_sr``
from .likelihood import (
    SubsetWeights, log_add_exp, log_elementary_symmetric, log_esp, logsumexp, logsumexp_tree,
    read_only,
)
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
            weights = tuple(1.0 / len(amplitudes) for _ in amplitudes)
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

    The subsets keep the order ``weights`` lists them in, parent first (see
    ``likelihood.subset_masks``), in the recursion's state, its subset sums,
    ``log_joint`` and the read-out alike.  Only the recursion reads these; all
    are built on first use, so the window engine never enumerates the subsets.
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
    def prefix(self) -> tuple[np.ndarray, list]:
        """The singletons' rows ``[N]`` and each stream's group of larger subsets.

        A group is ``(j, parents, rows)``: the subsets ``B + {j}`` listed in
        the slice ``rows``, right after ``{j}``, extend the parents ``B`` at
        the rows ``parents``, which are the subsets listed before ``{j}`` with
        ``|B| < K``: a slice when that is every one of them (always at
        ``K = N``), an index array otherwise.  Streams that extend no parent
        (stream 0, and every stream at ``K = 1``) have no group.
        """
        sizes = self.weights.masks.sum(axis=1)
        starts = np.flatnonzero(sizes == 1)  # {j} opens stream j's group
        groups = []
        for j in range(1, self.weights.n_streams):
            parents = np.flatnonzero(sizes[:starts[j]] < self.weights.K)
            if len(parents):
                every = len(parents) == starts[j]
                rows = slice(starts[j] + 1, starts[j] + 1 + len(parents))
                groups.append((j, slice(0, starts[j]) if every else parents, rows))
        return starts, groups

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
    streams), of any strides; ``Scenario.log_lr_increments`` lays a step's out
    rows last, as both engines read it.  In recursive mode the state holds
    per-(subset, point) log components rows last, ``[S, P, R]``, with the
    subsets in the order ``weights`` lists them, which ``advance`` updates in
    place with the step's subset sums.  In window mode it keeps the increments
    in a stream-major buffer ``[N, R, steps, P]``.  The buffer starts at one
    step; each time it fills, its last ``min(n, m1 + 1)`` steps slide to the
    front, and it doubles until it holds two windows, ``2(m1+1)`` steps, so
    over ``T`` steps it never holds more than ``2 * min(T, m1 + 1)``.  Beside
    it ``advance`` steps each row's upper bound ``U`` of the log statistic
    (see the module docstring), and the read-out evaluates the window's direct
    sum with ``window_log_statistic``, the kernel of ``direct_log_statistic``,
    on the rows whose bound it cannot rule out.  The buffer's point axis is
    contiguous, and so is that of the rows it gathers, so the kernel's suffix
    sums run on pairs of points; when every row is exact it reads the buffer
    with no copy.  Every update is row by row, so ``retain`` can drop
    replications that have stopped without changing the arithmetic of the
    others.  In recursive mode a row's log statistic is at most its largest
    log component plus ``MixtureBasis.log_joint_total``, as the components'
    joint weights sum to one.  ``log_shiryaev(floor)`` uses either engine's
    bound to skip the exact read-out of rows provably below ``floor``.  The
    recursion adds with ``log_add_exp``, not ``np.logaddexp``, and reads out
    with ``logsumexp_tree``, the window with ``logsumexp``, neither of them
    scipy's; a value may differ from theirs in its last bits.
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
            shape = (self.basis.n_subsets, self.basis.grid.n_points, self.n_reps)
            self.log_components = np.full(shape, start)
        else:
            # stream-major increments, oldest first: steps [0, _stop) are
            # filled and the last min(n, m1 + 1) of them are the window; the
            # buffer starts at one step and _slide doubles it
            shape = (weights.n_streams, self.n_reps, 1, grid.n_points)
            self._buffer = np.empty(shape)
            self._stop = 0
            # U(n), an upper bound of each row's log statistic; U(0) = log S(0)
            self._bound = np.full(self.n_reps, start)

    # -- internals -----------------------------------------------------------

    def subset_llrs(self, increments) -> np.ndarray:
        """Sum per-stream increments ``[..., P, N]`` over each subset: ``[S, P, ...]``.

        The sums come in the order ``weights`` lists the subsets.  Each
        subset's sum is its parent's sum plus the increment of its largest
        member (``MixtureBasis.prefix``): the member-by-member fold from the
        smallest member up, with one broadcast add per stream, over its whole
        group of subsets.  The recursion sums one step ``[R, P, N]`` at a time,
        in its state's layout; an element's arithmetic does not depend on the
        other replications or steps summed with it.
        """
        inc = np.asarray(increments, dtype=float)
        n = self.basis.weights.n_streams
        if inc.ndim < 2 or inc.shape[-1] != n:
            raise ValueError(f"increments must be [..., P, {n}], got shape {inc.shape}")
        d = inc.ndim
        head = inc.transpose((d - 1, d - 2) + tuple(range(d - 2)))  # [N, P, ...]
        singletons, groups = self.basis.prefix
        sums = np.empty((self.basis.n_subsets,) + head.shape[1:])
        sums[singletons] = head
        for j, parents, rows in groups:
            np.add(sums[parents], head[j], out=sums[rows])
        return sums

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

    @property
    def _window(self) -> np.ndarray:
        """The live window ``[N, R, min(n, m1 + 1), P]``, a view of the buffer."""
        return self._buffer[:, :, max(0, self._stop - self.window_m1 - 1):self._stop]

    def _slide(self) -> None:
        """Copy the window to the front of the buffer, which grows up to two windows."""
        live = self._window
        capacity = min(2 * (self.window_m1 + 1), 2 * self._buffer.shape[2])
        if capacity > self._buffer.shape[2]:
            shape = self._buffer.shape
            self._buffer = np.empty(shape[:2] + (capacity,) + shape[3:])
        self._buffer[:, :, :live.shape[2]] = live
        self._stop = live.shape[2]

    def _advance_window(self, inc: np.ndarray) -> None:
        n = self.n + 1
        log_tail = self.weighting.log_tail(n)
        if log_tail == -math.inf:
            raise ValueError(f"prior tail vanishes at n={n}; statistic undefined")
        if self._stop == self._buffer.shape[2]:
            self._slide()
        new = self._buffer[:, :, self._stop]  # [N, R, P]
        new[...] = inc.transpose(2, 0, 1)
        self._stop += 1
        if self.window_m0:  # the newest m0 slots enter late: no bound
            self._bound = np.full(self.n_reps, math.inf)
        else:
            # no component grows by more than its point's K largest positive
            # increments, the slot that enters starts from one, and the slots
            # that leave only lower the sum
            rise = np.maximum(new, 0.0)
            k = self.basis.weights.K
            if k < rise.shape[0]:
                rise = np.partition(rise, rise.shape[0] - k, axis=0)[-k:]
            with np.errstate(invalid="ignore"):  # a NaN bound stays NaN: read exactly
                carried = np.logaddexp(
                    self._bound + self.weighting.log_tail(n - 1), self.weighting.log_mass(n - 1)
                )
                self._bound = rise.sum(axis=0).max(axis=-1) + carried - log_tail
        self.n = n

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
        """Keep only the replications the boolean mask ``rows`` ``[R]`` selects."""
        rows = np.asarray(rows)
        if rows.dtype != bool or rows.shape != (self.n_reps,):
            raise ValueError(
                f"retain takes a boolean mask of shape ({self.n_reps},), "
                f"got {rows.dtype} of shape {rows.shape}"
            )
        if self.window_m1 is None:
            # a C-contiguous copy; indexing the last axis would lay rows out first
            self.log_components = np.compress(rows, self.log_components, axis=-1)
            self.n_reps = self.log_components.shape[-1]
        else:
            # compact the live window's rows to the front, in place
            live = self._window[:, rows]
            self._buffer = self._buffer[:, :live.shape[1]]
            self._window[...] = live
            self._bound = self._bound[rows]
            self.n_reps = self._bound.shape[0]

    # -- value -----------------------------------------------------------------

    def log_shiryaev(self, floor: float | np.ndarray = -math.inf) -> np.ndarray:
        """The log statistic ``[R]``: log S(n) under a prior, log R(n) under flat weights.

        Only the rows whose upper bound may reach ``floor`` (one value, or
        one per row; see ``may_reach``) are read out exactly; every other row
        gets its bound, which is below its floor.  The recursion's bound is
        ``max(log_components) + log_joint_total``, the window's the stepped
        bound ``U`` (see ``_window_readout``).  The recursion's exact rows are
        gathered rows last, ``[S * P, r]``, and
        ``logsumexp_tree`` sums each row's components in one fixed order, that
        of the state, so a row's bits do not depend on which other rows are
        exact; numpy's ``sum(axis=0)`` adds one row in another order than
        many.  The default floor, -inf,
        reads every row exactly.
        """
        if self.window_m1 is not None:
            return self._window_readout(floor)
        columns = self.log_components.reshape(-1, self.n_reps)  # [S * P, R]
        bound = columns.max(axis=0) + self.basis.log_joint_total
        exact = may_reach(bound, floor)
        if exact.any():
            x = np.compress(exact, columns, axis=1)  # [S * P, r], rows last
            x += self.basis.log_joint.reshape(-1, 1)
            bound[exact] = logsumexp_tree(x)
        return bound

    #: The read-out under the other rule's name, kept for the benchmark's tracer.
    log_sr = log_shiryaev

    def _window_readout(self, floor) -> np.ndarray:
        """``window_log_statistic`` on the rows whose bound may reach ``floor``; the bound elsewhere.

        The exact values replace the bound, which restarts from them.  When
        every row is exact the kernel reads the live window with no copy;
        otherwise it reads the exact rows' gathered window, ``[N, r, m, P]``.
        """
        def kernel(window):
            return window_log_statistic(
                window, self.weighting, self.basis.grid, self.basis.weights,
                n=self.n, m0=self.window_m0,
            )

        if self.n == 0:
            return self._bound  # the head odds
        exact = may_reach(self._bound, floor)
        if exact.all():
            self._bound = kernel(self._window)
        elif exact.any():
            value = self._bound.copy()
            value[exact] = kernel(self._window[:, exact])
            self._bound = value
        return self._bound


def state_row_bytes(
    grid: GridSpec, weights: SubsetWeights, window_m1: int | None, horizon: int
) -> int:
    """Bytes of one replication's ``DetectorState`` working set over ``horizon`` steps.

    For the recursion: the ``[S, P]`` log components, the step's subset sums
    and the ``log_add_exp`` buffer of the same shape.  For the window, with
    ``m = min(T, m1 + 1)`` window steps: the ``[steps, P, N]`` increment
    buffer, which doubles from one step up to two windows and so never holds
    more than ``2 * m`` steps; the bound's step, the ``[P, N]`` positive
    increments and their partition, their ``[P]`` sums and three ``[R]``
    vectors (the bound, the carried term and the next bound); and per exact
    read-out, the row's gathered ``[m, P, N]`` window and the working set of
    ``window_log_statistic``: the ``[m, P, N]`` suffix sums, shifted and then
    exponentiated in place, their ``[m, P]`` stream maxima, the DP's
    ``e_1..e_K``, ``[K, m, P]``, and the fused log-sum-exp's table of the same
    shape with its shifted copy.
    """
    n, points = weights.n_streams, grid.n_points
    if window_m1 is None:
        return 8 * 3 * weights.n_subsets * points
    m = min(horizon, window_m1 + 1)
    bound = 2 * points * n + points + 3
    return 8 * (3 * m * points * n + m * points * (n + 1 + 3 * weights.K) + bound)


def may_reach(bound: np.ndarray, floor: float | np.ndarray) -> np.ndarray:
    """The rows ``[R]`` whose upper bound ``bound`` does not rule out reaching ``floor``.

    A row is ruled out only when its bound is below its floor (one value, or
    one per row) by more than a rounding margin of ``1e-9 * max(1, |floor|)``.
    A NaN bound rules out nothing, and a floor of -inf rules out no row.
    """
    return ~(bound < floor - 1e-9 * np.maximum(1.0, np.abs(floor)))


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
    ``q * Lambda(0, n)`` as the "changed before the start" summand.  For
    ``n <= m0`` no change point is a candidate yet and the head summand is all
    there is.  The sum is ``window_log_statistic`` on the window moved
    stream-major, the window engine's kernel, so the engine's values equal
    these bit for bit; a window with ``m1 >= n`` gives the unwindowed
    statistic (``m1=None``) exactly.
    """
    check_window(m1, m0)
    inc = np.asarray(increments, dtype=float)
    if inc.ndim < 3:
        raise ValueError("increment history must be [..., T, P, N]")
    if inc.shape[-2:] != (grid.n_points, weights.n_streams):
        raise ValueError(
            f"increment history of shape {inc.shape} must end in (P, N) = "
            f"{(grid.n_points, weights.n_streams)}, the grid's points and the weights' streams"
        )
    if n < 1:
        raise ValueError("the statistics are defined from n = 1 on")
    m = n if m1 is None else min(n, m1 + 1)
    if inc.shape[-3] < m:
        raise ValueError(
            f"window of length {m} needs increments from time {n - m + 1}, "
            f"history starts at {n - inc.shape[-3] + 1}"
        )
    window = inc[..., inc.shape[-3] - m:, :, :]
    window = np.ascontiguousarray(np.moveaxis(window, -1, 0))  # a contiguous point axis
    value = window_log_statistic(window, weighting, grid, weights, n=n, m0=m0)
    return float(value) if np.ndim(value) == 0 else value


def window_log_statistic(
    window: np.ndarray,
    weighting: PriorSpec | FlatWeights,
    grid: GridSpec,
    weights: SubsetWeights,
    *,
    n: int,
    m0: int,
) -> np.ndarray:
    """The log statistic at time ``n`` from the stream-major window ``[N, ..., m, P]``.

    The window holds the increments of times ``n - m + 1 .. n``, oldest
    first; ``m == n`` means it reaches the origin.  Slot ``s`` is the change
    point ``k = n - 1 - s``, whose likelihood ratio runs over the last
    ``s + 1`` steps; the slots ``s >= m0`` have a weight.  ``likelihood.log_esp``
    gives ``log e_j`` of each slot's subset mixture, and one ``logsumexp`` over
    (j, slot, point) adds the step's weight table ``log pi_k - log P(nu >= n)
    + log C + log W(theta)``, with the head weight ``q`` folded into the slot
    of ``k = 0``.  Returns ``[...]``, a numpy scalar for a single row.

    The window must be float64 with a contiguous point axis (stride 8
    bytes), as the engine's buffer and ``direct_log_statistic``'s copy are:
    the suffix sums read pairs of points as one complex number.  Any other
    window is a ``ValueError``, never a silently different value.
    """
    if window.dtype != np.float64 or (window.shape[-1] > 1 and window.strides[-1] != 8):
        raise ValueError(
            f"window must be float64 with a contiguous point axis, got {window.dtype} "
            f"with point stride {window.strides[-1]} bytes"
        )
    log_tail = weighting.log_tail(n)
    if log_tail == -math.inf:
        raise ValueError(f"prior tail vanishes at n={n}; statistic undefined")
    m = window.shape[-2]
    lo = m0  # the first slot with a weight
    log_pi = [weighting.log_mass(n - 1 - s) for s in range(m0, m)]
    if m == n and weighting.q > 0.0:
        log_q = math.log(weighting.q)
        if log_pi:
            log_pi[-1] = float(np.logaddexp(log_pi[-1], log_q))
        else:
            lo, log_pi = m - 1, [log_q]
    if not log_pi:
        return np.full(window.shape[1:-2], -math.inf)[()]
    table = (np.array(log_pi) - log_tail)[:, None] + (weights.log_normalizer + grid.log_weights)
    log_p = weights.log_p.reshape((weights.n_streams,) + (1,) * (window.ndim - 1))
    loge = log_esp(lambda: _log_inputs(window, log_p, lo), weights.K)
    loge += table
    d = loge.ndim
    terms = loge.transpose(tuple(range(1, d - 2)) + (0, d - 2, d - 1))  # [..., K, slots, P]
    # the reshape copies, so each row's terms are contiguous
    return logsumexp(terms.reshape(terms.shape[:-3] + (-1,)), axis=-1)


def _log_inputs(window: np.ndarray, log_p: np.ndarray, lo: int) -> np.ndarray:
    """``log p_i`` plus the suffix sums of slots ``lo..``: ``[N, ..., slots, P]``.

    The suffix sums accumulate backwards from the newest step, so slot ``s``
    is the log LR over the last ``s + 1`` steps; every call gives the same bits.
    Grid points are summed in pairs, each pair viewed as one ``complex128``
    column, which halves the columns numpy's accumulate loops over; a complex
    add is two float adds, so every bit equals the point-by-point ``cumsum``.
    An odd last point is summed on its own.  The pairs need a contiguous
    point axis (see ``window_log_statistic``).
    """
    x = np.empty(window.shape)
    h = window.shape[-1] // 2 * 2
    pairs = window[..., ::-1, :h].view(np.complex128)
    np.cumsum(pairs, axis=-2, out=x[..., :h].view(np.complex128))
    np.cumsum(window[..., ::-1, h:], axis=-2, out=x[..., h:])
    x = x[..., lo:, :]
    x += log_p
    return x


def posterior_no_change(log_shiryaev) -> np.ndarray:
    """P(nu >= n | data) from the log Shiryaev statistic: 1 / (S + 1)."""
    return np.exp(-np.logaddexp(0.0, np.asarray(log_shiryaev, dtype=float)))
