"""Stopping rules on the mixed statistics and threshold calibration.

A rule stops at the first ``n >= 1`` with ``statistic(n) >= A``; a ``Detector``
is the statistic, and ``A`` is an argument of each use.  The thresholds come
from three calibration routes: the posterior-odds bound
``A = (1 - alpha) / alpha`` for the Shiryaev rule, the submartingale bound
``A = (omega * b + mean(nu)) / alpha`` for the Shiryaev-Roberts rule, and the
cost-balance equation ``r * D * A * (log A)^(r-1) = 1/c`` for the average-risk
formulation, whose constant ``D`` (``d_constant``) averages ``(I + mu)^-r``
over the subset and parameter mixtures.  Every route's threshold passes
``check_threshold``; ``calibration`` words every failure.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .likelihood import SubsetWeights
from .model import ChangeSpec, PointMassPrior, PriorSpec
from .statistics import DetectorState, FlatWeights, GridSpec, check_window, state_row_bytes

SHIRYAEV_MIXTURE = "shiryaev-mixture"
SR_MIXTURE = "sr-mixture"

_KINDS = (SHIRYAEV_MIXTURE, SR_MIXTURE)

#: Largest number of subsets S the recursion takes: every subset of 12
#: streams.  The recursion lists its subsets in Python and keeps S x P log
#: components per replication (64 MiB at R = 1024, P = 2), and its time per
#: step grows with S.  Beyond this the window engine, whose cost grows with
#: N * K instead, is the way to run.
MAX_RECURSION_SUBSETS = 4095

#: Steps of log-LR increments a scan computes at once, for the rows still live
#: at the block's start.  A block of R rows holds R * 32 * P * N floats, and a
#: row that stops is computed at most to the end of its block.
INCREMENT_BLOCK = 32


class Detector:
    """A mixture statistic bound to its observation model, prior, and mixtures.

    The statistic does not depend on the threshold, which is an argument of
    each use.  A putative-parameter rule is a mixture rule with a one-point
    grid.  The head start ``omega`` belongs to the Shiryaev-Roberts rule; the
    Shiryaev rule starts from the prior's head odds.
    """

    def __init__(
        self, kind: str, scenario, prior: PriorSpec, grid: GridSpec, weights: SubsetWeights,
        *, window_m1: int | None = None, window_m0: int = 0, omega: float = 0.0,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown detector kind {kind!r}")
        check_window(window_m1, window_m0)
        FlatWeights(omega)  # the head-start rule
        uses_shiryaev = kind == SHIRYAEV_MIXTURE
        if omega > 0.0 and uses_shiryaev:
            raise ValueError("a head start omega applies only to the sr-mixture rule")
        if grid.n_streams != scenario.n_streams:
            raise ValueError(
                f"grid covers {grid.n_streams} streams, scenario has {scenario.n_streams}"
            )
        if weights.n_streams != scenario.n_streams:
            raise ValueError(
                f"subset weights cover {weights.n_streams} streams, "
                f"scenario has {scenario.n_streams}"
            )
        if uses_shiryaev and isinstance(prior, PointMassPrior):
            raise ValueError(
                f"the {SHIRYAEV_MIXTURE} rule needs a prior tail that never vanishes; "
                f"a point-mass prior's tail is 0 after k0 = {prior.k0}"
            )
        if window_m1 is None and weights.n_subsets > MAX_RECURSION_SUBSETS:
            raise ValueError(
                f"the recursion over {weights.n_subsets} subsets exceeds its budget of "
                f"{MAX_RECURSION_SUBSETS}; set [detector] window_m1 to run the window engine"
            )
        self.kind = kind
        self.scenario = scenario
        self.prior = prior
        self.grid = grid
        self.weights = weights
        self.window_m1 = window_m1
        self.window_m0 = window_m0
        self.omega = omega
        # the change-point weighting is the only difference between the rules
        self.weighting = prior if uses_shiryaev else FlatWeights(omega)

    def threshold(self, alpha: float) -> float:
        """The threshold of false-alarm level ``alpha``, calibrated inside ``calibration``."""
        with calibration():
            return level_threshold(self.kind, alpha, self.prior, self.omega)

    def log_level(self, a: float) -> float:
        """``log a`` of a threshold this rule takes; any other is a ``ValueError``.

        ``a`` passes ``check_threshold``, and for the Shiryaev rule, whose
        statistic starts from the prior's head odds, exceeds ``q/(1-q)``.
        """
        check_threshold(a)
        if self.kind == SHIRYAEV_MIXTURE and a <= self.prior.head_odds():
            raise ValueError(
                f"Shiryaev threshold must exceed q/(1-q) = {self.prior.head_odds():.6g}"
            )
        return math.log(a)

    def pfa_bound(self, a: float) -> float:
        """The calibration bound on the weighted false-alarm probability at threshold ``a``."""
        self.log_level(a)
        if self.kind == SHIRYAEV_MIXTURE:
            return 1.0 / (1.0 + a)
        return _sr_bound(self.omega, self.prior) / a

    def first_order_rate(self, subset, theta=None) -> float:
        """``I + mu`` > 0 in the first-order delay ``(|log alpha| / (I + mu))^r``.

        ``I`` sums the rates of the streams in ``subset``, in its order, at
        ``theta`` (nominal when None) and ``mu`` is ``delay_tail_rate``.  A
        change that ``ChangeSpec`` or ``Scenario.affected_streams`` refuses is
        a ``ValueError`` reading ``invalid change: ...``.
        """
        try:
            change = ChangeSpec(0, subset, theta)
            _, values = self.scenario.affected_streams(change.subset, change.theta)
            info = float(sum(self.scenario.channels[i].kl_rate(values[i]) for i in subset))
        except ValueError as exc:
            raise ValueError(f"invalid change: {exc}") from exc
        rate = info + delay_tail_rate(self.kind, self.prior)
        if not rate > 0.0:
            raise ValueError(f"the first-order delay needs I + mu > 0, got {rate!r}")
        return rate

    def row_bytes(self, horizon: int) -> int:
        """Bytes one replication of ``horizon`` steps holds while it is simulated.

        Its ``[T, N]`` data, which ``Scenario.generate`` shapes in place; what
        generation keeps per replication besides, ``N`` latent values, ``N``
        change starts and ``N`` parameters and up to 3 uniforms (its other
        temporaries are a few ``R``- or ``T``-long vectors per span); the
        scan's finite checks of the data and of a block's increments, one byte
        per value; one block of data, ``[min(T, INCREMENT_BLOCK) + p, N]`` with
        the ``p`` lag samples, and its increments, ``[min(T, INCREMENT_BLOCK),
        P, N]``, the block before it released; the temporaries of one
        channel's increments, at most four vectors of the block's steps plus
        one (the mixture channel's running ``log G``, its soft-plus and their
        difference); the scan's per-row vectors, ``nu``, one column of stops,
        ``rows``, ``pos``, ``reached``, ``next_level`` and the ``N`` running
        sums of ``carry``; and the engine's working set, which
        ``statistics.state_row_bytes`` counts.  A sweep's further stop
        columns, 8 bytes a row at each of its handful of levels, are left
        out: they are small beside the ``8 * T * N`` bytes of data.  The
        count is per row; a call's fixed overhead, which outweighs a row of
        one or two steps, is not in it.
        """
        n, points = self.scenario.n_streams, self.grid.n_points
        steps = min(horizon, INCREMENT_BLOCK)
        block = (steps + self.scenario.lags) * n + steps * points * n + 4 * (steps + 1)
        engine = state_row_bytes(self.grid, self.weights, self.window_m1, horizon)
        scan = 6 + n  # nu, a stop column, rows, pos, reached, next_level and carry
        checks = horizon * n + steps * points * n  # one byte per value checked
        return 8 * (horizon * n + 3 * n + 3 + block + scan) + engine + checks

    def _new_state(self, n_reps: int) -> DetectorState:
        return DetectorState(
            self.weighting,
            self.grid,
            self.weights,
            n_reps=n_reps,
            window_m1=self.window_m1,
            window_m0=self.window_m0,
        )

    def _check_data(self, data) -> np.ndarray:
        data = np.asarray(data, dtype=float)
        if data.ndim != 3:
            raise ValueError("expected a [replications, horizon, streams] array")
        if data.shape[2] != self.scenario.n_streams:
            raise ValueError(
                f"data has {data.shape[2]} streams, scenario has {self.scenario.n_streams}"
            )
        if not np.isfinite(data).all():
            raise ValueError("observations must be finite")
        return data

    def _scan(
        self, data: np.ndarray, log_thresholds, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Step the statistic over checked ``[R, T, N]`` data; first crossings ``[R, L]``.

        Column ``j`` holds each run's first step whose log statistic reaches
        ``log_thresholds[j]`` (-1 when none does); the levels may come in any
        order and repeat.  Each live row is compared with its next level, the
        lowest it has not reached; a row that reaches it counts every level its
        value reaches at once.  A row leaves the state once it has reached its
        highest level, and the scan ends once no row is left or at the horizon.
        ``out`` (``[R, T]``), when given, receives the log statistic of every
        step a row takes.

        The increments are computed ``INCREMENT_BLOCK`` steps at a time, for
        the rows live at the block's start: ``pos`` is each live row's position
        in its block.  A step's ``[R, P, N]`` increments are a view of the
        block, rows contiguous, until a row leaves; from then on the live rows
        are gathered, still rows last.  A block is released before the next
        is built.  The block reads the scenario's lag samples before it,
        and ``carry`` holds the mixture streams' running sums across blocks.
        An increment that is not finite is a ``ValueError`` naming its step.
        Every element of a block has the whole path's bits.
        """
        n_reps, horizon, n_streams = data.shape
        scenario, points = self.scenario, self.grid.points
        levels, columns = np.unique(np.asarray(log_thresholds, dtype=float), return_inverse=True)
        order = np.arange(levels.size)
        state = self._new_state(n_reps)
        stopped = np.full((n_reps, levels.size), -1, dtype=np.int64)
        rows = np.arange(n_reps)
        reached = np.zeros(n_reps, dtype=np.intp)  # levels each live row has reached
        next_level = np.full(n_reps, levels[0])
        carry = np.zeros((n_reps, n_streams))
        for t0 in range(0, horizon, INCREMENT_BLOCK):
            if not rows.size:
                break
            t1 = min(t0 + INCREMENT_BLOCK, horizon)
            lead = min(t0, scenario.lags)
            # an overflow shows as an increment that is not finite, named below
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                block = scenario.log_lr_increments(data[rows, t0 - lead:t1], points, t0, carry)
            if not np.isfinite(block).all():
                finite = np.isfinite(block).all(axis=(0, 2, 3))  # [steps]
                step = t0 + 1 + int(np.argmin(finite))
                raise ValueError(
                    f"the log-LR increments of step {step} are not finite; the scenario's "
                    f"parameters or the grid points overflow"
                )
            pos = np.arange(rows.size)
            for t in range(t0, t1):
                step = block[:, t - t0]  # [R, P, N], rows contiguous: a view
                if pos.size < step.shape[0]:  # a row has left: gather the rest, rows last
                    step = step.T.take(pos, axis=-1).T
                state.advance(step)
                # a row provably below its next level needs no exact read-out,
                # unless every value is recorded
                value = state.log_shiryaev(next_level if out is None else -math.inf)
                if out is not None:
                    out[rows, t] = value
                crossed = value >= next_level
                if crossed.any():
                    hit = np.flatnonzero(crossed)
                    first, last = reached[hit], np.searchsorted(levels, value[hit], side="right")
                    now = (first[:, None] <= order) & (order < last[:, None])  # levels reached
                    stopped[rows[hit]] = np.where(now, t + 1, stopped[rows[hit]])
                    reached[hit] = last
                    keep = reached < levels.size
                    if not keep.all():
                        rows, pos, reached = rows[keep], pos[keep], reached[keep]
                        state.retain(keep)
                        if not rows.size:
                            break
                    next_level = levels[reached]
            carry = carry[pos]
            del block, step  # freed before the next block is built
        return stopped[:, columns]

    def log_trajectories(self, data: np.ndarray) -> np.ndarray:
        """Log statistic at every time for a batch of runs: [R, T] from [R, T, N]."""
        data = self._check_data(data)
        out = np.empty(data.shape[:2])
        self._scan(data, [math.inf], out)
        return out

    def stopping_times(self, data: np.ndarray, log_thresholds) -> np.ndarray:
        """First crossing times per run and level (-1 when censored): [R, L] from [R, T, N].

        ``log_thresholds`` is an ``[L]`` vector; column ``j`` holds each run's
        first step whose log statistic reaches ``log_thresholds[j]``.  All
        levels come from one scan, and each column equals that of a scan at
        its level alone, bit for bit.  Each run is stepped only up to its stop
        at its highest level.
        """
        data = self._check_data(data)
        levels = np.asarray(log_thresholds, dtype=float)
        if levels.ndim != 1 or not levels.size:
            raise ValueError(
                f"expected a non-empty [L] vector of log thresholds, got shape {levels.shape}"
            )
        if not np.isfinite(levels).all():  # the 0 < A < inf rule of check_threshold
            raise ValueError(f"log thresholds must be finite, got {levels.tolist()}")
        return self._scan(data, levels)


def check_moment_order(r: float) -> None:
    """The delay-moment rule: a finite order ``r >= 1`` (NaN fails it)."""
    if not 1.0 <= r < math.inf:
        raise ValueError(f"moment order must be finite and >= 1, got {r!r}")


def check_threshold(a: float) -> None:
    """The threshold rule: ``0 < A < inf`` (NaN fails it)."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {a}")


@contextlib.contextmanager
def calibration():
    """Reword a ``ValueError`` or ``ArithmeticError`` raised inside as a failed calibration.

    ``Detector.threshold``, the one false-alarm route, and the CLI's cost route
    calibrate inside it.
    """
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"calibration failed: {exc}") from exc


def delay_tail_rate(kind: str, prior: PriorSpec) -> float:
    """The prior's tail rate ``mu`` in a rule's delay: 0 for the Shiryaev-Roberts rule."""
    return prior.tail_rate if kind == SHIRYAEV_MIXTURE else 0.0


def threshold_shiryaev(alpha: float, q: float = 0.0) -> float:
    """Threshold (1 - alpha) / alpha, guaranteeing weighted PFA <= alpha."""
    if not 0.0 < alpha < 1.0 - q:
        raise ValueError(f"alpha must be in (0, {1.0 - q}), got {alpha}")
    a = (1.0 - alpha) / alpha
    check_threshold(a)
    return a


def _sr_bound(omega: float, prior: PriorSpec) -> float:
    """``omega * b + mean(nu)`` with ``b = P(nu >= 1)``: the SR threshold times alpha."""
    nu_bar = prior.mean()
    if not math.isfinite(nu_bar):
        raise ValueError("the SR bound needs a prior with finite mean")
    return omega * prior.tail(1) + nu_bar


def threshold_sr(alpha: float, omega: float, prior: PriorSpec) -> float:
    """Threshold (omega * b + mean(nu)) / alpha for the Shiryaev-Roberts rule.

    ``b = P(nu >= 1)``.  Requires a prior with finite mean; degenerate priors
    whose bound is zero are rejected (no positive threshold exists).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    FlatWeights(omega)  # the head-start rule
    a = _sr_bound(omega, prior) / alpha
    if a <= 0.0:
        raise ValueError(
            "SR bound is degenerate (omega * b + mean(nu) = 0); no positive threshold"
        )
    check_threshold(a)
    return a


def level_threshold(kind: str, alpha: float, prior: PriorSpec, omega: float = 0.0) -> float:
    """The threshold of false-alarm level ``alpha``: the inverse of ``Detector.pfa_bound``."""
    if kind == SHIRYAEV_MIXTURE:
        return threshold_shiryaev(alpha, q=prior.q)
    return threshold_sr(alpha, omega, prior)


def level_formula(kind: str) -> str:
    """The formula ``level_threshold`` applies for the rule ``kind``, in words."""
    if kind == SHIRYAEV_MIXTURE:
        return "A = (1 - alpha) / alpha"
    return "A = (omega * b + mean(nu)) / alpha"


def threshold_cost(c: float, r: float, D: float) -> float:
    """Solve r * D * A * (log A)^(r-1) = 1 / c for the unique root A > 1.

    Solved in u = log A, where the equation is strictly increasing; bisection
    brackets the root and Newton polishing drives the relative residual of the
    original equation below 1e-10.
    """
    if not (0.0 < c < math.inf and 0.0 < D < math.inf):
        raise ValueError(f"c and D must be positive and finite, got c = {c!r}, D = {D!r}")
    check_moment_order(r)
    target = 1.0 / (c * r * D)  # A (log A)^(r-1) = target
    if r == 1.0 and target <= 1.0:
        raise ValueError(
            f"no threshold A > 1: need 1/c > D, got 1/c = {1.0 / c!r} <= D = {D!r}"
        )
    check_threshold(target)  # an infinite target has no finite root for any r
    if r == 1.0:
        return target

    def h(u: float) -> float:
        return u + (r - 1.0) * math.log(u) - math.log(target)

    lo, hi = 1e-12, 1.0
    while h(lo) > 0.0 and lo > 1e-250:  # h -> -inf as u -> 0 for r > 1
        lo *= 1e-6
    while h(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("failed to bracket the threshold equation")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    u = 0.5 * (lo + hi)
    for _ in range(6):  # Newton: h'(u) = 1 + (r-1)/u
        u -= h(u) / (1.0 + (r - 1.0) / u)
    a = math.exp(u)
    residual = abs(r * D * a * math.log(a) ** (r - 1.0) - 1.0 / c) / (1.0 / c)
    if residual > 1e-10:
        raise ArithmeticError(f"threshold solve did not converge (residual {residual:g})")
    return a


def d_constant(weights: SubsetWeights, grid: GridSpec, rates, mu: float, r: float) -> float:
    """Average of (I_{B,theta} + mu)^-r over the subset and parameter mixtures.

    ``rates`` are the per-stream information rates at each grid point
    (``[P, N]``) and ``mu`` is the prior's tail rate.  The subsets are read
    from ``weights.masks``, within ``subset_masks``' budget: the
    reciprocal-power functional of a subset sum does not factor over streams,
    so no symmetric-polynomial shortcut applies.
    """
    # row-major, as the matrix product below has always seen its rates
    rates = np.asarray(rates, dtype=float, order="C")
    if not np.all(np.isfinite(rates)) or np.any(rates < 0.0):
        raise ValueError("information rates must be finite and nonnegative")
    if not mu >= 0.0:
        raise ValueError(f"prior tail rate must be >= 0, got {mu}")
    check_moment_order(r)
    if rates.shape != (grid.n_points, weights.n_streams):
        raise ValueError(
            f"information rates have shape {rates.shape}, expected "
            f"({grid.n_points}, {weights.n_streams})"
        )
    p_subset = np.exp(weights.log_p_subsets)
    subset_rates = rates @ weights.masks.T  # [P, S]
    denom = subset_rates + mu
    if np.any(denom <= 0.0):
        raise ValueError("I + mu must be positive for every subset and grid point")
    return float(np.einsum("p,s,ps->", grid.weights, p_subset, denom**-r))
