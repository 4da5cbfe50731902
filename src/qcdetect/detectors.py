"""Stopping rules on the mixed statistics and threshold calibration.

A detector stops at the first ``n >= 1`` with ``statistic(n) >= A``.  The
thresholds come from three calibration routes: the posterior-odds bound
``A = (1 - alpha) / alpha`` for the Shiryaev rule, the submartingale bound
``A = (omega * b + mean(nu)) / alpha`` for the Shiryaev-Roberts rule, and the
cost-balance equation ``r * D * A * (log A)^(r-1) = 1/c`` for the average-risk
formulation, whose constant ``D`` (``d_constant``) averages ``(I + mu)^-r``
over the subset and parameter mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .likelihood import SubsetWeights
from .model import ChangeSpec, PointMassPrior, PriorSpec
from .statistics import WINDOW_BUFFER_START, DetectorState, FlatWeights, GridSpec, check_window

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


@dataclass(frozen=True)
class DetectorConfig:
    """Which rule to run and at what threshold.

    A putative-parameter rule is a mixture rule with a one-point grid.  The
    head start ``omega`` belongs to the Shiryaev-Roberts rule; the Shiryaev
    rule starts from the prior's head odds.
    """

    kind: str
    threshold_A: float
    window_m1: int | None = None
    window_m0: int = 0
    head_start_omega: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if not 0.0 < self.threshold_A < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold_A}")
        check_window(self.window_m1, self.window_m0)
        FlatWeights(self.head_start_omega)  # the head-start rule
        if self.head_start_omega > 0.0 and self.uses_shiryaev:
            raise ValueError("a head start omega applies only to the sr-mixture rule")

    @property
    def uses_shiryaev(self) -> bool:
        return self.kind == SHIRYAEV_MIXTURE


class Detector:
    """A stopping rule bound to its observation model, prior, and mixtures."""

    def __init__(
        self,
        config: DetectorConfig,
        scenario,
        prior: PriorSpec,
        grid: GridSpec,
        weights: SubsetWeights,
    ):
        if grid.n_streams != scenario.n_streams:
            raise ValueError(
                f"grid covers {grid.n_streams} streams, scenario has {scenario.n_streams}"
            )
        if weights.n_streams != scenario.n_streams:
            raise ValueError(
                f"subset weights cover {weights.n_streams} streams, "
                f"scenario has {scenario.n_streams}"
            )
        if config.uses_shiryaev and isinstance(prior, PointMassPrior):
            raise ValueError(
                f"the {SHIRYAEV_MIXTURE} rule needs a prior tail that never vanishes; "
                f"a point-mass prior's tail is 0 after k0 = {prior.k0}"
            )
        if config.window_m1 is None and weights.n_subsets > MAX_RECURSION_SUBSETS:
            raise ValueError(
                f"the recursion over {weights.n_subsets} subsets exceeds its budget of "
                f"{MAX_RECURSION_SUBSETS}; set [detector] window_m1 to run the window engine"
            )
        if config.uses_shiryaev and config.threshold_A <= prior.head_odds():
            raise ValueError(
                f"Shiryaev threshold must exceed q/(1-q) = {prior.head_odds():.6g}"
            )
        self.config = config
        self.scenario = scenario
        self.prior = prior
        self.grid = grid
        self.weights = weights
        # the change-point weighting is the only difference between the rules
        self.weighting = prior if config.uses_shiryaev else FlatWeights(config.head_start_omega)
        self.log_threshold = math.log(config.threshold_A)

    def at_level(self, alpha: float) -> "Detector":
        """This statistic (scenario, prior, grid, weights, window) at level ``alpha``'s threshold."""
        a = level_threshold(self.config.kind, alpha, self.prior, self.config.head_start_omega)
        config = replace(self.config, threshold_A=a)
        return Detector(config, self.scenario, self.prior, self.grid, self.weights)

    def pfa_bound(self) -> float:
        """The calibration bound on the weighted false-alarm probability."""
        a = self.config.threshold_A
        if self.config.uses_shiryaev:
            return 1.0 / (1.0 + a)
        return _sr_bound(self.config.head_start_omega, self.prior) / a

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
        rate = info + delay_tail_rate(self.config.kind, self.prior)
        if not rate > 0.0:
            raise ValueError(f"the first-order delay needs I + mu > 0, got {rate!r}")
        return rate

    def row_bytes(self, horizon: int) -> int:
        """Bytes one replication of ``horizon`` steps holds while it is simulated.

        Its ``[T, N]`` data, which ``Scenario.generate`` shapes in place; what
        generation keeps per replication besides, ``N`` latent values, ``N``
        change starts and ``N`` parameters and up to 3 uniforms (its other
        temporaries are a few ``R``- or ``T``-long vectors per span); the
        scan's finite check of the data, one byte per value; one block of
        data, ``[min(T, INCREMENT_BLOCK) + p, N]`` with the ``p`` lag samples,
        and its increments, ``[min(T, INCREMENT_BLOCK), P, N]``; and the
        engine's working set.
        For the recursion that is the ``[S, P]`` log components with the
        step's subset sums and ``log_add_exp`` buffer of the same shape.  For
        the window, with ``m = min(T, m1 + 1)`` window steps, it is the
        ``[steps, P, N]`` increment buffer, two windows long once the window
        fills (``WINDOW_BUFFER_START`` steps at first); and per step of
        ``window_log_statistic``, the ``[m, P, N]`` suffix sums, shifted and
        then exponentiated in place, their ``[m, P]`` stream maxima, the
        DP's ``e_1..e_K``, ``[K, m, P]``, and the fused log-sum-exp's table
        of the same shape with its shifted copy.  The scan's ``[R, L]`` stops,
        ``8 * L`` bytes a row at ``L`` levels, are left out with the span's
        other ``R``-long vectors: a sweep's handful of levels is small beside
        the ``8 * T * N`` bytes of data.
        """
        n, points = self.scenario.n_streams, self.grid.n_points
        steps = min(horizon, INCREMENT_BLOCK)
        block = (steps + self.scenario.lags) * n + steps * points * n
        if self.config.window_m1 is None:
            engine = 3 * self.weights.n_subsets * points
        else:
            m = min(horizon, self.config.window_m1 + 1)
            steps = max(2 * m, min(2 * (self.config.window_m1 + 1), WINDOW_BUFFER_START))
            engine = steps * points * n + m * points * (n + 1 + 3 * self.weights.K)
        return 8 * (horizon * n + 3 * n + 3 + block + engine) + horizon * n

    def _new_state(self, n_reps: int) -> DetectorState:
        return DetectorState(
            self.weighting,
            self.grid,
            self.weights,
            n_reps=n_reps,
            window_m1=self.config.window_m1,
            window_m0=self.config.window_m0,
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
        in its block.  The block reads the scenario's lag samples before it,
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
            finite = np.isfinite(block).all(axis=(0, 2, 3))  # [steps]
            if not finite.all():
                step = t0 + 1 + int(np.argmin(finite))
                raise ValueError(
                    f"the log-LR increments of step {step} are not finite; the scenario's "
                    f"parameters or the grid points overflow"
                )
            pos = np.arange(rows.size)
            for t in range(t0, t1):
                state.advance(block[pos, t - t0])
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
        return stopped[:, columns]

    def log_trajectories(self, data: np.ndarray) -> np.ndarray:
        """Log statistic at every time for a batch of runs: [R, T] from [R, T, N]."""
        data = self._check_data(data)
        out = np.empty(data.shape[:2])
        self._scan(data, [math.inf], out)
        return out

    def stopping_times(self, data: np.ndarray, log_thresholds=None) -> np.ndarray:
        """First crossing time per run (-1 when censored): [R] from [R, T, N].

        With ``log_thresholds`` ``[L]`` it is ``[R, L]``, one column per level,
        from one scan: column ``j`` equals the ``stopping_times`` of this
        statistic at threshold ``exp(log_thresholds[j])``, bit for bit.  Each
        run is stepped only up to its stop at its highest level.
        """
        data = self._check_data(data)
        if log_thresholds is None:
            return self._scan(data, [self.log_threshold])[:, 0]
        levels = np.asarray(log_thresholds, dtype=float)
        if levels.ndim != 1 or not levels.size:
            shape = levels.shape
            raise ValueError(f"expected a non-empty [L] vector of log thresholds, got shape {shape}")
        if not np.isfinite(levels).all():  # the 0 < A < inf rule of DetectorConfig
            raise ValueError(f"log thresholds must be finite, got {levels.tolist()}")
        return self._scan(data, levels)


def check_moment_order(r: float) -> None:
    """The delay-moment rule: a finite order ``r >= 1`` (NaN fails it)."""
    if not 1.0 <= r < math.inf:
        raise ValueError(f"moment order must be finite and >= 1, got {r!r}")


def delay_tail_rate(kind: str, prior: PriorSpec) -> float:
    """The prior's tail rate ``mu`` in a rule's delay: 0 for the Shiryaev-Roberts rule."""
    return prior.tail_rate if kind == SHIRYAEV_MIXTURE else 0.0


def threshold_shiryaev(alpha: float, q: float = 0.0) -> float:
    """Threshold (1 - alpha) / alpha, guaranteeing weighted PFA <= alpha."""
    if not 0.0 < alpha < 1.0 - q:
        raise ValueError(f"alpha must be in (0, {1.0 - q}), got {alpha}")
    return (1.0 - alpha) / alpha


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
    return a


def level_threshold(kind: str, alpha: float, prior: PriorSpec, omega: float = 0.0) -> float:
    """The threshold of false-alarm level ``alpha``: the inverse of ``Detector.pfa_bound``."""
    if kind == SHIRYAEV_MIXTURE:
        return threshold_shiryaev(alpha, q=prior.q)
    return threshold_sr(alpha, omega, prior)


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
    if r == 1.0:
        if target <= 1.0:
            raise ValueError(
                f"no threshold A > 1: need 1/c > D, got 1/c = {1.0 / c!r} <= D = {D!r}"
            )
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
