"""Stopping rules on the mixed statistics and threshold calibration.

A detector stops at the first ``n >= 1`` with ``statistic(n) >= A``.  The
thresholds come from three calibration routes: the posterior-odds bound
``A = (1 - alpha) / alpha`` for the Shiryaev rule, the submartingale bound
``A = (omega * b + mean(nu)) / alpha`` for the Shiryaev-Roberts rule, and the
cost-balance equation ``r * D * A * (log A)^(r-1) = 1/c`` for the average-risk
formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .likelihood import SubsetWeights
from .model import PriorSpec
from .statistics import LOG_CLAMP, DetectorState, FlatWeights, GridSpec

SHIRYAEV_MIXTURE = "shiryaev-mixture"
SR_MIXTURE = "sr-mixture"

_KINDS = (SHIRYAEV_MIXTURE, SR_MIXTURE)

#: Bytes of recursion input (subset sums) computed ahead of the step loop.
#: Larger blocks run no faster and raise peak memory.
_BLOCK_BYTES = 1 << 21


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
        if not self.threshold_A > 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold_A}")
        if self.window_m1 is not None and self.window_m1 < 1:
            raise ValueError(f"window length must be >= 1, got {self.window_m1}")
        if self.window_m0 < 0:
            raise ValueError(f"window offset must be >= 0, got {self.window_m0}")
        if self.window_m0 > 0 and self.window_m1 is None:
            raise ValueError("window offset m0 needs a window length m1")
        if self.window_m1 is not None and self.window_m0 > self.window_m1:
            raise ValueError(
                f"window offset {self.window_m0} exceeds window length {self.window_m1}"
            )
        if self.head_start_omega < 0.0:
            raise ValueError(f"head start must be >= 0, got {self.head_start_omega}")
        if self.head_start_omega > 0.0 and self.uses_shiryaev:
            raise ValueError("a head start omega applies only to the sr-mixture rule")

    @property
    def uses_shiryaev(self) -> bool:
        return self.kind == SHIRYAEV_MIXTURE


@dataclass
class RunResult:
    """Outcome of one detector run.

    ``stopped_at`` is the 1-based stopping time, or ``None`` when the statistic
    never reached the threshold within the horizon (a censored run).  The
    trajectory holds the statistic at times ``1 .. min(stopped_at, horizon)``.
    """

    stopped_at: int | None
    trajectory: np.ndarray

    @property
    def censored(self) -> bool:
        return self.stopped_at is None


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
        if self.log_threshold > LOG_CLAMP:
            raise ValueError(
                f"log threshold {self.log_threshold:.6g} exceeds the log-domain clamp "
                f"{LOG_CLAMP:g}; the statistic can never reach it"
            )

    def pfa_bound(self) -> float:
        """The calibration bound on the weighted false-alarm probability."""
        a = self.config.threshold_A
        if self.config.uses_shiryaev:
            return 1.0 / (1.0 + a)
        b = self.prior.tail(1)
        nu_bar = self.prior.mean()
        if not math.isfinite(nu_bar):
            raise ValueError("the SR bound needs a prior with finite mean")
        return (self.config.head_start_omega * b + nu_bar) / a

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
        self, data: np.ndarray, log_threshold: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Step the statistic over checked ``[R, T, N]`` data; stopping times ``[R]``.

        A run stops at the first step whose log statistic reaches
        ``log_threshold`` (-1 when it never does).  Its row then leaves the
        state, and the scan ends once no row is left or at the horizon.
        ``out`` (``[R, T]``), when given, receives the log statistic of every
        step a row takes.
        """
        n_reps, horizon, _ = data.shape
        increments = self.scenario.log_lr_increments(data, self.grid.points)
        state = self._new_state(n_reps)
        recursive = self.config.window_m1 is None
        read = state.log_shiryaev if self.config.uses_shiryaev else state.log_sr
        stopped = np.full(n_reps, -1, dtype=np.int64)
        rows = np.arange(n_reps)
        t = 0
        while t < horizon and rows.size:
            if recursive:
                # subset sums for a block of steps: one Python loop over the
                # subsets per block instead of per step
                step_bytes = rows.size * state.basis.n_subsets * self.grid.n_points * 8
                steps = max(1, _BLOCK_BYTES // step_bytes)
                block = state.subset_llrs(increments[rows, t:t + steps])
            else:
                block = increments[rows, t:t + 1]
            while block.shape[1] and rows.size:
                if recursive:
                    state.advance(subset_llrs=block[:, 0])
                else:
                    state.advance(block[:, 0])
                block = block[:, 1:]
                t += 1
                value = read()
                if out is not None:
                    out[rows, t - 1] = value
                crossed = value >= log_threshold
                if crossed.any():
                    stopped[rows[crossed]] = t
                    keep = ~crossed
                    rows = rows[keep]
                    state.retain(keep)
                    block = block[keep]
        return stopped

    def log_trajectories(self, data: np.ndarray) -> np.ndarray:
        """Log statistic at every time for a batch of runs: [R, T] from [R, T, N]."""
        data = self._check_data(data)
        out = np.empty(data.shape[:2])
        self._scan(data, math.inf, out)
        return out

    def stopping_times(self, data: np.ndarray) -> np.ndarray:
        """First crossing time per run (-1 when censored): [R] from [R, T, N].

        Each run is stepped only up to its own stop.
        """
        return self._scan(self._check_data(data), self.log_threshold)

    def run(self, data: np.ndarray, max_horizon: int | None = None) -> RunResult:
        """Run the rule over one ``[T, N]`` block of observations."""
        data = np.asarray(data, dtype=float)
        if max_horizon is not None:
            if max_horizon < 1:
                raise ValueError(f"max_horizon must be >= 1, got {max_horizon}")
            data = data[:max_horizon]
        data = self._check_data(data[None])
        out = np.empty(data.shape[:2])
        stop = int(self._scan(data, self.log_threshold, out)[0])
        if stop > 0:
            return RunResult(stop, np.exp(np.minimum(out[0, :stop], LOG_CLAMP)))
        return RunResult(None, np.exp(np.minimum(out[0], LOG_CLAMP)))


def threshold_shiryaev(alpha: float, q: float = 0.0) -> float:
    """Threshold (1 - alpha) / alpha, guaranteeing weighted PFA <= alpha."""
    if not 0.0 < alpha < 1.0 - q:
        raise ValueError(f"alpha must be in (0, {1.0 - q}), got {alpha}")
    return (1.0 - alpha) / alpha


def threshold_sr(alpha: float, omega: float, prior: PriorSpec) -> float:
    """Threshold (omega * b + mean(nu)) / alpha for the Shiryaev-Roberts rule.

    ``b = P(nu >= 1)``.  Requires a prior with finite mean; degenerate priors
    whose bound is zero are rejected (no positive threshold exists).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if omega < 0.0:
        raise ValueError(f"head start must be >= 0, got {omega}")
    nu_bar = prior.mean()
    if not math.isfinite(nu_bar):
        raise ValueError("SR calibration needs a prior with finite mean")
    a = (omega * prior.tail(1) + nu_bar) / alpha
    if a <= 0.0:
        raise ValueError(
            "SR bound is degenerate (omega * b + mean(nu) = 0); no positive threshold"
        )
    return a


def threshold_cost(c: float, r: float, D: float, scale: float = 1.0) -> float:
    """Solve r * D * A * (log A)^(r-1) = scale / c for the unique root A > 1.

    Solved in u = log A, where the equation is strictly increasing; bisection
    brackets the root and Newton polishing drives the relative residual of the
    original equation below 1e-10.
    """
    if c <= 0.0 or D <= 0.0 or scale <= 0.0:
        raise ValueError("c, D and scale must be positive")
    if r < 1.0:
        raise ValueError(f"moment order must be >= 1, got {r}")
    target = scale / (c * r * D)  # A (log A)^(r-1) = target
    if r == 1.0:
        if target <= 1.0:
            raise ValueError(
                f"no threshold A > 1: need scale/c > D, got scale/c = {scale / c!r} <= D = {D!r}"
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
    residual = abs(r * D * a * math.log(a) ** (r - 1.0) - scale / c) / (scale / c)
    if residual > 1e-10:
        raise ArithmeticError(f"threshold solve did not converge (residual {residual:g})")
    return a
