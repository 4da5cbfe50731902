"""Replicated simulation of operating characteristics.

Every replication owns a counter-based generator keyed by (master seed,
replication index), so results are reproducible and independent of worker
count or scheduling.  Per-replication outcomes are stored in arrays indexed by
replication and reduced once, in canonical order; partial results from worker
shards therefore merge into exactly the single-threaded totals.

The false-alarm probability is estimated under the no-change law only, as the
mean of ``P(nu >= T)`` over replications: summing the prior tail at the
stopping time has the same expectation as the two-stage sampler (draw nu, then
count alarms at or before it) but needs no change-point sampling and has lower
variance.  Censored runs contribute the tail beyond the horizon only when that
surrogate is negligible at the target precision; otherwise the horizon is
reported as infeasible.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detectors import Detector
from .likelihood import log_subset_weights, subset_masks
from .model import NO_CHANGE, ChangeSpec, PriorSpec, replication_rng

_CHUNK = 1024


class InfeasibleHorizonError(RuntimeError):
    """The simulation horizon is too short for the requested precision."""


@dataclass(frozen=True)
class MCConfig:
    """Replication count, seeding, horizon, and worker parallelism."""

    replications: int
    master_seed: int
    horizon: int
    workers: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(f"need at least one replication, got {self.replications}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master seed must fit in 64 bits")


@dataclass(frozen=True)
class MCEstimate:
    """Mean, standard error, and accounting for one simulated quantity."""

    mean: float
    stderr: float
    n_effective: int
    censored_fraction: float = 0.0

    @classmethod
    def from_values(cls, values, censored_fraction: float = 0.0) -> "MCEstimate":
        values = np.asarray(values, dtype=float)
        n = values.size
        if n == 0:
            return cls(math.nan, math.nan, 0, censored_fraction)
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else math.nan
        return cls(mean, stderr, n, censored_fraction)


@dataclass
class RunRecords:
    """Per-replication outcomes, indexed by replication."""

    nu: np.ndarray         # sampled change point (NO_CHANGE for pure-noise runs)
    stopped: np.ndarray    # 1-based stopping time, -1 when censored
    subset_id: np.ndarray  # sampled subset index, -1 when fixed
    point_id: np.ndarray   # sampled grid-point index, -1 when fixed

    @property
    def censored(self) -> np.ndarray:
        return self.stopped < 0


# -- change samplers ----------------------------------------------------------


@dataclass(frozen=True)
class NoChangeSampler:
    """Pure-noise runs: the change never happens within the horizon."""

    def draw(self, prior: PriorSpec, rng) -> tuple[ChangeSpec, int, int]:
        return ChangeSpec(NO_CHANGE, ()), -1, -1


@dataclass(frozen=True)
class FixedChangeSampler:
    change: ChangeSpec

    def draw(self, prior: PriorSpec, rng) -> tuple[ChangeSpec, int, int]:
        return self.change, -1, -1


@dataclass(frozen=True)
class PriorNuSampler:
    """nu drawn from the prior; affected subset and parameters fixed."""

    subset: tuple[int, ...]
    theta: tuple[float, ...] | None = None

    def draw(self, prior: PriorSpec, rng) -> tuple[ChangeSpec, int, int]:
        nu = prior.sample(rng)
        return ChangeSpec(nu, self.subset, self.theta), -1, -1


@dataclass(frozen=True)
class JointSampler:
    """nu from the prior, subset from p_B, parameters from the grid weights."""

    subsets: tuple[tuple[int, ...], ...]
    subset_cdf: tuple[float, ...]
    points: tuple[tuple[float, ...], ...]
    point_cdf: tuple[float, ...]

    @classmethod
    def for_detector(cls, detector: Detector) -> "JointSampler":
        masks = subset_masks(detector.weights.n_streams, detector.weights.K)
        p_subset = np.exp(log_subset_weights(detector.weights, masks))
        w = np.asarray(detector.grid.weights)
        return cls(
            subsets=tuple(tuple(np.flatnonzero(m)) for m in masks),
            subset_cdf=tuple(np.cumsum(p_subset)),
            points=detector.grid.theta_points,
            point_cdf=tuple(np.cumsum(w)),
        )

    def draw(self, prior: PriorSpec, rng) -> tuple[ChangeSpec, int, int]:
        nu = prior.sample(rng)
        b_idx = int(np.searchsorted(self.subset_cdf, rng.random(), side="right"))
        b_idx = min(b_idx, len(self.subsets) - 1)
        p_idx = int(np.searchsorted(self.point_cdf, rng.random(), side="right"))
        p_idx = min(p_idx, len(self.points) - 1)
        subset = self.subsets[b_idx]
        theta = tuple(self.points[p_idx][i] for i in subset)
        return ChangeSpec(nu, subset, theta), b_idx, p_idx


# -- core simulation loop ------------------------------------------------------


def _simulate_span(detector: Detector, sampler, mc: MCConfig, start: int, count: int):
    nu = np.empty(count, dtype=np.int64)
    subset_id = np.empty(count, dtype=np.int32)
    point_id = np.empty(count, dtype=np.int32)
    changes = []
    rngs = []
    for j in range(count):
        rng = replication_rng(mc.master_seed, start + j)
        change, b_idx, p_idx = sampler.draw(detector.prior, rng)
        nu[j] = change.nu
        subset_id[j] = b_idx
        point_id[j] = p_idx
        changes.append(change)
        rngs.append(rng)
    stopped = detector.stopping_times(detector.scenario.generate(changes, mc.horizon, rngs))
    return start, nu, stopped, subset_id, point_id


def simulate_runs(detector: Detector, mc: MCConfig, sampler) -> RunRecords:
    """Run all replications and collect per-replication outcomes."""
    spans = [
        (start, min(_CHUNK, mc.replications - start))
        for start in range(0, mc.replications, _CHUNK)
    ]
    records = RunRecords(
        nu=np.empty(mc.replications, dtype=np.int64),
        stopped=np.empty(mc.replications, dtype=np.int64),
        subset_id=np.empty(mc.replications, dtype=np.int32),
        point_id=np.empty(mc.replications, dtype=np.int32),
    )

    def fill(result):
        start, nu, stopped, subset_id, point_id = result
        end = start + nu.shape[0]
        records.nu[start:end] = nu
        records.stopped[start:end] = stopped
        records.subset_id[start:end] = subset_id
        records.point_id[start:end] = point_id

    if mc.workers == 1 or len(spans) == 1:
        for start, count in spans:
            fill(_simulate_span(detector, sampler, mc, start, count))
    else:
        with ProcessPoolExecutor(max_workers=mc.workers) as pool:
            futures = [
                pool.submit(_simulate_span, detector, sampler, mc, start, count)
                for start, count in spans
            ]
            for future in futures:
                fill(future.result())
    return records


# -- operating-characteristic estimators ----------------------------------------


def estimate_pfa(detector: Detector, mc: MCConfig, alpha: float | None = None) -> MCEstimate:
    """Weighted false-alarm probability, simulated under the no-change law.

    ``alpha`` is the precision target used to vet the censoring surrogate; it
    defaults to the detector's calibration bound.  A run with no alarm by the
    horizon still has a resolved contribution, bounded by the prior mass
    beyond the horizon; such runs are absorbed (and ``censored_fraction``
    stays zero) only when that mass is below ``1e-3 * alpha``, otherwise the
    horizon is reported as infeasible.
    """
    if alpha is None:
        alpha = detector.pfa_bound()
    records = simulate_runs(detector, mc, NoChangeSampler())
    unresolved = records.censored
    tail_beyond = detector.prior.tail(mc.horizon + 1)
    if unresolved.any() and not tail_beyond < 1e-3 * alpha:
        raise InfeasibleHorizonError(
            f"P(nu > horizon) = {tail_beyond:.3g} is not negligible against "
            f"alpha = {alpha:.3g}; increase the horizon"
        )
    values = np.where(
        unresolved, tail_beyond, detector.prior.tail(np.maximum(records.stopped, 0))
    )
    return MCEstimate.from_values(values, censored_fraction=0.0)


def estimate_pfa_naive(
    detector: Detector, mc: MCConfig, subset, theta=None
) -> MCEstimate:
    """Two-stage false-alarm estimator: sample nu, flag alarms with T <= nu.

    Exists as the independent cross-check of the tail-averaged estimator;
    censored runs count as no alarm, so the horizon must make P(nu near the
    horizon) negligible.
    """
    records = simulate_runs(
        detector, mc, PriorNuSampler(tuple(subset), None if theta is None else tuple(theta))
    )
    alarmed = records.stopped >= 1
    false_alarm = alarmed & (records.stopped <= records.nu)
    return MCEstimate.from_values(
        false_alarm.astype(float), censored_fraction=float(records.censored.mean())
    )


def _delay_estimate(records: RunRecords, r: float) -> MCEstimate:
    censored = records.censored
    resolved = ~censored
    detected = resolved & (records.stopped > records.nu)
    delays = (records.stopped[detected] - records.nu[detected]).astype(float)
    return MCEstimate.from_values(delays**r, censored_fraction=float(censored.mean()))


def estimate_conditional_delay(
    detector: Detector, change: ChangeSpec, r: float, mc: MCConfig
) -> MCEstimate:
    """r-th moment of (T - k) given T > k for a fixed change at k = change.nu.

    Replications that alarm at or before k are discarded (they condition out);
    censored replications are excluded and reported in ``censored_fraction``.
    """
    if r < 1.0:
        raise ValueError(f"moment order must be >= 1, got {r}")
    if change.nu >= mc.horizon:
        raise ValueError("the change must happen inside the simulation horizon")
    records = simulate_runs(detector, mc, FixedChangeSampler(change))
    return _delay_estimate(records, r)


def estimate_bayes_delay(
    detector: Detector, subset, theta, r: float, mc: MCConfig
) -> MCEstimate:
    """r-th moment of (T - nu) given T > nu, with nu drawn from the prior.

    ``nu = -1`` (change before the start) counts a delay of T + 1.
    """
    if r < 1.0:
        raise ValueError(f"moment order must be >= 1, got {r}")
    sampler = PriorNuSampler(tuple(subset), None if theta is None else tuple(theta))
    records = simulate_runs(detector, mc, sampler)
    return _delay_estimate(records, r)


def estimate_average_risk(
    detector: Detector, c: float, r: float, mc: MCConfig
) -> MCEstimate:
    """Average risk: P(false alarm) plus c times the r-th power of the delay.

    The change point, affected subset, and parameters are all drawn from their
    respective priors per replication.  Censored replications are excluded and
    reported.
    """
    if c < 0.0:
        raise ValueError(f"delay cost must be >= 0, got {c}")
    if r < 1.0:
        raise ValueError(f"moment order must be >= 1, got {r}")
    records = simulate_runs(detector, mc, JointSampler.for_detector(detector))
    resolved = ~records.censored
    stopped = records.stopped[resolved]
    nu = records.nu[resolved]
    false_alarm = (stopped <= nu).astype(float)
    delay = np.maximum(stopped - nu, 0).astype(float)
    values = false_alarm + c * delay**r
    return MCEstimate.from_values(
        values, censored_fraction=float(records.censored.mean())
    )


@dataclass(frozen=True)
class SweepRow:
    """One operating-characteristics row of a false-alarm-level sweep."""

    alpha: float
    threshold_A: float
    delay_moment: float
    delay_se: float
    first_order: float
    ratio: float
    ratio_se: float
    censored_fraction: float


def asymptotic_ratio_sweep(
    detector_factory,
    alphas,
    r: float,
    mc: MCConfig,
    subset,
    theta,
    info_rate: float,
    mu: float,
) -> list[SweepRow]:
    """Delay moments across a grid of false-alarm levels, against first order.

    ``detector_factory(alpha)`` must return the calibrated detector for each
    level.  The ratio column divides the simulated Bayes delay moment by
    ``(|log alpha| / (info_rate + mu))^r``; for Shiryaev-Roberts rules pass
    ``mu = 0``.  Replication seeds are shared across levels, so compared rows
    use common random numbers.  The change-point prior is held fixed across
    the sweep; level-dependent priors are out of scope for this table.
    """
    if info_rate + mu <= 0.0:
        raise ValueError("info_rate + mu must be positive")
    rows = []
    for alpha in alphas:
        detector = detector_factory(alpha)
        est = estimate_bayes_delay(detector, subset, theta, r, mc)
        first_order = (abs(math.log(alpha)) / (info_rate + mu)) ** r
        rows.append(
            SweepRow(
                alpha=float(alpha),
                threshold_A=detector.config.threshold_A,
                delay_moment=est.mean,
                delay_se=est.stderr,
                first_order=first_order,
                ratio=est.mean / first_order,
                ratio_se=est.stderr / first_order,
                censored_fraction=est.censored_fraction,
            )
        )
    return rows
