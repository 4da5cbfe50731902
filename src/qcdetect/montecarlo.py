"""Replicated simulation of operating characteristics.

Every replication draws from a counter-based generator keyed by (master
seed, replication index), so results are reproducible and independent of
worker count or scheduling.  A span of replications builds one Philox
generator and re-keys it for each replication in turn (``replication_rngs``);
the replication draws its change's uniforms, then its noise, inside one
``Scenario.generate`` call, and the sampler maps the span's uniforms to
changes at once.  Per-replication outcomes are stored in arrays indexed by
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
from dataclasses import dataclass

import numpy as np

from .detectors import Detector, check_moment_order
from .model import NO_CHANGE, ChangeSpec, PriorSpec, replication_rng
from .scenarios import ChangeDraws, ListedChanges, change_rows

_CHUNK = 1024

#: Bytes a span of replications may hold at once, counted by
#: ``Detector.row_bytes`` (256 MiB).  Each worker process holds one span.
SPAN_BUDGET_BYTES = 256 * 2**20


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
    """Per-replication outcomes, indexed by replication.

    Each replication is exactly one of: censored (no alarm by the horizon), a
    false alarm (at or before the change), or a detection (after it).
    """

    nu: np.ndarray       # sampled change point (NO_CHANGE for pure-noise runs)
    stopped: np.ndarray  # 1-based stopping time, -1 when censored

    @property
    def censored(self) -> np.ndarray:
        return self.stopped < 0

    @property
    def censored_fraction(self) -> float:
        return float(self.censored.mean())

    @property
    def false_alarm(self) -> np.ndarray:
        return ~self.censored & (self.stopped <= self.nu)

    @property
    def detected(self) -> np.ndarray:
        return ~self.censored & (self.stopped > self.nu)

    def delay_moment(self, r: float) -> MCEstimate:
        """r-th moment of ``stopped - nu`` over detections; ``nu = -1`` counts T + 1."""
        detected = self.detected
        delays = (self.stopped[detected] - self.nu[detected]).astype(float)
        return MCEstimate.from_values(delays**r, censored_fraction=self.censored_fraction)


# -- change samplers ----------------------------------------------------------
#
# A sampler draws each replication's change from ``uniforms(prior)`` uniforms,
# the first of its generator's draws; ``changes`` maps a span's ``[R, k]``
# uniforms at once to ``nu`` and the ``post_from`` and ``theta`` arrays of
# ``scenarios.change_rows`` (see ``scenarios.ChangeDraws``).


@dataclass(frozen=True)
class FixedChangeSampler:
    """The same change in every replication; draws no random number."""

    change: ChangeSpec

    def uniforms(self, prior: PriorSpec) -> int:
        return 0

    def changes(self, prior: PriorSpec, u, scenario, horizon: int):
        one = ListedChanges((self.change,)).changes(prior, u, scenario, horizon)
        return tuple(np.repeat(a, len(u), axis=0) for a in one)

    def check_horizon(self, horizon: int) -> None:
        if self.change.nu >= horizon:
            raise ValueError(f"the change must happen inside the simulation horizon ({horizon})")


#: Pure-noise runs: the change never happens within the horizon.
NO_CHANGE_SAMPLER = FixedChangeSampler(ChangeSpec(NO_CHANGE, ()))


@dataclass(frozen=True)
class PriorNuSampler:
    """nu drawn from the prior; affected subset and parameters fixed.

    The pair is checked as a ``ChangeSpec`` once, and kept in its sorted form.
    """

    subset: tuple[int, ...]
    theta: tuple[float, ...] | None = None

    def __post_init__(self):
        change = ChangeSpec(0, self.subset, self.theta)
        object.__setattr__(self, "subset", change.subset)
        object.__setattr__(self, "theta", change.theta)

    def uniforms(self, prior: PriorSpec) -> int:
        return prior.uniforms

    def changes(self, prior: PriorSpec, u, scenario, horizon: int):
        nu = prior.change_points(u)
        affected, theta = scenario.affected_streams(self.subset, self.theta)
        return (nu, *change_rows(nu, affected, theta, horizon))


@dataclass(frozen=True)
class JointSampler:
    """nu from the prior, subset from p_B, parameters from the grid weights.

    A replication's uniforms are the prior's, then one for the subset and
    one for the grid point, each inverted through its CDF.
    """

    subsets: tuple[tuple[int, ...], ...]
    subset_cdf: tuple[float, ...]
    points: tuple[tuple[float, ...], ...]
    point_cdf: tuple[float, ...]

    @classmethod
    def for_detector(cls, detector: Detector) -> "JointSampler":
        return cls(
            subsets=detector.weights.members,
            subset_cdf=tuple(np.cumsum(np.exp(detector.weights.log_p_subsets))),
            points=detector.grid.theta_points,
            point_cdf=tuple(np.cumsum(detector.grid.weights)),
        )

    def uniforms(self, prior: PriorSpec) -> int:
        return prior.uniforms + 2

    def changes(self, prior: PriorSpec, u, scenario, horizon: int):
        k = prior.uniforms
        nu = prior.change_points(u[:, :k])
        b_idx = np.searchsorted(self.subset_cdf, u[:, k], side="right")
        p_idx = np.searchsorted(self.point_cdf, u[:, k + 1], side="right")
        masks = np.array([scenario.affected_streams(b)[0] for b in self.subsets])
        affected = masks[np.minimum(b_idx, len(self.subsets) - 1)]
        theta = np.asarray(self.points, dtype=float)[np.minimum(p_idx, len(self.points) - 1)]
        return (nu, *change_rows(nu, affected, theta, horizon))


# -- core simulation loop ------------------------------------------------------


def replication_rngs(master_seed: int, start: int, stop: int):
    """The generators of replications ``start .. stop-1``, one re-keyed in turn.

    Each comes from ``replication_rng``, once per replication; a yielded
    generator is valid until the next is taken.
    """
    rng = None
    for replication in range(start, stop):
        rng = replication_rng(master_seed, replication, rng)
        yield rng


def _simulate_span(detector: Detector, sampler, mc: MCConfig, start: int, count: int):
    changes = ChangeDraws(sampler, detector.prior, count)
    rngs = replication_rngs(mc.master_seed, start, start + count)
    data = detector.scenario.generate(changes, mc.horizon, rngs)
    return start, changes.nu, detector.stopping_times(data)


def span_rows(detector: Detector, horizon: int) -> int:
    """Replications per span: as many as ``SPAN_BUDGET_BYTES`` holds, at most 1024.

    Rows are independent, so the span size moves no result.  A horizon whose
    single replication exceeds the budget is a ``ValueError``.
    """
    row = detector.row_bytes(horizon)
    if row > SPAN_BUDGET_BYTES:
        raise ValueError(
            f"one replication of {horizon} steps needs {row / 2**20:.6g} MiB, "
            f"over the span memory budget of {SPAN_BUDGET_BYTES / 2**20:g} MiB"
        )
    return min(_CHUNK, SPAN_BUDGET_BYTES // row)


def simulate_runs(detector: Detector, mc: MCConfig, sampler) -> RunRecords:
    """Run all replications and collect per-replication outcomes."""
    size = span_rows(detector, mc.horizon)
    spans = [
        (start, min(size, mc.replications - start))
        for start in range(0, mc.replications, size)
    ]
    records = RunRecords(
        nu=np.empty(mc.replications, dtype=np.int64),
        stopped=np.empty(mc.replications, dtype=np.int64),
    )

    def fill(result):
        start, nu, stopped = result
        end = start + nu.shape[0]
        records.nu[start:end] = nu
        records.stopped[start:end] = stopped

    if mc.workers == 1 or len(spans) == 1:
        for start, count in spans:
            fill(_simulate_span(detector, sampler, mc, start, count))
    else:
        # imported here, so a one-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

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
    records = simulate_runs(detector, mc, NO_CHANGE_SAMPLER)
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
    return MCEstimate.from_values(
        records.false_alarm.astype(float), censored_fraction=records.censored_fraction
    )


def estimate_conditional_delay(
    detector: Detector, change: ChangeSpec, r: float, mc: MCConfig
) -> MCEstimate:
    """r-th moment of (T - k) given T > k for a fixed change at k = change.nu.

    Replications that alarm at or before k are discarded (they condition out);
    censored replications are excluded and reported in ``censored_fraction``.
    """
    check_moment_order(r)
    sampler = FixedChangeSampler(change)
    sampler.check_horizon(mc.horizon)
    return simulate_runs(detector, mc, sampler).delay_moment(r)


def estimate_bayes_delay(
    detector: Detector, subset, theta, r: float, mc: MCConfig
) -> MCEstimate:
    """r-th moment of (T - nu) given T > nu, with nu drawn from the prior."""
    check_moment_order(r)
    sampler = PriorNuSampler(tuple(subset), None if theta is None else tuple(theta))
    return simulate_runs(detector, mc, sampler).delay_moment(r)


def estimate_average_risk(
    detector: Detector, c: float, r: float, mc: MCConfig
) -> MCEstimate:
    """Average risk: P(false alarm) plus c times the r-th power of the delay.

    The change point, affected subset, and parameters are all drawn from their
    respective priors per replication.  Censored replications are excluded and
    reported.
    """
    if not 0.0 <= c < math.inf:
        raise ValueError(f"delay cost must be finite and >= 0, got {c}")
    check_moment_order(r)
    records = simulate_runs(detector, mc, JointSampler.for_detector(detector))
    resolved = ~records.censored
    false_alarm = records.false_alarm[resolved].astype(float)
    delay = np.maximum(records.stopped - records.nu, 0)[resolved].astype(float)
    values = false_alarm + c * delay**r
    return MCEstimate.from_values(values, censored_fraction=records.censored_fraction)


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
    detector_factory, alphas, r: float, mc: MCConfig, subset, theta
) -> list[SweepRow]:
    """Delay moments across a grid of false-alarm levels, against first order.

    ``detector_factory(alpha)`` must return the calibrated detector for each
    level.  The ratio column divides the simulated Bayes delay moment of a
    change in ``subset`` at ``theta`` by ``(|log alpha| / (I + mu))^r``, with
    ``I + mu`` from ``Detector.first_order_rate``.  Replication seeds are
    shared across levels, so compared rows use common random numbers.  The
    change-point prior is held fixed across the sweep; level-dependent priors
    are out of scope for this table.
    """
    rows = []
    for alpha in alphas:
        detector = detector_factory(alpha)
        first_order = (abs(math.log(alpha)) / detector.first_order_rate(subset, theta)) ** r
        est = estimate_bayes_delay(detector, subset, theta, r, mc)
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
