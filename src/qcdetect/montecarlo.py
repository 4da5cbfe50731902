"""Replicated simulation of operating characteristics.

Every replication draws from a counter-based generator keyed by (master
seed, replication index), so results are reproducible and independent of
worker count or scheduling.  A span of replications builds one Philox
generator and re-keys it for each replication in turn (``replication_rngs``);
the replication draws its change, from one of ``scenarios``' samplers, then
its noise, inside one ``Scenario.generate`` call.  Per-replication outcomes
are stored in arrays indexed by replication and reduced once, in canonical
order; partial results from worker shards therefore merge into exactly the
single-threaded totals.

A pass with more than one span and more than one worker fans its spans out to
worker processes, each holding one span at a time.  The processes come from a
``WorkerPool``, sized ``min(workers, spans)`` when its first pass fans out and
joined on every exit path: a pass gets a pool of its own, and
``asymptotic_ratio_sweep`` holds one pool for all its passes.  Each span
carries its detector, sampler and thresholds with it, so a reused worker keeps
no state from one pass to the next.

A ``Detector`` is the statistic; the threshold is an argument of every pass.
Only the threshold depends on the false-alarm level, so every level of a sweep
stops at a first crossing of the same path.  While ``asymptotic_ratio_sweep``
runs, its private block holds its statistic, thresholds and pool and, per
sampler, ``nu`` and the ``[R, L]`` stops of one scan at every threshold; each
level's ``simulate_runs`` call reads its own column.  A sweep of L levels thus
makes 2·L passes, but generates and scans each of its 2 datasets once.

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
from contextlib import closing
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .detectors import Detector, check_moment_order
from .model import ChangeSpec, replication_rng
from .scenarios import (
    NO_CHANGE_SAMPLER,
    ChangeDraws,
    FixedChangeSampler,
    JointSampler,
    PriorNuSampler,
    Scenario,
)

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


def _simulate_span(
    detector: Detector, sampler, mc: MCConfig, start: int, count: int, log_thresholds
):
    changes = ChangeDraws(sampler, detector.prior, count)
    rngs = replication_rngs(mc.master_seed, start, start + count)
    data = detector.scenario.generate(changes, mc.horizon, rngs)
    return start, changes.nu, detector.stopping_times(data, log_thresholds)


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


class WorkerPool:
    """Worker processes, started on first need and joined by ``close``.

    The first pass with more than one span and more than one worker starts
    ``min(workers, spans)`` processes (a fork-started executor forks all of
    them at once), and every later pass reuses them: the passes of a sweep
    share one statistic, R and horizon, so each has as many spans as the first.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = None

    def run(self, fn, tasks: list) -> list:
        """``fn(*task)`` for every task, results in task order."""
        size = min(self.workers, len(tasks))
        if size <= 1:
            return [fn(*task) for task in tasks]
        if self._executor is None:
            # imported here, so a one-process run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=size)
        futures = [self._executor.submit(fn, *task) for task in tasks]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Cancel queued tasks and join the processes, if any were started."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


def _run_spans(pool: WorkerPool, detector: Detector, mc: MCConfig, sampler, log_thresholds):
    """Every replication's ``nu`` ``[R]`` and first crossings ``[R, L]``, span by span."""
    size = span_rows(detector, mc.horizon)
    tasks = [
        (detector, sampler, mc, start, min(size, mc.replications - start), log_thresholds)
        for start in range(0, mc.replications, size)
    ]
    nu = np.empty(mc.replications, dtype=np.int64)
    stopped = np.empty((mc.replications, len(log_thresholds)), dtype=np.int64)
    for start, span_nu, span_stopped in pool.run(_simulate_span, tasks):
        end = start + span_nu.shape[0]
        nu[start:end] = span_nu
        stopped[start:end] = span_stopped
    return nu, stopped


@dataclass
class _SweepBlock:
    """A running sweep's statistic, thresholds, pool, and its scans' ``nu`` and ``[R, L]`` stops."""

    detector: Detector
    thresholds: tuple
    pool: WorkerPool
    runs: dict = field(default_factory=dict)  # sampler -> (nu, stopped); never the data

    def records(self, threshold: float, mc: MCConfig, sampler) -> RunRecords:
        """The runs at ``threshold`` as fresh arrays, the dataset scanned once for every level."""
        if sampler not in self.runs:
            levels = [self.detector.log_level(a) for a in self.thresholds]
            self.runs[sampler] = _run_spans(self.pool, self.detector, mc, sampler, levels)
        nu, stopped = self.runs[sampler]
        return RunRecords(nu=nu.copy(), stopped=stopped[:, self.thresholds.index(threshold)].copy())


_sweep: ContextVar[_SweepBlock | None] = ContextVar("qcdetect_sweep", default=None)


def simulate_runs(detector: Detector, threshold: float, mc: MCConfig, sampler) -> RunRecords:
    """Run all replications of ``detector`` at ``threshold`` and collect their outcomes.

    The threshold passes ``Detector.log_level`` before any data is generated.
    A level of the running ``asymptotic_ratio_sweep`` reads its column of the
    sweep's scan; any other call runs its own pass, on a pool it closes
    before returning.
    """
    log_a = detector.log_level(threshold)
    block = _sweep.get()
    if block is not None and detector is block.detector and threshold in block.thresholds:
        return block.records(threshold, mc, sampler)
    with closing(WorkerPool(mc.workers)) as pool:
        nu, stopped = _run_spans(pool, detector, mc, sampler, [log_a])
    return RunRecords(nu=nu, stopped=stopped[:, 0])


# -- operating-characteristic estimators ----------------------------------------


def estimate_pfa(
    detector: Detector, threshold: float, mc: MCConfig, alpha: float | None = None
) -> MCEstimate:
    """Weighted false-alarm probability, simulated under the no-change law.

    ``alpha`` is the precision target used to vet the censoring surrogate; it
    defaults to the calibration bound at ``threshold``.  A run with no alarm by
    the horizon still has a resolved contribution, bounded by the prior mass
    beyond the horizon; such runs are absorbed (and ``censored_fraction``
    stays zero) only when that mass is below ``1e-3 * alpha``, otherwise the
    horizon is reported as infeasible.
    """
    if alpha is None:
        alpha = detector.pfa_bound(threshold)
    records = simulate_runs(detector, threshold, mc, NO_CHANGE_SAMPLER)
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
    detector: Detector, threshold: float, mc: MCConfig, subset, theta=None
) -> MCEstimate:
    """Two-stage false-alarm estimator: sample nu, flag alarms with T <= nu.

    Exists as the independent cross-check of the tail-averaged estimator;
    censored runs count as no alarm, so the horizon must make P(nu near the
    horizon) negligible.
    """
    records = simulate_runs(detector, threshold, mc, PriorNuSampler(subset, theta))
    return MCEstimate.from_values(
        records.false_alarm.astype(float), censored_fraction=records.censored_fraction
    )


def estimate_conditional_delay(
    detector: Detector, threshold: float, change: ChangeSpec, r: float, mc: MCConfig
) -> MCEstimate:
    """r-th moment of (T - k) given T > k for a fixed change at k = change.nu.

    Replications that alarm at or before k are discarded (they condition out);
    censored replications are excluded and reported in ``censored_fraction``.
    """
    check_moment_order(r)
    sampler = FixedChangeSampler(change)
    sampler.check_horizon(mc.horizon)
    return simulate_runs(detector, threshold, mc, sampler).delay_moment(r)


def estimate_bayes_delay(
    detector: Detector, threshold: float, subset, theta, r: float, mc: MCConfig
) -> MCEstimate:
    """r-th moment of (T - nu) given T > nu, with nu drawn from the prior."""
    check_moment_order(r)
    return simulate_runs(detector, threshold, mc, PriorNuSampler(subset, theta)).delay_moment(r)


def estimate_average_risk(
    detector: Detector, threshold: float, c: float, r: float, mc: MCConfig
) -> MCEstimate:
    """Average risk: P(false alarm) plus c times the r-th power of the delay.

    The change point, affected subset, and parameters are all drawn from their
    respective priors per replication.  Censored replications are excluded and
    reported.
    """
    if not 0.0 <= c < math.inf:
        raise ValueError(f"delay cost must be finite and >= 0, got {c}")
    check_moment_order(r)
    records = simulate_runs(detector, threshold, mc, JointSampler.for_detector(detector))
    resolved = ~records.censored
    false_alarm = records.false_alarm[resolved].astype(float)
    delay = np.maximum(records.stopped - records.nu, 0)[resolved].astype(float)
    values = false_alarm + c * delay**r
    return MCEstimate.from_values(values, censored_fraction=records.censored_fraction)


#: Samples per path batch in ``estimate_kl_slope`` (8 MB of float64 per array).
_SLOPE_BATCH_SAMPLES = 2**20


def estimate_kl_slope(channel, theta: float, n: int, replications: int, master_seed: int):
    """MC estimate of the normalized log-LR slope under a change at the origin.

    Simulates ``replications`` post-change streams of length ``n`` from the
    channel at the true parameter ``theta`` and averages the per-path slope
    ``lambda(0, n) / n``; a diagnostic for the analytic information rates.
    """
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    if replications < 2:
        raise ValueError(f"need at least 2 replications, got {replications}")
    if not np.isfinite(theta):
        raise ValueError(f"post-change parameter theta must be finite, got {theta}")
    thetas = np.asarray([float(theta)])
    scenario = Scenario((channel,))
    at_origin = ChangeSpec(-1, (0,), (float(theta),))
    slopes = np.empty(replications)
    # one batch of paths per call, since the AR filter pays per time step
    per_batch = max(1, _SLOPE_BATCH_SAMPLES // n)
    for start in range(0, replications, per_batch):
        stop = min(start + per_batch, replications)
        rngs = replication_rngs(master_seed, start, stop)
        x = scenario.generate([at_origin] * (stop - start), n, rngs)[..., 0]
        slopes[start:stop] = channel.log_lr_increments(x, thetas)[..., 0].sum(axis=-1) / n
    return MCEstimate.from_values(slopes)


@dataclass(frozen=True)
class SweepRow:
    """One operating-characteristics row of a false-alarm-level sweep."""

    alpha: float
    threshold_A: float
    pfa_est: float
    pfa_se: float
    delay_moment: float
    delay_se: float
    first_order: float
    ratio: float
    ratio_se: float
    censored_fraction: float


def asymptotic_ratio_sweep(
    detector: Detector, alphas, r: float, mc: MCConfig, subset, theta
) -> list[SweepRow]:
    """False-alarm probabilities and delay moments across a grid of levels.

    Every level runs ``detector``'s statistic at ``detector.threshold(alpha)``.
    Every level is calibrated once, then ``I + mu``
    (``Detector.first_order_rate``) is checked, before the first pass; a
    level that cannot be calibrated is the ``ValueError`` of
    ``Detector.threshold``.  Every level's delay pass runs, then every level's
    ``estimate_pfa`` pass at precision ``alpha``, all on one pool, and each
    dataset is scanned once for every level.  The ratio column divides the
    simulated Bayes delay moment of a change in ``subset`` at ``theta`` by
    ``(|log alpha| / (I + mu))^r``.
    Replication seeds are shared across levels, so compared rows use common
    random numbers.  The change-point prior is held fixed across the sweep;
    level-dependent priors are out of scope for this table.
    """
    alphas = tuple(alphas)
    thresholds = tuple(detector.threshold(alpha) for alpha in alphas)
    rate = detector.first_order_rate(subset, theta)
    with closing(WorkerPool(mc.workers)) as pool:
        token = _sweep.set(_SweepBlock(detector, thresholds, pool))
        try:
            delays = [estimate_bayes_delay(detector, a, subset, theta, r, mc) for a in thresholds]
            pfas = [estimate_pfa(detector, a, mc, alpha) for alpha, a in zip(alphas, thresholds)]
        finally:
            _sweep.reset(token)
    rows = []
    for alpha, a, pfa, delay in zip(alphas, thresholds, pfas, delays):
        first_order = (abs(math.log(alpha)) / rate) ** r
        rows.append(
            SweepRow(
                alpha=float(alpha),
                threshold_A=a,
                pfa_est=pfa.mean,
                pfa_se=pfa.stderr,
                delay_moment=delay.mean,
                delay_se=delay.stderr,
                first_order=first_order,
                ratio=delay.mean / first_order,
                ratio_se=delay.stderr / first_order,
                censored_fraction=delay.censored_fraction,
            )
        )
    return rows
