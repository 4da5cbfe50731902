"""Monte Carlo estimators: determinism, estimator validity, accounting."""

import concurrent.futures
import math
import multiprocessing

import numpy as np
import pytest

from qcdetect import montecarlo
from qcdetect import (
    ChangeSpec,
    Detector,
    GeometricPrior,
    GridSpec,
    InfeasibleHorizonError,
    MCConfig,
    Scenario,
    SubsetWeights,
    estimate_average_risk,
    estimate_bayes_delay,
    estimate_conditional_delay,
    estimate_pfa,
    gaussian_stream,
    replication_rng,
    simulate_runs,
    threshold_shiryaev,
    threshold_sr,
)
from qcdetect.detectors import check_threshold
from qcdetect.model import NO_CHANGE
from qcdetect.montecarlo import (
    NO_CHANGE_SAMPLER,
    FixedChangeSampler,
    JointSampler,
    MCEstimate,
    RunRecords,
    asymptotic_ratio_sweep,
    estimate_pfa_naive,
)


def make_detector(kind="shiryaev-mixture", theta=1.0, rho=0.1, omega=0.0, q=0.0):
    scenario = Scenario((gaussian_stream(theta=theta),))
    grid = GridSpec.degenerate((theta,))
    weights = SubsetWeights.uniform(1)
    prior = GeometricPrior(rho=rho, q=q)
    return Detector(kind, scenario, prior, grid, weights, omega=omega)


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(replications=0, master_seed=0, horizon=10)
    with pytest.raises(ValueError):
        MCConfig(replications=10, master_seed=0, horizon=0)
    with pytest.raises(ValueError):
        MCConfig(replications=10, master_seed=0, horizon=10, workers=0)
    with pytest.raises(ValueError):
        MCConfig(replications=10, master_seed=-1, horizon=10)


def test_mc_estimate_from_values():
    est = MCEstimate.from_values([1.0, 2.0, 3.0])
    assert est.mean == 2.0
    assert est.stderr == pytest.approx(1.0 / math.sqrt(3))
    assert est.n_effective == 3
    empty = MCEstimate.from_values([])
    assert math.isnan(empty.mean) and empty.n_effective == 0


def test_simulate_runs_is_deterministic_across_worker_counts():
    detector = make_detector()
    base = dict(replications=2500, master_seed=21, horizon=120)
    r1 = simulate_runs(detector, 19.0, MCConfig(workers=1, **base), NO_CHANGE_SAMPLER)
    r3 = simulate_runs(detector, 19.0, MCConfig(workers=3, **base), NO_CHANGE_SAMPLER)
    np.testing.assert_array_equal(r1.stopped, r3.stopped)
    np.testing.assert_array_equal(r1.nu, r3.nu)


def test_estimates_identical_across_worker_counts():
    detector = make_detector()
    base = dict(replications=2500, master_seed=21, horizon=150)
    e1 = estimate_pfa(detector, 19.0, MCConfig(workers=1, **base), alpha=0.05)
    e2 = estimate_pfa(detector, 19.0, MCConfig(workers=2, **base), alpha=0.05)
    assert e1 == e2


def test_pfa_bound_small_case():
    detector = make_detector()
    mc = MCConfig(replications=3000, master_seed=9, horizon=300)
    est = estimate_pfa(detector, 19.0, mc)  # alpha = 0.05
    assert est.mean <= 0.05 + 3 * est.stderr
    assert est.censored_fraction == 0.0


def test_pfa_sr_bound_small_case():
    prior = GeometricPrior(rho=0.1)
    a = threshold_sr(0.05, 0.0, prior)  # mean(nu) = 9 -> A = 180
    detector = make_detector(kind="sr-mixture")
    mc = MCConfig(replications=3000, master_seed=10, horizon=300)
    est = estimate_pfa(detector, a, mc)
    assert est.mean <= 0.05 + 3 * est.stderr


def test_pfa_matches_naive_two_stage_sampler():
    detector = make_detector()
    mc = MCConfig(replications=4000, master_seed=9, horizon=300)
    rb = estimate_pfa(detector, 19.0, mc)
    naive = estimate_pfa_naive(detector, 19.0, mc, (0,), (1.0,))
    joint_se = math.hypot(rb.stderr, naive.stderr)
    assert abs(rb.mean - naive.mean) <= 3 * joint_se


def test_pfa_huge_threshold_reduces_to_tail_surrogate():
    detector = make_detector()
    mc = MCConfig(replications=200, master_seed=2, horizon=100)
    est = estimate_pfa(detector, 1e12, mc, alpha=0.5)
    tail = detector.prior.tail(101)
    assert est.mean == pytest.approx(tail, rel=1e-12)
    assert est.mean < 1e-3


def test_pfa_infeasible_horizon_raises():
    detector = make_detector(rho=0.01)
    mc = MCConfig(replications=50, master_seed=3, horizon=20)
    with pytest.raises(InfeasibleHorizonError):
        estimate_pfa(detector, 1e12, mc, alpha=0.01)


def test_pfa_stderr_scales_with_replications():
    detector = make_detector()
    small = estimate_pfa(
        detector, 19.0, MCConfig(replications=1000, master_seed=5, horizon=200)
    )
    large = estimate_pfa(
        detector, 19.0, MCConfig(replications=4000, master_seed=5, horizon=200)
    )
    assert 1.5 <= small.stderr / large.stderr <= 2.6


def test_conditional_delay_immediate_detection():
    detector = make_detector(theta=20.0)
    mc = MCConfig(replications=200, master_seed=4, horizon=50)
    change = ChangeSpec(nu=0, subset=(0,))
    for r in (1, 2):
        est = estimate_conditional_delay(detector, 2.0, change, r, mc)
        assert est.mean == 1.0
        assert est.censored_fraction == 0.0


def test_delay_moments_satisfy_jensen():
    detector = make_detector()
    mc = MCConfig(replications=1500, master_seed=6, horizon=400)
    change = ChangeSpec(nu=10, subset=(0,))
    first = estimate_conditional_delay(detector, 99.0, change, 1, mc)
    second = estimate_conditional_delay(detector, 99.0, change, 2, mc)
    assert second.mean >= first.mean**2 - 3 * second.stderr


def test_conditional_delay_tracks_first_order_rate():
    # change at k=100 so the prior has partly resolved; alpha = 1e-3
    detector = make_detector(rho=0.01)
    mc = MCConfig(replications=2000, master_seed=5, horizon=600)
    a = threshold_shiryaev(1e-3)
    est = estimate_conditional_delay(detector, a, ChangeSpec(nu=100, subset=(0,)), 1, mc)
    first_order = abs(math.log(1e-3)) / (0.5 + detector.prior.tail_rate)
    assert 0.8 * first_order <= est.mean <= 1.6 * first_order


def test_bayes_delay_tracks_first_order_rate():
    detector = make_detector(rho=0.01)
    mc = MCConfig(replications=2000, master_seed=7, horizon=1800)
    est = estimate_bayes_delay(detector, threshold_shiryaev(1e-3), (0,), (1.0,), 1, mc)
    first_order = abs(math.log(1e-3)) / (0.5 + detector.prior.tail_rate)
    assert 0.8 * first_order <= est.mean <= 1.6 * first_order
    assert est.censored_fraction < 0.01


def test_bayes_delay_satisfies_jensen():
    detector = make_detector()
    mc = MCConfig(replications=1500, master_seed=8, horizon=800)
    first = estimate_bayes_delay(detector, 49.0, (0,), (1.0,), 1, mc)
    second = estimate_bayes_delay(detector, 49.0, (0,), (1.0,), 2, mc)
    assert second.mean >= first.mean**2 - 3 * second.stderr


def test_average_risk_with_zero_cost_is_false_alarm_rate():
    detector = make_detector()
    mc = MCConfig(replications=2000, master_seed=12, horizon=600)
    risk = estimate_average_risk(detector, 9.0, 0.0, 1, mc)
    naive = estimate_pfa_naive(detector, 9.0, mc, (0,), (1.0,))
    joint_se = math.hypot(risk.stderr, naive.stderr)
    assert abs(risk.mean - naive.mean) <= 3 * joint_se


def test_average_risk_never_stopping_limit():
    # threshold far above anything the statistic can reach inside the horizon
    detector = make_detector()
    mc = MCConfig(replications=300, master_seed=13, horizon=200)
    risk = estimate_average_risk(detector, 1e90, 1.0, 1, mc)
    # nothing stops, so every replication is censored and flagged
    assert risk.censored_fraction == 1.0
    assert risk.n_effective == 0


def test_joint_sampler_draws_match_mixture_weights():
    scenario = Scenario((gaussian_stream(theta=1.0), gaussian_stream(theta=1.0)))
    grid = GridSpec.common_amplitude([0.5, 1.0], 2, weights=(0.25, 0.75))
    weights = SubsetWeights.uniform(2, 2)
    prior = GeometricPrior(rho=0.1)
    detector = Detector("shiryaev-mixture", scenario, prior, grid, weights)
    sampler = JointSampler.for_detector(detector)
    assert sampler.uniforms(prior) == 3  # nu, the subset, the grid point
    u = np.array([replication_rng(14, rep).random(3) for rep in range(6000)])
    nu, affected, theta = sampler.changes(prior, u, scenario)
    assert nu.shape == (6000,) and affected.shape == theta.shape == (6000, 2)
    # subsets are uniform (1/3 each), grid points carry weights (0.25, 0.75)
    for subset in sampler.subsets:
        share = np.mean(np.all(affected == np.isin([0, 1], subset), axis=1))
        assert abs(share - 1 / 3) <= 3 * math.sqrt((1 / 3) * (2 / 3) / 6000)
    # the grid points are (0.5, 0.5) and (1.0, 1.0)
    share = np.mean(theta.max(axis=1) == 1.0)
    assert abs(share - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / 6000)


def test_fixed_change_sampler_records_nu():
    detector = make_detector()
    mc = MCConfig(replications=10, master_seed=15, horizon=20)
    records = simulate_runs(detector, 1e6, mc, FixedChangeSampler(ChangeSpec(nu=4, subset=(0,))))
    assert np.all(records.nu == 4)


def test_run_records_give_each_replication_one_outcome():
    # change before the start (nu = -1), no change, and alarms before, at and after nu
    nu = np.array([-1, -1, 5, 5, 5, 5, NO_CHANGE, NO_CHANGE, 0, 3])
    stopped = np.array([1, -1, 3, 5, 6, -1, 7, -1, 1, 12])
    records = RunRecords(nu=nu, stopped=stopped)
    np.testing.assert_array_equal(records.false_alarm, [0, 0, 1, 1, 0, 0, 1, 0, 0, 0])
    np.testing.assert_array_equal(records.detected, [1, 0, 0, 0, 1, 0, 0, 0, 1, 1])
    assert records.censored_fraction == 0.3
    rng = np.random.default_rng(7)
    mixed = RunRecords(
        nu=rng.integers(-1, 40, size=500),
        stopped=np.where(rng.random(500) < 0.2, -1, rng.integers(1, 60, size=500)),
    )
    for rec in (records, mixed):
        outcomes = np.stack([rec.censored, rec.false_alarm, rec.detected]).astype(int)
        np.testing.assert_array_equal(outcomes.sum(axis=0), 1)
        for r in (1, 2, 2.5):
            # the delay moment as it was computed before RunRecords defined it
            hit = ~rec.censored & (rec.stopped > rec.nu)
            delays = (rec.stopped[hit] - rec.nu[hit]).astype(float)
            expected = MCEstimate.from_values(
                delays**r, censored_fraction=float(rec.censored.mean())
            )
            assert rec.delay_moment(r) == expected


def test_fixed_change_must_lie_inside_the_horizon():
    detector = make_detector()
    mc = MCConfig(replications=10, master_seed=16, horizon=20)
    with pytest.raises(ValueError, match="inside the simulation horizon"):
        estimate_conditional_delay(detector, 19.0, ChangeSpec(nu=20, subset=(0,)), 1, mc)
    estimate_conditional_delay(detector, 19.0, ChangeSpec(nu=19, subset=(0,)), 1, mc)  # last step


def test_moment_order_validated():
    detector = make_detector()
    mc = MCConfig(replications=10, master_seed=16, horizon=20)
    with pytest.raises(ValueError):
        estimate_conditional_delay(detector, 19.0, ChangeSpec(nu=0, subset=(0,)), 0.5, mc)
    with pytest.raises(ValueError):
        estimate_bayes_delay(detector, 19.0, (0,), (1.0,), 0.0, mc)
    with pytest.raises(ValueError):
        estimate_average_risk(detector, 19.0, -1.0, 1, mc)


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_runs_is_independent_of_span_size(monkeypatch, workers):
    scenario = Scenario((gaussian_stream(theta=1.0), gaussian_stream(theta=0.5)))
    detector = Detector(
        "shiryaev-mixture",
        scenario,
        GeometricPrior(rho=0.05, q=0.1),
        GridSpec.common_amplitude([0.5, 1.0], 2),
        SubsetWeights.uniform(2, 2),
    )
    mc = MCConfig(replications=50, master_seed=18, horizon=80, workers=workers)
    sampler = JointSampler.for_detector(detector)
    whole = simulate_runs(detector, 30.0, mc, sampler)
    monkeypatch.setattr(montecarlo, "_CHUNK", 7)
    split = simulate_runs(detector, 30.0, mc, sampler)
    for field in ("nu", "stopped"):
        np.testing.assert_array_equal(getattr(split, field), getattr(whole, field))


def test_nan_moment_order_is_rejected_before_simulating(monkeypatch):
    def no_simulation(*args):
        raise AssertionError("simulated before the moment order was checked")

    monkeypatch.setattr(montecarlo, "simulate_runs", no_simulation)
    detector = make_detector()
    mc = MCConfig(replications=10, master_seed=16, horizon=20)
    calls = (
        lambda: estimate_bayes_delay(detector, 19.0, (0,), (1.0,), math.nan, mc),
        lambda: estimate_conditional_delay(
            detector, 19.0, ChangeSpec(nu=0, subset=(0,)), math.nan, mc
        ),
        lambda: estimate_average_risk(detector, 19.0, 0.1, math.nan, mc),
    )
    for call in calls:
        with pytest.raises(ValueError, match="moment order"):
            call()
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="delay cost"):
            estimate_average_risk(detector, 19.0, c, 1, mc)


class InProcessExecutor:
    """Stands in for ``ProcessPoolExecutor``: records its size, starts no process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every executor ``simulate_runs`` builds, in order."""
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: InProcessExecutor(sizes, max_workers),
    )
    return sizes


def test_a_pool_never_starts_more_processes_than_a_pass_has_spans(pool_sizes, monkeypatch):
    detector = make_detector()
    mc = MCConfig(replications=10, master_seed=4, horizon=60, workers=16)
    monkeypatch.setattr(montecarlo, "_CHUNK", 5)  # two spans
    records = simulate_runs(detector, 19.0, mc, NO_CHANGE_SAMPLER)
    assert pool_sizes == [2]
    serial = simulate_runs(detector, 19.0, MCConfig(10, 4, 60, workers=1), NO_CHANGE_SAMPLER)
    assert pool_sizes == [2]  # one worker: no pool at all
    np.testing.assert_array_equal(records.stopped, serial.stopped)


def test_a_sweep_checks_every_level_and_the_rate_before_its_first_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(montecarlo, "simulate_runs", lambda *args: calls.append(args))
    mc = MCConfig(replications=10, master_seed=4, horizon=60)
    with pytest.raises(ValueError, match="alpha"):  # the third level is infeasible
        asymptotic_ratio_sweep(make_detector(), [0.1, 0.01, 1.5], 1, mc, (0,), (1.0,))
    with pytest.raises(ValueError, match="I \\+ mu > 0"):  # no information, no tail rate
        asymptotic_ratio_sweep(make_detector("sr-mixture"), [0.1], 1, mc, (0,), (0.0,))
    assert calls == []


def test_a_sweep_shares_one_pool_across_its_levels(pool_sizes, monkeypatch):
    detector = make_detector()
    monkeypatch.setattr(montecarlo, "_CHUNK", 5)
    rates = []
    real = Detector.first_order_rate
    monkeypatch.setattr(
        Detector, "first_order_rate", lambda self, *args: rates.append(1) or real(self, *args)
    )
    # P(nu > 150) = 0.9^151 is below 1e-3 * 0.001, so every PFA pass resolves
    mc = MCConfig(replications=10, master_seed=4, horizon=150, workers=2)
    rows = asymptotic_ratio_sweep(detector, [0.1, 0.01, 0.001], 1, mc, (0,), (1.0,))
    assert len(rows) == 3 and pool_sizes == [2]  # the 3 delay and 3 PFA passes
    assert len(rates) == 1  # and one I + mu


def test_a_sweep_joins_its_pool_when_the_pfa_horizon_is_infeasible(monkeypatch):
    passes, built = [], []
    simulate, executor = montecarlo.simulate_runs, concurrent.futures.ProcessPoolExecutor

    def counting(detector, threshold, mc, sampler):
        passes.append(sampler is NO_CHANGE_SAMPLER)
        return simulate(detector, threshold, mc, sampler)

    monkeypatch.setattr(montecarlo, "simulate_runs", counting)
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda **kw: built.append(kw) or executor(**kw)
    )
    monkeypatch.setattr(montecarlo, "_CHUNK", 50)  # 3 spans of 150 replications
    # P(nu > 20) = 0.9^21 is not negligible, and no-change runs outlast 20 steps
    mc = MCConfig(replications=150, master_seed=12, horizon=20, workers=2)
    with pytest.raises(InfeasibleHorizonError):
        asymptotic_ratio_sweep(make_detector(), [0.1, 0.5], 1, mc, (0,), (1.0,))
    assert passes == [False, False, True]  # both delay passes, then the first PFA pass
    assert built == [{"max_workers": 2}]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_a_threshold_from_outside_is_checked_before_any_data(monkeypatch, a):
    """``simulate_runs`` and the calibration routes share one ``0 < A < inf`` rule."""
    def no_generation(*args):
        raise AssertionError("data was generated before the threshold was checked")

    monkeypatch.setattr(Scenario, "generate", no_generation)
    mc = MCConfig(replications=10, master_seed=4, horizon=20)
    with pytest.raises(ValueError, match="threshold must be positive and finite"):
        check_threshold(a)
    for kind in ("shiryaev-mixture", "sr-mixture"):
        with pytest.raises(ValueError, match=f"threshold must be positive and finite, got {a}$"):
            simulate_runs(make_detector(kind), a, mc, NO_CHANGE_SAMPLER)
    with pytest.raises(ValueError, match="finite"):
        estimate_pfa(make_detector("sr-mixture"), a, mc)


def test_a_shiryaev_threshold_must_exceed_the_head_odds_before_any_data(monkeypatch):
    def no_generation(*args):
        raise AssertionError("data was generated before the threshold was checked")

    monkeypatch.setattr(Scenario, "generate", no_generation)
    mc = MCConfig(replications=10, master_seed=4, horizon=20)
    detector = make_detector(q=0.5)  # head odds q/(1-q) = 1
    for a in (0.9, 1.0):
        with pytest.raises(ValueError, match=r"Shiryaev threshold must exceed q/\(1-q\) = 1$"):
            simulate_runs(detector, a, mc, NO_CHANGE_SAMPLER)
    assert make_detector("sr-mixture", q=0.5).log_level(0.9) == math.log(0.9)
