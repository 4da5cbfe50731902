"""Acceptance criteria: bound checks, exact-oracle equivalences, trend checks.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Tolerances are fixed here, not calibrated: bounds use 3 standard errors,
exact oracles use absolute log-scale gaps, and first-order trend checks use
the stated ratio bands.
"""

import math
import time

import numpy as np

from qcdetect import (
    ChangeSpec,
    Detector,
    GeometricPrior,
    GridSpec,
    MCConfig,
    MixtureChannelSpec,
    Scenario,
    SubsetWeights,
    asymptotic_ratio_sweep,
    d_constant,
    estimate_average_risk,
    estimate_kl_slope,
    estimate_pfa,
    gaussian_stream,
    mixture_lr_dp,
    mixture_lr_enumerate,
    posterior_no_change,
    replication_rng,
    threshold_cost,
    threshold_shiryaev,
    threshold_sr,
)
from qcdetect.likelihood import SubsetWeights as Weights
from qcdetect.scenarios import ARChannelSpec
from qcdetect.statistics import DetectorState, FlatWeights, direct_log_statistic
from qcdetect.verify import posterior_direct_bayes


def report(cid: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPT-{cid} {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


def three_stream_setup():
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(3)))
    grid = GridSpec.common_amplitude([0.5, 1.0], 3)
    weights = SubsetWeights.uniform(3, 3)
    prior = GeometricPrior(rho=0.1)
    return scenario, grid, weights, prior


def single_stream_setup(rho=0.01):
    scenario = Scenario((gaussian_stream(theta=1.0),))
    grid = GridSpec.degenerate((1.0,))
    weights = SubsetWeights.uniform(1)
    prior = GeometricPrior(rho=rho)
    return scenario, grid, weights, prior


def dual_scenarios():
    ar = Scenario(
        (
            ARChannelSpec(coeffs=(0.5,), sigma=1.0, signal=(1.0,), theta=0.8),
            ARChannelSpec(coeffs=(0.3, 0.2), sigma=0.8, signal=(1.0, 0.0, 0.5), theta=0.9),
        )
    )
    mixture = Scenario(
        (
            MixtureChannelSpec(beta_mix=0.3, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.7),
            MixtureChannelSpec(beta_mix=0.5, mu1=3.0, mu2=0.5, sigma=1.2, theta=1.0),
        )
    )
    grid = GridSpec(theta_points=((0.5, 0.6), (1.0, 0.9)), weights=(0.6, 0.4))
    weights = SubsetWeights(p=(1.0, 1.5), K=2)
    prior = GeometricPrior(rho=0.1, q=0.05)
    return [("ar", ar), ("mixture", mixture)], grid, weights, prior


def test_01_pfa_bound_shiryaev():
    scenario, grid, weights, prior = three_stream_setup()
    alpha = 0.005
    detector = Detector("shiryaev-mixture", scenario, prior, grid, weights)
    mc = MCConfig(replications=10_000, master_seed=101, horizon=500)
    start = time.perf_counter()
    est = estimate_pfa(detector, 199.0, mc, alpha=alpha)
    elapsed = time.perf_counter() - start
    surrogate_valid = prior.tail(mc.horizon + 1) < 1e-3 * alpha
    ok = (
        est.mean <= alpha + 3 * est.stderr
        and est.censored_fraction < 0.001
        and surrogate_valid
        and elapsed < 60.0
    )
    assert report(
        "01",
        ok,
        f"Shiryaev PFA {est.mean:.5f} <= {alpha} + 3*{est.stderr:.5f}; "
        f"censored {est.censored_fraction:.4%} < 0.1%; {elapsed:.1f}s < 60s",
    )


def test_02_pfa_bound_sr():
    scenario, grid, weights, prior = three_stream_setup()
    alpha = 0.01
    a = threshold_sr(alpha, 0.0, prior)
    detector = Detector("sr-mixture", scenario, prior, grid, weights)
    mc = MCConfig(replications=10_000, master_seed=102, horizon=500)
    est = estimate_pfa(detector, a, mc, alpha=alpha)
    ok = est.mean <= alpha + 3 * est.stderr
    assert report(
        "02", ok, f"SR PFA {est.mean:.5f} <= {alpha} + 3*{est.stderr:.5f} at A={a:g}"
    )


def test_03_sr_mean_identity():
    scenario, grid, weights, prior = single_stream_setup(rho=0.1)
    scenario = Scenario((gaussian_stream(theta=0.5),))
    grid = GridSpec.degenerate((0.5,))
    replications, horizon = 100_000, 50
    rng = np.random.default_rng(1000)
    data = rng.normal(0.0, 1.0, size=(replications, horizon, 1))
    increments = scenario.log_lr_increments(data, grid.points)
    checkpoints = (1, 10, 50)
    all_ok, details = True, []
    for omega in (0.0, 3.0):
        state = DetectorState(FlatWeights(omega), grid, weights, n_reps=replications)
        for t in range(horizon):
            state.advance(increments[:, t])
            n = t + 1
            if n in checkpoints:
                values = np.exp(state.log_shiryaev())
                se = values.std(ddof=1) / math.sqrt(replications)
                gap = abs(values.mean() - (omega + n))
                all_ok &= gap <= 3 * se
                details.append(f"w={omega:g},n={n}: |gap|={gap:.3f}<=3SE={3 * se:.3f}")
    assert report("03", all_ok, "E[R(n)]=w+n: " + "; ".join(details))


def test_04_recursion_vs_direct_oracle():
    setups, grid, weights, prior = dual_scenarios()
    n_seeds, horizon = 100, 200
    worst = 0.0
    for label, scenario in setups:
        data = scenario.generate(
            [ChangeSpec(nu=20, subset=(0, 1))] * n_seeds,
            horizon,
            [replication_rng(104, r) for r in range(n_seeds)],
        )
        increments = scenario.log_lr_increments(data, grid.points)
        state_s = DetectorState(prior, grid, weights, n_reps=n_seeds)
        state_r = DetectorState(FlatWeights(1.5), grid, weights, n_reps=n_seeds)
        for t in range(horizon):
            state_s.advance(increments[:, t])
            state_r.advance(increments[:, t])
            history = increments[:, : t + 1]
            log_s = direct_log_statistic(history, prior, grid, weights, n=t + 1)
            log_r = direct_log_statistic(history, FlatWeights(1.5), grid, weights, n=t + 1)
            worst = max(worst, np.max(np.abs(state_s.log_shiryaev() - log_s)))
            worst = max(worst, np.max(np.abs(state_r.log_shiryaev() - log_r)))
    ok = worst <= 1e-9
    assert report("04", ok, f"max |log recursive - log direct| = {worst:.3g} <= 1e-9")


def test_05_mixture_lr_oracle():
    rng = np.random.default_rng(105)
    worst = 0.0
    for n in range(1, 13):
        for K in range(1, n + 1):
            for _ in range(50):
                w = Weights(p=tuple(rng.uniform(0.1, 2.5, n)), K=K)
                llr = rng.uniform(-20.0, 20.0, n)
                worst = max(
                    worst, abs(mixture_lr_dp(llr, w) - mixture_lr_enumerate(llr, w))
                )
    worst_prod = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        w = Weights(p=tuple(rng.uniform(0.2, 2.0, n)), K=n)
        llr = rng.uniform(-20.0, 20.0, n)
        t = np.logaddexp(0.0, w.log_p + llr).sum()
        log_expm1 = math.log(math.expm1(t)) if t < 30.0 else t + math.log1p(-math.exp(-t))
        worst_prod = max(worst_prod, abs(mixture_lr_dp(llr, w) - (w.log_normalizer + log_expm1)))
    ok = worst <= 1e-9 and worst_prod <= 1e-10
    assert report(
        "05",
        ok,
        f"DP vs enumeration {worst:.3g} <= 1e-9 (N<=12); product form {worst_prod:.3g} <= 1e-10",
    )


def test_06_posterior_identity():
    setups, grid, weights, prior = dual_scenarios()
    horizon = 100
    worst = 0.0
    for label, scenario in setups:
        for path in range(10):
            rng = replication_rng(106, path)
            data = scenario.generate([ChangeSpec(nu=15, subset=(0, 1))], horizon, [rng])[0]
            oracle = posterior_direct_bayes(scenario, data, prior, grid, weights)
            increments = scenario.log_lr_increments(data, grid.points)
            state = DetectorState(prior, grid, weights)
            for t in range(horizon):
                state.advance(increments[None, t])
                posterior = posterior_no_change(state.log_shiryaev())
                worst = max(worst, abs(posterior[0] - oracle[t]))
    ok = worst <= 1e-9
    assert report("06", ok, f"max |1/(S+1) - direct Bayes| = {worst:.3g} <= 1e-9 (20 paths)")


def test_07_mixture_telescoping():
    channel = MixtureChannelSpec(beta_mix=0.4, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.6)
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(0, n))
        x = rng.normal(0.3, 1.0, n)
        inc = channel.log_lr_increments(x, np.array([0.6]))[:, 0]
        # closed form: sum of mean-shift terms plus the collapsing mixture-gap term
        v = channel.beta_mix / (1.0 - channel.beta_mix)
        g = np.exp(np.cumsum(channel._log_component_ratio(x)))
        g = np.concatenate([[1.0], g])
        l2 = 0.6 * x - 0.18
        closed = l2[k:n].sum() + math.log(1.0 + v * g[k]) - math.log(1.0 + v * g[n])
        worst = max(worst, abs(inc[k:n].sum() - closed))
    ok = worst <= 1e-10
    assert report("07", ok, f"max |sum increments - closed-form log LR| = {worst:.3g} <= 1e-10")


def test_08_kl_slope_diagnostics():
    ar = ARChannelSpec(coeffs=(0.5,), sigma=1.0, signal=(1.0,), theta=1.0)
    ar_target = ar.kl_rate(1.0)
    ar_est = estimate_kl_slope(ar, 1.0, 10_000, 200, master_seed=108)
    mix = MixtureChannelSpec(beta_mix=0.3, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.8)
    mix_target = mix.kl_rate(0.8)
    mix_est = estimate_kl_slope(mix, 0.8, 10_000, 200, master_seed=108)
    ar_err = abs(ar_est.mean - ar_target) / ar_target
    mix_err = abs(mix_est.mean - mix_target) / mix_target
    ok = ar_err <= 0.05 and mix_err <= 0.05
    assert report(
        "08",
        ok,
        f"slope vs analytic rate: AR rel err {ar_err:.4f} <= 5%, mixture {mix_err:.4f} <= 5%",
    )


def _trend_ok(rows):
    monotone = all(
        rows[i + 1].ratio
        <= rows[i].ratio + 2 * math.hypot(rows[i].ratio_se, rows[i + 1].ratio_se)
        for i in range(len(rows) - 1)
    )
    final = rows[-1].ratio
    return monotone, final, monotone and 0.8 <= final <= 1.5


def test_09_first_order_delay_trend():
    scenario, grid, weights, prior = single_stream_setup(rho=0.01)
    alphas = [1e-1, 1e-2, 1e-3, 1e-4]
    mc = MCConfig(replications=5000, master_seed=109, horizon=2200)
    start = time.perf_counter()
    rows_s, rows_r = (
        asymptotic_ratio_sweep(
            Detector(kind, scenario, prior, grid, weights),
            alphas, 1, mc, (0,), (1.0,),
        )
        for kind in ("shiryaev-mixture", "sr-mixture")
    )
    elapsed = time.perf_counter() - start
    mono_s, final_s, ok_s = _trend_ok(rows_s)
    mono_r, final_r, ok_r = _trend_ok(rows_r)
    censor_ok = all(r.censored_fraction < 0.01 for r in rows_s + rows_r)
    ok = ok_s and ok_r and censor_ok and elapsed < 600.0
    assert report(
        "09",
        ok,
        f"Shiryaev ratios {[f'{r.ratio:.3f}' for r in rows_s]} (monotone={mono_s}, "
        f"final={final_s:.3f} in [0.8,1.5]); SR ratios "
        f"{[f'{r.ratio:.3f}' for r in rows_r]} (monotone={mono_r}, final={final_r:.3f}); "
        f"{elapsed:.0f}s < 600s",
    )


def test_10_cost_threshold_and_average_risk():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(20):
        c = 10.0 ** rng.uniform(-6, -2)
        r = float(rng.integers(1, 4))
        d = 10.0 ** rng.uniform(-1, 1)
        a = threshold_cost(c, r, d)
        worst = max(worst, abs(r * d * a * math.log(a) ** (r - 1) - 1.0 / c) * c)
    scenario, grid, weights, prior = single_stream_setup(rho=0.01)
    mu = prior.tail_rate
    d_value = d_constant(weights, grid, scenario.kl_per_stream(grid.points), mu, 1)
    c = 1e-4
    a = threshold_cost(c, 1, d_value)
    detector = Detector("shiryaev-mixture", scenario, prior, grid, weights)
    mc = MCConfig(replications=4000, master_seed=110, horizon=2200)
    risk = estimate_average_risk(detector, a, c, 1, mc)
    target = d_value * c * abs(math.log(c))
    ratio = risk.mean / target
    ok = worst <= 1e-10 and 0.7 <= ratio <= 1.5
    assert report(
        "10",
        ok,
        f"cost-equation residual {worst:.3g} <= 1e-10 (20 draws); "
        f"risk/first-order = {ratio:.3f} in [0.7, 1.5] at c=1e-4",
    )


def test_11_window_limited_behavior():
    scenario, grid, weights, prior = single_stream_setup(rho=0.1)
    # (a) a window covering the whole past follows the identical arithmetic path
    rng = replication_rng(111, 0)
    data = scenario.generate([ChangeSpec(nu=30, subset=(0,))], 100, [rng])[0]
    increments = scenario.log_lr_increments(data, grid.points)
    state_s = DetectorState(prior, grid, weights, window_m1=150)
    state_r = DetectorState(FlatWeights(0.7), grid, weights, window_m1=150)
    identical = True
    for t in range(100):
        state_s.advance(increments[None, t])
        state_r.advance(increments[None, t])
        full_s = direct_log_statistic(increments[: t + 1], prior, grid, weights, n=t + 1)
        full_r = direct_log_statistic(
            increments[: t + 1], FlatWeights(0.7), grid, weights, n=t + 1
        )
        identical &= state_s.log_shiryaev()[0] == full_s and state_r.log_shiryaev()[0] == full_r
    # (b) m1 = 20 < n = 100 changes strong-signal delays by at most one step
    a = threshold_shiryaev(1e-2)
    full = Detector("shiryaev-mixture", scenario, prior, grid, weights)
    windowed = Detector("shiryaev-mixture", scenario, prior, grid, weights, window_m1=20)
    n_pairs = 1000
    data = scenario.generate(
        [ChangeSpec(nu=0, subset=(0,))] * n_pairs,
        100,
        [replication_rng(111, r) for r in range(n_pairs)],
    )
    t_full = full.stopping_times(data, [math.log(a)])[:, 0]
    t_win = windowed.stopping_times(data, [math.log(a)])[:, 0]
    both = (t_full > 0) & (t_win > 0)
    close = float(np.mean(both & (np.abs(t_full - t_win) <= 1)))
    ok = identical and close >= 0.95
    assert report(
        "11",
        ok,
        f"m1>=n bit-identical: {identical}; windowed delay within 1 step on "
        f"{close:.1%} >= 95% of {n_pairs} paired runs",
    )


def test_12_worker_count_determinism():
    scenario, grid, weights, prior = three_stream_setup()
    alpha = 0.01
    detector = Detector("sr-mixture", scenario, prior, grid, weights)
    a = threshold_sr(alpha, 0.0, prior)
    base = dict(replications=10_000, master_seed=102, horizon=500)
    serial = estimate_pfa(detector, a, MCConfig(workers=1, **base), alpha=alpha)
    parallel = estimate_pfa(detector, a, MCConfig(workers=2, **base), alpha=alpha)
    ok = serial == parallel
    assert report(
        "12",
        ok,
        f"criterion-02 estimator with 1 vs 2 workers bit-identical: {ok} "
        f"(mean {serial.mean!r} vs {parallel.mean!r})",
    )
