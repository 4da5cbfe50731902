"""Self-check suites: exact oracles that cross-validate the statistic machinery.

Each suite rebuilds the quantity under test along an independent route:

* ``recursion-direct`` — the one-step recursions against direct summation over
  candidate change points;
* ``dp-enumeration`` — the symmetric-polynomial mixture against full subset
  enumeration;
* ``posterior-identity`` — ``1 / (S + 1)`` against a Bayes posterior computed
  from raw joint log densities (no likelihood ratios, no recursion);
* ``sr-mean`` — the no-change mean identity E[R(n)] = omega + n;
* ``telescoping`` — summed mixture-channel increments against the closed-form
  log likelihood ratio evaluated from the pre/post predictive densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import statistics
from .likelihood import (
    SubsetWeights,
    log_subset_weights,
    mixture_lr_dp,
    mixture_lr_enumerate,
    subset_masks,
)
from .model import ChangeSpec, PriorSpec
from .scenarios import (
    ARChannelSpec,
    MixtureChannelSpec,
    Scenario,
    gaussian_stream,
)
from .statistics import DetectorState, FlatWeights, GridSpec


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def posterior_direct_bayes(
    scenario: Scenario,
    data: np.ndarray,
    prior: PriorSpec,
    grid: GridSpec,
    weights: SubsetWeights,
) -> np.ndarray:
    """P(nu >= n | data) for n = 1..T, from raw joint log densities.

    Builds the joint density of the data under every hypothesis (change at k
    in subset B with grid parameters theta, or no change yet) and applies the
    Bayes rule directly.  This never forms likelihood ratios or running
    statistics, so it is an independent oracle for the posterior identity.
    """
    data = np.asarray(data, dtype=float)
    horizon, n_streams = data.shape
    points = grid.points
    masks = subset_masks(weights.n_streams, weights.K)
    log_p_subset = log_subset_weights(weights, masks)
    log_w = grid.log_weights
    # cumulative per-stream log densities, index t = number of observations
    cg = np.zeros((n_streams, horizon + 1))
    cf = np.zeros((grid.n_points, n_streams, horizon + 1))
    for i, channel in enumerate(scenario.channels):
        cg[i, 1:] = np.cumsum(channel.log_predictive_pre(data[:, i]))
        for p in range(grid.n_points):
            cf[p, i, 1:] = np.cumsum(
                channel.log_predictive_post(data[:, i], points[p, i])
            )
    masks_f = masks.astype(float)
    out = np.empty(horizon)
    for n in range(1, horizon + 1):
        total_pre = cg[:, n].sum()
        # joint(k, B, p) = sum_{i not in B} cg[i, n] + sum_{i in B} cf[p, i, n]
        #                  + sum_{i in B} (cg[i, k] - cf[p, i, k])
        top = (total_pre - masks_f @ cg[:, n])[:, None] + masks_f @ cf[:, :, n].T
        gap = cg[:, :n][None, :, :] - cf[:, :, :n]  # [P, N, n]
        swing = np.einsum("sn,pnk->spk", masks_f, gap)  # [S, P, n] over k = 0..n-1
        log_joint = top[:, :, None] + swing
        log_pi = np.array([prior.log_mass(k) for k in range(n)])
        weight = log_p_subset[:, None, None] + log_w[None, :, None] + log_pi[None, None, :]
        terms = [logsumexp(log_joint + weight)]
        if prior.q > 0.0:
            head = logsumexp(
                log_joint[:, :, 0] + log_p_subset[:, None] + log_w[None, :]
            ) + math.log(prior.q)
            terms.append(head)
        log_num = prior.log_tail(n) + total_pre
        log_den = logsumexp(np.array(terms + [log_num]))
        out[n - 1] = math.exp(log_num - log_den)
    return out


# -- reference configurations used by the suites --------------------------------


def _ar_scenario() -> Scenario:
    return Scenario(
        (
            ARChannelSpec(coeffs=(0.5,), sigma=1.0, signal=(1.0,), theta=0.8),
            ARChannelSpec(coeffs=(0.3, 0.2), sigma=0.8, signal=(1.0, 0.0, 0.5), theta=0.9),
        )
    )


def _mixture_scenario() -> Scenario:
    return Scenario(
        (
            MixtureChannelSpec(beta_mix=0.3, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.7),
            MixtureChannelSpec(beta_mix=0.5, mu1=3.0, mu2=0.5, sigma=1.2, theta=1.0),
        )
    )


def _reference_setups():
    grid = GridSpec(theta_points=((0.5, 0.7), (1.0, 0.9)), weights=(0.6, 0.4))
    weights = SubsetWeights(p=(1.0, 1.5), K=2)
    prior = PriorSpec.geometric(rho=0.1, q=0.05)
    return [
        ("ar", _ar_scenario(), grid, weights, prior),
        ("mixture", _mixture_scenario(), grid, weights, prior),
    ]


def _simulate(scenario, horizon, rng, nu=8):
    change = ChangeSpec(nu=nu, subset=(0, 1))
    return scenario.generate([change], horizon, [rng])[0]


# -- suites ----------------------------------------------------------------------


def suite_recursion_direct(seed: int = 0, n_seeds: int = 10, horizon: int = 60):
    """Recursive vs direct-sum evaluation of both statistics, both scenarios."""
    results = []
    for label, scenario, grid, weights, prior in _reference_setups():
        for rule, letter, weighting in (("shiryaev", "S", prior), ("sr", "R", FlatWeights(1.5))):
            worst = 0.0
            for k in range(n_seeds):
                rng = np.random.default_rng(seed + 1000 * k)
                data = _simulate(scenario, horizon, rng)
                increments = scenario.log_lr_increments(data, grid.points)
                state = DetectorState(weighting, grid, weights)
                for t in range(horizon):
                    state.advance(increments[None, t])
                    direct = statistics.direct_log_statistic(
                        increments[: t + 1], weighting, grid, weights, n=t + 1
                    )
                    worst = max(worst, abs(float(state.log_shiryaev()[0]) - float(direct)))
            results.append(
                CheckResult(
                    "recursion-direct",
                    f"{label}-{rule}",
                    worst <= 1e-9,
                    f"max |log {letter}_rec - log {letter}_direct| = {worst:.3g}",
                )
            )
    return results


def suite_dp_enumeration(seed: int = 0, draws: int = 20):
    """Polynomial-time mixture LR vs exhaustive subset enumeration."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, 11):
        for K in range(1, n + 1):
            for _ in range(draws):
                weights = SubsetWeights(p=tuple(rng.uniform(0.2, 2.0, n)), K=K)
                llr = rng.uniform(-20.0, 20.0, n)
                diff = abs(mixture_lr_dp(llr, weights) - mixture_lr_enumerate(llr, weights))
                worst = max(worst, diff)
    results = [
        CheckResult(
            "dp-enumeration",
            "dp-vs-enumeration",
            worst <= 1e-9,
            f"max |log Lambda_dp - log Lambda_enum| = {worst:.3g}",
        )
    ]
    # product identity for K = N: Lambda = C * (prod(1 + p_i LR_i) - 1)
    worst_prod = 0.0
    for _ in range(draws):
        n = int(rng.integers(1, 9))
        weights = SubsetWeights(p=tuple(rng.uniform(0.2, 2.0, n)), K=n)
        llr = rng.uniform(-30.0, 30.0, n)
        t = np.logaddexp(0.0, weights.log_p + llr).sum()
        log_expm1 = math.log(math.expm1(t)) if t < 30.0 else t + math.log1p(-math.exp(-t))
        product_form = weights.log_normalizer + log_expm1
        worst_prod = max(worst_prod, abs(mixture_lr_dp(llr, weights) - product_form))
    results.append(
        CheckResult(
            "dp-enumeration",
            "product-identity",
            worst_prod <= 1e-10,
            f"max difference to product form = {worst_prod:.3g}",
        )
    )
    return results


def suite_posterior_identity(seed: int = 0, n_paths: int = 4, horizon: int = 40):
    """1 / (S + 1) against the joint-density Bayes posterior, pathwise."""
    results = []
    for label, scenario, grid, weights, prior in _reference_setups():
        worst = 0.0
        for k in range(n_paths):
            rng = np.random.default_rng(seed + 31 * k)
            data = _simulate(scenario, horizon, rng)
            oracle = posterior_direct_bayes(scenario, data, prior, grid, weights)
            increments = scenario.log_lr_increments(data, grid.points)
            state = DetectorState(prior, grid, weights)
            for t in range(horizon):
                state.advance(increments[None, t])
                posterior = statistics.posterior_no_change(state.log_shiryaev())
                worst = max(worst, abs(float(posterior[0]) - oracle[t]))
        results.append(
            CheckResult(
                "posterior-identity",
                label,
                worst <= 1e-9,
                f"max |1/(S+1) - Bayes posterior| = {worst:.3g}",
            )
        )
    return results


def suite_sr_mean(seed: int = 0, replications: int = 20000, horizon: int = 20):
    """No-change mean identity E[R(n)] = omega + n within 3 standard errors."""
    results = []
    channel = gaussian_stream(theta=0.5)
    scenario = Scenario((channel,))
    grid = GridSpec.degenerate((0.5,))
    weights = SubsetWeights.uniform(1)
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 1.0, size=(replications, horizon, 1))
    increments = scenario.log_lr_increments(data, grid.points)
    for omega in (0.0, 2.0):
        state = DetectorState(FlatWeights(omega), grid, weights, n_reps=replications)
        for t in range(horizon):
            state.advance(increments[:, t])
        values = np.exp(state.log_sr())
        se = float(np.std(values, ddof=1) / math.sqrt(replications))
        gap = abs(float(np.mean(values)) - (omega + horizon))
        passed = gap <= 3.0 * se
        detail = f"|mean - (omega + n)| = {gap:.3g} vs 3 SE = {3 * se:.3g}"
        results.append(CheckResult("sr-mean", f"omega={omega:g}", passed, detail))
    return results


def suite_telescoping(seed: int = 0, n_paths: int = 50, horizon: int = 50):
    """Mixture increments telescope to the closed-form log likelihood ratio."""
    channel = MixtureChannelSpec(beta_mix=0.4, mu1=2.0, mu2=0.0, sigma=1.0, theta=0.6)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_paths):
        x = rng.normal(0.3, 1.0, size=horizon)
        increments = channel.log_lr_increments(x, np.array([channel.theta]))[:, 0]
        log_f = channel.log_predictive_post(x, channel.theta)
        log_g = channel.log_predictive_pre(x)
        k = int(rng.integers(0, horizon - 1))
        n = int(rng.integers(k + 1, horizon + 1))
        closed = float(np.sum(log_f[k:n] - log_g[k:n]))
        worst = max(worst, abs(float(increments[k:n].sum()) - closed))
    return [
        CheckResult(
            "telescoping",
            "mixture-increments",
            worst <= 1e-10,
            f"max |sum(increments) - closed form| = {worst:.3g}",
        )
    ]


SUITES = {
    "recursion-direct": suite_recursion_direct,
    "dp-enumeration": suite_dp_enumeration,
    "posterior-identity": suite_posterior_identity,
    "sr-mean": suite_sr_mean,
    "telescoping": suite_telescoping,
}


def run_suites(names=None, seed: int = 0) -> list[CheckResult]:
    """Run the named suites (all of them by default) with the given seed.

    A suite that raises is reported as a failed check rather than crashing the
    harness; broken invariants often surface as exceptions first.
    """
    if names is None or names == ["all"] or names == "all":
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
        try:
            results.extend(SUITES[name](seed=seed))
        except Exception as exc:
            results.append(CheckResult(name, "error", False, f"suite raised: {exc!r}"))
    return results
