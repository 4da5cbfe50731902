"""Both engines against an exact evaluation of the mixture statistic.

The reference evaluates the paper's statistic

    S(n) = [q * Lambda(0, n) + sum_{k=0}^{n-1} pi_k * Lambda(k, n)] / P(nu >= n),
    Lambda(k, n) = sum_B p_B sum_theta W(theta) exp(sum_{t=k+1}^{n} sum_{i in B} x_t[theta, i]),

in the standard library's ``decimal`` at 50 significant digits.  Every float
input (the increments ``x``, the per-stream weights ``p_i``, the grid weights
``W``, the prior's ``q`` and ``rho``, the head start ``omega``) is converted
exactly, the subsets are enumerated, and the sum over change points is the
exact identity ``sum_k pi_k Lambda(k, n) = e^{L(n)} sum_k pi_k e^{-L(k)}`` of
each component's cumulative log LR ``L``.  Under flat weights (``pi_k = 1``,
``P(nu >= n) = 1``, ``q = omega``) it is the Shiryaev-Roberts statistic.  No
package code enters the reference, so it does not move when the engines'
float arithmetic does.

The error of a float value ``v`` of ``log S`` is measured in units of
``eps * max(1, |log S|)`` with ``eps = 2**-52``: ulps of ``|log S|``, or of 1
where the statistic is near 1.  Each step of an engine rounds its components,
whose dominant ones sit within ``log(S * P)`` of ``log S``, a few times, so
the error can grow with the step count; ``BOUND_ULPS`` allows about one unit
per step over the longest horizon here, several times the largest error
either engine shows.
"""

import decimal
import math
from decimal import Decimal
from itertools import combinations

import numpy as np
import pytest

from qcdetect import DetectorState, FlatWeights, GeometricPrior, GridSpec, SubsetWeights

#: Significant digits of the reference arithmetic.
DIGITS = 50

#: Allowed error of log S, in ulps of max(1, |log S|), at any step up to 60.
BOUND_ULPS = 64

EPS = 2.0**-52

# name: (p, K, grid amplitudes, grid weights, horizon, mean before, mean after, change step)
CASES = {
    "n2-k1-p2": ((1.0, 0.4), 1, (0.5, 1.0), (0.25, 0.75), 30, -0.3, 0.6, 10),
    "n3-k2-p2": ((1.0, 0.6, 1.7), 2, (0.5, 1.0), (0.5, 0.5), 40, -0.5, 0.5, 20),
    "n4-k4-p1": ((1.0, 1.0, 1.0, 1.0), 4, (1.0,), (1.0,), 60, -0.4, 0.3, 30),
    # strong evidence from the start: log S passes 700 within the horizon
    "n4-k3-p2-large": ((0.7, 1.3, 1.0, 2.0), 3, (0.8, 1.6), (0.5, 0.5), 60, 4.0, 4.0, 0),
}

WEIGHTINGS = {
    "geometric": GeometricPrior(rho=0.05, q=0.0),
    "geometric-head": GeometricPrior(rho=0.2, q=0.3),
    "flat": FlatWeights(0.0),
    "flat-head": FlatWeights(1.5),
}

REPLICATIONS = 3


def case_increments(name):
    """Per-step increments ``[R, T, P, N]``: Gaussian, with the mean shifting at the change step."""
    p, _, amplitudes, _, horizon, before, after, change = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    shape = (REPLICATIONS, horizon, len(amplitudes), len(p))
    mean = np.where(np.arange(horizon) < change, before, after)[None, :, None, None]
    return mean + rng.normal(size=shape)


def exact_law(weighting):
    """``(q, pi_k, P(nu >= n))`` of a weighting, in exact decimal arithmetic."""
    if isinstance(weighting, FlatWeights):
        return Decimal(weighting.omega), lambda k: Decimal(1), lambda n: Decimal(1)
    q, rho = Decimal(weighting.q), Decimal(weighting.rho)
    return q, lambda k: (1 - q) * rho * (1 - rho) ** k, lambda n: (1 - q) * (1 - rho) ** n


def exact_log_statistic(increments, p, K, grid_weights, weighting):
    """log S(n) for n = 1..T of one path ``[T, P, N]``, as ``Decimal``s."""
    horizon, n_points, n_streams = increments.shape
    q, mass, tail = exact_law(weighting)
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        x = [[[Decimal(v) for v in row] for row in step] for step in increments.tolist()]
        subsets = [b for size in range(1, K + 1) for b in combinations(range(n_streams), size)]
        products = [math.prod((Decimal(p[i]) for i in b), start=Decimal(1)) for b in subsets]
        total = sum(products)
        components = [
            (b, point, products[s] / total * Decimal(grid_weights[point]))
            for s, b in enumerate(subsets)
            for point in range(n_points)
        ]
        cumulative = [Decimal(0)] * len(components)  # L(n) of each component
        discounted = [Decimal(0)] * len(components)  # sum_{k < n} pi_k e^{-L(k)}
        values = []
        for n in range(1, horizon + 1):
            statistic = Decimal(0)
            for c, (b, point, weight) in enumerate(components):
                discounted[c] += mass(n - 1) * (-cumulative[c]).exp()
                cumulative[c] += sum(x[n - 1][point][i] for i in b)
                statistic += weight * cumulative[c].exp() * (q + discounted[c])
            values.append((statistic / tail(n)).ln())
    return values


def engine_log_statistic(increments, weighting, grid, weights, window_m1):
    """The engine's log S(n) ``[R, T]``: the recursion, or the window engine over the whole path."""
    n_reps, horizon = increments.shape[:2]
    state = DetectorState(weighting, grid, weights, n_reps=n_reps, window_m1=window_m1)
    values = np.empty((n_reps, horizon))
    for t in range(horizon):
        values[:, t] = state.advance(increments[:, t]).log_shiryaev()
    return values


def errors_in_ulps(got, exact):
    """|got - exact| in units of eps * max(1, |exact|), elementwise over one path."""
    return [
        float(abs(Decimal(float(v)) - e) / (Decimal(EPS) * max(Decimal(1), abs(e))))
        for v, e in zip(got, exact)
    ]


@pytest.fixture(scope="module")
def exact_values():
    """The reference of every (case, weighting), computed once for both engines."""
    cache = {}

    def get(case, weighting_name):
        key = (case, weighting_name)
        if key not in cache:
            p, K, _, grid_weights, *_ = CASES[case]
            cache[key] = [
                exact_log_statistic(path, p, K, grid_weights, WEIGHTINGS[weighting_name])
                for path in case_increments(case)
            ]
        return cache[key]

    return get


def test_reference_matches_the_closed_form_of_one_step():
    # one stream, one point: S(1) = L(1) * (q + pi_0) / P(nu >= 1), exactly
    prior = GeometricPrior(rho=0.25, q=0.1)
    x = np.array([[[0.75]]])
    (got,) = exact_log_statistic(x, (1.0,), 1, (1.0,), prior)
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        q, rho = Decimal(0.1), Decimal(0.25)
        expected = Decimal(0.75) + ((q + (1 - q) * rho) / ((1 - q) * (1 - rho))).ln()
        assert abs(got - expected) < Decimal(10) ** (5 - DIGITS)


def test_large_case_passes_log_700(exact_values):
    assert max(max(path) for path in exact_values("n4-k3-p2-large", "geometric")) > 700


@pytest.mark.parametrize("engine", ["recursion", "window"])
@pytest.mark.parametrize("weighting_name", sorted(WEIGHTINGS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_within_bound_of_exact_statistic(case, weighting_name, engine, exact_values):
    p, K, amplitudes, grid_weights, horizon, *_ = CASES[case]
    grid = GridSpec.common_amplitude(amplitudes, len(p), weights=grid_weights)
    weights = SubsetWeights(p=p, K=K)
    increments = case_increments(case)
    got = engine_log_statistic(
        increments,
        WEIGHTINGS[weighting_name],
        grid,
        weights,
        window_m1=None if engine == "recursion" else horizon,
    )
    for row, exact in zip(got, exact_values(case, weighting_name)):
        errors = errors_in_ulps(row, exact)
        for n, error in enumerate(errors, start=1):
            assert error <= BOUND_ULPS, (
                f"log S({n}) = {row[n - 1]!r} is {error:.1f} ulps from {exact[n - 1]}"
            )
