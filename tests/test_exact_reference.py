"""Both engines against an exact evaluation of the mixture statistic.

The reference evaluates the paper's statistic

    S(n) = [q * Lambda(0, n) + sum_{k=0}^{n-1} pi_k * Lambda(k, n)] / P(nu >= n),
    Lambda(k, n) = sum_B p_B sum_theta W(theta) exp(sum_{t=k+1}^{n} sum_{i in B} x_t[theta, i]),

in the standard library's ``decimal`` at 50 significant digits.  Every float
input (the increments ``x``, the per-stream weights ``p_i``, the grid weights
``W``, the prior's ``q`` and ``rho``, the head start ``omega``) is converted
exactly, the subsets are enumerated, and each term is the exact identity
``pi_k Lambda(k, n) = sum_c w_c e^{L_c(n)} pi_k e^{-L_c(k)}`` over the
components' cumulative log LRs ``L_c``.  Under flat weights (``pi_k = 1``,
``P(nu >= n) = 1``, ``q = omega``) it is the Shiryaev-Roberts statistic.  The
window-limited statistic keeps the change points ``k = n - min(n, m1 + 1) ..
n - 1 - m0`` of the sum, and the head term only when the window reaches the
origin.  No package code enters the reference, so it does not move when the
engines' float arithmetic does.

The error of a float value ``v`` of ``log S`` is measured in units of
``eps * max(1, |log S|)`` with ``eps = 2**-52``: ulps of ``|log S|``, or of 1
where the statistic is near 1.  Each step of an engine rounds its components,
whose dominant ones sit within ``log(S * P)`` of ``log S``, a few times, so
the error can grow with the step count; ``BOUND_ULPS`` allows about one unit
per step over the longest horizon here, several times the largest error
either engine shows.

A window shorter than ``n`` makes each value a fixed number of roundings
deep, whatever ``n``, each within an ulp of ``max(1, |log S|)``:

- at most ``m1 + 1`` suffix additions with ``log p_i`` (``m1 <= 10`` here);
- ``N K`` for the elementary-symmetric DP (``N K <= 16``): the log-add-exps
  of its log-domain form, which the kernel runs where a shifted ``e_j``
  would underflow; its linear-domain form rounds fewer times (the shift and
  exp of each input, a multiply and an add per stream, the log and ``+ j c``);
- about nine for the one fused log-sum-exp over (j, change point, point):
  the shift, the exp, the log and the shift added back, and its sum of at
  most ``K (m1 + 1) P = 88`` positive terms, which numpy adds in eight
  partial sums, at most 13 levels of half an ulp each.  The three
  log-sum-exps it replaced counted three roundings each;
- two scalar additions, the normalizer and ``log W``, in the weight table;
- and two roundings next to the log weights: the difference
  ``log pi_k - log P(nu >= n)`` in the table, and the table's addition to
  each term, each within ``|log pi_k| < 16`` ulps at ``n <= 60`` for the
  priors here.

``WINDOW_BOUND_ULPS`` is that count.  The fallback to the log-domain DP is
checked on its own, on two streams whose log LRs drift apart by more than
745 nats within a window.
"""

import decimal
import math
from decimal import Decimal
from itertools import combinations

import numpy as np
import pytest

from qcdetect import DetectorState, FlatWeights, GeometricPrior, GridSpec, SubsetWeights, likelihood

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

#: Windows ``(m1, m0)`` shorter than every horizon, with and without an offset.
WINDOWS = [(0, 0), (3, 0), (3, 2), (10, 0), (10, 2)]

#: Allowed error of log S under a window shorter than the horizon, in ulps of
#: max(1, |log S|): the rounding count of the module docstring.
WINDOW_BOUND_ULPS = (11 + 16 + 9 + 2) + 2 * 16


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


def exact_components(increments, p, K, grid_weights):
    """The (subset, point) components of one path ``[T, P, N]``, in ``decimal``.

    Each is ``(weight, growth)``: its joint weight ``p_B W(theta)`` and
    ``e^{L(n)}`` for ``n = 0..T``, where ``L`` is its cumulative log LR.
    """
    n_points, n_streams = increments.shape[1:]
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        x = [[[Decimal(v) for v in row] for row in step] for step in increments.tolist()]
        subsets = [b for size in range(1, K + 1) for b in combinations(range(n_streams), size)]
        products = [math.prod((Decimal(p[i]) for i in b), start=Decimal(1)) for b in subsets]
        total = sum(products)
        components = []
        for s, b in enumerate(subsets):
            for point in range(n_points):
                cumulative = [Decimal(0)]
                for step in x:
                    cumulative.append(cumulative[-1] + sum(step[point][i] for i in b))
                weight = products[s] / total * Decimal(grid_weights[point])
                components.append((weight, [c.exp() for c in cumulative]))
    return components


def exact_log_statistic(components, weighting, m1=None, m0=0):
    """log S(n) for n = 1..T from a path's ``exact_components``, as ``Decimal``s.

    Sums each component's ``pi_k e^{L(n)} / e^{L(k)}`` over every ``k < n``,
    or with a window ``m1`` over ``k = n - min(n, m1 + 1) .. n - 1 - m0``; the
    head term ``q Lambda(0, n)`` enters only when the window reaches the
    origin, as in ``direct_log_statistic``.  A statistic with no summand is 0,
    whose log is ``-Infinity``.
    """
    horizon = len(components[0][1]) - 1
    q, mass, tail = exact_law(weighting)
    values = []
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        masses = [mass(k) for k in range(horizon)]
        # pi_k e^{-L(k)} of each component, k < T
        scaled = [
            (weight, growth, [masses[k] / growth[k] for k in range(horizon)])
            for weight, growth in components
        ]
        for n in range(1, horizon + 1):
            m = n if m1 is None else min(n, m1 + 1)
            head = q if m == n else Decimal(0)
            ks = range(n - m, n - m0)
            statistic = sum(
                weight * growth[n] * (head + sum((discounted[k] for k in ks), Decimal(0)))
                for weight, growth, discounted in scaled
            )
            values.append((statistic / tail(n)).ln())
    return values


def engine_log_statistic(increments, weighting, grid, weights, window_m1, window_m0=0):
    """The engine's log S(n) ``[R, T]``: the recursion (no ``window_m1``) or the window engine."""
    n_reps, horizon = increments.shape[:2]
    state = DetectorState(
        weighting, grid, weights, n_reps=n_reps, window_m1=window_m1, window_m0=window_m0
    )
    values = np.empty((n_reps, horizon))
    for t in range(horizon):
        values[:, t] = state.advance(increments[:, t]).log_shiryaev()
    return values


def errors_in_ulps(got, exact):
    """|got - exact| in units of eps * max(1, |exact|), elementwise over one path.

    Where the exact statistic is 0 (log -Infinity), only ``-inf`` has no error.
    """
    return [
        (0.0 if v == -math.inf else math.inf)
        if e.is_infinite()
        else float(abs(Decimal(float(v)) - e) / (Decimal(EPS) * max(Decimal(1), abs(e))))
        for v, e in zip(got, exact)
    ]


@pytest.fixture(scope="module")
def exact_values():
    """The reference of every (case, weighting, window), each path's components built once."""
    components = {}
    cache = {}

    def get(case, weighting_name, m1=None, m0=0):
        p, K, _, grid_weights, *_ = CASES[case]
        if case not in components:
            components[case] = [
                exact_components(path, p, K, grid_weights) for path in case_increments(case)
            ]
        key = (case, weighting_name, m1, m0)
        if key not in cache:
            cache[key] = [
                exact_log_statistic(c, WEIGHTINGS[weighting_name], m1, m0)
                for c in components[case]
            ]
        return cache[key]

    return get


def assert_within(got, exact_paths, bound):
    for row, exact in zip(got, exact_paths):
        for n, error in enumerate(errors_in_ulps(row, exact), start=1):
            assert error <= bound, (
                f"log S({n}) = {row[n - 1]!r} is {error:.1f} ulps from {exact[n - 1]}"
            )


def case_model(case):
    p, K, amplitudes, grid_weights, *_ = CASES[case]
    grid = GridSpec.common_amplitude(amplitudes, len(p), weights=grid_weights)
    return grid, SubsetWeights(p=p, K=K)


def test_reference_matches_the_closed_form_of_one_step():
    # one stream, one point: S(1) = L(1) * (q + pi_0) / P(nu >= 1), exactly
    prior = GeometricPrior(rho=0.25, q=0.1)
    x = np.array([[[0.75]]])
    (got,) = exact_log_statistic(exact_components(x, (1.0,), 1, (1.0,)), prior)
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        q, rho = Decimal(0.1), Decimal(0.25)
        expected = Decimal(0.75) + ((q + (1 - q) * rho) / ((1 - q) * (1 - rho))).ln()
        assert abs(got - expected) < Decimal(10) ** (5 - DIGITS)


def test_reference_window_of_one_change_point():
    # m1 = 1, m0 = 1 at n = 3: only k = 1 is a candidate, and no head term
    prior = GeometricPrior(rho=0.25, q=0.1)
    x = np.array([[[0.75]], [[-0.5]], [[1.25]]])
    components = exact_components(x, (1.0,), 1, (1.0,))
    values = exact_log_statistic(components, prior, m1=1, m0=1)
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        q, rho = Decimal(0.1), Decimal(0.25)
        pi_1, tail_3 = (1 - q) * rho * (1 - rho), (1 - q) * (1 - rho) ** 3
        expected = Decimal(-0.5) + Decimal(1.25) + (pi_1 / tail_3).ln()
        assert abs(values[2] - expected) < Decimal(10) ** (5 - DIGITS)
        # at n = 1 the window reaches the origin, but k = 0 is offset out: q Lambda(0, 1) alone
        expected = Decimal(0.75) + (q / ((1 - q) * (1 - rho))).ln()
        assert abs(values[0] - expected) < Decimal(10) ** (5 - DIGITS)


def test_large_case_passes_log_700(exact_values):
    assert max(max(path) for path in exact_values("n4-k3-p2-large", "geometric")) > 700


@pytest.mark.parametrize("engine", ["recursion", "window"])
@pytest.mark.parametrize("weighting_name", sorted(WEIGHTINGS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_within_bound_of_exact_statistic(case, weighting_name, engine, exact_values):
    horizon = CASES[case][4]
    got = engine_log_statistic(
        case_increments(case),
        WEIGHTINGS[weighting_name],
        *case_model(case),
        window_m1=None if engine == "recursion" else horizon,
    )
    assert_within(got, exact_values(case, weighting_name), BOUND_ULPS)


@pytest.mark.parametrize("m1, m0", WINDOWS)
@pytest.mark.parametrize("weighting_name", sorted(WEIGHTINGS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_window_engine_within_bound_of_exact_window_sum(
    case, weighting_name, m1, m0, exact_values
):
    got = engine_log_statistic(
        case_increments(case), WEIGHTINGS[weighting_name], *case_model(case), m1, m0
    )
    assert_within(got, exact_values(case, weighting_name, m1, m0), WINDOW_BOUND_ULPS)


#: Two streams whose log LRs grow by about 300 and 50 a step (p, K, grid
#: amplitudes, grid weights, horizon, per-stream means): over three steps or
#: more the first leads the second by over 745 nats, so ``e^{-lead}``
#: underflows and the linear-domain DP's ``e_2`` is 0, while ``e_2``'s term
#: ``L_1 + L_2`` is the largest of the statistic.
LEAD_CASE = ((1.0, 0.5), 2, (0.5, 1.0), (0.5, 0.5), 20, (300.0, 50.0))


@pytest.mark.parametrize("weighting_name", ["geometric-head", "flat-head"])
def test_window_engine_falls_back_to_the_log_dp_past_a_745_nat_lead(weighting_name, monkeypatch):
    p, K, amplitudes, grid_weights, horizon, means = LEAD_CASE
    rng = np.random.default_rng(len(CASES))
    increments = np.asarray(means) + rng.normal(size=(REPLICATIONS, horizon, len(amplitudes), len(p)))
    grid = GridSpec.common_amplitude(amplitudes, len(p), weights=grid_weights)
    weights = SubsetWeights(p=p, K=K)
    weighting = WEIGHTINGS[weighting_name]
    components = [exact_components(path, p, K, grid_weights) for path in increments]
    fallbacks = []
    original = likelihood.log_elementary_symmetric

    def counting(log_values, K):
        fallbacks.append(np.shape(log_values)[0])
        return original(log_values, K)

    monkeypatch.setattr(likelihood, "log_elementary_symmetric", counting)
    for m1, bound in ((3, WINDOW_BOUND_ULPS), (10, WINDOW_BOUND_ULPS), (horizon, BOUND_ULPS)):
        fallbacks.clear()
        got = engine_log_statistic(increments, weighting, grid, weights, m1)
        assert sum(fallbacks) > 0  # some (row, change point, point) took the log-domain DP
        # without the fallback e_2 = 0 would drop the largest term, ~50 nats a step
        exact = [exact_log_statistic(c, weighting, None if m1 >= horizon else m1) for c in components]
        assert_within(got, exact, bound)
