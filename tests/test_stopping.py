"""Stepping: the recursion against the direct sum, and row retirement against full trajectories."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdetect import (
    Detector,
    DetectorConfig,
    GridSpec,
    PriorSpec,
    Scenario,
    SubsetWeights,
    gaussian_stream,
)
from qcdetect import detectors
from qcdetect.statistics import DetectorState, FlatWeights, direct_log_statistic

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

#: The tolerance of ``verify``'s ``recursion-direct`` suite, on the log statistic.
RECURSION_DIRECT_TOL = 1e-9


@st.composite
def recursion_cases(draw):
    """A random weighting, grid and subset prior over N <= 5 Gaussian streams, and data."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    n_points = draw(st.integers(1, 2))
    point = st.tuples(*[st.floats(0.2, 2.0)] * n)
    points = draw(st.lists(point, min_size=n_points, max_size=n_points, unique=True))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=n_points, max_size=n_points))
    grid = GridSpec(theta_points=tuple(points), weights=tuple(w / sum(raw) for w in raw))
    weights = SubsetWeights(
        p=tuple(draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))), K=k
    )
    family = draw(st.sampled_from(["geometric", "polynomial-tail", "flat"]))
    q = draw(st.sampled_from([0.0, 0.1]))
    if family == "geometric":
        weighting = PriorSpec.geometric(rho=draw(st.floats(0.01, 0.3)), q=q)
    elif family == "polynomial-tail":
        weighting = PriorSpec.polynomial_tail(beta=draw(st.floats(0.5, 3.0)), q=q)
    else:
        weighting = FlatWeights(draw(st.sampled_from([0.0, 1.5])))
    reps = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(reps, horizon, n))
    nu = rng.integers(0, horizon + 1, size=reps)
    shift = rng.uniform(0.0, 2.0, size=(reps, 1, n)) * (rng.random((reps, 1, n)) < 0.5)
    data += shift * (np.arange(horizon)[None, :, None] >= nu[:, None, None])
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    return weighting, grid, weights, scenario.log_lr_increments(data, grid.points)


@PROPERTY_SETTINGS
@given(recursion_cases())
def test_recursion_equals_the_direct_sum_at_every_step(case):
    weighting, grid, weights, increments = case
    state = DetectorState(weighting, grid, weights, n_reps=increments.shape[0])
    for t in range(increments.shape[1]):
        state.advance(increments[:, t])
        direct = direct_log_statistic(increments[:, : t + 1], weighting, grid, weights, n=t + 1)
        np.testing.assert_allclose(
            state.log_shiryaev(), direct, rtol=0.0, atol=RECURSION_DIRECT_TOL
        )


@st.composite
def detector_cases(draw):
    """A random detector over N <= 5 Gaussian streams and a batch of data for it."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    amplitudes = draw(
        st.lists(st.floats(0.2, 2.0), min_size=1, max_size=3, unique=True)
    )
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(amplitudes), max_size=len(amplitudes)))
    grid = GridSpec.common_amplitude(amplitudes, n, weights=[w / sum(raw) for w in raw])
    weights = SubsetWeights(
        p=tuple(draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))), K=k
    )
    if draw(st.booleans()):
        rho = draw(st.floats(0.01, 0.3))
        prior = PriorSpec.geometric(rho=rho, q=draw(st.sampled_from([0.0, 0.1])))
    else:
        prior = PriorSpec.polynomial_tail(beta=draw(st.floats(0.5, 3.0)))
    kind = draw(st.sampled_from(["shiryaev-mixture", "sr-mixture"]))
    config = DetectorConfig(
        kind=kind,
        threshold_A=float(np.exp(draw(st.floats(0.5, 12.0)))),  # above q/(1-q) <= 1/9
        window_m1=draw(st.one_of(st.none(), st.integers(1, 12))),
        head_start_omega=0.0 if kind == "shiryaev-mixture" else draw(st.sampled_from([0.0, 1.5])),
    )
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    detector = Detector(config, scenario, prior, grid, weights)

    reps = draw(st.integers(1, 8))
    horizon = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(reps, horizon, n))
    # a mean shift from a random time on in a random subset of streams, per row
    nu = rng.integers(0, horizon + 1, size=reps)
    shift = rng.uniform(0.0, 2.0, size=(reps, 1, n)) * (rng.random((reps, 1, n)) < 0.5)
    data += shift * (np.arange(horizon)[None, :, None] >= nu[:, None, None])
    # block budgets from one step per block to the whole horizon in one block
    block_bytes = draw(st.sampled_from([1, 4096, detectors._BLOCK_BYTES]))
    return detector, data, block_bytes


def reference_log_trajectories(detector, data):
    """One per-stream ``advance`` per step for every row: no blocks, no retirement."""
    increments = detector.scenario.log_lr_increments(data, detector.grid.points)
    state = detector._new_state(data.shape[0])
    read = state.log_shiryaev if detector.config.uses_shiryaev else state.log_sr
    out = np.empty(data.shape[:2])
    for t in range(data.shape[1]):
        state.advance(increments[:, t])
        out[:, t] = read()
    return out


def first_crossing(log_traj, log_threshold):
    crossed = log_traj >= log_threshold
    return np.where(crossed.any(axis=1), np.argmax(crossed, axis=1) + 1, -1)


@PROPERTY_SETTINGS
@given(detector_cases())
def test_stopping_times_are_the_first_crossing_of_the_trajectories(case):
    detector, data, block_bytes = case
    with mock.patch.object(detectors, "_BLOCK_BYTES", block_bytes):
        log_traj = detector.log_trajectories(data)
        stopped = detector.stopping_times(data)
    np.testing.assert_array_equal(log_traj, reference_log_trajectories(detector, data))
    np.testing.assert_array_equal(stopped, first_crossing(log_traj, detector.log_threshold))
    assert stopped.dtype == np.int64


@PROPERTY_SETTINGS
@given(detector_cases(), st.integers(0, 8))
def test_stopping_times_do_not_depend_on_batching(case, cut):
    detector, data, block_bytes = case
    cut = min(cut, data.shape[0])
    with mock.patch.object(detectors, "_BLOCK_BYTES", block_bytes):
        whole = detector.stopping_times(data)
        split = np.concatenate(
            [detector.stopping_times(data[:cut]), detector.stopping_times(data[cut:])]
        )
    np.testing.assert_array_equal(whole, split)


def _counted_stopping_times(detector, data):
    """Stopping times and the number of rows in the state at every ``advance``."""
    rows_per_step = []
    advance = DetectorState.advance

    def counting(state, *args, **kwargs):
        rows_per_step.append(state.n_reps)
        return advance(state, *args, **kwargs)

    with mock.patch.object(DetectorState, "advance", counting):
        stopped = detector.stopping_times(data)
    return stopped, rows_per_step


def test_scan_steps_only_rows_that_have_not_stopped():
    n = 3
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    grid = GridSpec.common_amplitude((0.5, 1.0), n)
    weights = SubsetWeights.uniform(n)
    prior = PriorSpec.geometric(rho=0.05)
    rng = np.random.default_rng(7)
    horizon = 200
    changed = rng.normal(size=(64, horizon, n))
    for row in range(64):
        changed[row, 2 * row:, :2] += 1.0  # staggered changes: rows stop at many times
    noisy = changed.copy()
    noisy[48:] = rng.normal(size=(16, horizon, n))  # pure noise: these rows censor
    for window_m1 in (None, 15):
        detector = Detector(
            DetectorConfig(kind="shiryaev-mixture", threshold_A=1e3, window_m1=window_m1),
            scenario, prior, grid, weights,
        )
        for data, censored in ((changed, False), (noisy, True)):
            stopped, rows_per_step = _counted_stopping_times(detector, data)
            assert (stopped < 0).any() == censored
            steps = horizon if censored else int(stopped.max())
            assert censored or steps < horizon  # the scan left before the horizon
            assert len(rows_per_step) == steps
            active = [int(((stopped < 0) | (stopped >= t)).sum()) for t in range(1, steps + 1)]
            assert rows_per_step == active
