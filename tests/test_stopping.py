"""Stepping: the recursion against the direct sum, and row retirement against full trajectories."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdetect import (
    ARChannelSpec,
    ChangeSpec,
    Detector,
    GeometricPrior,
    GridSpec,
    MixtureChannelSpec,
    PolynomialTailPrior,
    Scenario,
    SubsetWeights,
    cli,
    detectors,
    gaussian_stream,
    montecarlo,
    replication_rng,
)
from qcdetect.statistics import DetectorState, FlatWeights, direct_log_statistic

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

#: The tolerance of ``verify``'s ``recursion-direct`` suite, on the log statistic.
RECURSION_DIRECT_TOL = 1e-9


@st.composite
def recursion_cases(draw):
    """A random weighting, grid and subset prior over N <= 5 Gaussian streams, and data.

    At the large amplitude the log statistic passes +/-700 within a few steps.
    """
    n = draw(st.integers(1, 5))
    amplitude = draw(st.sampled_from([1.0, 30.0]))
    k = draw(st.integers(1, n))
    n_points = draw(st.integers(1, 2))
    point = st.tuples(*[st.floats(0.2, 2.0)] * n)
    points = draw(st.lists(point, min_size=n_points, max_size=n_points, unique=True))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=n_points, max_size=n_points))
    grid = GridSpec(
        theta_points=tuple(tuple(amplitude * v for v in p) for p in points),
        weights=tuple(w / sum(raw) for w in raw),
    )
    weights = SubsetWeights(
        p=tuple(draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))), K=k
    )
    family = draw(st.sampled_from(["geometric", "polynomial-tail", "flat"]))
    q = draw(st.sampled_from([0.0, 0.1]))
    if family == "geometric":
        weighting = GeometricPrior(rho=draw(st.floats(0.01, 0.3)), q=q)
    elif family == "polynomial-tail":
        weighting = PolynomialTailPrior(beta=draw(st.floats(0.5, 3.0)), q=q)
    else:
        weighting = FlatWeights(draw(st.sampled_from([0.0, 1.5])))
    reps = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(reps, horizon, n))
    nu = rng.integers(0, horizon + 1, size=reps)
    shift = rng.uniform(0.0, 2.0, size=(reps, 1, n)) * (rng.random((reps, 1, n)) < 0.5)
    data += amplitude * shift * (np.arange(horizon)[None, :, None] >= nu[:, None, None])
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
    """A random detector over N <= 5 Gaussian streams, a log threshold and a batch of data."""
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
        prior = GeometricPrior(rho=rho, q=draw(st.sampled_from([0.0, 0.1])))
    else:
        prior = PolynomialTailPrior(beta=draw(st.floats(0.5, 3.0)))
    kind = draw(st.sampled_from(["shiryaev-mixture", "sr-mixture"]))
    threshold = float(np.exp(draw(st.floats(0.5, 12.0))))  # above q/(1-q) <= 1/9
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    detector = Detector(
        kind, scenario, prior, grid, weights,
        window_m1=draw(st.one_of(st.none(), st.integers(1, 12))),
        omega=0.0 if kind == "shiryaev-mixture" else draw(st.sampled_from([0.0, 1.5])),
    )
    log_threshold = detector.log_level(threshold)

    reps = draw(st.integers(1, 8))
    horizon = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(reps, horizon, n))
    # a mean shift from a random time on in a random subset of streams, per row
    nu = rng.integers(0, horizon + 1, size=reps)
    shift = rng.uniform(0.0, 2.0, size=(reps, 1, n)) * (rng.random((reps, 1, n)) < 0.5)
    data += shift * (np.arange(horizon)[None, :, None] >= nu[:, None, None])
    return detector, log_threshold, data


def reference_log_trajectories(detector, data):
    """One ``advance`` per step for every row: no retirement."""
    increments = detector.scenario.log_lr_increments(data, detector.grid.points)
    state = detector._new_state(data.shape[0])
    out = np.empty(data.shape[:2])
    for t in range(data.shape[1]):
        state.advance(increments[:, t])
        out[:, t] = state.log_shiryaev()
    return out


def first_crossing(log_traj, log_threshold):
    crossed = log_traj >= log_threshold
    return np.where(crossed.any(axis=1), np.argmax(crossed, axis=1) + 1, -1)


@PROPERTY_SETTINGS
@given(detector_cases())
def test_stopping_times_are_the_first_crossing_of_the_trajectories(case):
    detector, log_threshold, data = case
    log_traj = detector.log_trajectories(data)
    stopped = detector.stopping_times(data, [log_threshold])[:, 0]
    np.testing.assert_array_equal(log_traj, reference_log_trajectories(detector, data))
    np.testing.assert_array_equal(stopped, first_crossing(log_traj, log_threshold))
    assert stopped.dtype == np.int64


@PROPERTY_SETTINGS
@given(detector_cases(), st.integers(0, 8))
def test_stopping_times_do_not_depend_on_batching(case, cut):
    detector, log_threshold, data = case
    cut = min(cut, data.shape[0])
    whole = detector.stopping_times(data, [log_threshold])
    split = np.concatenate(
        [
            detector.stopping_times(data[:cut], [log_threshold]),
            detector.stopping_times(data[cut:], [log_threshold]),
        ]
    )
    np.testing.assert_array_equal(whole, split)


@PROPERTY_SETTINGS
@given(detector_cases(), st.lists(st.floats(-2.0, 14.0), max_size=3), st.integers(0, 8), st.data())
def test_one_scan_stops_at_every_level_as_one_scan_per_level_does(case, drawn, cut, draw):
    """``stopping_times(data, levels)`` ``[R, L]``: each column a single-level scan, bit for bit.

    The levels come out of order and repeat, one is reached by no row and one
    by every row at step 1; splitting the rows into two batches changes nothing.
    """
    detector, log_threshold, data = case
    log_traj = detector.log_trajectories(data)
    unreached, at_once = float(log_traj.max()) + 1.0, float(log_traj[:, 0].min()) - 1.0
    levels = [*drawn, log_threshold, unreached, at_once, log_threshold]
    levels = draw.draw(st.permutations(levels))
    stopped = detector.stopping_times(data, levels)
    assert stopped.shape == (data.shape[0], len(levels)) and stopped.dtype == np.int64
    for j, level in enumerate(levels):
        np.testing.assert_array_equal(stopped[:, j], detector.stopping_times(data, [level])[:, 0])
    assert (stopped[:, levels.index(unreached)] == -1).all()
    assert (stopped[:, levels.index(at_once)] == 1).all()
    cut = min(cut, data.shape[0])
    split = np.concatenate(
        [detector.stopping_times(data[:cut], levels), detector.stopping_times(data[cut:], levels)]
    )
    np.testing.assert_array_equal(stopped, split)


@PROPERTY_SETTINGS
@given(detector_cases(), st.integers(0, 2**16))
def test_thresholds_at_the_statistic_and_a_few_ulps_off_stop_at_the_first_crossing(case, pick):
    detector, _, data = case
    log_traj = detector.log_trajectories(data)
    level = log_traj.flat[pick % log_traj.size]
    if not np.isfinite(level):
        level = 0.0
    for ulps in range(-3, 4):
        log_threshold = level
        for _ in range(abs(ulps)):
            log_threshold = np.nextafter(log_threshold, np.copysign(np.inf, ulps))
        stopped = detector.stopping_times(data, [float(log_threshold)])[:, 0]
        np.testing.assert_array_equal(stopped, first_crossing(log_traj, log_threshold))


def _counted_stopping_times(detector, data, log_threshold):
    """Stopping times and the number of rows in the state at every ``advance``."""
    rows_per_step = []
    advance = DetectorState.advance

    def counting(state, *args, **kwargs):
        rows_per_step.append(state.n_reps)
        return advance(state, *args, **kwargs)

    with mock.patch.object(DetectorState, "advance", counting):
        stopped = detector.stopping_times(data, [log_threshold])[:, 0]
    return stopped, rows_per_step


def test_scan_steps_only_rows_that_have_not_stopped():
    n = 3
    scenario = Scenario(tuple(gaussian_stream(theta=1.0) for _ in range(n)))
    grid = GridSpec.common_amplitude((0.5, 1.0), n)
    weights = SubsetWeights.uniform(n)
    prior = GeometricPrior(rho=0.05)
    rng = np.random.default_rng(7)
    horizon = 200
    changed = rng.normal(size=(64, horizon, n))
    for row in range(64):
        changed[row, 2 * row:, :2] += 1.0  # staggered changes: rows stop at many times
    noisy = changed.copy()
    noisy[48:] = rng.normal(size=(16, horizon, n))  # pure noise: these rows censor
    for window_m1 in (None, 15):
        detector = Detector(
            "shiryaev-mixture", scenario, prior, grid, weights, window_m1=window_m1,
        )
        for data, censored in ((changed, False), (noisy, True)):
            stopped, rows_per_step = _counted_stopping_times(detector, data, math.log(1e3))
            assert (stopped < 0).any() == censored
            steps = horizon if censored else int(stopped.max())
            assert censored or steps < horizon  # the scan left before the horizon
            assert len(rows_per_step) == steps
            active = [int(((stopped < 0) | (stopped >= t)).sum()) for t in range(1, steps + 1)]
            assert rows_per_step == active


#: AR(2) with a period-3 signal, a mixture channel and a Gaussian stream: every
#: kind of context a block of increments carries over from the one before.
MIXED = Scenario(
    (
        ARChannelSpec(coeffs=(0.5, -0.3), signal=(1.0, -0.5, 2.0), theta=1.0),
        MixtureChannelSpec(beta_mix=0.3, mu1=-1.0, theta=1.0),
        gaussian_stream(theta=1.0),
    )
)


#: The log threshold the scans of ``mixed_detector`` stop at.
MIXED_LEVELS = [math.log(1e3)]


def mixed_detector(window_m1):
    return Detector(
        "shiryaev-mixture",
        MIXED,
        GeometricPrior(rho=0.05),
        GridSpec.common_amplitude((0.5, 1.0), MIXED.n_streams),
        SubsetWeights.uniform(MIXED.n_streams),
        window_m1=window_m1,
    )


def mixed_data(reps, horizon, last_change, seed=5):
    """Changes in streams 0 and 1 at staggered times before ``last_change``."""
    nus = np.random.default_rng(seed).integers(0, last_change, reps)
    changes = [ChangeSpec(nu=int(nu), subset=(0, 1)) for nu in nus]
    return MIXED.generate(changes, horizon, [replication_rng(seed, r) for r in range(reps)])


def test_stopping_times_take_a_nonempty_vector_of_levels():
    detector, data = mixed_detector(None), mixed_data(2, 10, 5)
    for levels in ([], [[1.0]], [np.nan], [np.inf], [-np.inf], [1.0, np.nan]):
        with pytest.raises(ValueError, match="log thresholds"):
            detector.stopping_times(data, levels)


@pytest.mark.parametrize("window_m1", [None, 10])
def test_scan_does_not_depend_on_block_length_or_span_size(window_m1):
    detector = mixed_detector(window_m1)
    data = mixed_data(reps=40, horizon=150, last_change=300)  # some rows never change
    results = []
    for block in (1, 32):
        with mock.patch.object(detectors, "INCREMENT_BLOCK", block):
            for span in (40, 7):
                starts = range(0, len(data), span)
                stopped = np.concatenate(
                    [detector.stopping_times(data[s:s + span], MIXED_LEVELS) for s in starts]
                )
                traj = np.concatenate([detector.log_trajectories(data[s:s + span]) for s in starts])
                results.append((stopped, traj))
    stopped, traj = results[0]
    assert (stopped > 0).any() and (stopped < 0).any()
    for other_stopped, other_traj in results[1:]:
        np.testing.assert_array_equal(other_stopped, stopped)
        np.testing.assert_array_equal(other_traj, traj)


def test_increments_are_computed_per_block_for_live_rows_only():
    detector = mixed_detector(None)
    data = mixed_data(reps=64, horizon=300, last_change=100)
    calls = []
    log_lr_increments = Scenario.log_lr_increments

    def recording(scenario, *args, **kwargs):
        result = log_lr_increments(scenario, *args, **kwargs)
        calls.append((args[2], result.shape, result.nbytes))
        return result

    with mock.patch.object(Scenario, "log_lr_increments", recording):
        stopped = detector.stopping_times(data, MIXED_LEVELS)[:, 0]
    block, n_points = detectors.INCREMENT_BLOCK, detector.grid.n_points
    for start, shape, nbytes in calls:
        live = int(((stopped < 0) | (stopped > start)).sum())
        assert shape[0] == live
        assert nbytes <= live * block * n_points * MIXED.n_streams * 8
    n_reps, horizon = data.shape[:2]
    useful = int(np.where(stopped > 0, stopped, horizon).sum())
    computed = sum(shape[0] * shape[1] for _, shape, _ in calls)
    assert useful <= computed <= useful + n_reps * block
    assert computed < n_reps * horizon // 2  # most rows stop early: the check has teeth


CLI_CONFIG = """\
[scenario]
kind = ar
streams = 2
sigma = 1.0
theta = 1.0
coeffs = 0.5, -0.2
signal = 1.0, 0.5, -1.0

[prior]
kind = geometric
rho = 0.05
q = 0.0

[change]
nu = prior
subset = 1

[grid]
theta_points = 0.5; 1.0
p = 1.0
K = 2

[detector]
kind = shiryaev-mixture
alpha = 0.01

[mc]
replications = 30
master_seed = 9
horizon = 120
moments = 1, 2
"""


def simulate_outputs_across_spans(text, tmp_path, monkeypatch):
    """``simulate`` CSV and JSON bytes at workers 1 and 2, in spans of at most 9 rows."""
    config = tmp_path / "run.ini"
    config.write_text(text)
    detector = cli.build_detector(cli.load_config(str(config)))
    monkeypatch.setattr(montecarlo, "SPAN_BUDGET_BYTES", 9 * detector.row_bytes(120))
    assert montecarlo.span_rows(detector, 120) == 9  # four spans of at most 9 rows
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        argv = ["simulate", "--config", str(config), "--workers", str(workers), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        outputs.append([out.with_suffix(suffix).read_bytes() for suffix in (".csv", ".json")])
    return outputs


def test_simulate_output_does_not_depend_on_workers_across_spans(tmp_path, monkeypatch):
    outputs = simulate_outputs_across_spans(CLI_CONFIG, tmp_path, monkeypatch)
    assert outputs[0] == outputs[1]


def test_window_simulate_output_does_not_depend_on_workers_across_spans(tmp_path, monkeypatch):
    # the window engine's buffer slides every 11 steps and retain compacts its rows
    text = CLI_CONFIG.replace("alpha = 0.01\n", "alpha = 0.01\nwindow_m1 = 10\n")
    assert "window_m1" in text
    outputs = simulate_outputs_across_spans(text, tmp_path, monkeypatch)
    assert outputs[0] == outputs[1]


def test_oc_sweep_output_does_not_depend_on_workers_across_spans(tmp_path, monkeypatch):
    # each of the six passes has four spans, and workers 2 and 3 serve them all
    # from one pool: a warm worker that kept state from a pass would show here
    config = tmp_path / "sweep.ini"
    text = CLI_CONFIG.replace("horizon = 120", "horizon = 300")  # P(nu > 300) is negligible
    config.write_text(text + "\n[sweep]\nalphas = 0.05, 0.01, 0.05\nr = 1\n")
    monkeypatch.setattr(montecarlo, "_CHUNK", 9)
    detector = cli.build_detector(cli.load_config(str(config)))
    assert montecarlo.span_rows(detector, 300) == 9  # 30 replications: four spans
    tables = []
    for workers in (1, 2, 3):
        out = tmp_path / f"workers{workers}.csv"
        argv = ["oc-sweep", "--config", str(config), "--workers", str(workers), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        tables.append(out.read_bytes())
    assert tables[0] == tables[1] == tables[2]
