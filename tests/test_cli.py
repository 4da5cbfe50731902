"""Command line front end: config handling, outputs, exit codes."""

import collections
import concurrent.futures
import configparser
import csv
import json
import math
import multiprocessing
from pathlib import Path

import pytest

from qcdetect import NO_CHANGE, Scenario, cli, detectors, montecarlo
from qcdetect import statistics as statistics_mod
from qcdetect.cli import (
    EXIT_CONFIG,
    EXIT_HORIZON,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    load_config,
    parse_config,
    serialize_config,
)

BASE_CONFIG = """\
[scenario]
kind = ar
streams = 1
sigma = 1.0
theta = 1.0

[prior]
kind = geometric
rho = 0.1
q = 0.0

[change]
nu = 0
subset = 1
theta = 1.0

[grid]
theta_points = 1.0
p = 1.0
K = 1

[detector]
kind = shiryaev-mixture
alpha = 0.05

[mc]
replications = 150
master_seed = 12
horizon = 150
moments = 1, 2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG)
    return str(path)


def _reparse(text):
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(text)
    return parse_config(parser)


def test_config_round_trip(config_path):
    config = load_config(config_path)
    assert _reparse(serialize_config(config)) == config


def test_config_round_trip_with_sweep(tmp_path):
    text = BASE_CONFIG + "\n[sweep]\nalphas = 0.1, 0.01\nr = 1\n"
    path = tmp_path / "sweep.ini"
    path.write_text(text)
    config = load_config(str(path))
    assert config.sweep.alphas == (0.1, 0.01)
    assert _reparse(serialize_config(config)) == config


def test_serialized_base_config_is_pinned():
    # recorded before the schema was derived from the section dataclasses
    assert serialize_config(_reparse(BASE_CONFIG)) == (
        "[scenario]\nkind = ar\nstreams = 1\nsigma = 1.0\ntheta = 1.0\nsignal = 1.0\n"
        "beta_mix = 0.5\nmu1 = 1.0\nmu2 = 0.0\n\n"
        "[prior]\nkind = geometric\nrho = 0.1\nbeta = 2.0\nq = 0.0\nk0 = 0\n\n"
        "[change]\nnu = 0\nsubset = 1\ntheta = 1.0\n\n"
        "[grid]\ntheta_points = 1.0\np = 1.0\nK = 1\n\n"
        "[detector]\nkind = shiryaev-mixture\nalpha = 0.05\ncost_r = 1.0\nwindow_m0 = 0\n"
        "omega = 0.0\n\n"
        "[mc]\nreplications = 150\nmaster_seed = 12\nhorizon = 150\nworkers = 1\n"
        "moments = 1, 2\n\n"
    )


# Every key of every section, written the way serialize_config writes it.
FULL_AR_CONFIG = """\
[scenario]
kind = ar
streams = 2
sigma = 1.0, 0.5
theta = 0.8, 1.2
coeffs = 0.5; 0.3, -0.1
signal = 1.0, 0.0; 1.0
beta_mix = 0.25
mu1 = 2.0
mu2 = -0.5

[prior]
kind = polynomial-tail
rho = 0.2
beta = 1.5
q = 0.1
k0 = 3

[change]
nu = 7
subset = 1, 2
theta = 0.9, 1.1

[grid]
theta_points = 0.5, 0.6; 1.0, 1.2
weights = 0.25, 0.75
p = 1.0, 2.0
K = 2

[detector]
kind = sr-mixture
threshold = 250.0
alpha = 0.01
cost_c = 0.001
cost_r = 2.0
window_m1 = 40
window_m0 = 2
omega = 1.5

[mc]
replications = 64
master_seed = 99
horizon = 300
workers = 2
moments = 1, 2, 3

[sweep]
alphas = 0.1, 0.01
r = 2

"""

FULL_MIXTURE_CONFIG = (
    FULL_AR_CONFIG.replace("kind = ar", "kind = mixture")
    .replace("coeffs = 0.5; 0.3, -0.1", "coeffs = 0.2")
    .replace("signal = 1.0, 0.0; 1.0", "signal = 1.0; 0.5")
    .replace("beta_mix = 0.25\nmu1 = 2.0\nmu2 = -0.5",
             "beta_mix = 0.3, 0.6\nmu1 = -1.0\nmu2 = 0.0, 0.5")
    .replace("kind = polynomial-tail", "kind = geometric")
    .replace("nu = 7", "nu = prior")
    .replace("kind = sr-mixture", "kind = shiryaev-mixture")
)


@pytest.mark.parametrize("text", [FULL_AR_CONFIG, FULL_MIXTURE_CONFIG], ids=["ar", "mixture"])
def test_every_key_round_trips(text):
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(text)
    assert sum(len(parser[name]) for name in parser.sections()) == 36
    config = parse_config(parser)
    assert serialize_config(config) == text
    assert _reparse(serialize_config(config)) == config
    assert config.detector == cli.DetectorSection(
        kind=config.detector.kind, threshold=250.0, alpha=0.01, cost_c=0.001, cost_r=2.0,
        window_m1=40, window_m0=2, omega=1.5,
    )
    assert config.mc.moments == (1, 2, 3)
    assert config.sweep == cli.SweepSection(alphas=(0.1, 0.01), r=2)


SWEEP = "\n[sweep]\nalphas = 0.1, 0.5\nr = 1\n"
PRIOR_NU = BASE_CONFIG.replace("nu = 0", "nu = prior")
LONG_THETA = "theta = 1.0, 2.0\n\n[grid]"


def with_detector_keys(lines):
    return BASE_CONFIG.replace("alpha = 0.05", "alpha = 0.05\n" + lines)


def with_mixture(text, change_theta="0.5"):
    """The scenario as one mixture channel with mu1 = 2, mu2 = 0, and the change's theta."""
    return text.replace(
        "kind = ar\nstreams = 1\nsigma = 1.0\ntheta = 1.0",
        "kind = mixture\nstreams = 1\nsigma = 1.0\ntheta = 0.8\nmu1 = 2.0\nmu2 = 0.0",
    ).replace("subset = 1\ntheta = 1.0", f"subset = 1\ntheta = {change_theta}")


def with_sr_threshold(lines):
    """The SR rule at an explicit threshold, so no calibration reads the extra ``lines``."""
    return BASE_CONFIG.replace(
        "kind = shiryaev-mixture\nalpha = 0.05", "kind = sr-mixture\nthreshold = 50.0\n" + lines
    )


def with_point_mass(text):
    return text.replace("kind = geometric\nrho = 0.1", "kind = point-mass\nk0 = 5").replace(
        "horizon = 150", "horizon = 50"
    )


BAD_CONFIGS = {
    "no-section-header": ("simulate", "kind = ar\n" + BASE_CONFIG),
    "duplicate-key": ("simulate", BASE_CONFIG.replace("rho = 0.1", "rho = 0.1\nrho = 0.2")),
    "percent-in-value": ("simulate", BASE_CONFIG.replace("kind = geometric", "kind = geo%metric")),
    "negative-nu": ("simulate", BASE_CONFIG.replace("nu = 0", "nu = -5")),
    "theta-longer-than-subset": (
        "simulate", BASE_CONFIG.replace("theta = 1.0\n\n[grid]", LONG_THETA)
    ),
    "theta-longer-than-subset-prior-nu": (
        "simulate", PRIOR_NU.replace("theta = 1.0\n\n[grid]", LONG_THETA)
    ),
    "sweep-alpha-beyond-1-minus-q": ("oc-sweep", PRIOR_NU.replace("q = 0.0", "q = 0.6") + SWEEP),
    "output-section": ("simulate", BASE_CONFIG + "\n[output]\npath = table.csv\n"),
    "omega-on-shiryaev": ("simulate", with_detector_keys("omega = 1.5")),
    "window-m0-without-m1": ("simulate", with_detector_keys("window_m0 = 1")),
    "window-m0-beyond-m1": ("simulate", with_detector_keys("window_m1 = 3\nwindow_m0 = 4")),
    "repeated-stream-without-theta": (
        "simulate", BASE_CONFIG.replace("subset = 1\ntheta = 1.0\n", "subset = 1, 1\n")
    ),
    # the Shiryaev statistic is undefined once a point-mass prior's tail vanishes
    "point-mass-shiryaev-simulate": ("simulate", with_point_mass(BASE_CONFIG)),
    "point-mass-shiryaev-oc-sweep": ("oc-sweep", with_point_mass(PRIOR_NU) + SWEEP),
    "recursion-beyond-subset-budget": (
        "simulate", BASE_CONFIG.replace("streams = 1", "streams = 13").replace("K = 1", "K = 13")
    ),
    # the average-risk constant would list 33.5M subsets
    "cost-beyond-subset-budget": (
        "calibrate",
        BASE_CONFIG.replace("streams = 1", "streams = 25")
        .replace("K = 1", "K = 25")
        .replace("alpha = 0.05", "cost_c = 0.001\nwindow_m1 = 10"),
    ),
    "two-calibration-targets": ("calibrate", with_detector_keys("threshold = 3.0")),
    # read only by the cost route, so next to alpha it used to be ignored
    "cost-moment-order-below-one": ("calibrate", with_detector_keys("cost_r = 0.5")),
    "moments-below-one": ("simulate", BASE_CONFIG.replace("moments = 1, 2", "moments = 0, -1")),
    # a change at the horizon is never observed, so no delay could be measured
    "fixed-change-at-the-horizon": ("simulate", BASE_CONFIG.replace("nu = 0", "nu = 150")),
    # the sweep draws nu from the prior, so a fixed nu would be silently ignored
    "sweep-fixed-nu": ("oc-sweep", BASE_CONFIG.replace("nu = 0", "nu = 7") + SWEEP),
    "sweep-moment-order-zero": ("oc-sweep", PRIOR_NU + SWEEP.replace("r = 1", "r = 0")),
    # I + mu = 0: no change in the data and no prior tail rate under the SR rule
    "sweep-zero-information-rate": (
        "oc-sweep",
        PRIOR_NU.replace("kind = shiryaev-mixture", "kind = sr-mixture").replace(
            "subset = 1\ntheta = 1.0", "subset = 1\ntheta = 0.0"
        ) + SWEEP,
    ),
    # 1.8 is nearer mu1 = 2: the rate (theta - mu2)^2 / 2 = 1.62 would be wrong
    "sweep-mixture-mean-nearer-mu1": ("oc-sweep", with_mixture(PRIOR_NU, "1.8") + SWEEP),
    "simulate-mixture-mean-nearer-mu1": ("simulate", with_mixture(BASE_CONFIG, "1.8")),
    "simulate-mixture-mean-nearer-mu1-prior-nu": ("simulate", with_mixture(PRIOR_NU, "1.8")),
    # a non-finite value ends in NaN statistics, every run censored, or a traceback
    "grid-point-nan": ("simulate", BASE_CONFIG.replace("theta_points = 1.0", "theta_points = nan")),
    "grid-point-inf": ("simulate", BASE_CONFIG.replace("theta_points = 1.0", "theta_points = inf")),
    "grid-weight-nan": ("simulate", BASE_CONFIG.replace("p = 1.0", "weights = nan\np = 1.0")),
    "stream-weight-nan": ("simulate", BASE_CONFIG.replace("p = 1.0", "p = nan")),
    "ar-sigma-nan": ("simulate", BASE_CONFIG.replace("sigma = 1.0", "sigma = nan")),
    "ar-signal-nan": ("simulate", BASE_CONFIG.replace("sigma = 1.0", "sigma = 1.0\nsignal = nan")),
    "ar-theta-inf": ("simulate", BASE_CONFIG.replace("sigma = 1.0\ntheta = 1.0", "sigma = 1.0\ntheta = inf")),
    "ar-coeffs-nan": ("simulate", BASE_CONFIG.replace("sigma = 1.0", "sigma = 1.0\ncoeffs = nan")),
    "mixture-mu1-nan": ("simulate", with_mixture(BASE_CONFIG).replace("mu1 = 2.0", "mu1 = nan")),
    "mixture-mu2-nan": ("simulate", with_mixture(BASE_CONFIG).replace("mu2 = 0.0", "mu2 = nan")),
    "mixture-sigma-nan": ("simulate", with_mixture(BASE_CONFIG).replace("sigma = 1.0", "sigma = nan")),
    "mixture-theta-nan": ("simulate", with_mixture(BASE_CONFIG).replace("theta = 0.8", "theta = nan")),
    "change-theta-nan": ("simulate", BASE_CONFIG.replace("subset = 1\ntheta = 1.0", "subset = 1\ntheta = nan")),
    # a non-finite head start used to run as omega = 0
    "omega-nan": ("simulate", with_sr_threshold("omega = nan")),
    "omega-inf": ("simulate", with_sr_threshold("omega = inf")),
    # an infinite tail exponent used to give NaN statistics and censor every run
    "polynomial-beta-inf": (
        "simulate",
        BASE_CONFIG.replace("kind = geometric\nrho = 0.1", "kind = polynomial-tail\nbeta = inf"),
    ),
    # 1 + beta rounds to 1, where zeta diverges, and every run was censored
    "polynomial-beta-1e-17": (
        "simulate",
        BASE_CONFIG.replace("kind = geometric\nrho = 0.1", "kind = polynomial-tail\nbeta = 1e-17"),
    ),
    # the tail's zeta(1 + beta, 2) is NaN, and every run was censored
    "polynomial-beta-1e308": (
        "simulate",
        BASE_CONFIG.replace("kind = geometric\nrho = 0.1", "kind = polynomial-tail\nbeta = 1e308"),
    ),
    "cost-c-nan": ("calibrate", BASE_CONFIG.replace("alpha = 0.05", "cost_c = nan")),
    # an empty list was read as (), and `moments =` printed "delay_moments": {}
    "moments-empty": ("simulate", BASE_CONFIG.replace("moments = 1, 2", "moments =")),
    "subset-empty": ("simulate", BASE_CONFIG.replace("subset = 1\ntheta = 1.0", "subset =")),
    "unknown-scenario-kind": ("simulate", BASE_CONFIG.replace("kind = ar\n", "kind = arma\n")),
    "unknown-prior-kind": ("simulate", BASE_CONFIG.replace("kind = geometric", "kind = uniform")),
    "per-stream-list-of-the-wrong-length": (
        "simulate",
        BASE_CONFIG.replace("streams = 1", "streams = 3").replace("sigma = 1.0", "sigma = 1.0, 2.0"),
    ),
    "no-streams": ("simulate", BASE_CONFIG.replace("streams = 1", "streams = 0")),
    "subset-outside-the-streams": ("simulate", BASE_CONFIG.replace("subset = 1\n", "subset = 2\n")),
    "non-integer-nu": ("simulate", BASE_CONFIG.replace("nu = 0", "nu = 1.5")),
    "no-detector-target": ("simulate", BASE_CONFIG.replace("alpha = 0.05\n", "")),
    "simulate-without-change": (
        "simulate", BASE_CONFIG.replace("[change]\nnu = 0\nsubset = 1\ntheta = 1.0\n\n", "")
    ),
    "oc-sweep-without-sweep": ("oc-sweep", PRIOR_NU),
    "unparsable-number": ("simulate", BASE_CONFIG.replace("rho = 0.1", "rho = 0.1x")),
    "empty-grid-rows": (
        "simulate", BASE_CONFIG.replace("theta_points = 1.0", "theta_points = ; ;")
    ),
    "no-subset-size": ("simulate", BASE_CONFIG.replace("K = 1", "K = 0")),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_is_a_one_line_config_error(name, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "simulate_runs", lambda *args: calls.append(args))
    monkeypatch.setattr(montecarlo, "simulate_runs", lambda *args: calls.append(args))
    command, text = BAD_CONFIGS[name]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main([command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert calls == []  # rejected before anything is simulated


def test_an_unknown_scenario_or_prior_kind_is_worded_alike(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    for old, new in (("kind = ar\n", "kind = arma\n"), ("kind = geometric", "kind = uniform")):
        path.write_text(BASE_CONFIG.replace(old, new))
        assert cli.main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: unknown scenario kind 'arma'\n"
        "configuration error: unknown prior kind 'uniform'\n"
    )


@pytest.mark.parametrize("command", ["simulate", "oc-sweep"])
def test_a_horizon_over_the_memory_budget_exits_before_generating(command, tmp_path, monkeypatch, capsys):
    def no_generation(*args, **kwargs):
        raise AssertionError("generated data for a horizon over the memory budget")

    monkeypatch.setattr(Scenario, "generate", no_generation)
    path = tmp_path / "huge.ini"
    path.write_text(PRIOR_NU.replace("horizon = 150", "horizon = 1000000000") + SWEEP)
    assert cli.main([command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert "[mc] horizon" in err and "256 MiB" in err


@pytest.mark.parametrize("command", ["simulate", "oc-sweep"])
def test_sr_mixture_runs_with_a_point_mass_prior(command, tmp_path):
    text = with_point_mass(PRIOR_NU).replace("kind = shiryaev-mixture", "kind = sr-mixture")
    path = tmp_path / "sr.ini"
    path.write_text(text + SWEEP)
    assert cli.main([command, "--config", str(path)]) == EXIT_OK


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG.replace("rho = 0.1", "rho = 0.1\nbogus = 3"))
    with pytest.raises(ConfigError, match="bogus"):
        load_config(str(path))


@pytest.mark.parametrize(
    "text,key",
    [
        (BASE_CONFIG + "\n[sweep]\nr = 1\n", "alphas"),
        (BASE_CONFIG.replace("sigma = 1.0\n", ""), "sigma"),
    ],
)
def test_missing_required_key_rejected(text, key):
    # a key is required exactly when its section field has no default
    with pytest.raises(ConfigError, match=f"missing required key.*{key}"):
        _reparse(text)


def test_missing_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG.replace("[prior]\nkind = geometric\nrho = 0.1\nq = 0.0\n", ""))
    with pytest.raises(ConfigError, match="prior"):
        load_config(str(path))


def test_calibrate_shiryaev(config_path, capsys):
    assert cli.main(["calibrate", "--config", config_path]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold_A"] == pytest.approx(19.0, rel=1e-12)


def test_calibrate_cost_target(tmp_path, capsys):
    text = BASE_CONFIG.replace("alpha = 0.05", "cost_c = 0.001\ncost_r = 1.0")
    path = tmp_path / "cost.ini"
    path.write_text(text)
    assert cli.main(["calibrate", "--config", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    # D = 1/(I + mu) with I = 0.5, mu = |log 0.9|; A = 1/(c D)
    mu = abs(math.log(0.9))
    expected = (0.5 + mu) / 0.001
    assert payload["threshold_A"] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("cost_r", ["1.0", "2.0"])
def test_calibrate_unreachable_cost_reads_alike_for_every_moment_order(cost_r, tmp_path, capsys):
    # 1 / (c r D) overflows at c = 1e-320, so no finite threshold exists
    text = BASE_CONFIG.replace("alpha = 0.05", f"cost_c = 1e-320\ncost_r = {cost_r}")
    path = tmp_path / "cost.ini"
    path.write_text(text)
    assert cli.main(["calibrate", "--config", str(path)]) == EXIT_CONFIG
    reason = "threshold must be positive and finite, got inf"
    assert capsys.readouterr().err == f"configuration error: calibration failed: {reason}\n"


def test_calibrate_infeasible_alpha_is_config_error(tmp_path, capsys):
    text = BASE_CONFIG.replace("q = 0.0", "q = 0.97").replace(
        "alpha = 0.05", "alpha = 0.05\n"
    )
    # alpha = 0.05 >= 1 - q = 0.03 is infeasible for the posterior-odds rule
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["calibrate", "--config", str(path)]) == EXIT_CONFIG


def test_infinite_threshold_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG.replace("alpha = 0.05", "threshold = inf"))
    for command in ("calibrate", "simulate"):
        assert cli.main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "finite" in err and err.count("\n") == 1


def test_threshold_beyond_e700_runs(tmp_path, capsys):
    # log A = 702.3: every finite threshold is reachable by the log-domain statistic
    path = tmp_path / "big.ini"
    path.write_text(BASE_CONFIG.replace("alpha = 0.05", "threshold = 1e305"))
    assert cli.main(["calibrate", "--config", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["threshold_A"] == 1e305
    assert cli.main(["simulate", "--config", str(path)]) == EXIT_OK


def test_a_vanishing_polynomial_tail_names_its_step(tmp_path, capsys):
    # P(nu >= 1) = zeta(2001, 2) / zeta(2001, 1) underflows to 0
    path = tmp_path / "bad.ini"
    path.write_text(
        BASE_CONFIG.replace("kind = geometric\nrho = 0.1", "kind = polynomial-tail\nbeta = 2000")
    )
    assert cli.main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: prior tail vanishes at n=1; the Shiryaev statistic is undefined\n"
    )


def test_zero_replications_is_config_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG.replace("replications = 150", "replications = 0"))
    assert cli.main(["simulate", "--config", str(path)]) == EXIT_CONFIG


def test_simulate_outputs_are_deterministic(config_path, tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.main(["simulate", "--config", config_path, "--out", str(out1)]) == EXIT_OK
    assert cli.main(["simulate", "--config", config_path, "--out", str(out2)]) == EXIT_OK
    assert (out1.with_suffix(".csv")).read_bytes() == (out2.with_suffix(".csv")).read_bytes()
    assert (out1.with_suffix(".json")).read_bytes() == (out2.with_suffix(".json")).read_bytes()


def test_simulate_summary_recomputable_from_rows(config_path, tmp_path):
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", config_path, "--out", str(out)]) == EXIT_OK
    with open(out.with_suffix(".csv")) as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads(out.with_suffix(".json").read_text())
    n = len(rows)
    alarms = [
        r for r in rows if r["censored"] == "0" and int(r["stopped_at"]) <= int(r["nu"])
    ]
    assert summary["pfa_estimate"] == pytest.approx(len(alarms) / n, abs=1e-12)
    delays = [float(r["delay"]) for r in rows if r["delay"] != ""]
    for r_order, payload in summary["delay_moments"].items():
        moments = [d ** float(r_order) for d in delays]
        assert payload["mean"] == pytest.approx(sum(moments) / len(moments), rel=1e-12)
    censored = sum(r["censored"] == "1" for r in rows)
    assert summary["censored_fraction"] == pytest.approx(censored / n, abs=1e-12)


def test_cost_c_nan_is_blamed_on_c(tmp_path, capsys):
    command, text = BAD_CONFIGS["cost-c-nan"]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main([command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "c = nan" in err and "threshold" not in err


def test_ar_coeffs_nan_is_blamed_on_coeffs(tmp_path, capsys):
    command, text = BAD_CONFIGS["ar-coeffs-nan"]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main([command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "coeffs" in err and "infs or NaNs" not in err


def test_simulate_with_a_one_step_window(tmp_path):
    # m1 = 0: only the newest candidate change point, the same rule DetectorState takes
    path = tmp_path / "one-step.ini"
    path.write_text(with_detector_keys("window_m1 = 0"))
    assert cli.main(["simulate", "--config", str(path)]) == EXIT_OK


def test_simulate_with_window_offset(tmp_path):
    path = tmp_path / "offset.ini"
    path.write_text(with_detector_keys("window_m1 = 20\nwindow_m0 = 1"))
    assert cli.main(["simulate", "--config", str(path)]) == EXIT_OK


def test_change_theta_follows_its_stream(tmp_path):
    three = BASE_CONFIG.replace("streams = 1", "streams = 3").replace("K = 1", "K = 2")

    def csv_for(subset, theta):
        path = tmp_path / "three.ini"
        path.write_text(
            three.replace("subset = 1\ntheta = 1.0", f"subset = {subset}\ntheta = {theta}")
        )
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        return out.with_suffix(".csv").read_bytes()

    given_order = csv_for("3, 1", "0.5, 2.0")
    assert given_order == csv_for("1, 3", "2.0, 0.5")
    assert given_order != csv_for("1, 3", "0.5, 2.0")


def test_simulate_with_prior_sampled_change(tmp_path):
    path = tmp_path / "prior.ini"
    path.write_text(BASE_CONFIG.replace("nu = 0", "nu = prior"))
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    with open(out.with_suffix(".csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len({r["nu"] for r in rows}) > 1


FAR_CHANGE_CONFIG = """\
[scenario]
kind = ar
streams = 2
sigma = 1.0
theta = 1.0

[prior]
{prior}

[change]
nu = prior
subset = 1

[grid]
theta_points = 1.0
p = 1.0
K = 1

[detector]
kind = sr-mixture
threshold = 100

[mc]
replications = 64
master_seed = 12
horizon = 50
"""


@pytest.mark.parametrize(
    "prior", ["kind = polynomial-tail\nbeta = 0.05", "kind = geometric\nrho = 1e-20"]
)
def test_simulate_records_change_points_past_any_horizon(prior, tmp_path):
    # most draws lie past 2**62; they used to overflow the int64 records
    path = tmp_path / "far.ini"
    path.write_text(FAR_CHANGE_CONFIG.format(prior=prior))
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    with open(out.with_suffix(".csv")) as fh:
        nu = [int(row["nu"]) for row in csv.DictReader(fh)]
    assert max(nu) == NO_CHANGE - 1 and min(nu) >= 0


@pytest.mark.parametrize("kind", ["ar", "mixture"])
@pytest.mark.parametrize("sigma", ["1e-200", "1e308"])
def test_a_sigma_whose_square_leaves_the_float_range_is_a_scenario_error(
    kind, sigma, tmp_path, capsys
):
    text = BASE_CONFIG if kind == "ar" else with_mixture(BASE_CONFIG)
    path = tmp_path / "sigma.ini"
    path.write_text(text.replace("sigma = 1.0", f"sigma = {sigma}"))
    assert cli.main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert "[scenario]" in err and "sigma" in err


@pytest.mark.parametrize("command", ["simulate", "oc-sweep"])
def test_increments_that_overflow_are_a_config_error(command, tmp_path, capsys):
    # the grid point passes its finiteness check, but its squared drift does not fit a float
    path = tmp_path / "overflow.ini"
    path.write_text(PRIOR_NU.replace("theta_points = 1.0", "theta_points = 1e200") + SWEEP)
    assert cli.main([command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert "step 1 " in err and "not finite" in err


def test_oc_sweep_single_alpha(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(
        BASE_CONFIG.replace("nu = 0", "nu = prior")
        + "\n[sweep]\nalphas = 0.05\nr = 1\n"
    )
    out = tmp_path / "table.csv"
    assert cli.main(["oc-sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["alpha"]) == 0.05


def test_oc_sweep_threshold_monotone_and_ratio_shared(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(
        BASE_CONFIG.replace("nu = 0", "nu = prior").replace("horizon = 150", "horizon = 400")
        + "\n[sweep]\nalphas = 0.1, 0.01\nr = 1\n"
    )
    out = tmp_path / "table.csv"
    assert cli.main(["oc-sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[1]["threshold_A"]) > float(rows[0]["threshold_A"])
    # every column, the PFA pair too, comes from one call of the sweep API
    from qcdetect import (
        Detector,
        GeometricPrior,
        GridSpec,
        MCConfig,
        Scenario,
        SubsetWeights,
        asymptotic_ratio_sweep,
        gaussian_stream,
    )

    scenario = Scenario((gaussian_stream(theta=1.0),))
    grid = GridSpec.degenerate((1.0,))
    weights = SubsetWeights.uniform(1)
    prior = GeometricPrior(rho=0.1)
    mc = MCConfig(replications=150, master_seed=12, horizon=400)
    detector = Detector("shiryaev-mixture", scenario, prior, grid, weights)
    expected = asymptotic_ratio_sweep(detector, [0.1, 0.01], 1, mc, (0,), (1.0,))
    fields = {"delay_r1": "delay_moment", "delay_se_r1": "delay_se"}
    for row, exp in zip(rows, expected):
        assert list(row) == [
            "alpha", "threshold_A", "pfa_est", "pfa_se", "delay_r1", "delay_se_r1",
            "first_order", "ratio", "ratio_se", "censored_fraction",
        ]
        for column, text in row.items():
            assert float(text) == getattr(exp, fields.get(column, column)), column


@pytest.mark.parametrize("command", ["calibrate", "simulate", "oc-sweep"])
def test_out_in_a_missing_directory_exits_before_any_work(command, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "load_config", lambda *args: calls.append(args))
    path = tmp_path / "sweep.ini"
    path.write_text(PRIOR_NU + "\n[sweep]\nalphas = 0.1\nr = 1\n")
    out = tmp_path / "missing" / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    assert captured.err.count("\n") == 1 and "--out" in captured.err


@pytest.mark.parametrize("command", ["calibrate", "simulate", "oc-sweep"])
def test_a_failed_write_to_out_exits_2(command, tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(PRIOR_NU + "\n[sweep]\nalphas = 0.1\nr = 1\n")
    (tmp_path / "out.csv").mkdir()  # simulate writes <out>.csv first
    out = tmp_path / ("out" if command == "simulate" else "out.csv")
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert "--out" in err


def _no_bare_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "change, undefined",
    [
        (("alpha = 0.05", "threshold = 1e300"), ("mean", "stderr")),  # every run censored
        (("replications = 150", "replications = 1"), ("stderr",)),
    ],
    ids=["all-censored", "one-replication"],
)
def test_simulate_summary_writes_null_for_an_undefined_moment(change, undefined, tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG.replace(*change))
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    for text in (capsys.readouterr().out, out.with_suffix(".json").read_text()):
        moments = json.loads(text, parse_constant=_no_bare_constant)["delay_moments"]
        for order in ("1", "2"):
            assert [k for k, v in moments[order].items() if v is None] == list(undefined)


@pytest.mark.parametrize("flag", ["--seed", "--workers"])
def test_calibrate_takes_no_seed_or_workers(flag, config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["calibrate", "--config", config_path, flag, "3"])
    assert exc.value.code == EXIT_CONFIG
    assert flag in capsys.readouterr().err


def test_oc_sweep_checks_every_alpha_before_simulating(tmp_path, monkeypatch, capsys):
    # alpha = 0.5 >= 1 - q = 0.4 is infeasible and alpha = 1e-320 overflows A;
    # alpha = 0.1 must not be simulated first, and the level reads alike later
    # in the grid and first
    calls = []
    monkeypatch.setattr(montecarlo, "simulate_runs", lambda *args: calls.append(args))
    path = tmp_path / "sweep.ini"
    for bad, reason in (
        ("0.5", "alpha must be in (0, 0.4), got 0.5"),
        ("1e-320", "threshold must be positive and finite, got inf"),
    ):
        for alphas in (f"0.1, {bad}", f"{bad}, 0.1"):
            text = PRIOR_NU.replace("q = 0.0", "q = 0.6") + SWEEP.replace("0.1, 0.5", alphas)
            path.write_text(text)
            assert cli.main(["oc-sweep", "--config", str(path)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"configuration error: calibration failed: {reason}\n"
    assert calls == []


PARTS = ("build_scenario", "build_prior", "build_grid", "build_weights")


@pytest.mark.parametrize("target", ["alpha = 0.05", "cost_c = 0.001"])
@pytest.mark.parametrize("command", ["calibrate", "simulate", "oc-sweep"])
def test_each_command_builds_each_part_once(command, target, tmp_path, monkeypatch, capsys):
    built = collections.Counter()
    for name in PARTS:
        def counting(*args, build=getattr(cli, name), name=name):
            built[name] += 1
            return build(*args)

        monkeypatch.setattr(cli, name, counting)
    path = tmp_path / "run.ini"
    path.write_text(PRIOR_NU.replace("alpha = 0.05", target) + SWEEP)
    assert cli.main([command, "--config", str(path)]) == EXIT_OK
    assert built == dict.fromkeys(PARTS, 1)


@pytest.mark.parametrize(
    "command, calibrations", [("calibrate", 1), ("simulate", 1), ("oc-sweep", 2)]
)
def test_each_level_is_calibrated_once(command, calibrations, tmp_path, monkeypatch, capsys):
    # the sweep's two levels share one statistic, built without a threshold
    calls = []
    level_threshold = detectors.level_threshold

    def counting(*args):
        calls.append(args)
        return level_threshold(*args)

    monkeypatch.setattr(detectors, "level_threshold", counting)
    path = tmp_path / "run.ini"
    path.write_text(PRIOR_NU + SWEEP)
    assert cli.main([command, "--config", str(path)]) == EXIT_OK
    assert len(calls) == calibrations


@pytest.fixture
def built_pools(monkeypatch):
    """Count the executors built, each still the real ``ProcessPoolExecutor``.

    Spans hold 50 rows, so each of a sweep's passes over 150 replications has
    three and fans out.
    """
    real, built = concurrent.futures.ProcessPoolExecutor, []

    def counting(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    monkeypatch.setattr(montecarlo, "_CHUNK", 50)
    return built


def test_oc_sweep_runs_every_pass_on_one_pool_and_joins_it(tmp_path, built_pools, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(PRIOR_NU + SWEEP)
    assert cli.main(["oc-sweep", "--config", str(path), "--workers", "2"]) == EXIT_OK
    assert built_pools == [{"max_workers": 2}]
    assert multiprocessing.active_children() == []


def test_oc_sweep_joins_its_pool_when_the_pfa_horizon_is_infeasible(
    tmp_path, built_pools, monkeypatch, capsys
):
    passes = []
    original = montecarlo.simulate_runs

    def counting(detector, threshold, mc, sampler):
        passes.append(sampler is montecarlo.NO_CHANGE_SAMPLER)
        return original(detector, threshold, mc, sampler)

    monkeypatch.setattr(montecarlo, "simulate_runs", counting)
    path = tmp_path / "sweep.ini"
    # P(nu > 20) = 0.9^21 is not negligible, and no-change runs outlast 20 steps
    path.write_text(PRIOR_NU.replace("horizon = 150", "horizon = 20") + SWEEP)
    assert cli.main(["oc-sweep", "--config", str(path), "--workers", "2"]) == EXIT_HORIZON
    assert "infeasible horizon" in capsys.readouterr().err
    assert passes == [False, False, True]  # both delay passes, then the first PFA pass
    assert len(built_pools) == 1
    assert multiprocessing.active_children() == []


def test_oc_sweep_generates_each_dataset_once_for_every_level(tmp_path, monkeypatch, capsys):
    """The delay and the PFA dataset are each generated once, span by span, for both levels.

    Every level still gets its own ``simulate_runs`` result: 2·L of them.
    """
    monkeypatch.setattr(montecarlo, "_CHUNK", 50)  # 3 spans of 150 replications
    generated, passes = [], []
    generate, simulate_runs = Scenario.generate, montecarlo.simulate_runs

    def counting_generate(*args):
        generated.append(args)
        return generate(*args)

    def counting_runs(*args):
        passes.append(simulate_runs(*args))
        return passes[-1]

    monkeypatch.setattr(Scenario, "generate", counting_generate)
    monkeypatch.setattr(montecarlo, "simulate_runs", counting_runs)
    path = tmp_path / "sweep.ini"
    path.write_text(PRIOR_NU + SWEEP)
    assert cli.main(["oc-sweep", "--config", str(path)]) == EXIT_OK
    assert len(generated) == 2 * 3  # 2 * L * 3 with a scan per level
    assert len(passes) == 2 * 2
    assert len({id(records.stopped) for records in passes}) == 2 * 2  # fresh arrays each


@pytest.mark.parametrize("target", ["threshold = 3.0", "cost_c = 0.001"])
def test_oc_sweep_overrides_every_calibration_target(target, tmp_path, capsys):
    # each level is calibrated from its alpha alone, whatever [detector] sets
    tables = []
    for text in (PRIOR_NU, PRIOR_NU.replace("alpha = 0.05", target)):
        path = tmp_path / "sweep.ini"
        path.write_text(text + SWEEP)
        assert cli.main(["oc-sweep", "--config", str(path)]) == EXIT_OK
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


def test_readme_example_config_calibrates(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    config = load_config(str(path))
    assert config.detector.kind == "shiryaev-mixture"
    assert cli.main(["calibrate", "--config", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["threshold_A"] == pytest.approx(199.0)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    stops, log_values, pfa = capsys.readouterr().out.splitlines()
    assert stops.startswith("[") and "-1" not in stops
    assert 0.0 < float(pfa.split()[0]) <= 0.005


def test_csv_floats_round_trip_exactly(config_path, tmp_path):
    out = tmp_path / "sim"
    cli.main(["simulate", "--config", config_path, "--out", str(out)])
    summary = json.loads(out.with_suffix(".json").read_text())
    # repr round-trip: parsing the serialized value reproduces the float
    text = json.dumps(summary)
    assert json.loads(text) == summary


def test_verify_all_suites_pass(capsys):
    assert cli.main(["verify", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all" in out and "FAIL" not in out


def test_verify_catches_injected_window_offset(monkeypatch, capsys):
    original = statistics_mod.direct_log_statistic

    def off_by_one(increments, weighting, grid, weights, **kwargs):
        kwargs["m0"] = kwargs.get("m0", 0) + 1  # drop the most recent change point
        return original(increments, weighting, grid, weights, **kwargs)

    monkeypatch.setattr(statistics_mod, "direct_log_statistic", off_by_one)
    assert cli.main(["verify", "recursion-direct", "--seed", "0"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL recursion-direct" in out


@pytest.mark.parametrize(
    "argv",
    [["nosuch"], ["dp-enumeration", "nosuch"], ["all", "nosuch"], ["sr-mean", "--seed", "-1"]],
    ids=["unknown-suite", "unknown-after-known", "unknown-after-all", "negative-seed"],
)
def test_verify_bad_input_is_a_one_line_config_error(argv, capsys):
    assert cli.main(["verify", *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before any suite runs
    assert captured.err.startswith("configuration error") and captured.err.count("\n") == 1


def test_verify_all_anywhere_runs_every_suite_once(monkeypatch, capsys):
    from qcdetect import verify

    calls = []

    def suite(name):
        def run(seed):
            calls.append(name)
            return [verify.CheckResult(name, "stub", True, "ok")]
        return run

    monkeypatch.setattr(verify, "SUITES", {name: suite(name) for name in verify.SUITES})
    assert cli.main(["verify", "dp-enumeration", "all", "telescoping"]) == EXIT_OK
    assert calls == list(verify.SUITES)
    assert capsys.readouterr().out.endswith(f"all {len(calls)} checks passed\n")


def test_verify_passes_across_seeds():
    for seed in range(10):
        assert cli.main(["verify", "dp-enumeration", "telescoping", "--seed", str(seed)]) == EXIT_OK


def test_verify_json_prints_one_object_per_check_and_the_counts(monkeypatch, capsys):
    assert cli.main(["verify", "dp-enumeration", "--seed", "0"]) == EXIT_OK
    text = capsys.readouterr().out.splitlines()
    assert cli.main(["verify", "dp-enumeration", "--seed", "0", "--json"]) == EXIT_OK
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[-1] == {"checks": len(records) - 1, "failed": 0}
    assert len(text) == len(records)  # one line per check, then the summary line
    for line, record in zip(text[:-1], records[:-1]):
        assert list(record) == ["suite", "name", "passed", "detail"]
        assert line == f"PASS {record['suite']}/{record['name']}: {record['detail']}"

    original = statistics_mod.direct_log_statistic

    def off_by_one(increments, weighting, grid, weights, **kwargs):
        kwargs["m0"] = kwargs.get("m0", 0) + 1
        return original(increments, weighting, grid, weights, **kwargs)

    monkeypatch.setattr(statistics_mod, "direct_log_statistic", off_by_one)
    assert cli.main(["verify", "recursion-direct", "--seed", "0", "--json"]) == EXIT_VERIFY
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failed = sum(not r["passed"] for r in records[:-1])
    assert failed > 0 and records[-1] == {"checks": len(records) - 1, "failed": failed}
