"""Command line front end: config handling, outputs, exit codes."""

import configparser
import csv
import json
import math
from pathlib import Path

import pytest

from qcdetect import cli, montecarlo
from qcdetect import statistics as statistics_mod
from qcdetect.cli import (
    EXIT_CONFIG,
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
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_is_a_one_line_config_error(name, tmp_path, capsys):
    command, text = BAD_CONFIGS[name]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main([command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1


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


def test_calibrate_infeasible_alpha_is_config_error(tmp_path, capsys):
    text = BASE_CONFIG.replace("q = 0.0", "q = 0.97").replace(
        "alpha = 0.05", "alpha = 0.05\n"
    )
    # alpha = 0.05 >= 1 - q = 0.03 is infeasible for the posterior-odds rule
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["calibrate", "--config", str(path)]) == EXIT_CONFIG


def test_unreachable_threshold_is_config_error(tmp_path, capsys):
    # log A = 702.3 lies beyond the log-domain clamp of the statistic
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG.replace("alpha = 0.05", "threshold = 1e305"))
    for command in ("calibrate", "simulate"):
        assert cli.main([command, "--config", str(path)]) == EXIT_CONFIG
        assert "clamp" in capsys.readouterr().err


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
    # the ratio column comes from the same code path as the sweep API
    from qcdetect import (
        Detector,
        DetectorConfig,
        GridSpec,
        MCConfig,
        PriorSpec,
        Scenario,
        SubsetWeights,
        asymptotic_ratio_sweep,
        gaussian_stream,
        threshold_shiryaev,
    )

    scenario = Scenario((gaussian_stream(theta=1.0),))
    grid = GridSpec.degenerate((1.0,))
    weights = SubsetWeights.uniform(1)
    prior = PriorSpec.geometric(rho=0.1)
    mc = MCConfig(replications=150, master_seed=12, horizon=400)

    def factory(alpha):
        return Detector(
            DetectorConfig(kind="shiryaev-mixture", threshold_A=threshold_shiryaev(alpha)),
            scenario, prior, grid, weights,
        )

    expected = asymptotic_ratio_sweep(
        factory, [0.1, 0.01], 1, mc, (0,), (1.0,), 0.5, prior.tail_rate
    )
    for row, exp in zip(rows, expected):
        assert float(row["ratio"]) == exp.ratio
        assert float(row["ratio_se"]) == exp.ratio_se


def test_oc_sweep_checks_every_alpha_before_simulating(tmp_path, monkeypatch, capsys):
    # alpha = 0.5 >= 1 - q = 0.4 is infeasible; alpha = 0.1 must not be simulated first
    calls = []
    monkeypatch.setattr(montecarlo, "simulate_runs", lambda *args: calls.append(args))
    path = tmp_path / "sweep.ini"
    path.write_text(PRIOR_NU.replace("q = 0.0", "q = 0.6") + SWEEP)
    assert cli.main(["oc-sweep", "--config", str(path)]) == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err
    assert calls == []


def test_readme_example_config_calibrates(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    config = load_config(str(path))
    assert config.detector.kind == "shiryaev-mixture"
    assert cli.main(["calibrate", "--config", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["threshold_A"] == pytest.approx(199.0)


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


def test_verify_passes_across_seeds():
    for seed in range(10):
        assert cli.main(["verify", "dp-enumeration", "telescoping", "--seed", str(seed)]) == EXIT_OK


def test_workers_env_default(config_path, monkeypatch, capsys):
    monkeypatch.setenv("QCD_WORKERS", "not-a-number")
    assert cli.main(["simulate", "--config", config_path]) == EXIT_CONFIG
    monkeypatch.setenv("QCD_WORKERS", "2")
    assert cli.main(["simulate", "--config", config_path]) == EXIT_OK
