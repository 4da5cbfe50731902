"""Golden outputs: small fixed runs whose results must not move.

Each stopping-time digest is the SHA-256 of ``stopped`` then ``nu``
(little-endian int64) of one ``simulate_runs`` call.  Each CLI digest is the
SHA-256 of a command's stdout then the files it writes with ``--out``.  A
change that alters a single bit of the data, the statistics, the stopping rule
or the CLI's output changes a digest; such a change must be deliberate and say
so.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from qcdetect import (
    ARChannelSpec,
    ChangeSpec,
    Detector,
    GeometricPrior,
    GridSpec,
    MCConfig,
    MixtureChannelSpec,
    Scenario,
    SubsetWeights,
    simulate_runs,
    threshold_shiryaev,
    threshold_sr,
)
from qcdetect import cli
from qcdetect.scenarios import FixedChangeSampler, JointSampler, PriorNuSampler
from test_cli import BASE_CONFIG, PRIOR_NU, SWEEP


def digest(records) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(records.stopped, dtype="<i8").tobytes())
    h.update(np.asarray(records.nu, dtype="<i8").tobytes())
    return h.hexdigest()


def ar_scenario():
    return Scenario(
        (
            ARChannelSpec(coeffs=(), sigma=1.0, signal=(1.0,), theta=1.0),
            ARChannelSpec(coeffs=(0.5,), sigma=0.8, signal=(1.0, 0.5), theta=0.7),
            ARChannelSpec(coeffs=(0.3, -0.2), sigma=1.2, signal=(1.0, -1.0, 0.5), theta=1.2),
        )
    )


def recursive_shiryaev_ar():
    scenario = ar_scenario()
    detector = Detector(
        "shiryaev-mixture",
        scenario,
        GeometricPrior(rho=0.05),
        GridSpec.common_amplitude((0.5, 1.0), 3),
        SubsetWeights.uniform(3, 2),
    )
    mc = MCConfig(replications=96, master_seed=31, horizon=200)
    return simulate_runs(detector, threshold_shiryaev(0.01), mc, PriorNuSampler((0, 2)))


def window_sr_mixture():
    channel = MixtureChannelSpec(beta_mix=0.3, mu1=-1.0, mu2=0.0, theta=1.0)
    detector = Detector(
        "sr-mixture",
        Scenario((channel,) * 3),
        GeometricPrior(rho=0.05),
        GridSpec.common_amplitude((0.5, 1.0), 3),
        SubsetWeights.uniform(3, 2),
        window_m1=15,
    )
    mc = MCConfig(replications=48, master_seed=32, horizon=120)
    return simulate_runs(detector, 300.0, mc, FixedChangeSampler(ChangeSpec(nu=20, subset=(1,))))


def average_risk_joint():
    detector = Detector(
        "shiryaev-mixture",
        ar_scenario(),
        GeometricPrior(rho=0.03, q=0.1),
        GridSpec.common_amplitude((0.5, 1.0), 3, weights=(0.4, 0.6)),
        SubsetWeights(p=(1.0, 2.0, 0.5), K=3),
    )
    mc = MCConfig(replications=96, master_seed=33, horizon=200)
    sampler = JointSampler.for_detector(detector)
    return simulate_runs(detector, threshold_shiryaev(0.02), mc, sampler)


def recursive_sr_head_start():
    prior = GeometricPrior(rho=0.05)
    detector = Detector(
        "sr-mixture",
        ar_scenario(),
        prior,
        GridSpec.common_amplitude((0.5, 1.0), 3),
        SubsetWeights(p=(1.0, 2.0, 0.5), K=2),
        omega=1.5,
    )
    mc = MCConfig(replications=64, master_seed=34, horizon=200)
    sampler = FixedChangeSampler(ChangeSpec(nu=15, subset=(0, 2)))
    return simulate_runs(detector, threshold_sr(0.05, 1.5, prior), mc, sampler)


def window_shiryaev_head_mass():
    # m1 = 25 covers the origin for n <= 26, so the head term q * Lambda(0, n)
    # enters the window sum on the early steps
    channel = MixtureChannelSpec(beta_mix=0.3, mu1=-1.0, mu2=0.0, theta=1.0)
    detector = Detector(
        "shiryaev-mixture",
        Scenario((channel,) * 3),
        GeometricPrior(rho=0.05, q=0.2),
        GridSpec.common_amplitude((0.5, 1.0), 3),
        SubsetWeights.uniform(3, 2),
        window_m1=25,
    )
    mc = MCConfig(replications=48, master_seed=35, horizon=120)
    return simulate_runs(detector, threshold_shiryaev(0.02, 0.2), mc, PriorNuSampler((0, 1)))


GOLDEN = {
    "recursive_shiryaev_ar": (
        recursive_shiryaev_ar,
        "81b9da9b0c27c0061b8999e44daa2f88567e862520766ff60d88deee6e6b065c",
    ),
    "window_sr_mixture": (
        window_sr_mixture,
        "d9e22507f55dd701d0f8e9a1055cfb68b7e7219c7d6f32b25a3c5696040d3c6d",
    ),
    "average_risk_joint": (
        average_risk_joint,
        "1fa79d03d123ba56f45dcafdb87df277974a3421d1227fe8bb8a3a73589de879",
    ),
    "recursive_sr_head_start": (
        recursive_sr_head_start,
        "2a87040bd30b241fc0f97b8fef743e5cda20cc314fa956ba9ac2872da9a3eb84",
    ),
    "window_shiryaev_head_mass": (
        window_shiryaev_head_mass,
        "51ca2c82e7aa5522af70e4722829892191add19701e02251bcf9f93d7898aec4",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stopping_times(name):
    run, expected = GOLDEN[name]
    assert digest(run()) == expected


SR_RULE = ("kind = shiryaev-mixture", "kind = sr-mixture")
COST = ("alpha = 0.05", "cost_c = 0.001")
THREE_STREAMS = ("streams = 1", "streams = 3")
THREE_WEIGHTS = ("p = 1.0\nK = 1", "p = 1.0, 2.0, 0.5\nK = 3")

#: name -> (command, config, suffixes of the files written to ``--out``, digest)
CLI_GOLDEN = {
    "calibrate_alpha": (
        "calibrate", BASE_CONFIG, ("",),
        "c9f33f6d18a3464add15a16b4cdf95d83449e334b55b51dfa8beaea90e7ea374",
    ),
    "calibrate_alpha_sr": (
        "calibrate", BASE_CONFIG.replace(*SR_RULE), ("",),
        "978982f46db1a6abe8721ec9c32fe4bc8010846ccf9dcaf93dc1a00d19f94be7",
    ),
    "calibrate_explicit": (
        "calibrate", BASE_CONFIG.replace("alpha = 0.05", "threshold = 50.0"), ("",),
        "aa91015c19bf09ceea98e57cbb0d43163d257667803e59fce36ac3d438d8713b",
    ),
    "calibrate_cost": (
        "calibrate", BASE_CONFIG.replace(*COST), ("",),
        "d3ac9fee502f2e875b9227c0a4e50b4860c348a261aff42de678e56710908c91",
    ),
    # three streams with K = 3: d_constant sums over 7 subsets, so its order shows
    "calibrate_cost_n3": (
        "calibrate", BASE_CONFIG.replace(*COST).replace(*THREE_STREAMS).replace(*THREE_WEIGHTS)
        .replace("theta_points = 1.0", "theta_points = 0.5; 1.0"), ("",),
        "a5d088e17491aacb611ec863e280f6a4364f2aab8569eb3b5407c14b526df24c",
    ),
    "calibrate_cost_sr": (
        "calibrate", BASE_CONFIG.replace(*COST).replace(*SR_RULE), ("",),
        "8cfaece0b37a86fce93679aba94605451f8cf099d5a8efa79bc20f0ee7f3f754",
    ),
    "simulate_fixed_nu": (
        "simulate", BASE_CONFIG, (".csv", ".json"),
        "1dc71688dbb28d566a983053458900e6b93913b24c74ea78e7d6b60324edb93c",
    ),
    "simulate_prior_nu": (
        "simulate", PRIOR_NU, (".csv", ".json"),
        "693753b1db6298d9436914f74fc864058f79b3c5ba5755cf4d88869af3df3aca",
    ),
    "oc_sweep_shiryaev": (
        "oc-sweep", PRIOR_NU + SWEEP, ("",),
        "325e090f4b54056f1203bad4dd986207f459153b3f2374670a4c35ab1400bd33",
    ),
    "oc_sweep_sr": (
        "oc-sweep", PRIOR_NU.replace(*SR_RULE) + SWEEP, ("",),
        "0a44f5144946af0a12e2d9ef594742d6def23db8c962e9d27bf756367aa9ff5a",
    ),
    # levels out of order and repeated: each row stays in its place and a
    # repeated level repeats its row
    "oc_sweep_unsorted_repeated_levels": (
        "oc-sweep", PRIOR_NU + "\n[sweep]\nalphas = 0.01, 0.1, 0.01\nr = 1\n", ("",),
        "9074cbb2a28b27a688224042890e33a106c7ce77dd24d5971d7b7fdbde09c86f",
    ),
    "oc_sweep_window": (
        "oc-sweep", PRIOR_NU.replace("alpha = 0.05", "alpha = 0.05\nwindow_m1 = 10") + SWEEP,
        ("",),
        "2f62976b79c514f819a5feb4863793fff51a9bfaf47c2b29908b4c300772585f",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_golden_cli_bytes(name, tmp_path, capsys):
    command, text, suffixes, expected = CLI_GOLDEN[name]
    path = tmp_path / "run.ini"
    path.write_text(text)
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", str(path), "--out", out]) == cli.EXIT_OK
    h = hashlib.sha256(capsys.readouterr().out.encode())
    for suffix in suffixes:
        h.update(Path(out + suffix).read_bytes())
    assert h.hexdigest() == expected
