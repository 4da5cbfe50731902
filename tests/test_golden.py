"""Golden stopping times: small fixed runs whose outcomes must not move.

Each digest is the SHA-256 of ``stopped`` then ``nu`` (little-endian int64) of
one ``simulate_runs`` call.  A change that alters a single bit of the data,
the statistics or the stopping rule changes a digest; such a change must be
deliberate and say so.
"""

import hashlib

import numpy as np
import pytest

from qcdetect import (
    ARChannelSpec,
    ChangeSpec,
    Detector,
    DetectorConfig,
    GridSpec,
    MCConfig,
    MixtureChannelSpec,
    PriorSpec,
    Scenario,
    SubsetWeights,
    simulate_runs,
    threshold_shiryaev,
    threshold_sr,
)
from qcdetect.montecarlo import FixedChangeSampler, JointSampler, PriorNuSampler


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
        DetectorConfig(kind="shiryaev-mixture", threshold_A=threshold_shiryaev(0.01)),
        scenario,
        PriorSpec.geometric(rho=0.05),
        GridSpec.common_amplitude((0.5, 1.0), 3),
        SubsetWeights.uniform(3, 2),
    )
    mc = MCConfig(replications=96, master_seed=31, horizon=200)
    return simulate_runs(detector, mc, PriorNuSampler((0, 2)))


def window_sr_mixture():
    channel = MixtureChannelSpec(beta_mix=0.3, mu1=-1.0, mu2=0.0, theta=1.0)
    detector = Detector(
        DetectorConfig(kind="sr-mixture", threshold_A=300.0, window_m1=15),
        Scenario((channel,) * 3),
        PriorSpec.geometric(rho=0.05),
        GridSpec.common_amplitude((0.5, 1.0), 3),
        SubsetWeights.uniform(3, 2),
    )
    mc = MCConfig(replications=48, master_seed=32, horizon=120)
    return simulate_runs(detector, mc, FixedChangeSampler(ChangeSpec(nu=20, subset=(1,))))


def average_risk_joint():
    detector = Detector(
        DetectorConfig(kind="shiryaev-mixture", threshold_A=threshold_shiryaev(0.02)),
        ar_scenario(),
        PriorSpec.geometric(rho=0.03, q=0.1),
        GridSpec.common_amplitude((0.5, 1.0), 3, weights=(0.4, 0.6)),
        SubsetWeights(p=(1.0, 2.0, 0.5), K=3),
    )
    mc = MCConfig(replications=96, master_seed=33, horizon=200)
    return simulate_runs(detector, mc, JointSampler.for_detector(detector))


def recursive_sr_head_start():
    prior = PriorSpec.geometric(rho=0.05)
    detector = Detector(
        DetectorConfig(
            kind="sr-mixture",
            threshold_A=threshold_sr(0.05, 1.5, prior),
            head_start_omega=1.5,
        ),
        ar_scenario(),
        prior,
        GridSpec.common_amplitude((0.5, 1.0), 3),
        SubsetWeights(p=(1.0, 2.0, 0.5), K=2),
    )
    mc = MCConfig(replications=64, master_seed=34, horizon=200)
    return simulate_runs(detector, mc, FixedChangeSampler(ChangeSpec(nu=15, subset=(0, 2))))


def window_shiryaev_head_mass():
    # m1 = 25 covers the origin for n <= 26, so the head term q * Lambda(0, n)
    # enters the window sum on the early steps
    channel = MixtureChannelSpec(beta_mix=0.3, mu1=-1.0, mu2=0.0, theta=1.0)
    detector = Detector(
        DetectorConfig(kind="shiryaev-mixture", threshold_A=threshold_shiryaev(0.02, 0.2),
                       window_m1=25),
        Scenario((channel,) * 3),
        PriorSpec.geometric(rho=0.05, q=0.2),
        GridSpec.common_amplitude((0.5, 1.0), 3),
        SubsetWeights.uniform(3, 2),
    )
    mc = MCConfig(replications=48, master_seed=35, horizon=120)
    return simulate_runs(detector, mc, PriorNuSampler((0, 1)))


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
