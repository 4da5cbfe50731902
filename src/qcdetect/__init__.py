"""Bayesian quickest change detection in multistream data.

Mixture Shiryaev and Shiryaev-Roberts stopping rules over unknown affected
subsets and post-change parameters, with exact recursions, window-limited
variants, threshold calibration, and a reproducible Monte Carlo harness for
operating characteristics.
"""

from .detectors import (
    Detector,
    DetectorConfig,
    d_constant,
    threshold_cost,
    threshold_shiryaev,
    threshold_sr,
)
from .likelihood import (
    SubsetWeights,
    mixture_lr_dp,
    mixture_lr_enumerate,
)
from .model import (
    NO_CHANGE,
    ChangeSpec,
    GeometricPrior,
    PointMassPrior,
    PolynomialTailPrior,
    PriorSpec,
    replication_rng,
)
from .montecarlo import (
    InfeasibleHorizonError,
    MCConfig,
    MCEstimate,
    asymptotic_ratio_sweep,
    estimate_average_risk,
    estimate_bayes_delay,
    estimate_conditional_delay,
    estimate_kl_slope,
    estimate_pfa,
    simulate_runs,
)
from .scenarios import (
    ARChannelSpec,
    MixtureChannelSpec,
    Scenario,
    gaussian_stream,
    q_constant,
)
from .statistics import (
    DetectorState,
    FlatWeights,
    GridSpec,
    direct_log_statistic,
    posterior_no_change,
)

__version__ = "0.1.0"

__all__ = [
    "ARChannelSpec",
    "ChangeSpec",
    "Detector",
    "DetectorConfig",
    "DetectorState",
    "FlatWeights",
    "GeometricPrior",
    "GridSpec",
    "InfeasibleHorizonError",
    "MCConfig",
    "MCEstimate",
    "MixtureChannelSpec",
    "NO_CHANGE",
    "PointMassPrior",
    "PolynomialTailPrior",
    "PriorSpec",
    "Scenario",
    "SubsetWeights",
    "asymptotic_ratio_sweep",
    "d_constant",
    "direct_log_statistic",
    "estimate_average_risk",
    "estimate_bayes_delay",
    "estimate_conditional_delay",
    "estimate_kl_slope",
    "estimate_pfa",
    "gaussian_stream",
    "mixture_lr_dp",
    "mixture_lr_enumerate",
    "posterior_no_change",
    "q_constant",
    "replication_rng",
    "simulate_runs",
    "threshold_cost",
    "threshold_shiryaev",
    "threshold_sr",
]
