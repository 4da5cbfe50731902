"""Bayesian quickest change detection in multistream data.

Mixture Shiryaev and Shiryaev-Roberts stopping rules over unknown affected
subsets and post-change parameters, with exact recursions, window-limited
variants, threshold calibration, and a reproducible Monte Carlo harness for
operating characteristics.
"""

from .detectors import (
    Detector,
    DetectorConfig,
    RunResult,
    threshold_cost,
    threshold_shiryaev,
    threshold_sr,
)
from .info import InfoNumbers, d_constant, estimate_kl_slope, kl_subset
from .likelihood import (
    SubsetWeights,
    elementary_symmetric,
    mixture_lr_dp,
    mixture_lr_enumerate,
    normalizer,
)
from .model import NO_CHANGE, ChangeSpec, PriorSpec, replication_rng
from .montecarlo import (
    InfeasibleHorizonError,
    MCConfig,
    MCEstimate,
    asymptotic_ratio_sweep,
    estimate_average_risk,
    estimate_bayes_delay,
    estimate_conditional_delay,
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
    GridSpec,
    posterior_no_change,
    shiryaev_direct,
    sr_direct,
)

__version__ = "0.1.0"

__all__ = [
    "ARChannelSpec",
    "ChangeSpec",
    "Detector",
    "DetectorConfig",
    "DetectorState",
    "GridSpec",
    "InfeasibleHorizonError",
    "InfoNumbers",
    "MCConfig",
    "MCEstimate",
    "MixtureChannelSpec",
    "NO_CHANGE",
    "PriorSpec",
    "RunResult",
    "Scenario",
    "SubsetWeights",
    "asymptotic_ratio_sweep",
    "d_constant",
    "elementary_symmetric",
    "estimate_average_risk",
    "estimate_bayes_delay",
    "estimate_conditional_delay",
    "estimate_kl_slope",
    "estimate_pfa",
    "gaussian_stream",
    "kl_subset",
    "mixture_lr_dp",
    "mixture_lr_enumerate",
    "normalizer",
    "posterior_no_change",
    "q_constant",
    "replication_rng",
    "shiryaev_direct",
    "simulate_runs",
    "sr_direct",
    "threshold_cost",
    "threshold_shiryaev",
    "threshold_sr",
]
