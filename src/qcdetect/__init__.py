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
    "direct_log_statistic",
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
    "simulate_runs",
    "threshold_cost",
    "threshold_shiryaev",
    "threshold_sr",
]
