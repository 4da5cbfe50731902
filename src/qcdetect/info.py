"""Information rates of the built-in channels and derived asymptotic constants.

The per-stream information rate is the long-run slope of the log likelihood
ratio under the post-change law; across independent streams the rates add.
First-order delay approximations divide ``|log alpha|`` by this rate plus the
prior's tail rate, and the average-risk constant aggregates the reciprocal
rates over the subset and parameter mixtures.

Only the slope itself is estimated numerically.  The tail-probability
functionals that control higher delay moments are proof devices, not
measurable quantities; both built-in channel families satisfy them for every
moment order.
"""

from __future__ import annotations

import numpy as np

from .detectors import check_moment_order
from .likelihood import SubsetWeights
from .model import ChangeSpec
from .montecarlo import MCEstimate, replication_rngs
from .scenarios import Scenario
from .statistics import GridSpec


def d_constant(weights: SubsetWeights, grid: GridSpec, rates, mu: float, r: float) -> float:
    """Average of (I_{B,theta} + mu)^-r over the subset and parameter mixtures.

    ``rates`` are the per-stream information rates at each grid point
    (``[P, N]``) and ``mu`` is the prior's tail rate.  The subsets are read
    from ``weights.masks``, within ``subset_masks``' budget: the
    reciprocal-power functional of a subset sum does not factor over streams,
    so no symmetric-polynomial shortcut applies.
    """
    # row-major, as the matrix product below has always seen its rates
    rates = np.asarray(rates, dtype=float, order="C")
    if not np.all(np.isfinite(rates)) or np.any(rates < 0.0):
        raise ValueError("information rates must be finite and nonnegative")
    if not mu >= 0.0:
        raise ValueError(f"prior tail rate must be >= 0, got {mu}")
    check_moment_order(r)
    if rates.shape != (grid.n_points, weights.n_streams):
        raise ValueError(
            f"information rates have shape {rates.shape}, expected "
            f"({grid.n_points}, {weights.n_streams})"
        )
    p_subset = np.exp(weights.log_p_subsets)
    subset_rates = rates @ weights.masks.T  # [P, S]
    denom = subset_rates + mu
    if np.any(denom <= 0.0):
        raise ValueError("I + mu must be positive for every subset and grid point")
    return float(np.einsum("p,s,ps->", grid.weights, p_subset, denom**-r))


#: Samples per path batch in ``estimate_kl_slope`` (8 MB of float64 per array).
_SLOPE_BATCH_SAMPLES = 2**20


def estimate_kl_slope(channel, theta: float, n: int, replications: int, master_seed: int):
    """MC estimate of the normalized log-LR slope under a change at the origin.

    Simulates ``replications`` post-change streams of length ``n`` from the
    channel at the true parameter ``theta`` and averages the per-path slope
    ``lambda(0, n) / n``; a diagnostic for the analytic information rates.
    """
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    if replications < 2:
        raise ValueError(f"need at least 2 replications, got {replications}")
    if not np.isfinite(theta):
        raise ValueError(f"post-change parameter theta must be finite, got {theta}")
    thetas = np.asarray([float(theta)])
    scenario = Scenario((channel,))
    at_origin = ChangeSpec(-1, (0,), (float(theta),))
    slopes = np.empty(replications)
    # one batch of paths per call, since the AR filter pays per time step
    per_batch = max(1, _SLOPE_BATCH_SAMPLES // n)
    for start in range(0, replications, per_batch):
        stop = min(start + per_batch, replications)
        rngs = replication_rngs(master_seed, start, stop)
        x = scenario.generate([at_origin] * (stop - start), n, rngs)[..., 0]
        for rep, inc in zip(range(start, stop), channel.log_lr_increments(x, thetas)[..., 0]):
            slopes[rep] = inc.sum() / n
    return MCEstimate.from_values(slopes)
