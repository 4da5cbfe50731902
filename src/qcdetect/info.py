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

from dataclasses import dataclass

import numpy as np

from .likelihood import SubsetWeights, log_subset_weights, subset_masks
from .model import replication_rng
from .statistics import GridSpec


def kl_subset(subset, per_stream) -> float:
    """Information rate of a subset: the sum of its streams' rates."""
    subset = sorted(set(int(i) for i in subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    per_stream = np.asarray(per_stream, dtype=float)
    if min(subset) < 0 or max(subset) >= per_stream.shape[-1]:
        raise ValueError("subset refers to a stream outside the rate vector")
    return float(per_stream[..., subset].sum(axis=-1))


@dataclass(frozen=True)
class InfoNumbers:
    """Per-stream information rates on a parameter grid, plus the prior tail rate.

    ``per_stream`` has one row per grid point (``[P, N]``); a flat vector is
    promoted to a single row.
    """

    per_stream: tuple
    mu: float = 0.0

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.per_stream, dtype=float))
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("information rates must be finite and nonnegative")
        if self.mu < 0.0:
            raise ValueError(f"prior tail rate must be >= 0, got {self.mu}")
        object.__setattr__(self, "per_stream", tuple(tuple(row) for row in arr))

    @classmethod
    def for_scenario(cls, scenario, grid: GridSpec, mu: float = 0.0) -> "InfoNumbers":
        return cls(per_stream=scenario.kl_per_stream(grid.points), mu=mu)

    @property
    def rates(self) -> np.ndarray:
        return np.asarray(self.per_stream)


def d_constant(weights: SubsetWeights, grid: GridSpec, info: InfoNumbers, r: float) -> float:
    """Average of (I_{B,theta} + mu)^-r over the subset and parameter mixtures.

    Subsets are enumerated explicitly: the reciprocal-power functional of a
    subset sum does not factor over streams, so no symmetric-polynomial
    shortcut applies (same enumeration helper and stream cap as the mixture
    likelihood oracle).
    """
    rates = info.rates
    if rates.shape == (1, weights.n_streams) and grid.n_points > 1:
        rates = np.broadcast_to(rates, (grid.n_points, weights.n_streams))
    if rates.shape != (grid.n_points, weights.n_streams):
        raise ValueError(
            f"information rates have shape {rates.shape}, expected "
            f"({grid.n_points}, {weights.n_streams})"
        )
    masks = subset_masks(weights.n_streams, weights.K)
    p_subset = np.exp(log_subset_weights(weights, masks))
    subset_rates = rates @ masks.T  # [P, S]
    denom = subset_rates + info.mu
    if np.any(denom <= 0.0):
        raise ValueError("I + mu must be positive for every subset and grid point")
    w = np.asarray(grid.weights)
    return float(np.einsum("p,s,ps->", w, p_subset, denom**-r))


#: Samples per path batch in ``estimate_kl_slope`` (8 MB of float64 per array).
_SLOPE_BATCH_SAMPLES = 2**20


def estimate_kl_slope(channel, theta: float, n: int, replications: int, master_seed: int):
    """MC estimate of the normalized log-LR slope under a change at the origin.

    Simulates ``replications`` post-change streams of length ``n`` from the
    channel at the true parameter ``theta`` and averages the per-path slope
    ``lambda(0, n) / n``; a diagnostic for the analytic information rates.
    """
    from .montecarlo import MCEstimate  # local import to avoid a cycle

    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    if replications < 2:
        raise ValueError(f"need at least 2 replications, got {replications}")
    thetas = np.asarray([float(theta)])
    slopes = np.empty(replications)
    # one batch of paths per call, since the AR filter pays per time step
    per_batch = max(1, _SLOPE_BATCH_SAMPLES // n)
    for start in range(0, replications, per_batch):
        reps = range(start, min(start + per_batch, replications))
        x = channel.generate_batch(
            n,
            np.zeros(len(reps), dtype=np.int64),
            np.full(len(reps), float(theta)),
            [replication_rng(master_seed, rep) for rep in reps],
        )
        for rep, inc in zip(reps, channel.log_lr_increments(x, thetas)[..., 0]):
            slopes[rep] = inc.sum() / n
    return MCEstimate.from_values(slopes)
