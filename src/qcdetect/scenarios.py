"""Built-in observation models: AR-noise signal channels and mixture channels.

Both models yield per-observation log likelihood-ratio increments that do not
depend on the hypothesized change point, so the exact detector recursions
apply.  Cross-stream independence is assumed throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NO_CHANGE


@dataclass(frozen=True)
class ARChannelSpec:
    """Deterministic signal of unknown amplitude in stable Gaussian AR(p) noise.

    Observations are ``x_n = theta * s_n * [n > nu] + xi_n`` where ``xi`` obeys
    ``xi_n = sum_j coeffs[j] * xi_{n-j} + w_n`` with i.i.d. N(0, sigma^2) noise
    and zero initial conditions.  ``signal`` is a periodic template; ``theta``
    is the channel's nominal amplitude, used when a change does not override it.
    """

    coeffs: tuple[float, ...] = ()
    sigma: float = 1.0
    signal: tuple[float, ...] = (1.0,)
    theta: float = 1.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        signal = tuple(float(s) for s in self.signal)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "signal", signal)
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"noise level must be positive and finite, got {self.sigma}")
        if not signal:
            raise ValueError("signal template must be nonempty")
        if not all(math.isfinite(s) for s in signal):
            raise ValueError(f"signal template must be finite, got {signal}")
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(f"amplitude must be >= 0 and finite, got {self.theta}")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"AR coefficients coeffs must be finite, got {coeffs}")
        if coeffs:
            radius = max(abs(np.roots(np.concatenate(([1.0], -np.asarray(coeffs))))))
            if radius >= 1.0:
                raise ValueError(
                    f"AR coefficients are unstable (companion spectral radius {radius:.6g})"
                )

    def signal_sequence(self, horizon: int) -> np.ndarray:
        """The template tiled out to ``horizon`` samples (time 1..horizon)."""
        reps = -(-horizon // len(self.signal))
        return np.tile(np.asarray(self.signal), reps)[:horizon]

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Whitened series ``x_n - sum_j coeffs[j] * x_{n-j}`` along the last axis.

        Lags before the first sample are treated as zero, which matches the
        zero initial conditions of the noise recursion.
        """
        x = np.asarray(x, dtype=float)
        out = x.copy()
        for j, b in enumerate(self.coeffs, start=1):
            out[..., j:] -= b * x[..., :-j]
        return out

    def residual_signal(self, horizon: int) -> np.ndarray:
        return self.residuals(self.signal_sequence(horizon))

    def kl_rate(self, theta: float) -> float:
        return float(theta) ** 2 * q_constant(self.signal, self.coeffs) / (2.0 * self.sigma**2)

    # -- simulation and likelihood ------------------------------------------

    def generate_batch(
        self, horizon: int, post_from: np.ndarray, theta: np.ndarray, rngs
    ) -> np.ndarray:
        """One stream per generator: ``[R, horizon]``.

        Row ``r`` draws its noise from ``rngs[r]`` and carries ``theta[r]``
        times the signal from index ``post_from[r]`` on.
        """
        x = np.empty((len(rngs), horizon))
        for row, rng in zip(x, rngs):
            row[:] = rng.normal(0.0, self.sigma, size=horizon)
        if self.coeffs:
            # xi_t = sum_j coeffs[j] xi_{t-j} + w_t with zero initial state,
            # stepping through the time-major view of x in place
            ar_filter(x.T, self.coeffs)
        after = np.arange(horizon) >= post_from[:, None]
        if after.any():
            signal = theta[:, None] * self.signal_sequence(horizon)
            np.add(x, signal, out=x, where=after)
        return x

    def log_lr_increments(self, x: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """Per-observation log LR at each amplitude in ``thetas``.

        ``x`` is ``[..., T]``; the result is ``[..., T, len(thetas)]``.
        """
        thetas = np.asarray(thetas, dtype=float)
        xt = self.residuals(x)
        st = self.residual_signal(x.shape[-1])
        s2 = self.sigma**2
        cross = (st * xt)[..., :, None] / s2
        drift = (st**2)[:, None] / (2.0 * s2)
        return thetas * cross - thetas**2 * drift

    def log_predictive_pre(self, x: np.ndarray) -> np.ndarray:
        """log density of each observation given its past, pre-change law."""
        xt = self.residuals(x)
        return -0.5 * (xt / self.sigma) ** 2 - math.log(self.sigma) - 0.5 * math.log(2.0 * math.pi)

    def log_predictive_post(self, x: np.ndarray, theta: float) -> np.ndarray:
        """log density under the change-at-origin post-change law."""
        xt = self.residuals(x)
        st = self.residual_signal(x.shape[-1])
        z = (xt - theta * st) / self.sigma
        return -0.5 * z**2 - math.log(self.sigma) - 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MixtureChannelSpec:
    """Pre-change two-component Gaussian mixture, post-change Gaussian mean shift.

    Pre-change, the whole stream is i.i.d. N(mu1, sigma^2) with probability
    ``beta_mix`` and i.i.d. N(mu2, sigma^2) otherwise (one latent draw per
    stream, so consecutive observations are dependent).  Post-change the
    stream is i.i.d. N(theta, sigma^2).  The post-change mean must be closer
    to mu2 than to mu1, otherwise the pre-change mixture never resolves and
    the likelihood-ratio slope degenerates.
    """

    beta_mix: float
    mu1: float
    mu2: float = 0.0
    sigma: float = 1.0
    theta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta_mix < 1.0:
            raise ValueError(f"mixing probability must be in (0, 1), got {self.beta_mix}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"noise level must be positive and finite, got {self.sigma}")
        if not (math.isfinite(self.mu1) and math.isfinite(self.mu2)):
            raise ValueError(f"component means must be finite, got mu1={self.mu1}, mu2={self.mu2}")
        self._check_post_change_mean(self.theta)

    def _check_post_change_mean(self, theta: float) -> None:
        if not math.isfinite(theta):
            raise ValueError(f"post-change mean must be finite, got {theta}")
        if abs(theta - self.mu1) <= abs(theta - self.mu2):
            raise ValueError(
                "post-change mean must be strictly closer to mu2 than to mu1 "
                f"(theta={theta}, mu1={self.mu1}, mu2={self.mu2})"
            )

    @property
    def log_odds(self) -> float:
        """log(beta / (1 - beta)), the mixture's prior log odds."""
        return math.log(self.beta_mix) - math.log1p(-self.beta_mix)

    def kl_rate(self, theta: float) -> float:
        # nearer mu1 the log-LR slope is near (theta - mu1)^2 / (2 sigma^2) instead
        self._check_post_change_mean(theta)
        return (float(theta) - self.mu2) ** 2 / (2.0 * self.sigma**2)

    # -- simulation and likelihood ------------------------------------------

    def generate_batch(
        self, horizon: int, post_from: np.ndarray, theta: np.ndarray, rngs
    ) -> np.ndarray:
        """One stream per generator: ``[R, horizon]``.

        Row ``r`` draws its latent component and noise from ``rngs[r]`` and
        has mean ``theta[r]`` from index ``post_from[r]`` on.
        """
        z = np.empty((len(rngs), horizon))
        mean = np.empty((len(rngs), 1))
        for row, rng in enumerate(rngs):
            mean[row] = self.mu1 if rng.random() < self.beta_mix else self.mu2
            z[row] = rng.normal(0.0, 1.0, size=horizon)
        after = np.arange(horizon) >= post_from[:, None]
        if after.any():
            mean = np.where(after, theta[:, None], mean)
        z *= self.sigma
        z += mean
        return z

    def _log_component_ratio(self, x: np.ndarray) -> np.ndarray:
        # log p1(x) - log p2(x) per observation
        s2 = self.sigma**2
        return (self.mu1 - self.mu2) * x / s2 - (self.mu1**2 - self.mu2**2) / (2.0 * s2)

    def gap_penalties(self, x: np.ndarray) -> np.ndarray:
        """Theta-independent part of the increments along the last axis.

        Equals ``log(1 + v G_{n-1}) - log(1 + v G_n)`` where ``G_n`` is the
        running density ratio of the two mixture components; the increments
        telescope, so partial sums reproduce the closed-form likelihood ratio.
        """
        log_g = np.cumsum(self._log_component_ratio(x), axis=-1)
        prev = np.concatenate(
            [np.zeros(log_g.shape[:-1] + (1,)), log_g[..., :-1]], axis=-1
        )
        v = self.log_odds
        return np.logaddexp(0.0, v + prev) - np.logaddexp(0.0, v + log_g)

    def log_lr_increments(self, x: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        s2 = self.sigma**2
        shift = thetas - self.mu2
        base = x[..., :, None] / s2
        l2 = shift * base - (thetas**2 - self.mu2**2) / (2.0 * s2)
        return l2 + self.gap_penalties(x)[..., :, None]

    def log_predictive_pre(self, x: np.ndarray) -> np.ndarray:
        """log g(x_n | history): ratio of consecutive mixture joint densities."""
        log_p2 = (
            -0.5 * ((x - self.mu2) / self.sigma) ** 2
            - math.log(self.sigma)
            - 0.5 * math.log(2.0 * math.pi)
        )
        log_g = np.cumsum(self._log_component_ratio(x), axis=-1)
        prev = np.concatenate(
            [np.zeros(log_g.shape[:-1] + (1,)), log_g[..., :-1]], axis=-1
        )
        v = self.log_odds
        # joint_n = sum log p2 + log(1 + e^{v + G_n}) - log(1 + e^v); take differences
        return log_p2 + np.logaddexp(0.0, v + log_g) - np.logaddexp(0.0, v + prev)

    def log_predictive_post(self, x: np.ndarray, theta: float) -> np.ndarray:
        z = (x - theta) / self.sigma
        return -0.5 * z**2 - math.log(self.sigma) - 0.5 * math.log(2.0 * math.pi)


def ar_filter(xt: np.ndarray, coeffs) -> None:
    """All-pole filter ``y_t = x_t + sum_j coeffs[j] y_{t-j}`` along axis 0, in place.

    ``xt`` is ``[T, ...]`` with zero initial state, such as the transposed
    view of a ``[R, T]`` array; each step is a few ufunc calls over one time
    slice of every series, with no allocation per step.  The steps follow
    ``scipy.signal.lfilter([1], [1, -coeffs...])``'s direct form II transposed
    operation for operation: ``y = z_0 + x``, then
    ``z_k = z_{k+1} + 0 x - a_{k+1} y`` with ``(a_1, ..., a_p) = -coeffs`` and
    the last delay ``0 x - a_p y``.  The ``0 x`` terms, taken for all steps
    at once before the loop, keep even the signs of zeros, so the result is
    lfilter's bit for bit.
    """
    a = [-float(c) for c in coeffs]
    z = list(np.zeros((len(a),) + xt.shape[1:]))  # the delays z_0 .. z_{p-1}
    a_y = np.empty(xt.shape[1:])
    for y, zero_x in zip(xt, xt * 0.0):
        np.add(z[0], y, out=y)
        for k in range(len(a) - 1):
            np.add(z[k + 1], zero_x, out=z[k])
            np.multiply(y, a[k], out=a_y)
            np.subtract(z[k], a_y, out=z[k])
        np.multiply(y, a[-1], out=a_y)
        np.subtract(zero_x, a_y, out=z[-1])


def q_constant(signal, coeffs) -> float:
    """Long-run average of the squared whitened signal for a periodic template."""
    signal = tuple(float(s) for s in signal)
    coeffs = tuple(float(c) for c in coeffs)
    if not signal:
        raise ValueError("signal template must be nonempty")
    period = len(signal)
    p = len(coeffs)
    # extend past the warm-up so every residual uses the full lag window
    total = p + 2 * period
    reps = -(-total // period)
    s = np.tile(np.asarray(signal), reps)[:total]
    st = s.copy()
    for j, b in enumerate(coeffs, start=1):
        st[j:] -= b * s[:-j]
    steady = st[p : p + period]
    return float(np.mean(steady**2))


@dataclass(frozen=True)
class Scenario:
    """An independent-streams observation model: one channel spec per stream."""

    channels: tuple

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("scenario needs at least one channel")
        object.__setattr__(self, "channels", channels)

    @property
    def n_streams(self) -> int:
        return len(self.channels)

    def nominal_theta(self, subset) -> tuple[float, ...]:
        return tuple(self.channels[i].theta for i in sorted(subset))

    def generate(self, changes, horizon: int, rngs) -> np.ndarray:
        """Simulate ``horizon`` rows per replication: ``[R, horizon, N]``.

        Replication ``r`` follows ``changes[r]``: streams outside its subset
        keep the pre-change law, affected streams switch to the post-change
        law from time ``nu + 1`` on.  It draws from ``rngs[r]``, stream by
        stream in the same order and sizes as it would alone, so its data does
        not depend on which other replications share the batch.
        """
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if len(changes) != len(rngs):
            raise ValueError(f"{len(changes)} changes for {len(rngs)} generators")
        post_from = np.full((len(changes), self.n_streams), horizon, dtype=np.int64)
        theta = np.zeros((len(changes), self.n_streams))
        for r, change in enumerate(changes):
            if change.nu != NO_CHANGE:
                subset = list(change.subset)
                if max(subset) >= self.n_streams:
                    raise ValueError(
                        f"affected subset {change.subset} is outside streams 0..{self.n_streams - 1}"
                    )
                post_from[r, subset] = max(change.nu, 0)
                theta[r, subset] = (
                    change.theta if change.theta is not None else self.nominal_theta(subset)
                )
        data = np.empty((len(changes), horizon, self.n_streams))
        for i, channel in enumerate(self.channels):
            data[..., i] = channel.generate_batch(horizon, post_from[:, i], theta[:, i], rngs)
        return data

    def log_lr_increments(self, data: np.ndarray, theta_points: np.ndarray) -> np.ndarray:
        """Increments for every grid point: ``[..., T, P, N]``.

        ``data`` is ``[..., T, N]``; ``theta_points`` is ``[P, N]`` with each
        row a per-stream parameter vector.
        """
        theta_points = np.asarray(theta_points, dtype=float)
        out = np.empty(data.shape[:-1] + (theta_points.shape[0], self.n_streams))
        for i, ch in enumerate(self.channels):
            # bound to a name, a stream's block is freed only once the next one
            # exists; freeing it first lets malloc trim the heap, and the next
            # stream then page-faults its memory afresh
            inc = ch.log_lr_increments(data[..., i], theta_points[:, i])
            out[..., i] = inc
        return out

    def kl_per_stream(self, theta_points: np.ndarray) -> np.ndarray:
        """Information rate of each stream at each grid point: ``[P, N]``."""
        theta_points = np.asarray(theta_points, dtype=float)
        cols = [
            [ch.kl_rate(t) for t in theta_points[:, i]]
            for i, ch in enumerate(self.channels)
        ]
        return np.asarray(cols).T


def gaussian_stream(theta: float = 1.0, sigma: float = 1.0) -> ARChannelSpec:
    """I.i.d. Gaussian mean-shift channel (AR of order zero, constant signal)."""
    return ARChannelSpec(coeffs=(), sigma=sigma, signal=(1.0,), theta=theta)
