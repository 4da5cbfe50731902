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


def check_sigma(sigma: float) -> None:
    """The noise-level rule: ``sigma``, ``sigma**2`` and ``1 / sigma**2`` positive and finite.

    The increments divide by ``sigma**2``; a square that underflows or
    overflows would make every one of them NaN or infinite.
    """
    s2 = sigma * sigma  # a float product overflows to inf, where ** raises
    if not (sigma > 0.0 and 0.0 < s2 < math.inf and 1.0 / s2 < math.inf):
        raise ValueError(
            f"noise level sigma, its square and 1/sigma**2 must be positive and finite, got {sigma}"
        )


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
        check_sigma(self.sigma)
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

    @property
    def lags(self) -> int:
        """Samples before a step that its increment reads: the AR order p."""
        return len(self.coeffs)

    def signal_sequence(self, stop: int, start: int = 0) -> np.ndarray:
        """The template tiled over steps ``start .. stop-1`` (step 0 is time 1)."""
        return np.asarray(self.signal)[np.arange(start, stop) % len(self.signal)]

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

    def residual_signal(self, stop: int, start: int = 0) -> np.ndarray:
        """The whitened template over steps ``start .. stop-1``.

        It whitens from ``p`` steps before ``start`` (or from step 0), so each
        element takes the same operations as in the whole sequence.
        """
        lo = max(start - self.lags, 0)
        return self.residuals(self.signal_sequence(stop, lo))[start - lo:]

    def kl_rate(self, theta: float) -> float:
        return float(theta) ** 2 * q_constant(self.signal, self.coeffs) / (2.0 * self.sigma**2)

    # -- simulation and likelihood ------------------------------------------

    def draw_row(self, rng: np.random.Generator, row: np.ndarray) -> float:
        """Fill ``row`` with the stream's standard normal draws; no latent value (0.0)."""
        rng.standard_normal(out=row)
        return 0.0

    def shape_rows(
        self, x: np.ndarray, post_from: np.ndarray, theta: np.ndarray, latent: np.ndarray
    ) -> None:
        """Turn ``draw_row``'s rows ``x`` (``[R, T]``) into the stream, in place.

        The noise is ``0 + sigma z``, as ``rng.normal(0, sigma)`` forms it,
        filtered through the AR recursion; row ``r`` then carries ``theta[r]``
        times the signal from index ``post_from[r]`` on.
        """
        x *= self.sigma
        x += 0.0
        if self.coeffs:
            # xi_t = sum_j coeffs[j] xi_{t-j} + w_t with zero initial state,
            # stepping through the time-major view of x in place
            ar_filter(x.T, self.coeffs)
        signal = self.signal_sequence(x.shape[1])
        rows = np.flatnonzero(post_from < x.shape[1])
        for r, start, amplitude in zip(rows.tolist(), post_from[rows].tolist(), theta[rows].tolist()):
            x[r, start:] += amplitude * signal[start:]

    def log_lr_increments(
        self, x: np.ndarray, thetas: np.ndarray, start: int = 0, carry=None
    ) -> np.ndarray:
        """Per-observation log LR at each amplitude in ``thetas``, from step ``start`` on.

        ``x`` is ``[..., lead + T]``: ``lead = min(start, p)`` lag samples,
        then the ``T`` steps ``start .. start+T-1``; the result is
        ``[..., T, len(thetas)]``.  The lags whiten the first steps and
        ``start`` sets the signal's phase, so every element takes the same
        operations as in the whole path (``start = 0``, no lead).  ``carry`` is
        not read: an AR channel's context is its lag samples.
        """
        thetas = np.asarray(thetas, dtype=float)
        xt = self.residuals(x)[..., min(start, self.lags):]
        st = self.residual_signal(start + xt.shape[-1], start)
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
        check_sigma(self.sigma)
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

    #: Samples before a step that its increment reads: none, the past enters
    #: through the running log density ratio instead.
    lags = 0

    @property
    def log_odds(self) -> float:
        """log(beta / (1 - beta)), the mixture's prior log odds."""
        return math.log(self.beta_mix) - math.log1p(-self.beta_mix)

    def kl_rate(self, theta: float) -> float:
        # nearer mu1 the log-LR slope is near (theta - mu1)^2 / (2 sigma^2) instead
        self._check_post_change_mean(theta)
        return (float(theta) - self.mu2) ** 2 / (2.0 * self.sigma**2)

    # -- simulation and likelihood ------------------------------------------

    def draw_row(self, rng: np.random.Generator, row: np.ndarray) -> float:
        """Draw the latent component, then fill ``row`` with standard normals; the component mean."""
        mean = self.mu1 if rng.random() < self.beta_mix else self.mu2
        rng.standard_normal(out=row)
        return mean

    def shape_rows(
        self, x: np.ndarray, post_from: np.ndarray, theta: np.ndarray, latent: np.ndarray
    ) -> None:
        """Turn ``draw_row``'s rows ``x`` (``[R, T]``) into the stream, in place.

        Each value is ``sigma (0 + 1 z)`` plus row ``r``'s component mean
        ``latent[r]`` before index ``post_from[r]`` and ``theta[r]`` from it on.
        """
        x += 0.0  # rng.normal(0, 1)'s 0 + 1 z
        x *= self.sigma
        horizon = x.shape[1]
        # a row wholly before or wholly after its change takes one mean
        split = (post_from > 0) & (post_from < horizon)
        whole = np.where(post_from <= 0, theta, latent)
        np.add(x, whole[:, None], out=x, where=~split[:, None])
        rows = np.flatnonzero(split)
        for r, start, mean, level in zip(
            rows.tolist(), post_from[rows].tolist(), latent[rows].tolist(), theta[rows].tolist()
        ):
            x[r, :start] += mean
            x[r, start:] += level

    def _log_component_ratio(self, x: np.ndarray) -> np.ndarray:
        # log p1(x) - log p2(x) per observation
        s2 = self.sigma**2
        return (self.mu1 - self.mu2) * x / s2 - (self.mu1**2 - self.mu2**2) / (2.0 * s2)

    def gap_penalties(self, x: np.ndarray, carry=None) -> np.ndarray:
        """Theta-independent part of the increments along the last axis.

        Equals ``log(1 + v G_{n-1}) - log(1 + v G_n)`` where ``G_n`` is the
        running density ratio of the two mixture components; the increments
        telescope, so partial sums reproduce the closed-form likelihood ratio.
        ``carry`` (``[...]``) holds ``log G`` at the step before ``x``, and
        None means ``x`` starts at the origin, where ``log G = 0``.  It is
        advanced in place to ``log G`` at the last step of ``x``.  ``log G``
        is a sequential ``cumsum`` from the carried value, so a path taken in
        blocks has the same bits as taken whole.
        """
        ratio = self._log_component_ratio(x)
        log_g0 = np.zeros(ratio.shape[:-1] + (1,)) if carry is None else carry[..., None]
        log_g = np.cumsum(np.concatenate([log_g0, ratio], axis=-1), axis=-1)
        if carry is not None:
            carry[...] = log_g[..., -1]
        v = self.log_odds
        return np.logaddexp(0.0, v + log_g[..., :-1]) - np.logaddexp(0.0, v + log_g[..., 1:])

    def log_lr_increments(
        self, x: np.ndarray, thetas: np.ndarray, start: int = 0, carry=None
    ) -> np.ndarray:
        """Per-observation log LR at each mean in ``thetas``: ``[..., T, len(thetas)]``.

        ``x`` is ``[..., T]``, the steps ``start .. start+T-1``.  A block after
        the first (``start > 0``) continues the running ``log G`` held in
        ``carry`` (see ``gap_penalties``), which it advances in place.
        """
        if start > 0 and carry is None:
            raise ValueError(f"a block from step {start} needs the carried running log G")
        thetas = np.asarray(thetas, dtype=float)
        s2 = self.sigma**2
        shift = thetas - self.mu2
        base = x[..., :, None] / s2
        l2 = shift * base - (thetas**2 - self.mu2**2) / (2.0 * s2)
        return l2 + self.gap_penalties(x, carry)[..., :, None]

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
    the last delay ``0 x - a_p y``.  The ``0 x`` terms, taken from each input
    slice before it is overwritten, keep even the signs of zeros, so the
    result is lfilter's bit for bit.
    """
    a = [-float(c) for c in coeffs]
    z = list(np.zeros((len(a),) + xt.shape[1:]))  # the delays z_0 .. z_{p-1}
    a_y = np.empty(xt.shape[1:])
    zero_x = np.empty(xt.shape[1:])
    for y in xt:
        np.multiply(y, 0.0, out=zero_x)
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

        ``changes`` is a sequence of ``ChangeSpec``, one per replication, or
        a ``ChangeDraws`` whose replications draw their own.  Replication
        ``r`` follows its change: streams outside its subset keep the
        pre-change law, affected streams switch to the post-change law from
        time ``nu + 1`` on.

        ``rngs`` yields one generator per replication, taken in turn; once
        the next is taken the last is not read again, so an iterator may
        yield one generator re-keyed for each.  Replication ``r`` draws its
        change's uniforms, then each stream's draws in stream order, in the
        same order and sizes as it would alone, so its data does not depend
        on which other replications share the batch.  The array part then
        runs one stream at a time over all replications, in place.  The
        result is the transposed view of one stream-major ``[N, R, horizon]``
        array.
        """
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if not isinstance(changes, ChangeDraws):
            changes = ChangeDraws(ListedChanges(tuple(changes)), None, len(changes))
        uniforms = changes.uniforms
        n_reps, n_uniforms = uniforms.shape
        if hasattr(rngs, "__len__") and len(rngs) != n_reps:
            raise ValueError(f"{n_reps} changes for {len(rngs)} generators")
        data = np.empty((self.n_streams, n_reps, horizon))
        latent = np.empty((self.n_streams, n_reps))
        streams = [(i, channel.draw_row) for i, channel in enumerate(self.channels)]
        for r, rng in zip(range(n_reps), rngs, strict=True):
            if n_uniforms:
                rng.random(out=uniforms[r])
            for i, draw_row in streams:
                latent[i, r] = draw_row(rng, data[i, r])
        post_from, theta = changes.resolve(self, horizon)
        for i, channel in enumerate(self.channels):
            channel.shape_rows(data[i], post_from[:, i], theta[:, i], latent[i])
        return data.transpose(1, 2, 0)

    def affected_streams(self, subset, theta=None) -> tuple[np.ndarray, np.ndarray]:
        """The ``[N]`` mask of the streams in ``subset`` and their ``[N]`` parameters.

        ``theta`` lists one parameter per stream of ``subset``, in its order;
        None takes each channel's nominal one.  Streams outside the subset
        read 0.  A stream outside ``0 .. N-1`` is a ``ValueError``.
        """
        subset = list(subset)
        if subset and max(subset) >= self.n_streams:
            raise ValueError(
                f"affected subset {tuple(subset)} is outside streams 0..{self.n_streams - 1}"
            )
        mask = np.zeros(self.n_streams, dtype=bool)
        mask[subset] = True
        values = np.zeros(self.n_streams)
        values[subset] = theta if theta is not None else [self.channels[i].theta for i in subset]
        return mask, values

    @property
    def lags(self) -> int:
        """The most samples before a step that any channel's increment reads."""
        return max(ch.lags for ch in self.channels)

    def log_lr_increments(
        self, data: np.ndarray, theta_points: np.ndarray, start: int = 0, carry=None
    ) -> np.ndarray:
        """Increments for every grid point from step ``start`` on: ``[..., T, P, N]``.

        ``theta_points`` is ``[P, N]`` with each row a per-stream parameter
        vector.  For the whole path, ``data`` is ``[..., T, N]`` from step 0.
        A later block (``start > 0``) reads ``data`` as ``lead = min(start,
        lags)`` lag samples and then its ``T`` steps, and takes each mixture
        stream's running ``log G`` from ``carry`` (``[..., N]``, advanced in
        place; the AR streams' columns are not touched).  Every element takes
        the same operations as in the whole path, so a path's blocks
        concatenate to its whole-path increments bit for bit.
        """
        theta_points = np.asarray(theta_points, dtype=float)
        lead = min(start, self.lags)
        out = np.empty(
            data.shape[:-2] + (data.shape[-2] - lead, theta_points.shape[0], self.n_streams)
        )
        for i, ch in enumerate(self.channels):
            x = data[..., lead - min(start, ch.lags):, i]
            out[..., i] = ch.log_lr_increments(
                x, theta_points[:, i], start, None if carry is None else carry[..., i]
            )
        return out

    def kl_per_stream(self, theta_points: np.ndarray) -> np.ndarray:
        """Information rate of each stream at each grid point: ``[P, N]``."""
        theta_points = np.asarray(theta_points, dtype=float)
        cols = [
            [ch.kl_rate(t) for t in theta_points[:, i]]
            for i, ch in enumerate(self.channels)
        ]
        return np.asarray(cols).T


class ChangeDraws:
    """The changes of ``count`` replications, drawn inside ``Scenario.generate``.

    ``sampler.uniforms(prior)`` is the number ``k`` of uniforms a replication
    draws for its change, before its noise; ``generate`` fills row ``r`` of
    ``uniforms`` (``[count, k]``) from generator ``r``.  After the last row,
    ``resolve`` passes all rows at once to ``sampler.changes(prior, uniforms,
    scenario)``, which returns ``nu`` (``[count]``, kept here), the mask of the
    affected streams and their parameters, both broadcasting to ``[count, N]``.
    From these ``resolve`` forms the ``[count, N]`` ``post_from`` and ``theta``
    the data is shaped by: an affected stream carries its parameter from index
    ``max(nu, 0)`` on; any other starts at ``horizon``, so it keeps the
    pre-change law, with parameter 0.
    """

    def __init__(self, sampler, prior, count: int):
        self.sampler = sampler
        self.prior = prior
        self.uniforms = np.zeros((count, sampler.uniforms(prior)))
        self.nu = None

    def resolve(self, scenario: Scenario, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        self.nu, affected, theta = self.sampler.changes(self.prior, self.uniforms, scenario)
        post_from = np.where(affected, np.maximum(self.nu, 0)[:, None], horizon)
        return post_from, np.where(np.broadcast_to(affected, post_from.shape), theta, 0.0)


@dataclass(frozen=True)
class ListedChanges:
    """A sampler of one given ``ChangeSpec`` per replication; draws no random number."""

    listed: tuple

    def uniforms(self, prior) -> int:
        return 0

    def changes(self, prior, u, scenario: Scenario):
        n = len(self.listed)
        nu = np.empty(n, dtype=np.int64)
        affected = np.zeros((n, scenario.n_streams), dtype=bool)
        theta = np.zeros((n, scenario.n_streams))
        for r, change in enumerate(self.listed):
            nu[r] = change.nu
            if change.nu != NO_CHANGE:
                affected[r], theta[r] = scenario.affected_streams(change.subset, change.theta)
        return nu, affected, theta


def gaussian_stream(theta: float = 1.0, sigma: float = 1.0) -> ARChannelSpec:
    """I.i.d. Gaussian mean-shift channel (AR of order zero, constant signal)."""
    return ARChannelSpec(coeffs=(), sigma=sigma, signal=(1.0,), theta=theta)
