"""Change-point priors, change configurations, and per-replication generators.

The change point ``nu`` takes values in ``{-1, 0, 1, ...}``.  The value ``-1``
stands for the whole event "the change was already in effect before the first
observation"; its probability is the head mass ``q``.  For ``nu = k >= 0`` the
observation at time ``k`` (1-based) is the last pre-change sample and ``k+1``
is the first post-change sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Sentinel change-point value meaning "no change ever" (pure noise runs).
#: ``PriorSpec.change_points`` draws at most ``NO_CHANGE - 1``, past any horizon.
NO_CHANGE = 2**62


@dataclass(frozen=True)
class PriorSpec:
    """Prior of the change point: head mass ``q`` on ``nu = -1``, a family on ``k >= 0``.

    ``mass(k) = P(nu = k)`` and ``tail(n) = P(nu >= n)``, elementwise when
    ``n`` is an array; ``log_mass`` and ``log_tail`` are their logs.
    ``tail_rate`` is the exponential decay rate ``lim |log P(nu > n)| / n`` of
    the right tail and ``mean()`` is ``E[nu; nu >= 0]`` (may be infinite).
    The families are ``GeometricPrior``, ``PolynomialTailPrior`` and
    ``PointMassPrior``; each checks its own parameter and supplies the
    inverse CDF of its tail that ``change_points`` maps uniforms through.
    """

    q: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        if type(self) is PriorSpec:
            raise TypeError("PriorSpec is abstract; use one of its families")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"head mass q must be in [0, 1), got {self.q}")
        object.__setattr__(self, "q", float(self.q))

    def head_odds(self) -> float:
        """q / (1 - q), the starting value of the Shiryaev statistic."""
        return self.q / (1.0 - self.q)

    #: Uniforms one draw of nu takes from its generator: one picks the head
    #: or the tail and the tail's quantile.
    uniforms = 1

    def change_points(self, u: np.ndarray) -> np.ndarray:
        """nu for each row of ``u``, ``[R, uniforms]`` uniforms on [0, 1): ``[R]`` int64.

        A row below ``q`` gives -1, the others ``k`` with probability
        ``pi_k`` through the inverse CDF of the tail.  A draw is capped at
        ``NO_CHANGE - 1``, the largest change point: it lies past any horizon,
        where every later change point gives the same data and the same stop,
        and it fits the int64 records.
        """
        u = u[:, 0]
        nu = np.full(u.shape, -1, dtype=np.int64)
        tail = ~(u < self.q)
        nu[tail] = self._quantiles((u[tail] - self.q) / (1.0 - self.q))
        return nu

    def _quantiles(self, v: np.ndarray) -> np.ndarray:
        """The capped inverse CDF of the tail at each ``v``, through the scalar ``_quantile``."""
        cap = NO_CHANGE - 1
        return np.fromiter(
            (min(self._quantile(x), cap) for x in v.tolist()), dtype=np.int64, count=v.size
        )


def _check_index(k: int, what: str) -> None:
    if k < 0:
        raise ValueError(f"{what} is defined for indices >= 0; nu = -1 is the head mass q")


def _tail_index(n: int | np.ndarray) -> int | np.ndarray:
    """``n``, as a float array when it is one, after rejecting negative entries."""
    if np.ndim(n) > 0:
        n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise ValueError("tail is defined for n >= 0")
    return n


@dataclass(frozen=True)
class GeometricPrior(PriorSpec):
    """``pi_k = (1-q) * rho * (1-rho)**k`` with tail rate ``|log(1-rho)|``."""

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"geometric rate must be in (0, 1), got {self.rho}")
        object.__setattr__(self, "rho", float(self.rho))
        super().__post_init__()

    def mass(self, k: int) -> float:
        _check_index(k, "mass")
        return (1.0 - self.q) * self.rho * (1.0 - self.rho) ** k

    def log_mass(self, k: int) -> float:
        _check_index(k, "mass")
        return math.log1p(-self.q) + math.log(self.rho) + k * math.log1p(-self.rho)

    def tail(self, n: int | np.ndarray) -> float | np.ndarray:
        return (1.0 - self.q) * (1.0 - self.rho) ** _tail_index(n)

    def log_tail(self, n: int) -> float:
        _check_index(n, "tail")
        return math.log1p(-self.q) + n * math.log1p(-self.rho)

    @property
    def tail_rate(self) -> float:
        return abs(math.log1p(-self.rho))

    def mean(self) -> float:
        return (1.0 - self.q) * (1.0 - self.rho) / self.rho

    def _quantile(self, v: float) -> int:
        # smallest k with 1 - (1-rho)^(k+1) > v
        if v <= 0.0:
            return 0
        return max(0, int(math.ceil(math.log1p(-v) / math.log1p(-self.rho))) - 1)


@dataclass(frozen=True)
class PolynomialTailPrior(PriorSpec):
    """``pi_k`` proportional to ``(k+1)**-(1+beta)``: a heavy tail, tail rate 0."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"tail exponent must be positive and finite, got {self.beta}")
        object.__setattr__(self, "beta", float(self.beta))
        super().__post_init__()

    def mass(self, k: int) -> float:
        _check_index(k, "mass")
        s = 1.0 + self.beta
        return (1.0 - self.q) * (k + 1.0) ** (-s) / _zeta(s, 1.0)

    def log_mass(self, k: int) -> float:
        _check_index(k, "mass")
        s = 1.0 + self.beta
        return math.log1p(-self.q) - s * math.log(k + 1.0) - math.log(_zeta(s, 1.0))

    def tail(self, n: int | np.ndarray) -> float | np.ndarray:
        # Hurwitz zeta gives the exact tail sum of (k+1)^-(1+beta).
        s = 1.0 + self.beta
        return (1.0 - self.q) * _zeta(s, _tail_index(n) + 1.0) / _zeta(s, 1.0)

    def log_tail(self, n: int) -> float:
        _check_index(n, "tail")
        s = 1.0 + self.beta
        return math.log1p(-self.q) + math.log(_zeta(s, n + 1.0)) - math.log(_zeta(s, 1.0))

    @property
    def tail_rate(self) -> float:
        return 0.0

    def mean(self) -> float:
        if self.beta <= 1.0:
            return math.inf
        # sum_k k (k+1)^-(1+b) = zeta(b) - zeta(1+b)
        return (1.0 - self.q) * (_zeta(self.beta, 1.0) - _zeta(1.0 + self.beta, 1.0)) / _zeta(
            1.0 + self.beta, 1.0
        )

    def _quantiles(self, v: np.ndarray) -> np.ndarray:
        # the smallest k with norm_tail(k + 1) <= 1 - v for every v at once:
        # double from 1 while the tail is above, then bisect; each step takes
        # the same scalar zeta values and comparisons as one v on its own
        s = 1.0 + self.beta
        z0 = _zeta(s, 1.0)
        target = 1.0 - v

        def above(n, rows):
            return _zeta(s, n + 1.0) / z0 > target[rows]

        hi = np.ones(v.shape, dtype=np.int64)
        rows = np.arange(v.size)
        while rows.size:  # change_points caps k below NO_CHANGE
            rows = rows[hi[rows] < NO_CHANGE]
            rows = rows[above(hi[rows], rows)]
            hi[rows] *= 2
        lo = hi // 2  # norm_tail(lo) > target or lo == 0
        rows = np.flatnonzero(hi - lo > 1)
        while rows.size:
            mid = (lo[rows] + hi[rows]) // 2
            up = above(mid, rows)
            lo[rows[up]] = mid[up]
            hi[rows[~up]] = mid[~up]
            rows = rows[hi[rows] - lo[rows] > 1]
        return hi - 1


@dataclass(frozen=True)
class PointMassPrior(PriorSpec):
    """All of ``1 - q`` at ``k0`` (diagnostics only; no positive tail beyond ``k0``)."""

    k0: int

    def __post_init__(self):
        if self.k0 < 0:
            raise ValueError(f"point-mass location must be >= 0, got {self.k0}")
        object.__setattr__(self, "k0", int(self.k0))
        super().__post_init__()

    def mass(self, k: int) -> float:
        _check_index(k, "mass")
        return 1.0 - self.q if k == self.k0 else 0.0

    def log_mass(self, k: int) -> float:
        _check_index(k, "mass")
        return math.log1p(-self.q) if k == self.k0 else -math.inf

    def tail(self, n: int | np.ndarray) -> float | np.ndarray:
        n = _tail_index(n)
        if np.ndim(n) > 0:
            return np.where(n <= self.k0, 1.0 - self.q, 0.0)
        return 1.0 - self.q if n <= self.k0 else 0.0

    def log_tail(self, n: int) -> float:
        _check_index(n, "tail")
        return math.log1p(-self.q) if n <= self.k0 else -math.inf

    @property
    def tail_rate(self) -> float:
        raise ValueError("a point-mass prior has no tail rate")

    def mean(self) -> float:
        return (1.0 - self.q) * self.k0

    @property
    def uniforms(self) -> int:
        return 0 if self.q == 0.0 else 1  # a certain draw takes no random number

    def change_points(self, u: np.ndarray) -> np.ndarray:
        if self.q == 0.0:
            return np.full(len(u), self.k0, dtype=np.int64)
        return super().change_points(u)

    def _quantile(self, v: float) -> int:
        return self.k0


def _zeta(s, a):
    """Hurwitz zeta; only polynomial-tail priors need it, so scipy loads on first use."""
    from scipy.special import zeta

    return zeta(s, a)


@dataclass(frozen=True)
class ChangeSpec:
    """A concrete change: its time, the affected streams, and their parameters.

    ``theta`` holds one post-change parameter per affected stream, given in
    the order of ``subset``; both are stored sorted by stream, so the pairs
    stay together.  ``theta=None`` falls back to each channel's nominal
    parameter.
    """

    nu: int
    subset: tuple[int, ...]
    theta: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.nu < -1 and self.nu != NO_CHANGE:
            raise ValueError(f"change point must be >= -1, got {self.nu}")
        streams = [int(i) for i in self.subset]
        subset = tuple(sorted(set(streams)))
        if not subset and self.nu != NO_CHANGE:
            raise ValueError("affected subset must be nonempty")
        if any(i < 0 for i in subset):
            raise ValueError("stream indices must be >= 0")
        if len(subset) != len(streams):
            raise ValueError("an affected stream is listed twice")
        object.__setattr__(self, "subset", subset)
        if self.theta is not None:
            theta = tuple(float(t) for t in self.theta)
            if not all(math.isfinite(t) for t in theta):
                raise ValueError(f"post-change parameters must be finite, got {theta}")
            if len(theta) != len(subset):
                raise ValueError(
                    f"theta has {len(theta)} entries for {len(subset)} affected streams"
                )
            theta = tuple(t for _, t in sorted(zip(streams, theta)))
            object.__setattr__(self, "theta", theta)


def replication_rng(
    master_seed: int, replication: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, replication index).

    Replications are reproducible independently of scheduling or worker count.
    Philox's whole state is its key and its counter, so given ``rng``, a
    Philox generator, the function re-keys it in place and returns it: the
    same stream as a fresh generator, without building one.
    """
    key = (master_seed & (2**64 - 1), replication & (2**64 - 1))
    if rng is None:
        return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty: the next draw starts a new block
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng
