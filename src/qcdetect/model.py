"""Change-point priors, change configurations, and per-replication generators.

The change point ``nu`` takes values in ``{-1, 0, 1, ...}``.  The value ``-1``
stands for the whole event "the change was already in effect before the first
observation"; its probability is the head mass ``q``.  For ``nu = k >= 0`` the
observation at time ``k`` (1-based) is the last pre-change sample and ``k+1``
is the first post-change sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GEOMETRIC = "geometric"
POLYNOMIAL_TAIL = "polynomial-tail"
POINT_MASS = "point-mass"

#: Sentinel change-point value meaning "no change ever" (pure noise runs).
NO_CHANGE = 2**62


@dataclass(frozen=True)
class PriorSpec:
    """Prior distribution of the change point.

    Supported families:

    * ``geometric``: ``pi_k = (1-q) * rho * (1-rho)**k`` with exponential tail
      rate ``|log(1-rho)|``.
    * ``polynomial-tail``: ``pi_k`` proportional to ``(k+1)**-(1+beta)``, a
      heavy-tailed family with tail rate 0.
    * ``point-mass``: all mass at a fixed ``k0`` (diagnostics only; it has no
      positive tail beyond ``k0``).
    """

    kind: str
    rho: float = 0.0
    beta: float = 0.0
    q: float = 0.0
    k0: int = 0

    @classmethod
    def geometric(cls, rho: float, q: float = 0.0) -> "PriorSpec":
        if not 0.0 < rho < 1.0:
            raise ValueError(f"geometric rate must be in (0, 1), got {rho}")
        _check_head_mass(q)
        return cls(kind=GEOMETRIC, rho=float(rho), q=float(q))

    @classmethod
    def polynomial_tail(cls, beta: float, q: float = 0.0) -> "PriorSpec":
        if beta <= 0.0:
            raise ValueError(f"tail exponent must be positive, got {beta}")
        _check_head_mass(q)
        return cls(kind=POLYNOMIAL_TAIL, beta=float(beta), q=float(q))

    @classmethod
    def point_mass(cls, k0: int, q: float = 0.0) -> "PriorSpec":
        if k0 < 0:
            raise ValueError(f"point-mass location must be >= 0, got {k0}")
        _check_head_mass(q)
        return cls(kind=POINT_MASS, k0=int(k0), q=float(q))

    # -- probabilities -----------------------------------------------------

    def mass(self, k: int) -> float:
        """P(nu = k) for k >= 0."""
        if k < 0:
            raise ValueError("mass is defined for k >= 0; the head is q")
        scale = 1.0 - self.q
        if self.kind == GEOMETRIC:
            return scale * self.rho * (1.0 - self.rho) ** k
        if self.kind == POLYNOMIAL_TAIL:
            s = 1.0 + self.beta
            return scale * (k + 1.0) ** (-s) / _zeta(s, 1.0)
        if self.kind == POINT_MASS:
            return scale if k == self.k0 else 0.0
        raise ValueError(f"unknown prior kind {self.kind!r}")

    def log_mass(self, k: int) -> float:
        if k < 0:
            raise ValueError("mass is defined for k >= 0; the head is q")
        scale = math.log1p(-self.q) if self.q < 1.0 else -math.inf
        if self.kind == GEOMETRIC:
            return scale + math.log(self.rho) + k * math.log1p(-self.rho)
        if self.kind == POLYNOMIAL_TAIL:
            s = 1.0 + self.beta
            return scale - s * math.log(k + 1.0) - math.log(_zeta(s, 1.0))
        if self.kind == POINT_MASS:
            return scale if k == self.k0 else -math.inf
        raise ValueError(f"unknown prior kind {self.kind!r}")

    def tail(self, n: int | np.ndarray) -> float | np.ndarray:
        """P(nu >= n) for n >= 0, evaluated without truncation error.

        Elementwise when ``n`` is an array (computed in floating point).
        """
        is_array = np.ndim(n) > 0
        if is_array:
            n = np.asarray(n, dtype=float)
        if np.any(n < 0):
            raise ValueError("tail is defined for n >= 0")
        scale = 1.0 - self.q
        if self.kind == GEOMETRIC:
            return scale * (1.0 - self.rho) ** n
        if self.kind == POLYNOMIAL_TAIL:
            # Hurwitz zeta gives the exact tail sum of (k+1)^-(1+beta).
            s = 1.0 + self.beta
            return scale * _zeta(s, n + 1.0) / _zeta(s, 1.0)
        if self.kind == POINT_MASS:
            if is_array:
                return np.where(n <= self.k0, scale, 0.0)
            return scale if n <= self.k0 else 0.0
        raise ValueError(f"unknown prior kind {self.kind!r}")

    def log_tail(self, n: int) -> float:
        if n < 0:
            raise ValueError("tail is defined for n >= 0")
        scale = math.log1p(-self.q) if self.q < 1.0 else -math.inf
        if self.kind == GEOMETRIC:
            return scale + n * math.log1p(-self.rho)
        if self.kind == POLYNOMIAL_TAIL:
            s = 1.0 + self.beta
            return scale + math.log(_zeta(s, n + 1.0)) - math.log(_zeta(s, 1.0))
        if self.kind == POINT_MASS:
            return scale if n <= self.k0 else -math.inf
        raise ValueError(f"unknown prior kind {self.kind!r}")

    # -- summaries ---------------------------------------------------------

    @property
    def tail_rate(self) -> float:
        """Exponential decay rate of the right tail: lim |log P(nu > n)| / n."""
        if self.kind == GEOMETRIC:
            return abs(math.log1p(-self.rho))
        if self.kind == POLYNOMIAL_TAIL:
            return 0.0
        raise ValueError("a point-mass prior has no tail rate")

    def mean(self) -> float:
        """E[nu; nu >= 0] = sum_k k * pi_k (may be infinite)."""
        scale = 1.0 - self.q
        if self.kind == GEOMETRIC:
            return scale * (1.0 - self.rho) / self.rho
        if self.kind == POLYNOMIAL_TAIL:
            if self.beta <= 1.0:
                return math.inf
            # sum_k k (k+1)^-(1+b) = zeta(b) - zeta(1+b)
            return scale * (_zeta(self.beta, 1.0) - _zeta(1.0 + self.beta, 1.0)) / _zeta(
                1.0 + self.beta, 1.0
            )
        if self.kind == POINT_MASS:
            return scale * self.k0
        raise ValueError(f"unknown prior kind {self.kind!r}")

    def head_odds(self) -> float:
        """q / (1 - q), the starting value of the Shiryaev statistic."""
        return self.q / (1.0 - self.q)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> int:
        """Draw nu; returns -1 with probability q, else k with probability pi_k."""
        if self.kind == POINT_MASS and self.q == 0.0:
            return self.k0
        u = rng.random()
        if u < self.q:
            return -1
        if self.kind == POINT_MASS:
            return self.k0
        v = (u - self.q) / (1.0 - self.q)  # uniform on [0, 1)
        if self.kind == GEOMETRIC:
            # inverse CDF: smallest k with 1 - (1-rho)^(k+1) > v
            if v <= 0.0:
                return 0
            return max(0, int(math.ceil(math.log1p(-v) / math.log1p(-self.rho))) - 1)
        # polynomial tail: bisect on the normalized tail (monotone, O(1) per probe)
        s = 1.0 + self.beta
        z0 = _zeta(s, 1.0)

        def norm_tail(n: int) -> float:
            return _zeta(s, n + 1.0) / z0

        target = 1.0 - v  # find smallest k with norm_tail(k+1) <= target
        hi = 1
        while norm_tail(hi) > target:
            hi *= 2
        lo = hi // 2  # norm_tail(lo) > target or lo == 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if norm_tail(mid) > target:
                lo = mid
            else:
                hi = mid
        return hi - 1


def _zeta(s, a):
    """Hurwitz zeta; only polynomial-tail priors need it, so scipy loads on first use."""
    from scipy.special import zeta

    return zeta(s, a)


def _check_head_mass(q: float) -> None:
    if not 0.0 <= q < 1.0:
        raise ValueError(f"head mass q must be in [0, 1), got {q}")


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
            if len(theta) != len(subset):
                raise ValueError(
                    f"theta has {len(theta)} entries for {len(subset)} affected streams"
                )
            theta = tuple(t for _, t in sorted(zip(streams, theta)))
            object.__setattr__(self, "theta", theta)


def replication_rng(master_seed: int, replication: int) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, replication index).

    Replications are reproducible independently of scheduling or worker count.
    """
    key = np.array([master_seed & (2**64 - 1), replication & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
