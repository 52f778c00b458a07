"""Demand distributions and the functionals the ordering policies consume.

Every distribution exposes the same small surface: cdf, generalized-inverse
quantile, the expected-leftover loss E[(x - D)^+], exact moments, quadrature
node/weight sets for stagewise expectations (over demand, or over sales
min(D, z) when unmet demand is lost), and inverse-transform sampling.
Objects are immutable and safe to share across workers.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

#: discrete tails are truncated once the retained mass reaches 1 - TAIL_MASS
TAIL_MASS = 1e-12

#: Gauss-Legendre points per smooth segment; integrands are piecewise
#: low-degree polynomials in D, so a fixed low order is effectively exact
QUAD_ORDER = 8


class Moments(NamedTuple):
    mean: float
    sd: float
    cv: float


class Demand(ABC):
    """Common surface for demand distributions (continuous or discrete)."""

    support: tuple[float, float]

    @abstractmethod
    def cdf(self, t):
        """P(D <= t); nondecreasing and right-continuous."""

    @abstractmethod
    def quantile(self, u):
        """Smallest t with cdf(t) >= u (left-continuous generalized inverse)."""

    @abstractmethod
    def loss(self, x):
        """Expected leftover E[(x - D)^+]."""

    @abstractmethod
    def _mean_sd(self) -> tuple[float, float]: ...

    @abstractmethod
    def expectation_nodes(self, kink):
        """Per-element nodes/weights for E[g(D)] with g kinked at `kink`.

        `kink` is an array of shape (M,); the result broadcasts as (M, K).
        """

    def sales_nodes(self, z):
        """Per-element nodes/weights for E[g(D)] with g constant for D >= z.

        Under lost sales a period sees demand only through sales min(D, z),
        so the demand above z may be one node. Atoms are exact as they are:
        the default is expectation_nodes(z).
        """
        return self.expectation_nodes(z)

    def moments(self) -> Moments:
        mean, sd = self._mean_sd()
        if mean <= 0.0:
            raise ValueError("coefficient of variation undefined for mean 0")
        return Moments(mean, sd, sd / mean)

    @property
    def label(self) -> str:
        """Compact comma-free tag, safe for CSV cells and filenames."""
        return repr(self).replace(", ", " ").replace(",", " ")

    def mean(self) -> float:
        return self._mean_sd()[0]

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-transform sampling; deterministic for a fixed stream."""
        return self.quantile(rng.random(size))


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [-1, 1], read-only and shared;
    built on first use, as atom demand never needs them."""
    gx, gw = np.polynomial.legendre.leggauss(QUAD_ORDER)
    gx.flags.writeable = False
    gw.flags.writeable = False
    return gx, gw


def _gauss_segments(edges_lo, edges_hi, density):
    """GL nodes/weights on per-element segments [lo, hi] with constant density."""
    gx, gw = _gauss_legendre()
    half = 0.5 * (edges_hi - edges_lo)
    mid = 0.5 * (edges_hi + edges_lo)
    nodes = mid[..., None] + half[..., None] * gx
    weights = half[..., None] * gw * density
    return nodes, weights


@dataclass(frozen=True)
class Uniform(Demand):
    """Uniform demand on [lo, hi], lo >= 0."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"uniform support needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.lo < 0:
            raise ValueError("uniform demand support must be nonnegative")

    @property
    def support(self):
        return (self.lo, self.hi)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u > 1):
            raise ValueError("quantile level outside [0, 1]")
        return self.lo + u * (self.hi - self.lo)

    def loss(self, x):
        # T(x) = (x - lo)^2 / (2 (hi - lo)) between the bounds, x - mean above
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, self.lo, self.hi)
        inner = 0.5 * (xc - self.lo) ** 2 / (self.hi - self.lo)
        return inner + np.maximum(x - self.hi, 0.0)

    def _mean_sd(self):
        return 0.5 * (self.lo + self.hi), (self.hi - self.lo) / np.sqrt(12.0)

    def expectation_nodes(self, kink):
        kink = np.clip(np.asarray(kink, dtype=float), self.lo, self.hi)
        density = 1.0 / (self.hi - self.lo)
        lo = np.full_like(kink, self.lo)
        hi = np.full_like(kink, self.hi)
        n1, w1 = _gauss_segments(lo, kink, density)
        n2, w2 = _gauss_segments(kink, hi, density)
        return np.concatenate([n1, n2], axis=-1), np.concatenate([w1, w2], axis=-1)

    def sales_nodes(self, z):
        # the GL nodes below z, and one node holding P(D >= z) at the support
        # maximum: its leftover (z - hi)^+ is 0 wherever its weight is not,
        # and it lies above z, outside both of the slope's 1{D < z}, 1{D <= z}
        z = np.clip(np.asarray(z, dtype=float), self.lo, self.hi)
        density = 1.0 / (self.hi - self.lo)
        nodes, weights = _gauss_segments(np.full_like(z, self.lo), z, density)
        tail_node = np.full(z.shape + (1,), self.hi)
        tail_weight = ((self.hi - z) * density)[..., None]
        return (np.concatenate([nodes, tail_node], axis=-1),
                np.concatenate([weights, tail_weight], axis=-1))


class _Atoms(Demand):
    """Shared machinery for distributions supported on a finite set of atoms."""

    atoms: np.ndarray
    probs: np.ndarray
    _cum: np.ndarray

    def _init_atoms(self, atoms, probs):
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_cum", np.cumsum(probs))

    @property
    def support(self):
        return (float(self.atoms[0]), float(self.atoms[-1]))

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.atoms, t, side="right")
        cum = np.concatenate([[0.0], self._cum])
        return cum[idx]

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u > 1):
            raise ValueError("quantile level outside [0, 1]")
        idx = np.searchsorted(self._cum, u, side="left")
        return self.atoms[np.minimum(idx, len(self.atoms) - 1)]

    def loss(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(x[..., None] - self.atoms, 0.0) @ self.probs

    def expectation_nodes(self, kink):
        return self.atoms[None, :], self.probs[None, :]


@dataclass(frozen=True)
class ZeroInflatedPoisson(_Atoms):
    """Poisson(lam) mixed with an extra atom at zero of weight pi.

    pmf: P(0) = pi + (1-pi) e^{-lam}, P(k) = (1-pi) e^{-lam} lam^k / k!.
    Mean lam(1-pi), sd sqrt(lam(1-pi)(1+lam*pi)).
    """

    pi: float
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.pi < 1.0:
            raise ValueError("zero-inflation weight must lie in [0, 1)")
        if self.lam < 0.0:
            raise ValueError("rate must be nonnegative")
        if self.lam == 0.0:
            self._init_atoms(np.array([0.0]), np.array([1.0]))
            return
        # truncate the Poisson tail once the residual mass drops below TAIL_MASS
        k_hi = int(self.lam + 12.0 * np.sqrt(self.lam) + 30.0)
        k = np.arange(k_hi + 1)
        log_fact = np.array([math.lgamma(kk + 1.0) for kk in range(k_hi + 1)])
        log_pois = -self.lam + k * np.log(self.lam) - log_fact
        pois = np.exp(log_pois)
        keep = np.nonzero(np.cumsum(pois) < 1.0 - TAIL_MASS)[0]
        k_cut = (keep[-1] + 2) if len(keep) else 1
        probs = (1.0 - self.pi) * pois[:k_cut]
        probs[0] += self.pi
        self._init_atoms(k[:k_cut].astype(float), probs)

    def _mean_sd(self):
        mean = self.lam * (1.0 - self.pi)
        sd = np.sqrt(self.lam * (1.0 - self.pi) * (1.0 + self.lam * self.pi))
        return mean, sd


@dataclass(frozen=True)
class DiscreteEmpirical(_Atoms):
    """Finite distribution given by explicit values and probabilities."""

    values: tuple
    probabilities: tuple

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if vals.shape != probs.shape or vals.ndim != 1 or len(vals) == 0:
            raise ValueError("values and probabilities must be matching nonempty 1-D sequences")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        order = np.argsort(vals, kind="stable")
        vals, probs = vals[order], probs[order]
        uniq, inverse = np.unique(vals, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inverse, probs)
        self._init_atoms(uniq, merged)

    def _mean_sd(self):
        mean = float(self.atoms @ self.probs)
        var = float(((self.atoms - mean) ** 2) @ self.probs)
        return mean, np.sqrt(var)

    @property
    def label(self) -> str:
        """Atom count, support, mean and sd; the repr lists every atom."""
        lo, hi = self.support
        mean, sd = self._mean_sd()
        return (f"DiscreteEmpirical({len(self.atoms)} atoms on [{lo:.6g} {hi:.6g}] "
                f"mean={mean:.6g} sd={sd:.6g})")


def integer_uniform(lo: int, hi: int) -> DiscreteEmpirical:
    """Equal weights on the integers lo..hi: the paper's U(lo, hi)."""
    if not 0 <= lo <= hi:
        raise ValueError(f"integer uniform demand needs 0 <= lo <= hi, got lo={lo}, hi={hi}")
    values = tuple(float(k) for k in range(lo, hi + 1))
    return DiscreteEmpirical(values, (1.0 / len(values),) * len(values))
