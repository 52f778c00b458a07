"""Demand distributions and the functionals the ordering policies consume.

Every distribution exposes the same small surface: cdf, generalized-inverse
quantile, the expected-leftover loss E[(x - D)^+], exact moments, quadrature
node/weight sets for stagewise expectations (over demand, or over sales
min(D, z) when unmet demand is lost). The Monte Carlo samples demand by
inverting uniforms through `quantile`, and atom demand's history by
`atom_index`, the search `quantile` reads. Objects are immutable and safe to
share across workers.

Over sales the demand above z is one node at the support maximum: a
continuous demand takes Gauss-Legendre points on [lo, z] beside it, atom
demand every atom up to the largest z. Atom demand's quantile looks its
CDF up in a bucket table (`_BucketSearch`), which returns exactly what
np.searchsorted returns.
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

#: Gauss-Legendre points per smooth segment. The integrands are low-degree
#: polynomials in D only between the next table's grid cells, so the rule is
#: not exact: on the desk grid (161x201, U(0,20), N = 6) V1(0, 0) at order 8
#: differs from order 32 by 0.44, about 1.2e-5 of V1, against a grid error
#: of about 2e-4 of V1
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
    def expectation_nodes(self, kink, out=None):
        """Per-element nodes/weights for E[g(D)] with g kinked at `kink`.

        `kink` is an array of shape (M,); the result broadcasts as (M, K):
        a row per element, or one row shared by all (atom demand). `out`,
        a pair of (M, K) arrays, receives per-element rows; a shared row
        ignores it.
        """

    @abstractmethod
    def sales_nodes(self, z, out=None):
        """Per-element nodes/weights for E[g(D)] with g constant for D >= z.

        Under lost sales a period sees demand only through sales min(D, z),
        so the demand above z may be one node: it sits at the support
        maximum, above z wherever it holds weight, so that both 1{D < z}
        and 1{D <= z} read it as demand above z. Shapes and `out` as in
        `expectation_nodes`.
        """

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


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [-1, 1], read-only and shared;
    built on first use, as atom demand never needs them."""
    gx, gw = np.polynomial.legendre.leggauss(QUAD_ORDER)
    gx.flags.writeable = False
    gw.flags.writeable = False
    return gx, gw


def _node_arrays(shape, k: int, out):
    """`out`, or a fresh pair of (*shape, k) arrays for nodes and weights."""
    return out if out is not None else (np.empty((*shape, k)), np.empty((*shape, k)))


def _gauss_segments(edges_lo, edges_hi, density, nodes, weights):
    """GL nodes/weights on per-element segments [lo, hi] with constant
    density, written into the (..., QUAD_ORDER) arrays `nodes`, `weights`."""
    gx, gw = _gauss_legendre()
    half = 0.5 * (edges_hi - edges_lo)
    mid = 0.5 * (edges_hi + edges_lo)
    np.multiply(half[..., None], gx, out=nodes)
    np.add(mid[..., None], nodes, out=nodes)
    np.multiply(half[..., None], gw, out=weights)
    weights *= density


def _levels(u) -> np.ndarray:
    """Quantile levels as an array; one outside [0, 1], or NaN, raises."""
    u = np.asarray(u, dtype=float)
    # NaN fails both comparisons; two reductions, as many as any() twice
    if u.size and not (u.min() >= 0 and u.max() <= 1):
        raise ValueError("quantile level outside [0, 1]")
    return u


class _BucketSearch:
    """np.searchsorted(values, q, side) by table lookup, for many queries
    against one sorted array of finite values.

    The line is cut into buckets [b w, (b + 1) w) with w a power of two, so
    that a query's bucket floor(q / w) is computed exactly. A table holds the
    number of values below each bucket; in a bucket holding at most one value,
    one comparison with that value completes the count. Queries in the other
    buckets are searched. The table has about BUCKETS_PER_VALUE entries per
    value, however close the values lie (a CDF's tail entries differ by 1e-13).
    """

    BUCKETS_PER_VALUE = 4

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) == 0 or not np.all(np.isfinite(values)):
            raise ValueError("bucket search needs a nonempty 1-D array of finite values")
        share = self.BUCKETS_PER_VALUE * len(values)
        # the width w = 2^exp, the largest power of two not above the values'
        # span per bucket share, is raised until every bucket index is below
        # 2^52 (exact in floating point) and clipped so that w and 1 / w are
        # normal numbers
        exp = math.frexp(values[-1] / share - values[0] / share)[1] - 1
        exp = max(exp, math.frexp(max(-values[0], values[-1]))[1] - 52)
        exp = min(max(exp, -1022), 1022)
        self._values = values
        self._scale = math.ldexp(1.0, -exp)
        # a width above 1 takes floor(q) first: floor(floor(q) / w) is
        # floor(q / w), and q / w would round a tiny negative q to -0
        self._floor_first = exp > 0
        # an empty bucket at each end takes the queries beyond the values
        self._base = float(self._bucket(values[0])) - 1.0
        self._last = float(self._bucket(values[-1])) - self._base + 1.0
        with np.errstate(over="ignore"):  # an edge past the largest float is inf
            edges = math.ldexp(1.0, exp) * (self._base + np.arange(self._last + 1.0))
        below = np.searchsorted(values, edges, side="left")
        crowded = np.append(np.diff(below) > 1, False)
        # -1 marks a bucket whose queries are searched
        self._table = np.where(crowded, -1, below)
        self._crowded = bool(crowded.any())
        # NaN past the last value: no query compares below it
        self._padded = np.append(values, np.nan)

    def _bucket(self, q):
        s = np.floor(q) if self._floor_first else q
        with np.errstate(over="ignore"):  # beyond the last bucket either way
            return np.floor(s * self._scale)

    def __call__(self, q, side: str):
        q = np.asarray(q, dtype=float)
        flat = q.reshape(-1)
        b = self._bucket(flat)
        b -= self._base
        # fmin first: NaN goes to the last bucket, as searchsorted sorts it last
        np.fmin(b, self._last, out=b)
        np.fmax(b, 0.0, out=b)
        idx = self._table[b.astype(np.intp)]
        if self._crowded and idx.min(initial=0) < 0:
            at = np.flatnonzero(idx < 0)
            idx[at] = np.searchsorted(self._values, flat[at], side=side)
        # an exact count is left as it is: the value at it is not below q
        below = np.less if side == "left" else np.less_equal
        idx += below(self._padded[idx], flat)
        return idx.reshape(q.shape)


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
        u = _levels(u)
        return self.lo + u * (self.hi - self.lo)

    def loss(self, x):
        # T(x) = (x - lo)^2 / (2 (hi - lo)) between the bounds, x - mean above
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, self.lo, self.hi)
        inner = 0.5 * (xc - self.lo) ** 2 / (self.hi - self.lo)
        return inner + np.maximum(x - self.hi, 0.0)

    def _mean_sd(self):
        return 0.5 * (self.lo + self.hi), (self.hi - self.lo) / np.sqrt(12.0)

    def expectation_nodes(self, kink, out=None):
        # the GL nodes of [lo, kink], then those of [kink, hi]
        kink = np.clip(np.asarray(kink, dtype=float), self.lo, self.hi)
        density = 1.0 / (self.hi - self.lo)
        nodes, weights = _node_arrays(kink.shape, 2 * QUAD_ORDER, out)
        below, above = slice(None, QUAD_ORDER), slice(QUAD_ORDER, None)
        _gauss_segments(np.full_like(kink, self.lo), kink, density,
                        nodes[..., below], weights[..., below])
        _gauss_segments(kink, np.full_like(kink, self.hi), density,
                        nodes[..., above], weights[..., above])
        return nodes, weights

    def sales_nodes(self, z, out=None):
        # the GL nodes below z, and one node holding P(D >= z) at the support
        # maximum: its leftover (z - hi)^+ is 0 wherever its weight is not,
        # and it lies above z, outside both of the slope's 1{D < z}, 1{D <= z}
        z = np.clip(np.asarray(z, dtype=float), self.lo, self.hi)
        density = 1.0 / (self.hi - self.lo)
        nodes, weights = _node_arrays(z.shape, QUAD_ORDER + 1, out)
        _gauss_segments(np.full_like(z, self.lo), z, density,
                        nodes[..., :-1], weights[..., :-1])
        nodes[..., -1] = self.hi
        np.multiply(self.hi - z, density, out=weights[..., -1])
        return nodes, weights


class _Atoms(Demand):
    """Shared machinery for distributions supported on a finite set of atoms."""

    atoms: np.ndarray
    probs: np.ndarray
    _cum: np.ndarray

    def _init_atoms(self, atoms, probs):
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_cum", np.cumsum(probs))
        object.__setattr__(self, "_cum_search", _BucketSearch(self._cum))

    @property
    def support(self):
        return (float(self.atoms[0]), float(self.atoms[-1]))

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.atoms, t, side="right")
        cum = np.concatenate([[0.0], self._cum])
        return cum[idx]

    def atom_index(self, u):
        """Index in `atoms` of the quantile at each level u: the count of
        CDF values below u. A level above the last CDF value, which rounding
        can leave short of 1, takes the last atom."""
        idx = self._cum_search(_levels(u), "left")
        return np.minimum(idx, len(self.atoms) - 1, out=idx)

    def quantile(self, u):
        return self.atoms.take(self.atom_index(u))

    def loss(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(x[..., None] - self.atoms, 0.0) @ self.probs

    def expectation_nodes(self, kink, out=None):
        return self.atoms[None, :], self.probs[None, :]

    def sales_nodes(self, z, out=None):
        # every atom up to the largest z is its own node (an atom equal to z
        # is read by the slope's 1{D <= z}); the atoms above it all sell z
        # and become one node at the support maximum
        z = np.asarray(z, dtype=float)
        k = int(np.searchsorted(self.atoms, np.max(z, initial=-np.inf), side="right"))
        if k >= len(self.atoms) - 1:
            return self.expectation_nodes(z)
        nodes = np.append(self.atoms[:k], self.atoms[-1])
        weights = np.append(self.probs[:k], self.probs[k:].sum())
        return nodes[None, :], weights[None, :]


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
