"""Finite-sample estimators within discrete strata.

Shrinkage-weighted means with exactly-known bias, unpooled and pooled
unbiased set-estimators, the scaled average-effect unbiased statistic,
inverse-weighting and modified-difference baselines, and an exact
enumeration oracle that integrates any statistic over the full
assignment distribution of small designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import Dataset, StrataIndex
from .errors import ConfigError, EnumerationTooLarge, FlavorMismatch

ENUMERATION_LIMIT = 2**24
# Cells (assignments x units) per enumeration chunk: each (chunk, n) array
# stays at 64 KiB, below glibc's default mmap threshold.
_CHUNK_CELLS = 2**13


@dataclass(frozen=True)
class FsConfig:
    """Known response-mean bounds per treatment and the contrast weights."""

    bounds: Mapping[int, tuple[float, float]]
    kappa: Mapping[int, float]

    def __post_init__(self):
        for w, (lo, hi) in self.bounds.items():
            if lo > hi:
                raise ConfigError(f"bounds for treatment {w} are reversed")
        if not any(k != 0.0 for k in self.kappa.values()):
            raise ConfigError("contrast weights are all zero")

    @classmethod
    def binary_ate(cls, lo0, hi0, lo1, hi1) -> "FsConfig":
        return cls(bounds={0: (lo0, hi0), 1: (lo1, hi1)}, kappa={0: -1.0, 1: 1.0})

    def bound_for(self, w: int) -> tuple[float, float]:
        if w not in self.bounds:
            raise ConfigError(f"no response bounds declared for treatment {w}")
        return self.bounds[w]


@dataclass(frozen=True)
class SetEstimate:
    """Closed interval [lo, hi]; a point estimate when lo == hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConfigError("set-estimate endpoints are reversed")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True, eq=False)
class AssignmentModel:
    """Per-stratum treatment probabilities lam[k, j] for treatments[j]."""

    lam: np.ndarray
    treatments: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 2 or lam.shape[1] != len(self.treatments):
            raise ConfigError("assignment probabilities must be (n_strata, n_treatments)")
        if np.any(lam <= 0.0) or np.any(lam >= 1.0):
            raise ConfigError("assignment probabilities must lie strictly in (0, 1)")
        if np.max(np.abs(lam.sum(axis=1) - 1.0)) > 1e-12:
            raise ConfigError("assignment probabilities must sum to 1 per stratum")
        object.__setattr__(self, "lam", lam)

    @classmethod
    def binary(cls, lam1: Sequence[float]) -> "AssignmentModel":
        lam1 = np.asarray(lam1, dtype=float)
        return cls(lam=np.column_stack([1.0 - lam1, lam1]), treatments=(0, 1))


def _check_finite(data: Dataset) -> None:
    if data.mode != "finite":
        raise FlavorMismatch("finite-sample estimators require a finite-sample dataset")


def loo_shrinkage_weight(data: Dataset, strata: StrataIndex, i: int, w: int) -> float:
    """Stabilized reciprocal weight N_k / (1 + same-treatment peers of i)."""
    _check_finite(data)
    k = int(strata.labels[i])
    peers = int(strata.count(data.w == w)[k]) - int(data.w[i] == w)
    return strata.counts[k] / (1.0 + peers)


def _stratum_sums(strata: StrataIndex, terms: np.ndarray) -> np.ndarray:
    """Per-stratum sums of per-unit terms. ``bincount`` adds in unit
    order, so each sum is rounded exactly as a sequential loop's."""
    return np.bincount(strata.labels, weights=terms, minlength=strata.n_strata)


def _shrinkage_terms(data: Dataset, strata: StrataIndex, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-stratum w-counts m_w and the per-unit terms r_hat_i 1{W_i = w} Y_i,
    with r_hat_i = N_k / m_w for the w units of stratum k."""
    is_w = data.w == w
    m_w = strata.count(is_w)
    labels = strata.labels
    r_hat = strata.counts[labels] / np.maximum(m_w[labels], 1.0)
    return m_w, r_hat * is_w * data.y


def _shrinkage_means(data: Dataset, strata: StrataIndex, w: int) -> np.ndarray:
    """Shrinkage-weighted means of every stratum, shape (K,)."""
    _, terms = _shrinkage_terms(data, strata, w)
    return _stratum_sums(strata, terms) / strata.counts


def shrinkage_mean(data: Dataset, strata: StrataIndex, w: int, k: int) -> float:
    """Shrinkage-weighted stratum mean; equals the modified subsample mean
    (sum of w-outcomes over max(1, w-count))."""
    _check_finite(data)
    return _shrinkage_means(data, strata, w)[k]


def unpooled_set(data: Dataset, strata: StrataIndex, w: int, k: int, cfg: FsConfig) -> SetEstimate:
    """Per-stratum unbiased set-estimate of the response mean under w.

    Collapses to the shrinkage mean when the stratum contains a w unit;
    otherwise falls back to the declared response bounds.
    """
    _check_finite(data)
    lo_c, hi_c = cfg.bound_for(w)
    mu = shrinkage_mean(data, strata, w, k)
    vacant = 1.0 if np.all(data.w[strata.members[k]] != w) else 0.0
    return SetEstimate(mu + lo_c * vacant, mu + hi_c * vacant)


PoolWeights = Callable[[int, int, int], float]


def _pooled_interval(
    data: Dataset,
    strata: StrataIndex,
    w: int,
    bounds: tuple[float, float],
    pool_weights: PoolWeights | None,
) -> SetEstimate:
    n = data.n
    k_n = strata.n_strata
    counts = strata.counts
    m_w, base = _shrinkage_terms(data, strata, w)
    mu_tilde = _stratum_sums(strata, base) / counts
    vacant = (m_w == 0).astype(float)

    pools = []  # (vacant stratum, the other strata, their pooling weights)
    if k_n > 1:
        for k in np.flatnonzero(vacant):
            others = [j for j in range(k_n) if j != k]
            if pool_weights is None:
                weights = counts[others] / (n - counts[k])
            else:
                weights = np.array([pool_weights(w, j, k) for j in others], dtype=float)
                if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
                    raise ConfigError("pooling weights must be nonnegative and sum to 1")
            pools.append((k, others, weights))

    # Each endpoint is mean(base + imputed), not intercept + t * slope:
    # the affine form would round the endpoints differently.
    ends = []
    for t in bounds:
        if k_n == 1:
            imputed = t * vacant[strata.labels]
        else:
            mu_hat = mu_tilde + t * vacant
            imputed = np.zeros(n)
            for k, others, weights in pools:
                imputed[strata.members[k]] = float(weights @ mu_hat[others])
        ends.append(float(np.mean(base + imputed)))
    return SetEstimate(*ends)


def fpw_intervals(
    data: Dataset,
    strata: StrataIndex,
    cfg: FsConfig,
    pool_weights: PoolWeights | None = None,
) -> dict[int, SetEstimate]:
    """Pooled unbiased set-estimate of the response mean per treatment.

    Units in strata with no w observations borrow the other strata's
    (set-valued) estimates, weighted by stratum size by default or by
    user-supplied nonnegative weights summing to one.
    """
    _check_finite(data)
    out = {}
    for w, kap in cfg.kappa.items():
        if kap == 0.0:
            continue
        out[w] = _pooled_interval(data, strata, w, cfg.bound_for(w), pool_weights)
    return out


@dataclass(frozen=True)
class FpwEstimate:
    """Contrast set-estimate with the per-treatment intervals behind it."""

    interval: SetEstimate
    per_w: dict[int, SetEstimate]

    @property
    def is_point(self) -> bool:
        return self.interval.is_point


def fpw_set(
    data: Dataset,
    strata: StrataIndex,
    cfg: FsConfig,
    pool_weights: PoolWeights | None = None,
) -> FpwEstimate:
    """Unbiased set-estimate of the contrast sum_w kappa_w mu_w.

    The extrema of the contrast over the box of per-treatment intervals
    are attained endpoint-by-endpoint according to the sign of each
    kappa_w. The set collapses to a point when every stratum contains
    at least one unit of each treatment with nonzero weight.
    """
    per_w = fpw_intervals(data, strata, cfg, pool_weights)
    lo_terms, hi_terms = [], []
    for w, interval in per_w.items():
        kap = cfg.kappa[w]
        if kap > 0:
            lo_terms.append(kap * interval.lo)
            hi_terms.append(kap * interval.hi)
        else:
            lo_terms.append(kap * interval.hi)
            hi_terms.append(kap * interval.lo)
    return FpwEstimate(
        interval=SetEstimate(math.fsum(lo_terms), math.fsum(hi_terms)), per_w=per_w
    )


def wmd_estimate(data: Dataset, strata: StrataIndex, cfg: FsConfig) -> float:
    """Size-weighted contrast of the modified subsample means."""
    _check_finite(data)
    terms = []
    for w, kap in cfg.kappa.items():
        if kap == 0.0:
            continue
        terms.extend(kap * strata.counts / data.n * _shrinkage_means(data, strata, w))
    return math.fsum(terms)


def ipw_fs_estimate(data: Dataset, strata: StrataIndex, cfg: FsConfig) -> float:
    """Clamped leave-one-out inverse-weighting baseline (biased)."""
    _check_finite(data)
    counts = strata.counts
    labels = strata.labels
    floor = 1.0 / (2.0 * counts - 2.0)
    terms = []
    for w, kap in cfg.kappa.items():
        if kap == 0.0:
            continue
        is_w = data.w == w
        p_hat = np.maximum((strata.count(is_w) - 1) / (counts - 1), floor)
        acc = _stratum_sums(strata, np.where(is_w, data.y / p_hat[labels], 0.0))
        terms.extend(kap * (counts / data.n) * acc / counts)
    return math.fsum(terms)


def scaled_ate(data: Dataset, strata: StrataIndex, a: int, b: int) -> float:
    """Unbiased statistic for the product-of-propensities scaled effect.

    Its expectation is G_ab (mu_a - mu_b) with
    G_ab = mean of lam_a lam_b over units, so the statistic supports
    exact tests of the effect's sign and magnitude without inverse
    weights.
    """
    _check_finite(data)
    if a == b:
        raise ConfigError("scaled effect requires two distinct treatments")
    labels = strata.labels
    counts = strata.counts
    m_a = strata.count(data.w == a)
    m_b = strata.count(data.w == b)
    denom = counts[labels] - 1.0
    p_a = (m_a[labels] - (data.w == a)) / denom
    p_b = (m_b[labels] - (data.w == b)) / denom
    contrib = (p_b * (data.w == a) - p_a * (data.w == b)) * data.y
    return float(np.mean(contrib))


class _Accumulator:
    """Neumaier compensated accumulator; deterministic and near-exact."""

    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, value: float) -> None:
        t = self.total + value
        if abs(self.total) >= abs(value):
            self.comp += (self.total - t) + value
        else:
            self.comp += (value - t) + self.total
        self.total = t

    def value(self) -> float:
        return self.total + self.comp


def enumerate_expectation(
    statistic: Callable[[np.ndarray, np.ndarray], float | Sequence[float]],
    potential_outcomes: np.ndarray,
    model: AssignmentModel,
    strata: StrataIndex,
) -> float | np.ndarray:
    """Exact expectation of a statistic over all treatment assignments.

    ``potential_outcomes`` is (n, n_treatments): unit i's outcome under
    each treatment, in the model's treatment order, for the n units of
    ``strata``. The statistic receives the assignment vector (treatment
    values) and the realized outcomes; vector-valued statistics (e.g.
    interval endpoints) are integrated componentwise and must keep one
    width. Assignment probabilities multiply across units within the
    model, and their total is validated to 1.
    """
    pot = np.asarray(potential_outcomes, dtype=float)
    n = strata.labels.shape[0]
    arms = len(model.treatments)
    if pot.shape != (n, arms):
        raise ConfigError(f"potential outcomes must be (n, n_treatments) = ({n}, {arms})")
    if model.lam.shape[0] != strata.n_strata:
        raise ConfigError(
            f"assignment model has {model.lam.shape[0]} strata, the design {strata.n_strata}"
        )
    size = arms**n
    if size > ENUMERATION_LIMIT:
        raise EnumerationTooLarge(size, ENUMERATION_LIMIT)

    lam_per_unit = model.lam[strata.labels, :]  # (n, arms)
    treat_values = np.asarray(model.treatments)
    rows = np.arange(n)
    # Unit 0 is the slowest digit of an assignment's code, as in
    # itertools.product(range(arms), repeat=n).
    place = arms ** np.arange(n - 1, -1, -1)
    chunk = max(1, _CHUNK_CELLS // n)

    prob_acc = _Accumulator()
    stat_acc: list[_Accumulator] | None = None
    scalar_out = True
    for start in range(0, size, chunk):
        codes = np.arange(start, min(start + chunk, size))
        idx = codes[:, None] // place % arms  # (chunk, n) treatment indices
        # A row product multiplies left to right, as np.prod of one row does.
        probs = np.prod(lam_per_unit[rows, idx], axis=1).tolist()
        for p, w_vec, y_vec in zip(probs, treat_values[idx], pot[rows, idx]):
            value = statistic(w_vec, y_vec)
            if stat_acc is None:
                scalar_out = np.isscalar(value) or np.ndim(value) == 0
                width = 1 if scalar_out else len(value)
                stat_acc = [_Accumulator() for _ in range(width)]
            if scalar_out:
                stat_acc[0].add(p * float(value))
            else:
                if len(value) != width:
                    raise ConfigError(
                        f"statistic returned {len(value)} values after returning {width}"
                    )
                for acc, v in zip(stat_acc, value):
                    acc.add(p * float(v))
            prob_acc.add(p)

    if abs(prob_acc.value() - 1.0) > 1e-12:
        raise ConfigError(f"assignment probabilities sum to {prob_acc.value()!r}, not 1")
    if scalar_out:
        return stat_acc[0].value()
    return np.array([acc.value() for acc in stat_acc])
