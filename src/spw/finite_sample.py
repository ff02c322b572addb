"""Finite-sample estimators within discrete strata.

Shrinkage-weighted means with exactly-known bias, the pooled unbiased
set-estimator, the scaled average-effect unbiased statistic,
inverse-weighting and modified-difference baselines, and an exact
enumeration oracle that integrates any statistic over the full
assignment distribution of small designs. The scaled statistic's
weight function (``_scaled_weights``) computes each stratum's two
leave-one-out shares once and gathers them per unit, on one
assignment or a block of replications. The weak-null ``t_hat``
statistic of ``inference`` has the same weights, bit for bit, read
from its per-stratum table of treated and control weights.

Each estimator's arithmetic lives in one private kernel that takes the
outcomes and assignments of one replication (n,) or of a block of
replications sharing one StrataIndex (R, n): per-stratum sums are one
``bincount`` in unit order, and each row of a block gets the bytes its
own assignment would. The public functions wrap the kernels on one
Dataset, except ``shrinkage_mean``, which reads only its stratum, with
the kernel's rounding; ``spw simulate`` runs the kernels on blocks.
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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"bounds for treatment {w} must be finite, got ({lo}, {hi})")
            if lo > hi:
                raise ConfigError(f"bounds for treatment {w} are reversed")
        for w, k in self.kappa.items():
            if not math.isfinite(k):
                raise ConfigError(f"contrast weight for treatment {w} must be finite, got {k}")
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


def _require_strata(model: AssignmentModel, strata: StrataIndex) -> None:
    if model.lam.shape[0] != strata.n_strata:
        raise ConfigError(
            f"assignment model has {model.lam.shape[0]} strata, the design {strata.n_strata}"
        )


def _check_finite(data: Dataset, strata: StrataIndex) -> None:
    if data.mode != "finite":
        raise FlavorMismatch("finite-sample estimators require a finite-sample dataset")
    if data.n != strata.labels.shape[0]:
        raise ConfigError(f"dataset has {data.n} units, the strata index {strata.labels.shape[0]}")


def _scaled_weights(w: np.ndarray, strata: StrataIndex, a: int, b: int) -> np.ndarray:
    """Per-unit weights p_b 1{W = a} - p_a 1{W = b} of the scaled effect
    statistic, with leave-one-out shares p, on one assignment (n,) or a
    batch (B, n).

    A unit's share of an arm it is not in is m_arm / (N_k - 1), one value
    per stratum, and each share only weighs units outside its arm. So the
    two shares are computed once per stratum and gathered per unit; every
    weight, down to the sign of a zero, is the per-unit share's.
    """
    is_a = w == a
    is_b = w == b
    loo_size = strata._loo_sizes
    labels = strata.labels
    p_a = (strata.count(is_a) / loo_size).take(labels, axis=-1)
    p_b = (strata.count(is_b) / loo_size).take(labels, axis=-1)
    # p_b * is_a - p_a * is_b, in place: fewer (B, n) temporaries.
    p_b *= is_a
    p_a *= is_b
    p_b -= p_a
    return p_b


def _stratum_sums(strata: StrataIndex, terms: np.ndarray) -> np.ndarray:
    """Per-stratum sums of per-unit terms: (K,) for one assignment's terms
    (n,), (R, K) for a block of replications (R, n). ``bincount`` adds in
    unit order, over the flat index row * K + label for a block, so each
    sum is rounded exactly as a sequential loop's."""
    k = strata.n_strata
    if terms.ndim == 1:
        return np.bincount(strata.labels, weights=terms, minlength=k)
    rows = terms.shape[0]
    flat = (np.arange(rows)[:, None] * k + strata.labels).ravel()
    return np.bincount(flat, weights=terms.ravel(), minlength=rows * k).reshape(rows, k)


def _fsum(terms: list) -> float | np.ndarray:
    """Exactly rounded sum (``math.fsum``) of the terms: a float when they
    are scalars, one sum per row when they are (R,) arrays."""
    if isinstance(terms[0], np.ndarray):
        return np.array([math.fsum(row) for row in zip(*[t.tolist() for t in terms])])
    return math.fsum(terms)


def _shrinkage_terms(
    y: np.ndarray, w: np.ndarray, strata: StrataIndex, arm: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stratum arm counts m_w and the per-unit terms
    r_hat_i 1{W_i = arm} Y_i, with r_hat_i = N_k / m_w for the arm's units
    of stratum k, on one assignment (n,) or a block (R, n)."""
    is_w = w == arm
    m_w = strata.count(is_w)
    # One N_k / max(1, m_w) per stratum, gathered per unit: the same quotient.
    r_hat = (strata.counts / np.maximum(m_w, 1.0)).take(strata.labels, axis=-1)
    return m_w, r_hat * is_w * y


def _shrinkage_means(y: np.ndarray, w: np.ndarray, strata: StrataIndex, arm: int) -> np.ndarray:
    """Shrinkage-weighted means of every stratum, (K,) or (R, K)."""
    _, terms = _shrinkage_terms(y, w, strata, arm)
    return _stratum_sums(strata, terms) / strata.counts


def shrinkage_mean(data: Dataset, strata: StrataIndex, w: int, k: int) -> float:
    """Shrinkage-weighted stratum mean; equals the modified subsample mean
    (sum of w-outcomes over max(1, w-count)).

    Only stratum k is read. Each of its w-outcomes, times
    r = N_k / max(1, m_w), is added to 0.0 in unit order, then the total
    is divided by N_k: the rounding of ``_shrinkage_means``' ``bincount``,
    whose other terms are signed zeros that change no sum. The plain loop
    is that sequential sum; builtin ``sum`` compensates from Python 3.12.
    """
    _check_finite(data, strata)
    members = strata.members[k]
    n_k = int(strata.counts[k])
    y = data.y[members][data.w[members] == w]
    r = n_k / max(y.size, 1)
    total = 0.0
    for v in y.tolist():
        total += r * v
    return total / n_k


PoolWeights = Callable[[int, int, int], float]


def _pooled_ends(
    y: np.ndarray,
    w: np.ndarray,
    strata: StrataIndex,
    arm: int,
    bounds: tuple[float, float],
    pool_weights: PoolWeights | None,
) -> list:
    """Endpoints [lo, hi] of the pooled set-estimate of the arm's response
    mean: scalars on one assignment (n,), (R,) arrays on a block (R, n).

    Each endpoint is mean(base + fill[..., labels]) in np.mean's arithmetic
    (one add.reduce per row, then / n), not intercept + t * slope, which
    rounds differently. ``fill`` (..., K) is 0.0 except for strata vacant
    in that row. With K > 1 and nothing vacant, both endpoints are one
    point, mean(base + 0.0), computed once. With K = 1 the fill is
    t * vacant: a bound t < 0 keeps -0.0 terms that + 0.0 would turn to
    +0.0. With K = 2 a vacant stratum takes the other's mu_hat times its
    one pooling weight (exactly 1.0 by default), in one pass: a length-1
    dot is that multiply, and mu_hat is never -0.0. K >= 3 makes one
    ``weights @ mu_hat[others]`` per (row, vacant stratum), rounded as ``ddot``.
    """
    n = strata.labels.shape[0]
    k_n = strata.n_strata
    counts = strata.counts
    m_w, base = _shrinkage_terms(y, w, strata, arm)
    if k_n > 1 and m_w.all():
        point = np.add.reduce(base + 0.0, -1) / n
        return [point, point]
    mu_tilde = _stratum_sums(strata, base) / counts
    is_vacant = m_w == 0
    vacant = is_vacant.astype(float)
    # (row, stratum) of each vacancy, with no row on one assignment; then
    # the other strata and their pooling weights, per stratum vacant anywhere.
    vacancies = [index.tolist() for index in is_vacant.nonzero()]
    sizes = counts.tolist()
    pools = {}
    if k_n > 1:
        for k in dict.fromkeys(vacancies[-1]):
            others = [j for j in range(k_n) if j != k]
            if pool_weights is None:
                # Python ints divide to the same double as numpy's, faster.
                weights = np.array([sizes[j] / (n - sizes[k]) for j in others])
            else:
                weights = np.array([pool_weights(arm, j, k) for j in others], dtype=float)
                if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
                    raise ConfigError("pooling weights must be nonnegative and sum to 1")
            pools[k] = others, weights
    if k_n == 2:
        factor = np.array([pools[k][1][0] if k in pools else 1.0 for k in range(2)])

    ends = []
    for t in bounds:
        if k_n == 1:
            fill = t * vacant
        elif k_n == 2:
            fill = np.where(is_vacant, factor * (mu_tilde + t * vacant)[..., ::-1], 0.0)
        else:
            mu_hat = mu_tilde + t * vacant
            fill = np.zeros(mu_hat.shape)
            for *row, k in zip(*vacancies):
                others, weights = pools[k]
                fill[(*row, k)] = weights @ mu_hat[(*row, others)]
        ends.append(np.add.reduce(base + fill.take(strata.labels, axis=-1), -1) / n)
    return ends


def _fpw_ends(
    y: np.ndarray,
    w: np.ndarray,
    strata: StrataIndex,
    cfg: FsConfig,
    pool_weights: PoolWeights | None = None,
) -> tuple:
    """(lo, hi, per_w) of the contrast set-estimate: ``per_w`` maps each
    treatment with nonzero weight to its pooled [lo, hi]. Scalars on one
    assignment (n,), (R,) arrays on a block (R, n)."""
    per_w = {
        arm: _pooled_ends(y, w, strata, arm, cfg.bound_for(arm), pool_weights)
        for arm, kap in cfg.kappa.items()
        if kap != 0.0
    }
    lo_terms, hi_terms = [], []
    for arm, (lo, hi) in per_w.items():
        kap = cfg.kappa[arm]
        if kap > 0:
            lo_terms.append(kap * lo)
            hi_terms.append(kap * hi)
        else:
            lo_terms.append(kap * hi)
            hi_terms.append(kap * lo)
    return _fsum(lo_terms), _fsum(hi_terms), per_w


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

    ``per_w`` holds the pooled unbiased set-estimate of the response
    mean per treatment with nonzero weight: units in strata with no w
    observations borrow the other strata's (set-valued) estimates,
    weighted by stratum size by default or by user-supplied nonnegative
    weights summing to one. In a single stratum nothing is pooled, and
    a vacant stratum's estimate is the declared response bounds. The
    extrema of the contrast over the box of per-treatment intervals
    are attained endpoint-by-endpoint according to the sign of each
    kappa_w. The set collapses to a point when every stratum contains
    at least one unit of each treatment with nonzero weight.
    """
    _check_finite(data, strata)
    lo, hi, per_w = _fpw_ends(data.y, data.w, strata, cfg, pool_weights)
    per_w = {arm: SetEstimate(float(a), float(b)) for arm, (a, b) in per_w.items()}
    return FpwEstimate(interval=SetEstimate(lo, hi), per_w=per_w)


def _wmd(y: np.ndarray, w: np.ndarray, strata: StrataIndex, cfg: FsConfig) -> float | np.ndarray:
    """``wmd_estimate`` on one assignment (n,) or on each row of a block (R, n)."""
    n = strata.labels.shape[0]
    terms = []
    for arm, kap in cfg.kappa.items():
        if kap == 0.0:
            continue
        terms.extend((kap * strata.counts / n * _shrinkage_means(y, w, strata, arm)).T)
    return _fsum(terms)


def wmd_estimate(data: Dataset, strata: StrataIndex, cfg: FsConfig) -> float:
    """Size-weighted contrast of the modified subsample means."""
    _check_finite(data, strata)
    return _wmd(data.y, data.w, strata, cfg)


def _ipw_fs(
    y: np.ndarray, w: np.ndarray, strata: StrataIndex, cfg: FsConfig
) -> float | np.ndarray:
    """``ipw_fs_estimate`` on one assignment (n,) or on each row of a block (R, n)."""
    counts = strata.counts
    labels = strata.labels
    n = labels.shape[0]
    loo_size = counts[labels] - 1.0
    floor = 1.0 / (2.0 * loo_size)
    terms = []
    for arm, kap in cfg.kappa.items():
        if kap == 0.0:
            continue
        is_w = w == arm
        share = (strata.count(is_w).take(labels, axis=-1) - is_w) / loo_size
        acc = _stratum_sums(strata, np.where(is_w, y / np.maximum(share, floor), 0.0))
        terms.extend((kap * (counts / n) * acc / counts).T)
    return _fsum(terms)


def ipw_fs_estimate(data: Dataset, strata: StrataIndex, cfg: FsConfig) -> float:
    """Clamped leave-one-out inverse-weighting baseline (biased)."""
    _check_finite(data, strata)
    return _ipw_fs(data.y, data.w, strata, cfg)


def _scaled(y: np.ndarray, w: np.ndarray, strata: StrataIndex, a: int, b: int):
    """``scaled_ate`` on one assignment (n,) or on each row of a block (R, n)."""
    if a == b:
        raise ConfigError("scaled effect requires two distinct treatments")
    contrib = _scaled_weights(w, strata, a, b)
    contrib *= y
    # np.mean's own arithmetic (one add.reduce per row, then / n), without
    # its overhead.
    return np.add.reduce(contrib, -1) / contrib.shape[-1]


def scaled_ate(data: Dataset, strata: StrataIndex, a: int, b: int) -> float:
    """Unbiased statistic for the product-of-propensities scaled effect.

    Its expectation is G_ab (mu_a - mu_b) with
    G_ab = mean of lam_a lam_b over units, so the statistic supports
    exact tests of the effect's sign and magnitude without inverse
    weights.
    """
    _check_finite(data, strata)
    return float(_scaled(data.y, data.w, strata, a, b))


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
    _require_strata(model, strata)
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

    # Neumaier-compensated sums (total, compensation) in local floats of
    # p * statistic, per component of its value. A scalar statistic keeps
    # its own pair of floats: run as width 1 through the component lists,
    # it cost about 0.8 us more per assignment (traced, 2-vCPU Xeon), and
    # the exact laws call scalars. The probabilities only feed the guard
    # that they total 1: one exactly rounded fsum per chunk, and an fsum
    # of those.
    chunk_sums: list[float] = []
    s_total = s_comp = 0.0
    totals: list[float] = []
    comps: list[float] = []
    width = None
    scalar_out = True
    for start in range(0, size, chunk):
        codes = np.arange(start, min(start + chunk, size))
        idx = codes[:, None] // place % arms  # (chunk, n) treatment indices
        # A row product multiplies left to right, as np.prod of one row does.
        probs = np.prod(lam_per_unit[rows, idx], axis=1).tolist()
        chunk_sums.append(math.fsum(probs))
        for p, w_vec, y_vec in zip(probs, treat_values[idx], pot[rows, idx]):
            value = statistic(w_vec, y_vec)
            if width is None:
                scalar_out = np.isscalar(value) or np.ndim(value) == 0
                width = 1 if scalar_out else len(value)
                totals, comps = [0.0] * width, [0.0] * width
            try:
                if scalar_out:
                    v = p * float(value)
                    t = s_total + v
                    if abs(s_total) >= abs(v):
                        s_comp += (s_total - t) + v
                    else:
                        s_comp += (v - t) + s_total
                    s_total = t
                else:
                    if len(value) != width:
                        raise ConfigError(
                            f"statistic returned {len(value)} values after returning {width}"
                        )
                    for j, x in enumerate(value):
                        v = p * float(x)
                        total = totals[j]
                        t = total + v
                        if abs(total) >= abs(v):
                            comps[j] += (total - t) + v
                        else:
                            comps[j] += (v - t) + total
                        totals[j] = t
            except TypeError:
                before = "a scalar" if scalar_out else f"{width} values"
                raise ConfigError(
                    f"statistic returned {value!r} after returning {before}"
                ) from None

    p_total = math.fsum(chunk_sums)
    if abs(p_total - 1.0) > 1e-12:
        raise ConfigError(f"assignment probabilities sum to {p_total!r}, not 1")
    if scalar_out:
        return s_total + s_comp
    return np.array([t + c for t, c in zip(totals, comps)])
