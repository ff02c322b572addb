"""Design-based finite-sample inference for weak null hypotheses.

Tests of a hypothesized average effect run by simulating assignment
vectors from each candidate assignment model, decomposing the linear
test statistic into observed and null-imputed parts, and bounding the
p-value over the admissible unit-level effect heterogeneity and over
the model class. One set of Monte Carlo draws per model bounds the
entire p-value curve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Dataset, RngHandle, StrataIndex, _sorted_unique
from .errors import ConfigError, StatisticNotLinear
from .finite_sample import AssignmentModel, _require_strata

# Largest grid ``NullGrid.from_range`` builds: each point costs a line of
# pvalues.csv and an entry in every curve.
GRID_LIMIT = 10**6
# Largest model class ``ModelClass.from_lambda_boxes`` builds: every model
# gets its own statistic weights and curve per draw.
MODEL_LIMIT = 10**4
# Most Monte Carlo draws ``draw_omegas`` makes: its (draws, 2) omega array
# and the curve's per-draw temporaries then stay within a few hundred MB.
DRAW_LIMIT = 10**7
# Cells (draws x units) per block of simulated assignments: each (rows, n)
# float temporary of ``draw_omegas`` takes about 128 KiB, glibc's default
# mmap threshold, so blocks reuse heap memory that stays in a core's cache.
_BLOCK_CELLS = 2**14


@dataclass(frozen=True)
class HetBounds:
    """Bound c1 >= 0 on unit-level deviations of the treated-vs-control
    effect from its average; c1 = 0 encodes a homogeneous (sharp-null
    style) effect."""

    c1: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.c1) and self.c1 >= 0):
            raise ConfigError(
                f"heterogeneity bound must be finite and nonnegative, got {self.c1}"
            )

    def epsilon_corners(self) -> tuple[float, ...]:
        """Slope multipliers of the lower and upper curves, one at c1 = 0."""
        if self.c1 == 0.0:
            return (0.0,)
        return (-self.c1, self.c1)


@dataclass(frozen=True, eq=False)
class NullGrid:
    """Sorted, deduplicated grid of hypothesized average effects."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise ConfigError("null grid must be nonempty and finite")
        object.__setattr__(self, "values", _sorted_unique(v))

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float) -> "NullGrid":
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise ConfigError(f"grid {lo}:{hi}:{step} must have finite bounds and step")
        if step <= 0 or hi < lo:
            raise ConfigError("grid range must be increasing with positive step")
        span = (hi - lo) / step
        if not math.isfinite(span):
            raise ConfigError(f"grid {lo}:{hi}:{step} has too many points")
        count = int(math.floor(span + 1e-9)) + 1
        if count > GRID_LIMIT:
            raise ConfigError(
                f"grid {lo}:{hi}:{step} has {count} points (limit {GRID_LIMIT})"
            )
        return cls(lo + step * np.arange(count))


@dataclass(frozen=True)
class ModelClass:
    """Explicit finite collection of candidate assignment models."""

    models: tuple[AssignmentModel, ...]

    def __post_init__(self):
        if not self.models:
            raise ConfigError("model class must be nonempty")

    @classmethod
    def single(cls, model: AssignmentModel) -> "ModelClass":
        return cls((model,))

    @classmethod
    def from_lambda_boxes(
        cls,
        boxes: Mapping[int, tuple[float, float]],
        n_strata: int,
        resolution: int = 5,
    ) -> "ModelClass":
        """Tensor grid over per-stratum treated-probability intervals.

        ``boxes`` maps dense stratum codes to (lo, hi); strata without
        a box get a degenerate point only if supplied explicitly, so
        every stratum must appear. The grid has ``resolution`` points
        per non-degenerate interval.
        """
        if set(boxes) != set(range(n_strata)):
            raise ConfigError("a lambda interval is required for every stratum")
        if resolution < 1:
            raise ConfigError("grid resolution must be at least 1")
        spans = [boxes[k] for k in range(n_strata)]
        for k, (lo, hi) in enumerate(spans):
            if not (0.0 < lo <= hi < 1.0):
                raise ConfigError(f"lambda interval for stratum {k} must lie in (0, 1)")
        # Counted before np.linspace builds any axis of a huge resolution.
        total = math.prod(1 if lo == hi else resolution for lo, hi in spans)
        if total > MODEL_LIMIT:
            raise ConfigError(f"lambda grid would create {total} models (limit {MODEL_LIMIT})")
        axes = [[lo] if lo == hi else list(np.linspace(lo, hi, resolution)) for lo, hi in spans]
        models = tuple(
            AssignmentModel.binary(np.asarray(combo)) for combo in itertools.product(*axes)
        )
        return cls(models)


# ---------------------------------------------------------------------------
# Linear statistics: Q weights as functions of (X, W)
# ---------------------------------------------------------------------------

STATISTICS = ("t_hat", "wmd", "ipw")


def _weight_table(name: str, strata: StrataIndex, m1: np.ndarray) -> np.ndarray:
    """Per-stratum weights of the named statistic given treated counts m1,
    (K,) or (B, K): a (..., K, 2) table whose [..., k, 1] is the weight of
    a treated unit of stratum k and [..., k, 0] that of a control unit.

    Every statistic weighs a treated unit by some a_k >= 0 and a control
    unit by 0.0 - b_k, with m0 = N_k - m1 and leave-one-out size N_k - 1:

    - ``t_hat``: a = m0 / (N_k - 1), b = m1 / (N_k - 1), ``scaled_ate``'s
      weights p_0 1{W=1} - p_1 1{W=0};
    - ``ipw``: a = 1 / max((m1 - 1) / (N_k - 1), floor), b the same in m0,
      floor = 1 / (2 (N_k - 1)), ``ipw_fs_estimate``'s clamped shares;
    - ``wmd``: a = N_k (1 / max(1, m1)), b the same in m0.

    Each entry is the per-unit expression's bit for bit: the arm a unit
    is not in contributes a quotient of 0 or a ``- 0.0``, both exact, and
    0.0 - b_k is +0.0 at b_k = 0 as the per-unit form's difference is.
    ``wmd`` keeps its own rounding, N_k (1 / max(1, m_w)): the estimator's
    (N_k / max(1, m_w)) differs in the last bit, which moves p-values on
    designs with tied outcomes.
    """
    loo_size = strata._loo_sizes
    m0 = strata.counts - m1
    if name == "t_hat":
        a = m0 / loo_size
        b = m1 / loo_size
    elif name == "ipw":
        floor = 1.0 / (2.0 * loo_size)
        a = 1.0 / np.maximum((m1 - 1.0) / loo_size, floor)
        b = 1.0 / np.maximum((m0 - 1.0) / loo_size, floor)
    else:
        a = strata.counts * (1.0 / np.maximum(1.0, m1))
        b = strata.counts * (1.0 / np.maximum(1.0, m0))
    table = np.empty(m1.shape + (2,))
    table[..., 1] = a
    np.subtract(0.0, b, out=table[..., 0])
    return table


def statistic_weights(name: str, w, strata: StrataIndex) -> np.ndarray:
    """Per-unit weights Q_i of the named linear statistic, evaluated on
    one assignment vector (n,) or a batch (B, n), boolean or 0/1.

    All supported statistics are linear in the outcome with weights
    depending on (X, W) only; other names are rejected. A unit's weight
    is its row's ``_weight_table`` entry at its stratum and arm: one
    count of the treated units per stratum, one table and one ``take``
    from the flattened table at index ``row 2K + 2 label + treated``.
    A flat ``take`` returns a C-ordered array; ``table[:, labels]``
    would return an F-ordered one, whose row sums round differently.
    """
    if name not in STATISTICS:
        raise StatisticNotLinear(name)
    w = np.asarray(w)
    if w.dtype == bool:
        treated = w
    else:
        treated = w == 1
        if not np.all(treated | (w == 0)):
            raise ConfigError("statistic weights are defined for binary assignments only")
    table = _weight_table(name, strata, strata.count(treated))
    index = strata.labels * 2 + treated
    if index.ndim == 2:
        index += (2 * strata.n_strata) * np.arange(len(index))[:, None]
    return table.take(index)


def observed_statistic(data: Dataset, strata: StrataIndex, name: str) -> float:
    return float(omega_parts(data, strata, data.w, name)[0, 0])


def _require_binary(data: Dataset) -> None:
    if data.treatments != (0, 1):
        raise ConfigError("p-value bounds are implemented for binary treatments only")


def omega_parts(
    data: Dataset, strata: StrataIndex, w_sim: np.ndarray, statistic: str
) -> np.ndarray:
    """Statistic decomposition for given simulated assignments (B, n).

    Columns: observed-outcome part omega1 and imputation slope omega2,
    with weights evaluated on the simulated assignment; under average
    effect T and multiplier eps a draw's statistic is
    (omega1 + omega2 T) + eps omega2. Each is a row sum, so a row's value
    does not depend on the other rows.

    The slope's terms u = Q (W_sim - W) / n are never negative: a weight
    takes the sign of its simulated arm (a_k >= 0 for a treated unit,
    0.0 - b_k <= 0 for a control one; see ``_weight_table``), and
    W_sim - W is 0 or has that same sign (-0.0 counts as nonnegative).
    So the slope needs no split into signed parts, and the statistic is
    nondecreasing in both T and eps for every statistic in ``STATISTICS``.
    """
    w_sim = np.atleast_2d(np.asarray(w_sim))
    q = statistic_weights(statistic, w_sim, strata)
    om = np.empty((len(q), 2))
    # Not q @ y: a BLAS matrix-vector product rounds a row according to
    # its place in the kernel and in the thread split.
    om[:, 0] = (q * data.y).sum(axis=1) / data.n
    # W_sim - W is -1, 0 or 1, so int8 holds it and q times it rounds as
    # with any wider integer type.
    u = q * np.subtract(w_sim, data.w, dtype=np.int8)
    u /= data.n
    om[:, 1] = u.sum(axis=1)
    return om


def draw_omegas(
    data: Dataset,
    strata: StrataIndex,
    model: AssignmentModel,
    statistic: str,
    draws: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate assignment vectors under the model and decompose the
    statistic; returns a (draws, 2) array of omega parts.

    The assignments are drawn and decomposed in boolean blocks of rows.
    Each block reads the next rows of ``rng.random((draws, n))``'s
    stream, and every omega is a row sum, so the result does not depend
    on the block size.
    """
    _require_binary(data)
    if draws < 1:
        raise ConfigError("at least one Monte Carlo draw is required")
    if draws > DRAW_LIMIT:
        raise ConfigError(f"{draws} Monte Carlo draws requested (limit {DRAW_LIMIT})")
    _require_strata(model, strata)
    if tuple(model.treatments) != (0, 1):
        raise ConfigError(
            f"draws need a model of treatments (0, 1), in that order; got {model.treatments}"
        )
    lam1 = model.lam[strata.labels, 1]
    rows = max(1, _BLOCK_CELLS // data.n)
    om = np.empty((draws, 2))
    for start in range(0, draws, rows):
        stop = min(start + rows, draws)
        w_sim = rng.random((stop - start, data.n)) < lam1
        om[start:stop] = omega_parts(data, strata, w_sim, statistic)
    return om


def _exceedance_counts(om0, om1, c, tbar: np.ndarray, t_obs: float) -> np.ndarray:
    """Number of draws whose simulated statistic ``(om0 + om1 * tbar[g]) + c``
    reaches ``t_obs``, at every point g of the sorted grid ``tbar``.

    Requires om1 >= 0 (-0.0 included), as ``omega_parts`` guarantees:
    rounded ``+`` and ``*`` are monotone, so per draw the test is then
    nondecreasing in g. A branchless bisection finds, per draw, the number
    of grid points before the test turns true, evaluating the expression
    above bit for bit at log2(G) grid points; ``bincount`` and ``cumsum``
    turn those thresholds into the counts, those of summing the dense
    (B, G) matrix of tests over draws.
    """
    size = tbar.size
    flip = np.zeros(om1.shape, dtype=np.intp)
    step = 1 << (size.bit_length() - 1)
    while step:
        probe = flip + (step - 1)
        hit = (om0 + om1 * tbar[np.minimum(probe, size - 1)]) + c >= t_obs
        flip += step * ((probe < size) & ~hit)
        step >>= 1
    return np.cumsum(np.bincount(flip, minlength=size + 1)[:size])


@dataclass(frozen=True, eq=False)
class PValueBounds:
    """Lower/upper p-value curves over the null grid, held as integer
    Monte-Carlo exceedance counts: p = k / draws."""

    grid: np.ndarray
    k_lo: np.ndarray
    k_hi: np.ndarray
    draws: int
    statistic: str
    n_models: int
    c1: float
    observed: float

    def __post_init__(self):
        if np.any(self.k_lo > self.k_hi):
            raise ConfigError("p-value bounds are crossed")

    @property
    def p_lo(self) -> np.ndarray:
        return self.k_lo / self.draws

    @property
    def p_hi(self) -> np.ndarray:
        return self.k_hi / self.draws

    def mc_standard_errors(self) -> tuple[np.ndarray, np.ndarray]:
        """Binomial Monte-Carlo standard errors sqrt(p (1 - p) / B) of the
        lower and upper curves."""
        return tuple(np.sqrt(p * (1.0 - p) / self.draws) for p in (self.p_lo, self.p_hi))


def pvalue_bounds(
    data: Dataset,
    strata: StrataIndex,
    statistic: str,
    grid: NullGrid,
    models: ModelClass,
    het: HetBounds,
    draws: int,
    rng: RngHandle,
) -> PValueBounds:
    """Bound the p-value curve for weak nulls on the average effect.

    For each candidate model, a single batch of simulated assignments
    is reused across the whole grid. A draw's statistic rises with the
    heterogeneity multiplier (see ``omega_parts``), so the -c1 and +c1
    curves bound a model's p-values; the reported curves are their
    extrema over the models, O(B log G + G) work per model and curve.
    """
    if statistic not in STATISTICS:
        raise StatisticNotLinear(statistic)
    t_obs = observed_statistic(data, strata, statistic)
    tbar = grid.values
    k_lo = np.full(tbar.shape, draws)
    k_hi = np.zeros(tbar.shape, dtype=np.intp)
    eps = het.epsilon_corners()
    for l_index, model in enumerate(models.models):
        gen = rng.child(l_index).generator()
        om = draw_omegas(data, strata, model, statistic, draws, gen)
        k = [_exceedance_counts(om[:, 0], om[:, 1], e * om[:, 1], tbar, t_obs) for e in eps]
        np.minimum(k_lo, k[0], out=k_lo)
        np.maximum(k_hi, k[-1], out=k_hi)
    return PValueBounds(
        grid=tbar,
        k_lo=k_lo,
        k_hi=k_hi,
        draws=draws,
        statistic=statistic,
        n_models=len(models.models),
        c1=het.c1,
        observed=t_obs,
    )


def confidence_set(pvb: PValueBounds, alpha: float) -> np.ndarray:
    """Grid points retained at level alpha: upper p-value bound > alpha.

    Retaining on the upper bound is the conservative inversion. Every
    draw's slope is nonnegative, so the upper curve is nondecreasing in
    the hypothesized effect and the result is a suffix of the grid.
    """
    if not (0.0 < alpha < 1.0):
        raise ConfigError("alpha must lie strictly between 0 and 1")
    return pvb.grid[pvb.p_hi > alpha]
