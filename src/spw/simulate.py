"""Replication engine for the benchmark data-generating processes.

Two built-in DGPs mirror the benchmark studies: a limited-overlap
large-sample design with linear effect heterogeneity, and a two-stratum
finite-sample design with an extreme assignment probability. The
runner replays any collection of estimators over independent
replication streams and summarizes bias, spread, and coverage. Each DGP
lists the estimators its study offers, with the true values of their
columns, in ``study_estimators()``.

The finite DGP's estimators also have block forms over arrays. With
them, ``run_study`` stacks floor(2^14 / n) replications at a time, each
still drawn from its own stream, and runs every estimator once per
block with one StrataIndex per study; a block whose replications do not
all share replication 0's strata, or whose block form raises, is
replayed one replication at a time, so the results are the loop's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import Dataset, RngHandle, StrataIndex, build_strata
from .errors import ConfigError, DegenerateSamples, SpwError, TooFewSamples
from .finite_sample import FsConfig, _fpw_ends, _ipw_fs, _scaled, _wmd
from .gpw import BasisSpec, gpw_estimate, pate_estimate, wald_ci
from .inference import _BLOCK_CELLS

# Largest sample size a built-in DGP draws: each replication holds a few
# float arrays of n values, and a large-sample fit a few more.
SAMPLE_LIMIT = 10**6
# Most replications ``run_study`` runs: each estimator's (reps, columns)
# float matrix is allocated whole, at its first success.
REPS_LIMIT = 10**6

Estimator = Callable[[Dataset], Mapping[str, float]]
# A study's estimators by name, each with the true values of its columns.
StudyTable = dict[str, tuple[Estimator, dict[str, float]]]


@dataclass(frozen=True)
class _BlockEstimator:
    """An estimator written once over arrays: ``form(y, w, strata)`` maps
    one replication's outcomes and assignments (n,) to its columns, or a
    block of replications' (R, n) to (R,) columns. Called on a Dataset,
    it is the one-replication form on that dataset's own strata."""

    form: Callable[[np.ndarray, np.ndarray, StrataIndex], Mapping]

    def __call__(self, data: Dataset) -> Mapping[str, float]:
        return self.form(data.y, data.w, build_strata(data))


def _check_sample_size(n: int) -> None:
    if n > SAMPLE_LIMIT:
        raise ConfigError(f"sample size {n} is above the limit {SAMPLE_LIMIT}")


@dataclass(frozen=True)
class LargeSampleDgp:
    """X ~ Uniform(0,1), W ~ Bernoulli(X^4), and a linear effect
    beta0 + beta1 X, by default 3 - 2X.

    Outcomes: Y = 10 (1 - X^4) + X^4 u1 + W (tau(X) + 2 u2) with
    (u1, u2) uniform on (-2, 2)^2, so the average effect is
    beta0 + beta1 / 2 (2 at the default beta) and the propensity has
    severe one-sided limited overlap near X = 0.
    """

    n: int = 2000
    beta: tuple[float, float] = (3.0, -2.0)

    def __post_init__(self):
        # Checked here, not per replication: run_study would count the
        # fits' identical ConfigError as an estimator failure every time.
        if self.n <= 2:
            raise ConfigError("sample size must exceed the basis dimension (2)")
        _check_sample_size(self.n)
        # A finite |beta0| + |beta1| bounds tau(X) on [0, 1), so every
        # outcome generate draws is finite.
        try:
            b0, b1 = (float(b) for b in self.beta)
        except (TypeError, ValueError):
            raise ConfigError("beta must be two numbers") from None
        if not math.isfinite(abs(b0) + abs(b1)):
            raise ConfigError("beta must be finite, with a finite |beta0| + |beta1|")

    def generate(self, rng: np.random.Generator) -> Dataset:
        """One replication's Dataset, built directly: its arrays are valid
        by construction (w in {0, 1}; y, x and e finite), so the
        treatments are the observed labels, as ``from_arrays`` declares."""
        x = rng.uniform(0.0, 1.0, self.n)
        e = x**4
        w = (rng.random(self.n) < e).astype(np.int64)
        u1 = rng.uniform(-2.0, 2.0, self.n)
        u2 = rng.uniform(-2.0, 2.0, self.n)
        tau = self.beta[0] + self.beta[1] * x
        y = 10.0 * (1.0 - e) + e * u1 + w * (tau + 2.0 * u2)
        for arr in (y, w, x, e):
            arr.flags.writeable = False
        treated = int(np.count_nonzero(w))
        observed = tuple(t for t, m in ((0, self.n - treated), (1, treated)) if m)
        return Dataset(y=y, w=w, x=x, treatments=observed, propensity=e)

    def study_estimators(self) -> StudyTable:
        """npw (nu = 1, with 95% Wald coverage indicators per coefficient)
        and ipw (nu = -1) on the linear basis: coefficients and the
        average effect, whose truths are beta and beta0 + beta1 / 2."""
        basis = BasisSpec.linear()
        truth = {"b0": self.beta[0], "b1": self.beta[1], "ate": self.beta[0] + self.beta[1] / 2}

        def fit(data: Dataset, nu: float, cover: bool) -> dict[str, float]:
            res = gpw_estimate(data, None, basis, nu=nu)
            out = {f"b{j}": float(b) for j, b in enumerate(res.beta)}
            out["ate"] = pate_estimate(res, data, basis)["estimate"]
            if cover:
                for j, true_b in enumerate(self.beta):
                    lo, hi = wald_ci(res, np.eye(basis.dim)[j], 0.95)
                    out[f"cover_b{j}"] = float(lo <= true_b <= hi)
            return out

        return {
            "npw": (lambda data: fit(data, 1.0, True), truth),
            "ipw": (lambda data: fit(data, -1.0, False), truth),
        }


@dataclass(frozen=True)
class FiniteSampleDgp:
    """Two strata of sizes 0.8n and 0.2n with mirrored assignment odds.

    Stratum 0 assigns treatment with probability lam1 and stratum 1
    with 1 - lam1; outcomes follow
    Y = 10 + 2 (1 + X) u1 + W [10 + (1 + 2X) u2] with u uniform on
    (-1, 1)^2, so the true average effect is 10.
    """

    n: int = 50
    lam1: float = 0.02

    def __post_init__(self):
        if self.n % 5 != 0 or self.n < 10:
            raise ConfigError(
                "sample size must be a multiple of 5 (and at least 10) for the 80/20 split"
            )
        _check_sample_size(self.n)
        if not (0.0 < self.lam1 < 1.0):
            raise ConfigError("assignment probability must lie in (0, 1)")

    @property
    def true_ate(self) -> float:
        return 10.0

    def response_bounds(self) -> dict[int, tuple[float, float]]:
        # Outcome supports: Y*_0 in 10 +/- 2(1+X), Y*_1 in 20 +/- (2(1+X)+(1+2X)).
        return {0: (6.0, 14.0), 1: (13.0, 27.0)}

    def fs_config(self) -> FsConfig:
        return FsConfig(bounds=self.response_bounds(), kappa={0: -1.0, 1: 1.0})

    @cached_property
    def _design(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What every replication shares: the read-only stratum codes x
        and their labels, each unit's lambda, and the outcome
        coefficients a = 2 (1 + X) and b = 1 + 2X."""
        idx = np.arange(1, self.n + 1)
        x = (idx > 0.8 * self.n).astype(np.int64)
        labels = np.array([0, 1], dtype=np.int64)
        for arr in (x, labels):
            arr.flags.writeable = False
        lam = np.where(x == 1, 1.0 - self.lam1, self.lam1)
        return x, labels, lam, 2.0 * (1.0 + x), 1.0 + 2.0 * x

    def generate(self, rng: np.random.Generator) -> Dataset:
        """One replication's Dataset, built directly: w is in {0, 1}, y is
        finite, and every replication shares one x with both strata."""
        x, labels, lam, a, b = self._design
        w = (rng.random(self.n) < lam).astype(np.int64)
        u1 = rng.uniform(-1.0, 1.0, self.n)
        u2 = rng.uniform(-1.0, 1.0, self.n)
        y = 10.0 + a * u1 + w * (10.0 + b * u2)
        for arr in (y, w):
            arr.flags.writeable = False
        return Dataset(y=y, w=w, x=x, treatments=(0, 1), x_labels=labels)

    def study_estimators(self) -> StudyTable:
        """The pooled set-estimator (its midpoint, bounds and an interval
        flag), the modified-difference and inverse-weighting baselines,
        each of the average effect, and the scaled effect, which has no
        stated truth. Each has a block form, which ``run_study`` uses."""
        cfg = self.fs_config()
        truth = self.true_ate

        def fpw(y, w, strata):
            lo, hi, per_w = _fpw_ends(y, w, strata, cfg)
            # The checks fpw_set's SetEstimates make, on every row.
            if any(np.any(a > b) for a, b in (*per_w.values(), (lo, hi))):
                raise ConfigError("set-estimate endpoints are reversed")
            return {"mid": 0.5 * (lo + hi), "lo": lo, "hi": hi, "is_interval": 1.0 * (lo != hi)}

        def single(kernel, *args) -> Estimator:
            return _BlockEstimator(lambda y, w, strata: {"est": kernel(y, w, strata, *args)})

        return {
            "fpw": (_BlockEstimator(fpw), {"mid": truth}),
            "wmd": (single(_wmd, cfg), {"est": truth}),
            "ipw_fs": (single(_ipw_fs, cfg), {"est": truth}),
            "scaled": (single(_scaled, 1, 0), {}),
        }


@dataclass(eq=False)
class StudyResult:
    """Raw per-replication estimates plus recomputable summaries."""

    columns: tuple[str, ...]
    matrix: np.ndarray  # (reps, len(columns)), NaN where an estimator failed
    error_counts: dict[str, int]
    seed: int

    @property
    def reps(self) -> int:
        return self.matrix.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.columns.index(name)]

    def summary(self, truth: Mapping[str, float] | None = None) -> dict[str, dict]:
        out = {}
        for j, name in enumerate(self.columns):
            col = self.matrix[:, j]
            ok = col[np.isfinite(col)]
            entry = {
                "n_ok": int(ok.size),
                "mean": float(np.mean(ok)) if ok.size else math.nan,
                "sd": float(np.std(ok, ddof=1)) if ok.size > 1 else math.nan,
                "q05": float(np.quantile(ok, 0.05)) if ok.size else math.nan,
                "q50": float(np.quantile(ok, 0.50)) if ok.size else math.nan,
                "q95": float(np.quantile(ok, 0.95)) if ok.size else math.nan,
            }
            entry["mc_se"] = (
                entry["sd"] / math.sqrt(ok.size) if ok.size > 1 else math.nan
            )
            if truth and name in truth:
                entry["truth"] = float(truth[name])
                entry["bias"] = entry["mean"] - float(truth[name])
            out[name] = entry
        return out


def run_study(
    dgp,
    estimators: Mapping[str, Estimator],
    reps: int,
    seed: int,
) -> StudyResult:
    """Replicate each estimator over independent data draws.

    Every replication r generates data from stream (seed, r) and feeds
    it once to every estimator, so results are bit-identical for a
    given seed. Estimator errors are counted per name and leave NaNs in
    the affected row. An estimator's columns are those of its first
    successful replication; one that never succeeds has no columns.

    When every estimator has a block form (``form``, as the finite DGP's
    have), replications are generated in blocks of at most 2^14 cells,
    floor(2^14 / n) of them, and each estimator runs once per block on
    the stacked (R, n) outcomes and assignments, with replication 0's
    StrataIndex for the whole study. A block runs that way only if each
    of its replications has replication 0's strata; otherwise, and for
    an estimator whose block form raises, the block is replayed one
    replication at a time. The block forms compute each row as the
    one-replication form does, so the result is the loop's, bit for bit.
    """
    if reps < 2:
        raise ConfigError("at least two replications are required")
    if reps > REPS_LIMIT:
        raise ConfigError(f"{reps} replications requested (limit {REPS_LIMIT})")
    handle = RngHandle(seed)
    cols: dict[str, tuple[str, ...]] = {}
    blocks: dict[str, np.ndarray] = {}  # name -> (reps, len(cols[name]))
    errors = {name: 0 for name in estimators}

    def record(name: str, rows, values: Mapping) -> None:
        if name not in blocks:
            cols[name] = tuple(values)
            blocks[name] = np.full((reps, len(values)), np.nan)
        for j, c in enumerate(cols[name]):
            blocks[name][rows, j] = values[c]

    batched = all(hasattr(est, "form") for est in estimators.values())
    shared = None  # replication 0's stratum codes and StrataIndex
    start = 0
    while start < reps:
        block = [dgp.generate(handle.child(start).generator())]
        if batched and shared is None:
            try:
                shared = block[0].x, build_strata(block[0])
            except SpwError:
                batched = False
        if batched:
            stop = min(start + max(1, _BLOCK_CELLS // block[0].n), reps)
            block += [dgp.generate(handle.child(r).generator()) for r in range(start + 1, stop)]
        stacked = None
        if batched and all(
            data.x is shared[0] or np.array_equal(data.x, shared[0]) for data in block
        ):
            stacked = np.stack([d.y for d in block]), np.stack([d.w for d in block]), shared[1]
        for name, est in estimators.items():
            if stacked is not None:
                try:
                    values = est.form(*stacked)
                except SpwError:
                    pass  # replayed below, one replication at a time
                else:
                    record(name, slice(start, start + len(block)), values)
                    continue
            for r, data in enumerate(block, start):
                try:
                    values = est(data)
                except SpwError:
                    errors[name] += 1
                    continue
                record(name, r, values)
        start += len(block)
    present = [name for name in estimators if name in blocks]
    return StudyResult(
        columns=tuple(f"{name}.{c}" for name in present for c in cols[name]),
        matrix=np.hstack([blocks[name] for name in present]) if present else np.empty((reps, 0)),
        error_counts=errors,
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def density_summary(samples: Sequence[float]) -> DensityEstimate:
    """Gaussian-kernel density with the Silverman rule.

    Requires at least 30 non-degenerate samples; the 512-point grid
    spans the sample range padded by three bandwidths. The kernel sums
    are taken in blocks of grid rows of at most 2^14 cells; each row's
    sum is the one the whole (512, n) matrix would give.
    """
    s = np.asarray(samples, dtype=float)
    s = s[np.isfinite(s)]
    if s.size < 30:
        raise TooFewSamples(int(s.size), 30)
    sd = float(np.std(s, ddof=1))
    iqr = float(np.quantile(s, 0.75) - np.quantile(s, 0.25))
    if sd == 0.0:
        raise DegenerateSamples()
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    bw = 0.9 * spread * s.size ** (-0.2)
    grid = np.linspace(s.min() - 3.0 * bw, s.max() + 3.0 * bw, 512)
    sums = np.empty(grid.size)
    rows = max(1, _BLOCK_CELLS // s.size)
    for start in range(0, grid.size, rows):
        z = (grid[start : start + rows, None] - s[None, :]) / bw
        sums[start : start + rows] = np.exp(-0.5 * z**2).sum(axis=1)
    dens = sums / (s.size * bw * math.sqrt(2.0 * math.pi))
    return DensityEstimate(grid=grid, density=dens, bandwidth=bw)
