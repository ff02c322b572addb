"""Replication engine for the benchmark data-generating processes.

Two built-in DGPs mirror the benchmark studies: a limited-overlap
large-sample design with linear effect heterogeneity, and a two-stratum
finite-sample design with an extreme assignment probability. The
runner replays any collection of estimators over independent
replication streams and summarizes bias, spread, and coverage. Each DGP
lists the estimators its study offers, with the true values of their
columns, in ``study_estimators()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import Dataset, RngHandle, build_strata
from .errors import ConfigError, DegenerateSamples, SpwError, TooFewSamples
from .finite_sample import FsConfig, fpw_set, ipw_fs_estimate, scaled_ate, wmd_estimate
from .gpw import BasisSpec, gpw_estimate, pate_estimate, wald_ci

Estimator = Callable[[Dataset], Mapping[str, float]]
# A study's estimators by name, each with the true values of its columns.
StudyTable = dict[str, tuple[Estimator, dict[str, float]]]


@dataclass(frozen=True)
class LargeSampleDgp:
    """X ~ Uniform(0,1), W ~ Bernoulli(X^4), and a linear effect 3 - 2X.

    Outcomes: Y = 10 (1 - X^4) + X^4 u1 + W (tau(X) + 2 u2) with
    (u1, u2) uniform on (-2, 2)^2, so the average effect is 2 and the
    propensity has severe one-sided limited overlap near X = 0.
    """

    n: int = 2000
    beta: tuple[float, float] = (3.0, -2.0)

    def __post_init__(self):
        # Checked here, not per replication: run_study would count the
        # fits' identical ConfigError as an estimator failure every time.
        if self.n <= 2:
            raise ConfigError("sample size must exceed the basis dimension (2)")

    def generate(self, rng: np.random.Generator) -> Dataset:
        x = rng.uniform(0.0, 1.0, self.n)
        e = x**4
        w = (rng.random(self.n) < e).astype(np.int64)
        u1 = rng.uniform(-2.0, 2.0, self.n)
        u2 = rng.uniform(-2.0, 2.0, self.n)
        tau = self.beta[0] + self.beta[1] * x
        y = 10.0 * (1.0 - e) + e * u1 + w * (tau + 2.0 * u2)
        return Dataset.from_arrays(y, w, x, mode="large", propensity=e)

    def study_estimators(self) -> StudyTable:
        """npw (nu = 1, with 95% Wald coverage indicators per coefficient)
        and ipw (nu = -1) on the linear basis: coefficients and the
        average effect, whose truths are beta and 2."""
        basis = BasisSpec.linear()
        truth = {"b0": self.beta[0], "b1": self.beta[1], "ate": 2.0}

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
        if not (0.0 < self.lam1 < 1.0):
            raise ConfigError("assignment probability must lie in (0, 1)")

    @property
    def true_ate(self) -> float:
        return 10.0

    def lam1_by_stratum(self) -> np.ndarray:
        return np.array([self.lam1, 1.0 - self.lam1])

    def response_bounds(self) -> dict[int, tuple[float, float]]:
        # Outcome supports: Y*_0 in 10 +/- 2(1+X), Y*_1 in 20 +/- (2(1+X)+(1+2X)).
        return {0: (6.0, 14.0), 1: (13.0, 27.0)}

    def fs_config(self) -> FsConfig:
        return FsConfig(bounds=self.response_bounds(), kappa={0: -1.0, 1: 1.0})

    def generate(self, rng: np.random.Generator) -> Dataset:
        idx = np.arange(1, self.n + 1)
        x = (idx > 0.8 * self.n).astype(np.int64)
        lam = np.where(x == 1, 1.0 - self.lam1, self.lam1)
        w = (rng.random(self.n) < lam).astype(np.int64)
        u1 = rng.uniform(-1.0, 1.0, self.n)
        u2 = rng.uniform(-1.0, 1.0, self.n)
        y = 10.0 + 2.0 * (1.0 + x) * u1 + w * (10.0 + (1.0 + 2.0 * x) * u2)
        return Dataset.from_arrays(y, w, x, mode="finite", treatments=(0, 1))

    def study_estimators(self) -> StudyTable:
        """The pooled set-estimator (its midpoint, bounds and an interval
        flag), the modified-difference and inverse-weighting baselines,
        each of the average effect, and the scaled effect, which has no
        stated truth."""
        cfg = self.fs_config()
        truth = self.true_ate

        def fpw(data: Dataset) -> dict[str, float]:
            est = fpw_set(data, build_strata(data), cfg)
            return {
                "mid": est.interval.midpoint,
                "lo": est.interval.lo,
                "hi": est.interval.hi,
                "is_interval": float(not est.is_point),
            }

        def single(statistic, *args) -> Estimator:
            return lambda data: {"est": statistic(data, build_strata(data), *args)}

        return {
            "fpw": (fpw, {"mid": truth}),
            "wmd": (single(wmd_estimate, cfg), {"est": truth}),
            "ipw_fs": (single(ipw_fs_estimate, cfg), {"est": truth}),
            "scaled": (single(scaled_ate, 1, 0), {}),
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
    """
    if reps < 2:
        raise ConfigError("at least two replications are required")
    handle = RngHandle(seed)
    cols: dict[str, tuple[str, ...]] = {}
    blocks: dict[str, np.ndarray] = {}  # name -> (reps, len(cols[name]))
    errors = {name: 0 for name in estimators}
    for r in range(reps):
        data = dgp.generate(handle.child(r).generator())
        for name, est in estimators.items():
            try:
                values = est(data)
            except SpwError:
                errors[name] += 1
                continue
            if name not in blocks:
                cols[name] = tuple(values)
                blocks[name] = np.full((reps, len(values)), np.nan)
            blocks[name][r] = [values[c] for c in cols[name]]
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
    spans the sample range padded by three bandwidths.
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
    z = (grid[:, None] - s[None, :]) / bw
    dens = np.exp(-0.5 * z**2).sum(axis=1) / (s.size * bw * math.sqrt(2.0 * math.pi))
    return DensityEstimate(grid=grid, density=dens, bandwidth=bw)
