"""Large-sample BATE/CATE estimation with a known propensity function.

Implements the probability-weighting estimator class indexed by nu
(nu = -1 recovers classic inverse weighting; nu >= 0 avoids inverse
weights and stays asymptotically normal under limited overlap),
sandwich covariances from the defining moment conditions, and the
alternative non-inverse estimators from the same moment calculus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    ConfigError,
    DenominatorZero,
    NonPsdCovariance,
    PropensityOnBoundary,
    SingularDesign,
)

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class BasisSpec:
    """Basis map x -> Z(x) in R^dim used to summarize effect heterogeneity.

    The built-in constructors expect scalar covariates and build Z from
    the whole covariate array at once; vector covariates take a custom
    ``fn`` over rows.
    """

    fn: Callable[[object], Sequence[float]]
    dim: int
    name: str = "custom"
    # Array form of ``fn`` for a 1-D covariate array; set by the built-ins.
    _columns: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def _builtin(cls, fn, dim: int, name: str, columns) -> "BasisSpec":
        spec = cls(fn=fn, dim=dim, name=name)
        object.__setattr__(spec, "_columns", columns)
        return spec

    @classmethod
    def constant(cls) -> "BasisSpec":
        return cls._builtin(
            lambda x: (1.0,), 1, "const", lambda x: np.ones((x.shape[0], 1))
        )

    @classmethod
    def linear(cls) -> "BasisSpec":
        return cls._builtin(
            lambda x: (1.0, float(x)),
            2,
            "linear",
            lambda x: np.column_stack((np.ones(x.shape[0]), x)),
        )

    @classmethod
    def polynomial(cls, degree: int) -> "BasisSpec":
        if degree < 0:
            raise ConfigError("polynomial degree must be nonnegative")
        return cls._builtin(
            lambda x: tuple(float(x) ** k for k in range(degree + 1)),
            degree + 1,
            f"poly:{degree}",
            lambda x: x[:, None] ** np.arange(degree + 1.0),
        )

    def matrix(self, data: Dataset) -> np.ndarray:
        x = np.asarray(data.x)
        if self._columns is not None and x.ndim == 1:
            return self._columns(x.astype(float, copy=False))
        rows = [self.fn(xi) for xi in x]
        z = np.asarray(rows, dtype=float).reshape(data.n, self.dim)
        return z


@dataclass(frozen=True, eq=False)
class GpwFit:
    """Coefficient estimate with sandwich covariance.

    ``sigma`` is the asymptotic covariance of sqrt(n)(beta_hat - beta);
    standard errors are sqrt(diag(sigma) / n).
    """

    beta: np.ndarray
    sigma: np.ndarray
    nu: float | None
    n: int
    condition: float
    method: str = "gpw"

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.sigma) / self.n)


def _propensity_values(data: Dataset, e) -> np.ndarray:
    if e is None and data.propensity is None:
        raise ConfigError("no propensity supplied: pass a function/array or load a column")
    if e is None:
        values = np.asarray(data.propensity, dtype=float)
    elif callable(e):
        values = np.asarray([float(e(xi)) for xi in np.asarray(data.x)], dtype=float)
    else:
        values = np.asarray(e, dtype=float)
    if values.shape != (data.n,):
        raise ConfigError("propensity values must align with the dataset rows")
    inside = (values > 0.0) & (values < 1.0)
    if not np.all(inside):
        i = int(np.argmax(~inside))
        raise PropensityOnBoundary(i, float(values[i]))
    return values


def _solve_psd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve a x = b by SVD; return (x, pseudo-inverse of a, condition)."""
    u, s, vt = np.linalg.svd(a)
    if s[-1] <= 0 or not np.isfinite(s[0] / s[-1]) or s[0] / s[-1] > CONDITION_LIMIT:
        raise SingularDesign(float(np.inf if s[-1] <= 0 else s[0] / s[-1]))
    condition = float(s[0] / s[-1])
    a_inv = vt.T @ np.diag(1.0 / s) @ u.T
    return a_inv @ b, a_inv, condition


def _sandwich(z: np.ndarray, bread: np.ndarray, score_resid: np.ndarray):
    """bread^-1 E[Z Z' m^2] bread^-1 for per-observation moments m Z."""
    n = z.shape[0]
    meat = (z * (score_resid**2)[:, None]).T @ z / n
    _, bread_inv, condition = _solve_psd(bread, np.eye(bread.shape[0]))
    sigma = bread_inv @ meat @ bread_inv
    return 0.5 * (sigma + sigma.T), condition


def gpw_estimate(data: Dataset, e, basis: BasisSpec, nu: float = 1.0) -> GpwFit:
    """Fit the weighting estimator with index nu and sandwich covariance.

    The coefficient solves the sample moment
    E_n[(e(1-e))^nu Z {(W - e) Y - e(1-e) Z'beta}] = 0. ``e`` may be a
    callable on the covariate, an array of per-row values, or None to
    use the dataset's propensity column.
    """
    z = basis.matrix(data)
    if data.n <= basis.dim:
        raise ConfigError("sample size must exceed the basis dimension")
    ev = _propensity_values(data, e)
    q = ev * (1.0 - ev)
    bread = (z * (q ** (nu + 1.0))[:, None]).T @ z / data.n
    score = (z * ((q**nu) * (data.w - ev) * data.y)[:, None]).mean(axis=0)
    beta, _, condition = _solve_psd(bread, score)
    resid = (q**nu) * ((data.w - ev) * data.y - q * (z @ beta))
    sigma, _ = _sandwich(z, bread, resid)
    return GpwFit(beta=beta, sigma=sigma, nu=nu, n=data.n, condition=condition)


def gpw_as_weighted_ipw(data: Dataset, e, basis: BasisSpec, nu: float = 1.0) -> GpwFit:
    """Same estimator computed through the weighted inverse-weighting form.

    Weights omega = (e(1-e))^(nu+1) applied to the classic inverse
    probability pseudo-outcome reproduce the direct fit; nu = -1 gives
    the usual unweighted inverse probability estimator.
    """
    z = basis.matrix(data)
    ev = _propensity_values(data, e)
    q = ev * (1.0 - ev)
    if np.any(q <= 1e-300):
        i = int(np.argmax(q <= 1e-300))
        raise PropensityOnBoundary(i, float(ev[i]))
    omega = q ** (nu + 1.0)
    bread = (z * omega[:, None]).T @ z / data.n
    pseudo = (data.w - ev) * data.y / q
    score = (z * (omega * pseudo)[:, None]).mean(axis=0)
    beta, _, condition = _solve_psd(bread, score)
    resid = (q**nu) * ((data.w - ev) * data.y - q * (z @ beta))
    sigma, _ = _sandwich(z, bread, resid)
    return GpwFit(beta=beta, sigma=sigma, nu=nu, n=data.n, condition=condition)


def _check_psd(sigma: np.ndarray) -> None:
    eig = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    scale = max(float(eig[-1]), 0.0)
    if eig[0] < -1e-10 * max(scale, 1.0):
        raise NonPsdCovariance(float(eig[0]))


def wald_ci(fit: GpwFit, contrast: Sequence[float], level: float) -> tuple[float, float]:
    """Normal-approximation interval for contrast'beta at the given level."""
    if not (0.0 < level < 1.0):
        raise ConfigError("confidence level must lie strictly between 0 and 1")
    c = np.asarray(contrast, dtype=float)
    _check_psd(fit.sigma)
    center = float(c @ fit.beta)
    spread = float(c @ fit.sigma @ c) / fit.n
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * np.sqrt(max(spread, 0.0))
    return (center - half, center + half)


def pate_estimate(fit: GpwFit, data: Dataset, basis: BasisSpec) -> dict:
    """Average effect estimate beta' E_n[Z] with a delta-method SE.

    The basis average is treated as fixed, matching the sample-average
    (EATE) target rather than the population one.
    """
    zbar = basis.matrix(data).mean(axis=0)
    est = float(fit.beta @ zbar)
    se = float(np.sqrt(max(zbar @ fit.sigma @ zbar, 0.0) / fit.n))
    return {"estimate": est, "se": se, "target": "eate"}


ALT_VARIANTS = (
    "robinson_regression",
    "half_weight",
    "one_sided_control_safe",
    "overlap_weight_wate",
)


def alt_estimate(data: Dataset, e, basis: BasisSpec, variant: str) -> GpwFit:
    """Alternative non-inverse estimators from related moment conditions.

    ``robinson_regression`` regresses Y on (W - e)Z; ``half_weight``
    replaces the e(1-e) target weight with [W(1-e) + e(1-W)]/2;
    ``one_sided_control_safe`` requires e bounded below 1;
    ``overlap_weight_wate`` is the overlap-weighted mean difference and
    requires a constant basis (it targets a weighted average effect).
    """
    if variant not in ALT_VARIANTS:
        raise ConfigError(f"unknown estimator variant {variant!r}")
    z = basis.matrix(data)
    ev = _propensity_values(data, e)
    w = data.w.astype(float)
    y = data.y

    if variant == "overlap_weight_wate":
        if not np.allclose(z, 1.0):
            raise ConfigError("overlap weighting requires the constant basis Z = 1")
        a1 = (1.0 - ev) * w
        a0 = ev * (1.0 - w)
        d1, d0 = float(a1.mean()), float(a0.mean())
        if d1 == 0.0 or d0 == 0.0:
            raise DenominatorZero("no treated or no control overlap mass")
        alpha1 = float((a1 * y).mean() / d1)
        alpha0 = float((a0 * y).mean() / d0)
        g1 = a1 * (y - alpha1)
        g0 = a0 * (y - alpha0)
        meat = np.cov(np.stack([g1, g0]), bias=True)
        ginv = np.diag([1.0 / d1, 1.0 / d0])
        cov_alpha = ginv @ meat @ ginv
        cvec = np.array([1.0, -1.0])
        sigma = np.array([[float(cvec @ cov_alpha @ cvec)]])
        condition = max(d1, d0) / min(d1, d0)
        return GpwFit(
            beta=np.array([alpha1 - alpha0]),
            sigma=sigma,
            nu=None,
            n=data.n,
            condition=float(condition),
            method=variant,
        )

    if variant == "robinson_regression":
        weight = (w - ev) ** 2
    elif variant == "half_weight":
        weight = 0.5 * (w * (1.0 - ev) + ev * (1.0 - w))
    else:  # one_sided_control_safe
        if np.max(ev) >= 1.0 - 1e-12:
            i = int(np.argmax(ev))
            raise PropensityOnBoundary(i, float(ev[i]))
        weight = w

    if variant == "one_sided_control_safe":
        score_obs = (w - ev) * y / (1.0 - ev)
    else:
        score_obs = (w - ev) * y
    bread = (z * weight[:, None]).T @ z / data.n
    score = (z * score_obs[:, None]).mean(axis=0)
    beta, _, condition = _solve_psd(bread, score)
    resid = score_obs - weight * (z @ beta)
    sigma, _ = _sandwich(z, bread, resid)
    return GpwFit(
        beta=beta, sigma=sigma, nu=None, n=data.n, condition=condition, method=variant
    )
