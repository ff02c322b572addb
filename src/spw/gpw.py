"""Large-sample BATE/CATE estimation with a known propensity function.

Implements the probability-weighting estimator class indexed by nu
(nu = -1 recovers classic inverse weighting; nu >= 0 avoids inverse
weights and stays asymptotically normal under limited overlap),
sandwich covariances from the defining moment conditions, and the
alternative non-inverse estimators from the same moment calculus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    ConfigError,
    DenominatorZero,
    NonPsdCovariance,
    PropensityOnBoundary,
    SingularDesign,
    UnknownTreatmentLabel,
)

CONDITION_LIMIT = 1e12
# Highest degree ``BasisSpec.polynomial`` accepts: each fit builds an
# (n, degree + 1) basis, and monomials of x uniform on (-1, 1) already
# give a Gram matrix past CONDITION_LIMIT at degree 18.
DEGREE_LIMIT = 50


@dataclass(frozen=True)
class BasisSpec:
    """Basis map x -> Z(x) in R^dim used to summarize effect heterogeneity.

    ``fn`` maps the float covariate array, (n,) or (n, p), to the (n, dim)
    basis matrix. ``linear`` and ``polynomial`` need a scalar covariate
    and raise ``ConfigError`` on any other.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    name: str = "custom"

    @classmethod
    def constant(cls) -> "BasisSpec":
        return cls(lambda x: np.ones((x.shape[0], 1)), 1, "const")

    @classmethod
    def linear(cls) -> "BasisSpec":
        return cls(
            lambda x: np.column_stack((np.ones(x.shape[0]), _scalar(x, "linear"))), 2, "linear"
        )

    @classmethod
    def polynomial(cls, degree: int) -> "BasisSpec":
        if degree < 0:
            raise ConfigError("polynomial degree must be nonnegative")
        if degree > DEGREE_LIMIT:
            raise ConfigError(f"polynomial degree {degree} is above the limit {DEGREE_LIMIT}")
        name = f"poly:{degree}"
        return cls(
            lambda x: _scalar(x, name)[:, None] ** np.arange(degree + 1.0), degree + 1, name
        )

    def matrix(self, data: Dataset) -> np.ndarray:
        z = np.ascontiguousarray(self.fn(np.asarray(data.x, dtype=float)), dtype=float)
        if z.shape != (data.n, self.dim):
            raise ConfigError(
                f"basis {self.name!r} gave a matrix of shape {z.shape}, not {(data.n, self.dim)}"
            )
        return z


def _scalar(x: np.ndarray, basis: str) -> np.ndarray:
    if x.ndim != 1:
        raise ConfigError(f"basis {basis!r} needs a scalar covariate, not x of shape {x.shape}")
    return x


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
        values = np.asarray(e(np.asarray(data.x, dtype=float)), dtype=float)
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


def _moment_fit(z: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Solve E_n[Z (b - a Z'beta)] = 0 with its sandwich covariance.

    Returns (beta, sigma, condition): sigma is bread^-1 E_n[Z Z' r^2]
    bread^-1 for the residual r = b - a Z'beta and bread = E_n[a Z Z'].
    """
    n = z.shape[0]
    bread = (z * a[:, None]).T @ z / n
    score = (z * b[:, None]).mean(axis=0)
    beta, bread_inv, condition = _solve_psd(bread, score)
    resid = b - a * (z @ beta)
    meat = (z * (resid**2)[:, None]).T @ z / n
    sigma = bread_inv @ meat @ bread_inv
    return beta, 0.5 * (sigma + sigma.T), condition


def _design(data: Dataset, e, basis: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """Basis matrix Z and propensity values e, checked, for every fit.
    Each binary fit needs both arms: with one empty, its moment says
    nothing about the effect."""
    off = (data.w != 0) & (data.w != 1)
    if np.any(off):
        i = int(np.argmax(off))
        raise UnknownTreatmentLabel(int(data.w[i]), row=i + 1)
    z = basis.matrix(data)
    if data.n <= basis.dim:
        raise ConfigError("sample size must exceed the basis dimension")
    ev = _propensity_values(data, e)
    if data.w.all() or not data.w.any():
        raise DenominatorZero("no treated or no control units")
    return z, ev


def _check_nu(nu: float) -> None:
    if not math.isfinite(nu):
        raise ConfigError(f"weighting index nu must be finite, got {nu}")


def gpw_estimate(data: Dataset, e, basis: BasisSpec, nu: float = 1.0) -> GpwFit:
    """Fit the weighting estimator with index nu and sandwich covariance.

    The coefficient solves the sample moment
    E_n[(e(1-e))^nu Z {(W - e) Y - e(1-e) Z'beta}] = 0. ``e`` may be a
    callable on the float covariate array, as ``BasisSpec.fn`` is, an
    array of per-row values, or None to use the dataset's propensity
    column.
    """
    _check_nu(nu)
    z, ev = _design(data, e, basis)
    q = ev * (1.0 - ev)
    beta, sigma, condition = _moment_fit(z, q ** (nu + 1.0), q**nu * (data.w - ev) * data.y)
    return GpwFit(beta=beta, sigma=sigma, nu=nu, n=data.n, condition=condition)


def gpw_as_weighted_ipw(data: Dataset, e, basis: BasisSpec, nu: float = 1.0) -> GpwFit:
    """Same estimator computed through the weighted inverse-weighting form.

    Weights omega = (e(1-e))^(nu+1) applied to the classic inverse
    probability pseudo-outcome reproduce the direct fit; nu = -1 gives
    the usual unweighted inverse probability estimator.
    """
    _check_nu(nu)
    z, ev = _design(data, e, basis)
    q = ev * (1.0 - ev)
    if np.any(q <= 1e-300):
        i = int(np.argmax(q <= 1e-300))
        raise PropensityOnBoundary(i, float(ev[i]))
    omega = q ** (nu + 1.0)
    pseudo = (data.w - ev) * data.y / q
    beta, sigma, condition = _moment_fit(z, omega, omega * pseudo)
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
    from statistics import NormalDist  # imports fractions and decimal; only a CI needs it

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
    z, ev = _design(data, e, basis)
    w = data.w.astype(float)
    y = data.y

    if variant == "overlap_weight_wate":
        if not np.allclose(z, 1.0):
            raise ConfigError("overlap weighting requires the constant basis Z = 1")
        # Arm means (alpha1, alpha0) on the basis [W, 1 - W], then their contrast.
        a = w * (1.0 - ev) + ev * (1.0 - w)
        alpha, cov_alpha, condition = _moment_fit(np.column_stack((w, 1.0 - w)), a, a * y)
        cvec = np.array([1.0, -1.0])
        beta = np.array([cvec @ alpha])
        sigma = np.array([[cvec @ cov_alpha @ cvec]])
    else:
        if variant == "robinson_regression":
            a, b = (w - ev) ** 2, (w - ev) * y
        elif variant == "half_weight":
            a, b = 0.5 * (w * (1.0 - ev) + ev * (1.0 - w)), (w - ev) * y
        else:  # one_sided_control_safe
            if np.max(ev) >= 1.0 - 1e-12:
                i = int(np.argmax(ev))
                raise PropensityOnBoundary(i, float(ev[i]))
            a, b = w, (w - ev) * y / (1.0 - ev)
        beta, sigma, condition = _moment_fit(z, a, b)
    return GpwFit(
        beta=beta, sigma=sigma, nu=None, n=data.n, condition=condition, method=variant
    )
