"""Tests for the large-sample weighting estimators and their covariance."""

import dataclasses
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from spw.data import Dataset
from spw.errors import (
    ConfigError,
    DenominatorZero,
    NonPsdCovariance,
    PropensityOnBoundary,
    SingularDesign,
    SpwError,
    UnknownTreatmentLabel,
)
from spw.gpw import (
    ALT_VARIANTS,
    DEGREE_LIMIT,
    BasisSpec,
    GpwFit,
    _propensity_values,
    alt_estimate,
    gpw_as_weighted_ipw,
    gpw_estimate,
    pate_estimate,
    wald_ci,
)

CONST = BasisSpec.constant()


def _table_dataset():
    # Fixed 4-row table: (Y, W, e) rows with a constant basis.
    y = [2.0, 1.0, 3.0, 0.0]
    w = [1, 0, 1, 0]
    e = [0.8, 0.8, 0.2, 0.2]
    data = Dataset.from_arrays(y, w, [0.0, 0.0, 1.0, 1.0], mode="large", propensity=e)
    return data, np.asarray(e)


def _random_dataset(rng, n=400):
    x = rng.uniform(0, 1, n)
    e = 0.05 + 0.9 * x
    w = (rng.random(n) < e).astype(int)
    y = 1.0 + 2.0 * x + w * (1.0 - x) + rng.normal(0, 0.5, n)
    return Dataset.from_arrays(y, w, x, mode="large", propensity=e)


class TestGpwEstimate:
    def test_symmetric_two_observations(self):
        data = Dataset.from_arrays(
            [1.0, 1.0], [1, 0], [0.0, 0.0], mode="large", propensity=[0.5, 0.5]
        )
        fit = gpw_estimate(data, None, CONST, nu=1.0)
        assert fit.beta[0] == pytest.approx(0.0, abs=1e-15)

    def test_four_row_table_matches_direct_ratio(self):
        # Independent oracle: the one-dimensional estimator is the plain
        # ratio E_n[(e(1-e))^nu (W-e) Y] / E_n[(e(1-e))^(nu+1)].
        data, e = _table_dataset()
        q = e * (1 - e)
        score = q * (np.asarray(data.w) - e) * data.y
        oracle = score.mean() / (q**2).mean()
        fit = gpw_estimate(data, None, CONST, nu=1.0)
        assert fit.beta[0] == pytest.approx(oracle, abs=1e-12)

    def test_ipw_index_recovers_usual_ipw(self):
        data, e = _table_dataset()
        w = np.asarray(data.w, dtype=float)
        ipw_oracle = np.mean(w * data.y / e - (1 - w) * data.y / (1 - e))
        fit = gpw_as_weighted_ipw(data, None, CONST, nu=-1.0)
        assert fit.beta[0] == pytest.approx(ipw_oracle, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0])
    def test_weighted_ipw_equivalence(self, nu):
        rng = np.random.default_rng(11)
        basis = BasisSpec.linear()
        for trial in range(5):
            data = _random_dataset(rng)
            direct = gpw_estimate(data, None, basis, nu=nu)
            weighted = gpw_as_weighted_ipw(data, None, basis, nu=nu)
            np.testing.assert_allclose(direct.beta, weighted.beta, rtol=1e-10)

    def test_moment_residual_is_zero_at_fit(self):
        rng = np.random.default_rng(5)
        data = _random_dataset(rng)
        basis = BasisSpec.linear()
        for nu in (0.0, 1.0):
            fit = gpw_estimate(data, None, basis, nu=nu)
            e = data.propensity
            q = e * (1 - e)
            z = basis.matrix(data)
            resid = (q**nu)[:, None] * z * (
                (data.w - e) * data.y - q * (z @ fit.beta)
            )[:, None]
            np.testing.assert_allclose(resid.mean(axis=0), 0.0, atol=1e-10)

    def test_sigma_symmetric_psd(self):
        rng = np.random.default_rng(17)
        data = _random_dataset(rng)
        fit = gpw_estimate(data, None, BasisSpec.linear(), nu=1.0)
        np.testing.assert_allclose(fit.sigma, fit.sigma.T, rtol=1e-10)
        eig = np.linalg.eigvalsh(fit.sigma)
        assert eig[0] >= -1e-10 * eig[-1]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        data = _random_dataset(rng, n=100)
        perm = rng.permutation(100)
        shuffled = Dataset.from_arrays(
            data.y[perm],
            data.w[perm],
            data.x[perm],
            mode="large",
            propensity=data.propensity[perm],
        )
        basis = BasisSpec.linear()
        a = gpw_estimate(data, None, basis, nu=1.0)
        b = gpw_estimate(shuffled, None, basis, nu=1.0)
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-12)
        np.testing.assert_allclose(a.sigma, b.sigma, atol=1e-10)

    def test_fitted_values_invariant_to_reparameterization(self):
        rng = np.random.default_rng(29)
        data = _random_dataset(rng)
        basis = BasisSpec.linear()
        a_mat = np.array([[2.0, 1.0], [0.5, -1.0]])
        rebased = BasisSpec(fn=lambda x: np.column_stack((np.ones_like(x), x)) @ a_mat.T, dim=2)
        fit = gpw_estimate(data, None, basis, nu=1.0)
        fit2 = gpw_estimate(data, None, rebased, nu=1.0)
        cate = basis.matrix(data) @ fit.beta
        cate2 = rebased.matrix(data) @ fit2.beta
        np.testing.assert_allclose(cate, cate2, atol=1e-8)

    def test_singular_design_detected(self):
        rng = np.random.default_rng(31)
        data = _random_dataset(rng, n=50)
        collinear = BasisSpec(fn=lambda x: np.tile((1.0, 2.0), (x.shape[0], 1)), dim=2)
        with pytest.raises(SingularDesign):
            gpw_estimate(data, None, collinear, nu=1.0)

    def test_boundary_propensity_rejected(self):
        data = Dataset.from_arrays(
            [1.0, 2.0, 0.5], [1, 0, 1], [0.0, 0.5, 1.0], mode="large",
            propensity=[0.5, 1.0, 0.3],
        )
        with pytest.raises(PropensityOnBoundary) as err:
            gpw_estimate(data, None, CONST, nu=1.0)
        assert err.value.index == 1

    def test_weighted_ipw_rejects_vanishing_propensity_product(self):
        # e = 1e-301 lies inside (0, 1), but its e(1 - e) is below the
        # 1e-300 floor that the inverse-weighting form divides by.
        data = Dataset.from_arrays(
            [1.0, 2.0, 0.5], [1, 0, 1], [0.0, 0.5, 1.0], mode="large",
            propensity=[0.5, 1e-301, 0.3],
        )
        with pytest.raises(PropensityOnBoundary) as err:
            gpw_as_weighted_ipw(data, None, CONST, nu=1.0)
        assert err.value.index == 1

    @pytest.mark.parametrize(
        "fit",
        [
            lambda d, b: gpw_estimate(d, None, b, nu=1.0),
            lambda d, b: gpw_as_weighted_ipw(d, None, b, nu=1.0),
            lambda d, b: alt_estimate(d, None, b, "robinson_regression"),
            lambda d, b: alt_estimate(d, None, b, "half_weight"),
            lambda d, b: alt_estimate(d, None, b, "one_sided_control_safe"),
        ],
        ids=["gpw", "weighted_ipw", "robinson_regression", "half_weight", "one_sided"],
    )
    def test_sample_must_exceed_basis_dimension(self, fit):
        data = Dataset.from_arrays(
            [1.0, 2.0], [1, 0], [0.2, 0.8], mode="large", propensity=[0.5, 0.5]
        )
        with pytest.raises(ConfigError):
            fit(data, BasisSpec.linear())

    @pytest.mark.parametrize(
        "fit",
        [
            lambda d: gpw_estimate(d, None, CONST, nu=1.0),
            lambda d: gpw_as_weighted_ipw(d, None, CONST, nu=1.0),
            *(lambda d, v=v: alt_estimate(d, None, CONST, v) for v in ALT_VARIANTS),
        ],
        ids=["gpw", "weighted_ipw", *ALT_VARIANTS],
    )
    def test_treatment_must_be_binary(self, fit):
        data = Dataset.from_arrays(
            [1.0, 2.0, 3.0, 4.0], [0, 1, 2, 2], [0.1, 0.4, 0.6, 0.9], mode="large",
            propensity=[0.5] * 4,
        )
        with pytest.raises(UnknownTreatmentLabel) as err:
            fit(data)
        assert (err.value.label, err.value.row) == (2, 3)

    @pytest.mark.parametrize(
        "fit",
        [
            lambda d: gpw_estimate(d, None, BasisSpec.linear(), nu=1.0),
            lambda d: gpw_estimate(d, None, BasisSpec.linear(), nu=-1.0),
            lambda d: gpw_as_weighted_ipw(d, None, BasisSpec.linear(), nu=1.0),
            *(lambda d, v=v: alt_estimate(d, None, CONST, v) for v in ALT_VARIANTS),
        ],
        ids=["gpw", "ipw", "weighted_ipw", *ALT_VARIANTS],
    )
    @pytest.mark.parametrize("arm", [0, 1], ids=["all_control", "all_treated"])
    def test_empty_arm_raises_denominator_zero(self, fit, arm):
        # All-control, these rows gave beta = (7.21, -33.86) at nu = 1.
        x = np.array([0.1, 0.5, 0.9, 0.3])
        data = Dataset.from_arrays(
            [10.0, 9.0, 8.0, 7.0], [arm] * 4, x, mode="large", propensity=x**4
        )
        with pytest.raises(DenominatorZero):
            fit(data)

    @pytest.mark.parametrize(
        "fit",
        [
            lambda d, e: gpw_estimate(d, e, BasisSpec.linear(), nu=1.0),
            lambda d, e: gpw_as_weighted_ipw(d, e, BasisSpec.linear(), nu=0.0),
            *(lambda d, e, v=v: alt_estimate(d, e, CONST, v) for v in ALT_VARIANTS),
        ],
        ids=["gpw", "weighted_ipw", *ALT_VARIANTS],
    )
    def test_callable_propensity_takes_the_covariate_array(self, fit):
        data = _random_dataset(np.random.default_rng(37), n=80)
        calls = []

        def e(x):
            calls.append(x)
            return 0.05 + 0.9 * x

        got = fit(data, e)
        assert len(calls) == 1 and calls[0].tobytes() == data.x.tobytes()
        ref = fit(data, e(data.x))
        assert got.beta.tobytes() == ref.beta.tobytes()
        assert got.sigma.tobytes() == ref.sigma.tobytes()

    @pytest.mark.parametrize(
        "e, error",
        [
            (lambda x: 0.5, ConfigError),
            (lambda x: np.where(x > 0.5, 1.0, 0.5), PropensityOnBoundary),
        ],
        ids=["scalar", "boundary"],
    )
    def test_callable_propensity_result_checked(self, e, error):
        data = _random_dataset(np.random.default_rng(41), n=50)
        with pytest.raises(error):
            gpw_estimate(data, e, CONST, nu=1.0)

    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_nu_rejected(self, nu):
        data = _random_dataset(np.random.default_rng(5), n=50)
        for fit in (gpw_estimate, gpw_as_weighted_ipw):
            with pytest.raises(ConfigError, match="nu"):
                fit(data, None, CONST, nu=nu)

    def test_psd_tolerance_allows_tiny_negative_eigenvalue(self):
        sigma = np.array([[1.0, 0.0], [0.0, -1e-12]])
        fit = GpwFit(np.array([1.0, 0.0]), sigma, 1.0, 100, 1.0)
        lo, hi = wald_ci(fit, [1.0, 0.0], 0.95)
        assert lo < 1.0 < hi


class TestWaldCi:
    def test_level_domain(self):
        fit = GpwFit(np.array([1.0]), np.array([[1.0]]), 1.0, 100, 1.0)
        with pytest.raises(ConfigError):
            wald_ci(fit, [1.0], 0.0)
        with pytest.raises(ConfigError):
            wald_ci(fit, [1.0], 1.0)

    def test_zero_covariance_gives_point(self):
        fit = GpwFit(np.array([2.0]), np.array([[0.0]]), 1.0, 100, 1.0)
        lo, hi = wald_ci(fit, [1.0], 0.95)
        assert lo == hi == 2.0

    def test_non_psd_rejected(self):
        fit = GpwFit(np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, -1.0]]), 1.0, 50, 1.0)
        with pytest.raises(NonPsdCovariance):
            wald_ci(fit, [1.0, 0.0], 0.95)

    def test_interval_width_scales_with_level(self):
        fit = GpwFit(np.array([0.0]), np.array([[4.0]]), 1.0, 100, 1.0)
        lo95, hi95 = wald_ci(fit, [1.0], 0.95)
        lo50, hi50 = wald_ci(fit, [1.0], 0.50)
        assert hi50 - lo50 < hi95 - lo95
        # se = sqrt(4/100) = 0.2, z(0.975) ~ 1.95996
        assert hi95 == pytest.approx(1.959964 * 0.2, abs=1e-5)


class TestPate:
    def test_constant_basis_identity(self):
        rng = np.random.default_rng(3)
        data = _random_dataset(rng, n=60)
        fit = gpw_estimate(data, None, CONST, nu=1.0)
        out = pate_estimate(fit, data, CONST)
        assert out["estimate"] == pytest.approx(fit.beta[0], abs=1e-14)

    def test_arithmetic(self):
        rng = np.random.default_rng(3)
        data = _random_dataset(rng, n=60)
        fit = GpwFit(np.array([3.0, -2.0]), np.eye(2), 1.0, 60, 1.0)
        basis = BasisSpec(fn=lambda x: np.tile((1.0, 0.5), (x.shape[0], 1)), dim=2)
        out = pate_estimate(fit, data, basis)
        assert out["estimate"] == pytest.approx(2.0, abs=1e-14)


class TestAltEstimators:
    def test_symmetric_data_all_variants_zero(self):
        data = Dataset.from_arrays(
            [1.0, 1.0], [1, 0], [0.0, 0.0], mode="large", propensity=[0.5, 0.5]
        )
        for variant in (
            "robinson_regression",
            "half_weight",
            "one_sided_control_safe",
            "overlap_weight_wate",
        ):
            fit = alt_estimate(data, None, CONST, variant)
            assert fit.beta[0] == pytest.approx(0.0, abs=1e-14), variant

    def test_overlap_weight_requires_constant_basis(self):
        rng = np.random.default_rng(7)
        data = _random_dataset(rng, n=60)
        with pytest.raises(ConfigError):
            alt_estimate(data, None, BasisSpec.linear(), "overlap_weight_wate")

    def test_overlap_weight_zero_denominator(self):
        data = Dataset.from_arrays(
            [1.0, 2.0], [0, 0], [0.0, 0.0], mode="large", propensity=[0.5, 0.5]
        )
        with pytest.raises(DenominatorZero):
            alt_estimate(data, None, CONST, "overlap_weight_wate")

    def test_one_sided_guard(self):
        data = Dataset.from_arrays(
            [1.0, 2.0], [1, 0], [0.0, 0.0], mode="large",
            propensity=[1.0 - 1e-14, 0.5],
        )
        with pytest.raises(PropensityOnBoundary):
            alt_estimate(data, None, CONST, "one_sided_control_safe")

    def test_unknown_variant(self):
        data = Dataset.from_arrays(
            [1.0, 2.0], [1, 0], [0.0, 0.0], mode="large", propensity=[0.5, 0.5]
        )
        with pytest.raises(ConfigError):
            alt_estimate(data, None, CONST, "no_such_variant")

    def test_robinson_matches_direct_regression(self):
        # Oracle: regress Y on (W - e) Z by ordinary least squares.
        rng = np.random.default_rng(19)
        data = _random_dataset(rng)
        basis = BasisSpec.linear()
        z = basis.matrix(data)
        reg = (data.w - data.propensity)[:, None] * z
        oracle, *_ = np.linalg.lstsq(reg, data.y, rcond=None)
        fit = alt_estimate(data, None, basis, "robinson_regression")
        np.testing.assert_allclose(fit.beta, oracle, rtol=1e-8)


class TestBasisMatrix:
    """Array-built bases against the per-row map they replaced."""

    @staticmethod
    def _per_row(basis, data):
        """Z of a built-in basis from the per-row map it was first written as."""

        def row(x):
            if basis.name == "const":
                return (1.0,)
            if basis.name == "linear":
                return (1.0, float(x))
            return tuple(float(x) ** k for k in range(basis.dim))

        rows = [row(xi) for xi in np.asarray(data.x)]
        return np.asarray(rows, dtype=float).reshape(data.n, basis.dim)

    @pytest.fixture(params=["large", "finite"])
    def data(self, request):
        rng = np.random.default_rng(8)
        n = 500
        if request.param == "finite":
            x = rng.integers(-3, 9, n)
        else:
            x = np.ldexp(rng.uniform(-1, 1, n), rng.integers(-20, 20, n))
        y = rng.normal(size=n)
        return Dataset.from_arrays(y, rng.integers(0, 2, n), x, mode=request.param)

    @pytest.mark.parametrize(
        "basis", [BasisSpec.constant(), BasisSpec.linear()], ids=lambda b: b.name
    )
    def test_const_and_linear_exact(self, data, basis):
        z = basis.matrix(data)
        assert z.dtype == np.float64 and z.flags.c_contiguous
        assert z.tobytes() == self._per_row(basis, data).tobytes()

    @pytest.mark.parametrize("degree", range(9))
    def test_polynomial_within_rounding(self, data, degree):
        basis = BasisSpec.polynomial(degree)
        z = basis.matrix(data)
        assert z.shape == (data.n, degree + 1)
        np.testing.assert_allclose(z, self._per_row(basis, data), rtol=1e-15, atol=0)

    def test_polynomial_at_degree_limit(self, data):
        assert BasisSpec.polynomial(DEGREE_LIMIT).matrix(data).shape == (data.n, DEGREE_LIMIT + 1)

    @pytest.mark.parametrize("degree", [DEGREE_LIMIT + 1, 10**30], ids=["limit+1", "1e30"])
    def test_polynomial_over_degree_limit_rejected(self, degree):
        # 10**30 used to reach np.arange, which raised a bare ValueError.
        with pytest.raises(ConfigError, match=f"polynomial degree {degree} is above the limit"):
            BasisSpec.polynomial(degree)

    def test_replaced_fn_is_used(self, data):
        seen = []

        def fn(x):
            seen.append(x)
            return np.column_stack((np.full(x.shape, 2.0), x - 1.0))

        z = dataclasses.replace(BasisSpec.linear(), fn=fn).matrix(data)
        x = np.asarray(data.x, dtype=float)
        assert len(seen) == 1 and seen[0].tobytes() == x.tobytes()
        np.testing.assert_array_equal(z[:, 0], 2.0)
        assert z[:, 1].tobytes() == (x - 1.0).tobytes()

    def test_wrong_width_names_the_basis(self, data):
        # The row path reshaped such rows and raised a bare ValueError.
        basis = BasisSpec(fn=lambda x: np.ones((x.shape[0], 3)), dim=2, name="wide")
        with pytest.raises(ConfigError, match=r"'wide'.*\(500, 3\).*\(500, 2\)"):
            basis.matrix(data)

    @pytest.mark.parametrize(
        "basis", [BasisSpec.linear(), BasisSpec.polynomial(2)], ids=lambda b: b.name
    )
    def test_scalar_bases_reject_vector_covariates(self, basis):
        data = Dataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 1], np.ones((3, 1)), mode="large")
        with pytest.raises(ConfigError, match=basis.name):
            basis.matrix(data)

    def test_constant_and_custom_bases_take_vector_covariates(self):
        x = np.arange(6.0).reshape(3, 2)
        data = Dataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 1], x, mode="large")
        np.testing.assert_array_equal(BasisSpec.constant().matrix(data), np.ones((3, 1)))
        seen = []

        def fn(x):
            seen.append(x)
            return np.column_stack((np.ones(len(x)), x[:, 0] * x[:, 1]))

        custom = BasisSpec(fn=fn, dim=2)
        np.testing.assert_array_equal(custom.matrix(data), [[1.0, 0.0], [1.0, 6.0], [1.0, 20.0]])
        assert len(seen) == 1 and seen[0].tobytes() == x.tobytes() and seen[0].shape == (3, 2)


class TestNormalQuantile:
    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999])
    def test_matches_scipy_ppf(self, level):
        stats = pytest.importorskip("scipy.stats")
        fit = GpwFit(np.array([0.0]), np.array([[1.0]]), 1.0, 1, 1.0)
        _, hi = wald_ci(fit, [1.0], level)
        assert hi == pytest.approx(stats.norm.ppf(0.5 * (1.0 + level)), rel=0, abs=1e-15)


# Reference: the per-estimator fits that the shared moment kernel replaced,
# kept verbatim (with their own SVD solve and sandwich) as the oracle.


def _ref_solve_psd(a, b):
    u, s, vt = np.linalg.svd(a)
    if s[-1] <= 0 or not np.isfinite(s[0] / s[-1]) or s[0] / s[-1] > 1e12:
        raise SingularDesign(float(np.inf if s[-1] <= 0 else s[0] / s[-1]))
    condition = float(s[0] / s[-1])
    a_inv = vt.T @ np.diag(1.0 / s) @ u.T
    return a_inv @ b, a_inv, condition


def _ref_sandwich(z, bread, score_resid):
    n = z.shape[0]
    meat = (z * (score_resid**2)[:, None]).T @ z / n
    _, bread_inv, condition = _ref_solve_psd(bread, np.eye(bread.shape[0]))
    sigma = bread_inv @ meat @ bread_inv
    return 0.5 * (sigma + sigma.T), condition


def _ref_gpw_estimate(data, e, basis, nu):
    z = basis.matrix(data)
    if data.n <= basis.dim:
        raise ConfigError("sample size must exceed the basis dimension")
    ev = _propensity_values(data, e)
    q = ev * (1.0 - ev)
    bread = (z * (q ** (nu + 1.0))[:, None]).T @ z / data.n
    score = (z * ((q**nu) * (data.w - ev) * data.y)[:, None]).mean(axis=0)
    beta, _, condition = _ref_solve_psd(bread, score)
    resid = (q**nu) * ((data.w - ev) * data.y - q * (z @ beta))
    sigma, _ = _ref_sandwich(z, bread, resid)
    return GpwFit(beta=beta, sigma=sigma, nu=nu, n=data.n, condition=condition)


def _ref_gpw_as_weighted_ipw(data, e, basis, nu):
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
    beta, _, condition = _ref_solve_psd(bread, score)
    resid = (q**nu) * ((data.w - ev) * data.y - q * (z @ beta))
    sigma, _ = _ref_sandwich(z, bread, resid)
    return GpwFit(beta=beta, sigma=sigma, nu=nu, n=data.n, condition=condition)


def _ref_alt_estimate(data, e, basis, variant):
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
    else:
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
    beta, _, condition = _ref_solve_psd(bread, score)
    resid = score_obs - weight * (z @ beta)
    sigma, _ = _ref_sandwich(z, bread, resid)
    return GpwFit(
        beta=beta, sigma=sigma, nu=None, n=data.n, condition=condition, method=variant
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SpwError as exc:
        return type(exc)


def _random_design(rng, basis):
    """Random binary design whose propensities reach down to 1e-6 (or up
    to 1 - 1e-6), sometimes with an empty arm or a near-one propensity."""
    n = int(rng.integers(basis.dim + 1, 120))
    x = rng.uniform(-1.0, 2.0, n)
    e = np.exp(rng.uniform(np.log(1e-6), np.log(0.5), n))
    e = np.where(rng.random(n) < 0.5, e, 1.0 - e)
    w = (rng.random(n) < e).astype(int)
    if rng.random() < 0.1:
        w[:] = w[0]  # one arm empty
    if rng.random() < 0.1:
        e[rng.integers(n)] = 1.0 - 1e-13  # trips the one-sided guard
    y = rng.normal(0.0, 1.0, n) + 2.0 * x * w
    return Dataset.from_arrays(y, w, x, mode="large", propensity=e)


def _moment(recipe, data, basis):
    """(Z, a, b) of the moment E_n[Z (b - a Z'beta)] = 0 a fit solves."""
    z, e, w, y = basis.matrix(data), data.propensity, data.w.astype(float), data.y
    q = e * (1.0 - e)
    name, nu = recipe
    if name == "gpw":
        return z, q ** (nu + 1.0), q**nu * (w - e) * y
    if name == "ipw":
        return z, q ** (nu + 1.0), q ** (nu + 1.0) * ((w - e) * y / q)
    if name == "robinson_regression":
        return z, (w - e) ** 2, (w - e) * y
    if name == "half_weight":
        return z, 0.5 * (w * (1.0 - e) + e * (1.0 - w)), (w - e) * y
    if name == "one_sided_control_safe":
        return z, w, (w - e) * y / (1.0 - e)
    a = w * (1.0 - e) + e * (1.0 - w)
    return np.column_stack((w, 1.0 - w)), a, a * y


def _rounding_scale(z, a, b):
    """The sandwich with |b| + |a Z'beta| in place of |b - a Z'beta|.

    The residual is a difference of those two terms, so evaluating it in
    another order moves it by rounding relative to their size, not its
    own; this is the matching scale for differences in sigma.
    """
    n = z.shape[0]
    bread_inv = np.linalg.pinv((z * a[:, None]).T @ z / n)
    beta = bread_inv @ (z * b[:, None]).mean(axis=0)
    size = np.abs(b) + np.abs(a * (z @ beta))
    meat = (np.abs(z) * (size**2)[:, None]).T @ np.abs(z) / n
    return np.abs(bread_inv) @ meat @ np.abs(bread_inv)


class TestMomentKernelMatchesReference:
    """Every large-sample fit against the hand-written fit it replaced."""

    BASES = [BasisSpec.constant(), BasisSpec.linear(), BasisSpec.polynomial(2)]
    RECIPES = (
        [(name, nu) for name in ("gpw", "ipw") for nu in (-1.0, 0.0, 0.5, 1.0, 2.0)]
        + [(variant, None) for variant in ALT_VARIANTS]
    )

    @staticmethod
    def _fit(recipe, data, basis, reference=False):
        name, nu = recipe
        if name == "gpw":
            fn = _ref_gpw_estimate if reference else gpw_estimate
        elif name == "ipw":
            fn = _ref_gpw_as_weighted_ipw if reference else gpw_as_weighted_ipw
        else:
            fn, nu = (_ref_alt_estimate if reference else alt_estimate), name
        return _outcome(fn, data, None, basis, nu)

    @pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name)
    def test_fits_equal_the_reference(self, basis):
        rng = np.random.default_rng(20265)
        seen = set()
        for case in range(100):
            data = _random_design(rng, basis)
            empty_arm = data.w.all() or not data.w.any()
            for recipe in self.RECIPES:
                got = self._fit(recipe, data, basis)
                where = (basis.name, case, recipe)
                if empty_arm:
                    # The references fit such a sample; every fit now refuses it.
                    assert got is DenominatorZero, where
                    seen.add("empty arm")
                    continue
                ref = self._fit(recipe, data, basis, reference=True)
                if isinstance(ref, type):
                    assert got is ref, where
                    seen.add(ref.__name__)
                    continue
                assert isinstance(got, GpwFit), (where, got)
                assert (got.nu, got.n, got.method) == (ref.nu, ref.n, ref.method), where
                scale = _rounding_scale(*_moment(recipe, data, basis))
                if recipe[0] == "overlap_weight_wate":
                    # Arm means divided out before, solved on [W, 1 - W] now.
                    tol = 1e-12 * np.max(np.abs(data.y))
                    assert abs(got.beta[0] - ref.beta[0]) <= tol, where
                    assert got.condition == pytest.approx(ref.condition, rel=1e-12), where
                    scale = scale.sum(keepdims=True)  # |(1, -1)| S |(1, -1)|'
                else:
                    assert got.beta.tobytes() == ref.beta.tobytes(), where
                    assert got.condition == ref.condition, where
                assert np.all(np.abs(got.sigma - ref.sigma) <= 1e-12 * scale), where
                seen.add("fit")
        # The designs reach the fitted case and the guards each recipe keeps.
        # For the constant and linear bases only an empty arm made a fit
        # singular here, and that is now refused first; the singular guard
        # on those bases is test_singular_design_detected's.
        expected = {"fit", "empty arm", "PropensityOnBoundary"}
        if basis.dim > 1:
            expected.add("ConfigError")
        if basis.dim > 2:
            expected.add("SingularDesign")
        assert expected <= seen


def _exact_inverse(m):
    """Gauss-Jordan inverse of a small nonsingular matrix of Fractions."""
    d = len(m)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(m)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(d):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * p for v, p in zip(rows[r], rows[col])]
    return [row[d:] for row in rows]


def _exact_fit(z, a, b):
    """(beta, sigma, bread^-1) of E_n[Z (b - a Z'beta)] = 0 and its sandwich,
    solved exactly over the rationals from the float Z, a and b."""
    n, d = z.shape
    zs = [[Fraction(v) for v in row] for row in z.tolist()]
    az = [[Fraction(ai) * v for v in row] for ai, row in zip(a.tolist(), zs)]
    bs = [Fraction(v) for v in b.tolist()]
    bread = [[sum(r[j] * q[k] for r, q in zip(az, zs)) / n for k in range(d)] for j in range(d)]
    score = [sum(r[j] * bi for r, bi in zip(zs, bs)) / n for j in range(d)]
    inv = _exact_inverse(bread)
    beta = [sum(inv[j][k] * score[k] for k in range(d)) for j in range(d)]
    sq = [(bi - sum(r[k] * beta[k] for k in range(d))) ** 2 for r, bi in zip(az, bs)]
    meat = [[sum(r[j] * r[k] * s for r, s in zip(zs, sq)) / n for k in range(d)] for j in range(d)]
    half = [[sum(inv[j][i] * meat[i][k] for i in range(d)) for k in range(d)] for j in range(d)]
    sigma = [[sum(half[j][i] * inv[i][k] for i in range(d)) for k in range(d)] for j in range(d)]
    return beta, sigma, inv


class TestExactOracle:
    """Every large-sample fit against the exact rational solution of the
    moment it solves, with Z, a and b taken as the code forms them.

    The float error is compared with a rounding scale, not with cond*eps
    alone: the sums behind the bread, the score and the meat round
    relative to the sizes of their terms, which cancel, and the condition
    number does not see that. With |B^-1| the entrywise absolute exact
    bread inverse and beta the exact solution,

        S_beta  = |B^-1| E_n[|Z| (|b| + |a| |Z|'|beta|)]
        S_sigma = |B^-1| E_n[|Z||Z|' (|b| + |a| |Z|'|beta|)^2] |B^-1|.

    Each beta entry must lie within eps * (n + cond) times its scale: n
    for the sums of n terms, cond for the solve. Sigma, se**2 and the
    average effect's variance get twice that, since sigma holds the bread
    inverse twice and the residual squared.
    """

    BASES = [BasisSpec.constant(), BasisSpec.linear(), BasisSpec.polynomial(2)]
    RECIPES = (
        [(name, nu) for name in ("gpw", "ipw") for nu in (-1.0, 0.0, 1.0, 2.0)]
        + [(variant, None) for variant in ALT_VARIANTS]
    )

    @staticmethod
    def _design(rng, basis):
        n = int(rng.integers(20, 121))
        x = rng.uniform(-1.0, 1.0, n)
        e = 1.0 / (1.0 + np.exp(-rng.uniform(1.0, 25.0) * x))
        w = (rng.random(n) < e).astype(int)
        w[:2] = (0, 1)  # both arms present
        y = rng.normal(0.0, 1.0, n) + 3.0 * x * w
        return Dataset.from_arrays(y, w, x, mode="large", propensity=e)

    @staticmethod
    def _scales(z, a, b, beta, inv):
        inv_abs = np.abs(np.array(inv, dtype=float))
        size = np.abs(b) + np.abs(a) * (np.abs(z) @ np.abs(np.array(beta, dtype=float)))
        n = z.shape[0]
        s_beta = inv_abs @ (np.abs(z) * size[:, None]).mean(axis=0)
        s_sigma = inv_abs @ ((np.abs(z) * (size**2)[:, None]).T @ np.abs(z) / n) @ inv_abs
        return s_beta, s_sigma

    @staticmethod
    def _err(got, exact):
        return np.array(
            [float(abs(Fraction(g) - e)) for g, e in zip(np.ravel(got), np.ravel(exact))]
        ).reshape(np.shape(got))

    def test_fits_within_rounding_of_the_exact_solution(self):
        rng = np.random.default_rng(2711)
        eps = np.finfo(float).eps
        fits = 0
        for basis in self.BASES:
            for recipe in self.RECIPES:
                if recipe[0] == "overlap_weight_wate" and basis.dim > 1:
                    continue
                data = self._design(rng, basis)
                fit = TestMomentKernelMatchesReference._fit(recipe, data, basis)
                where = (basis.name, recipe, data.n, getattr(fit, "condition", fit))
                assert isinstance(fit, GpwFit), where
                z, a, b = _moment(recipe, data, basis)
                beta, sigma, inv = _exact_fit(z, a, b)
                s_beta, s_sigma = self._scales(z, a, b, beta, inv)
                if recipe[0] == "overlap_weight_wate":
                    # The arm means' contrast (1, -1), taken exactly.
                    beta = [beta[0] - beta[1]]
                    sigma = [[sigma[0][0] - sigma[0][1] - sigma[1][0] + sigma[1][1]]]
                    s_beta, s_sigma = s_beta.sum(keepdims=True), s_sigma.sum(keepdims=True)
                tol = eps * (data.n + fit.condition)
                assert np.all(self._err(fit.beta, beta) <= tol * s_beta), where
                assert np.all(self._err(fit.sigma, sigma) <= 2 * tol * s_sigma), where
                # se**2 is diag(sigma) / n up to the rounding of the sqrt.
                se2 = [sigma[j][j] / data.n for j in range(len(beta))]
                bound = 2 * tol * np.diag(s_sigma) / data.n
                assert np.all(self._err(fit.se**2, se2) <= bound), where
                if recipe[0] == "gpw":
                    zbar = [sum(map(Fraction, col)) / data.n for col in z.T.tolist()]
                    est = sum(zj * bj for zj, bj in zip(zbar, beta))
                    var = sum(zj * sum(map(mul, row, zbar)) for zj, row in zip(zbar, sigma))
                    got = pate_estimate(fit, data, basis)
                    zabs = np.abs(z).mean(axis=0)
                    assert self._err(got["estimate"], est) <= tol * (zabs @ s_beta), where
                    bound = 2 * tol * (zabs @ s_sigma @ zabs) / data.n
                    assert self._err(got["se"] ** 2, var / data.n) <= bound, where
                fits += 1
        assert fits == 34
