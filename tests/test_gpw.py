"""Tests for the large-sample weighting estimators and their covariance."""

import dataclasses

import numpy as np
import pytest

from spw.data import Dataset
from spw.errors import (
    ConfigError,
    DenominatorZero,
    NonPsdCovariance,
    PropensityOnBoundary,
    SingularDesign,
)
from spw.gpw import (
    BasisSpec,
    GpwFit,
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
        rebased = BasisSpec(
            fn=lambda x: tuple(a_mat @ np.array([1.0, float(x)])), dim=2
        )
        fit = gpw_estimate(data, None, basis, nu=1.0)
        fit2 = gpw_estimate(data, None, rebased, nu=1.0)
        cate = basis.matrix(data) @ fit.beta
        cate2 = rebased.matrix(data) @ fit2.beta
        np.testing.assert_allclose(cate, cate2, atol=1e-8)

    def test_singular_design_detected(self):
        rng = np.random.default_rng(31)
        data = _random_dataset(rng, n=50)
        collinear = BasisSpec(fn=lambda x: (1.0, 2.0), dim=2)
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

    def test_sample_must_exceed_basis_dimension(self):
        data = Dataset.from_arrays(
            [1.0, 2.0], [1, 0], [0.2, 0.8], mode="large", propensity=[0.5, 0.5]
        )
        with pytest.raises(ConfigError):
            gpw_estimate(data, None, BasisSpec.linear(), nu=1.0)

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
        basis = BasisSpec(fn=lambda x: (1.0, 0.5), dim=2)
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


def _per_row(basis, data):
    rows = [basis.fn(xi) for xi in np.asarray(data.x)]
    return np.asarray(rows, dtype=float).reshape(data.n, basis.dim)


class TestBasisMatrix:
    """Array-built bases against the per-row map they replaced."""

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

    @pytest.mark.parametrize("basis", [BasisSpec.constant(), BasisSpec.linear()], ids=str)
    def test_const_and_linear_exact(self, data, basis):
        z = basis.matrix(data)
        assert z.dtype == np.float64 and z.flags.c_contiguous
        assert z.tobytes() == _per_row(basis, data).tobytes()

    @pytest.mark.parametrize("degree", range(9))
    def test_polynomial_within_rounding(self, data, degree):
        basis = BasisSpec.polynomial(degree)
        z = basis.matrix(data)
        assert z.shape == (data.n, degree + 1)
        np.testing.assert_allclose(z, _per_row(basis, data), rtol=1e-15, atol=0)

    def test_custom_fn_keeps_row_path(self, data):
        basis = dataclasses.replace(BasisSpec.linear(), fn=lambda x: (2.0, float(x) - 1.0))
        np.testing.assert_array_equal(basis.matrix(data)[:, 0], 2.0)
        assert basis.matrix(data).tobytes() == _per_row(basis, data).tobytes()

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
        custom = BasisSpec(fn=lambda row: (1.0, row[0] * row[1]), dim=2)
        np.testing.assert_array_equal(custom.matrix(data), [[1.0, 0.0], [1.0, 6.0], [1.0, 20.0]])


class TestNormalQuantile:
    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999])
    def test_matches_scipy_ppf(self, level):
        stats = pytest.importorskip("scipy.stats")
        fit = GpwFit(np.array([0.0]), np.array([[1.0]]), 1.0, 1, 1.0)
        _, hi = wald_ci(fit, [1.0], level)
        assert hi == pytest.approx(stats.norm.ppf(0.5 * (1.0 + level)), rel=0, abs=1e-15)
