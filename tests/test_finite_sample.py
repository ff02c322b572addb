"""Tests for the stratified finite-sample estimators and the enumeration oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spw.data import Dataset, RngHandle, StrataIndex, build_strata
from spw.errors import ConfigError, EnumerationTooLarge
from spw.finite_sample import (
    AssignmentModel,
    FsConfig,
    SetEstimate,
    _fpw_ends,
    _ipw_fs,
    _scaled,
    _shrinkage_means,
    _wmd,
    enumerate_expectation,
    fpw_set,
    ipw_fs_estimate,
    scaled_ate,
    shrinkage_mean,
    wmd_estimate,
)
from spw.inference import STATISTICS, statistic_weights
from spw.simulate import FiniteSampleDgp

ATE_CFG = FsConfig.binary_ate(0.0, 10.0, 0.0, 10.0)


def _make(y, w, x, treatments=(0, 1)):
    data = Dataset.from_arrays(y, w, x, treatments=treatments)
    return data, build_strata(data)


class TestShrinkageWeight:
    """The stabilized reciprocal weight N_k / (1 + same-treatment peers),
    read off the ``wmd`` statistic at the treated unit 0."""

    def test_pair_with_treated_peer(self):
        data, strata = _make([5.0, 3.0], [1, 1], [1, 1])
        assert statistic_weights("wmd", data.w, strata)[0] == pytest.approx(1.0)

    def test_no_matching_peer(self):
        data, strata = _make([1.0, 2.0, 3.0], [1, 0, 0], [1, 1, 1])
        assert statistic_weights("wmd", data.w, strata)[0] == pytest.approx(3.0)

    def test_two_matching_peers(self):
        data, strata = _make([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 0], [1, 1, 1, 1])
        # Unit 0 has two treated peers: 4 / (1 + 2).
        assert statistic_weights("wmd", data.w, strata)[0] == pytest.approx(4.0 / 3.0)


class TestShrinkageMean:
    def test_hand_example(self):
        data, strata = _make([5.0, 3.0], [1, 0], [1, 1])
        assert shrinkage_mean(data, strata, 1, 0) == pytest.approx(5.0)

    def test_empty_treatment_group(self):
        data, strata = _make([5.0, 3.0], [0, 0], [1, 1])
        assert shrinkage_mean(data, strata, 1, 0) == 0.0

    def test_enumeration_bias_small_case(self):
        # Two units, constant potential outcome 1, lambda = 0.5:
        # E[shrinkage mean] = 1 - (1 - 0.5)^2 = 0.75.
        data, strata = _make([0.0, 0.0], [0, 0], [1, 1])
        pot = np.ones((2, 2))
        model = AssignmentModel.binary([0.5])

        def stat(w_vec, y_vec):
            d = Dataset.from_arrays(y_vec, w_vec, [1, 1], treatments=(0, 1))
            return shrinkage_mean(d, build_strata(d), 1, 0)

        value = enumerate_expectation(stat, pot, model, strata)
        assert value == pytest.approx(0.75, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        ys=st.lists(st.floats(-10, 10), min_size=2, max_size=12),
        ws=st.lists(st.integers(0, 1), min_size=2, max_size=12),
        seed=st.integers(0, 10**6),
    )
    def test_identity_with_modified_subsample_mean(self, ys, ws, seed):
        n = min(len(ys), len(ws))
        if n < 2:
            return
        y, w = ys[:n], ws[:n]
        data, strata = _make(y, w, [1] * n)
        for wv in (0, 1):
            mask = [wi == wv for wi in w]
            modified = sum(yi for yi, m in zip(y, mask) if m) / max(1, sum(mask))
            assert shrinkage_mean(data, strata, wv, 0) == pytest.approx(
                modified, abs=1e-12
            )


class TestUnpooledSet:
    """In a single stratum nothing is pooled: ``fpw_set``'s per-treatment
    estimate is the unpooled set-estimate of that stratum."""

    def test_occupied_stratum_is_point(self):
        data, strata = _make([5.0, 3.0], [1, 0], [1, 1])
        est = fpw_set(data, strata, ATE_CFG).per_w[1]
        assert est.is_point and est.lo == pytest.approx(5.0)

    def test_vacant_stratum_returns_bounds(self):
        data, strata = _make([5.0, 3.0], [0, 0], [1, 1])
        est = fpw_set(data, strata, ATE_CFG).per_w[1]
        assert (est.lo, est.hi) == (0.0, 10.0)
        # Restricted to its own label, a vacant stratum borrows nothing.
        data, _ = _make([5.0, 3.0, 1.0, 2.0], [0, 0, 1, 0], [1, 1, 2, 2])
        alone = data.restrict([1])
        est = fpw_set(alone, build_strata(alone), ATE_CFG).per_w[1]
        assert (est.lo, est.hi) == (0.0, 10.0)

    def test_enumeration_unbiasedness(self):
        data, strata = _make([0.0, 0.0, 0.0], [0, 0, 0], [1, 1, 1])
        mu = (2.0, 7.0)  # control, treated means
        pot = np.column_stack([np.full(3, mu[0]), np.full(3, mu[1])])
        model = AssignmentModel.binary([0.15])

        def stat(w_vec, y_vec):
            d = Dataset.from_arrays(y_vec, w_vec, [1, 1, 1], treatments=(0, 1))
            est = fpw_set(d, build_strata(d), ATE_CFG).per_w[1]
            return (est.lo, est.hi)

        lo, hi = enumerate_expectation(stat, pot, model, strata)
        assert lo <= mu[1] + 1e-12
        assert hi >= mu[1] - 1e-12


class TestFsConfig:
    @pytest.mark.parametrize(
        "bounds, kappa",
        [
            ({0: (0.0, math.nan), 1: (0.0, 1.0)}, {0: -1.0, 1: 1.0}),
            ({0: (0.0, math.inf), 1: (0.0, 1.0)}, {0: -1.0, 1: 1.0}),
            ({0: (-math.inf, 0.0), 1: (0.0, 1.0)}, {0: -1.0, 1: 1.0}),
            ({0: (math.nan, 1.0), 1: (0.0, 1.0)}, {0: -1.0, 1: 1.0}),
            ({0: (0.0, 1.0), 1: (0.0, 1.0)}, {0: math.nan, 1: 1.0}),
            ({0: (0.0, 1.0), 1: (0.0, 1.0)}, {0: -1.0, 1: math.inf}),
        ],
        ids=["hi_nan", "hi_inf", "lo_-inf", "lo_nan", "kappa_nan", "kappa_inf"],
    )
    def test_non_finite_values_rejected(self, bounds, kappa):
        # A NaN bound passed the lo > hi check and reached fpw.json.
        with pytest.raises(ConfigError, match="must be finite"):
            FsConfig(bounds=bounds, kappa=kappa)


class TestFpw:
    def test_single_stratum_point(self):
        data, strata = _make([5.0, 3.0], [1, 0], [1, 1])
        est = fpw_set(data, strata, ATE_CFG)
        assert est.is_point
        assert est.interval.lo == pytest.approx(2.0, abs=1e-12)

    def test_single_stratum_all_control(self):
        data, strata = _make([3.0, 3.0], [0, 0], [1, 1])
        est = fpw_set(data, strata, ATE_CFG)
        assert est.interval.lo == pytest.approx(-3.0, abs=1e-12)
        assert est.interval.hi == pytest.approx(7.0, abs=1e-12)
        assert est.per_w[1].lo == pytest.approx(0.0)
        assert est.per_w[1].hi == pytest.approx(10.0)
        assert est.per_w[0].is_point and est.per_w[0].lo == pytest.approx(3.0)

    def test_pooled_imputation_from_other_stratum(self):
        # Stratum 1 has no treated units; its units borrow stratum 2's
        # treated mean, weighted by N_k / (n - N_{X_i}).
        data, strata = _make([1.0, 1.0, 8.0, 2.0], [0, 0, 1, 0], [1, 1, 2, 2])
        est = fpw_set(data, strata, ATE_CFG)
        # mu1 endpoints: units 1,2 impute stratum 2's point estimate 8.
        assert est.per_w[1].is_point
        # unit contributions: imputed 8, imputed 8, Rhat(=2)*8, 0 -> mean 8
        assert est.per_w[1].lo == pytest.approx((8.0 + 8.0 + 16.0 + 0.0) / 4.0)

    def test_point_when_every_needed_cell_occupied(self):
        data, strata = _make([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], [1, 1, 2, 2])
        assert fpw_set(data, strata, ATE_CFG).is_point

    def test_point_despite_single_vacant_stratum(self):
        # Pooling is the point: a lone vacant stratum borrows occupied
        # strata's point estimates, so the set still collapses.
        data, strata = _make([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 0], [1, 1, 2, 2])
        assert fpw_set(data, strata, ATE_CFG).is_point

    def test_interval_when_two_strata_vacant(self):
        # With two strata vacant for w = 1, each imputes from the other
        # (set-valued) stratum, so the bounds survive into the estimate.
        data, strata = _make([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0], [1, 1, 2, 2])
        est = fpw_set(data, strata, ATE_CFG)
        assert not est.is_point
        assert est.per_w[1].lo == pytest.approx(0.0)
        assert est.per_w[1].hi == pytest.approx(10.0)

    def test_custom_pool_weights(self):
        y = [1.0, 1.0, 8.0, 2.0, 2.0, 4.0, 6.0]
        w = [0, 0, 1, 0, 0, 1, 0]
        x = [1, 1, 2, 2, 2, 3, 3]
        data, strata = _make(y, w, x)
        uniform = lambda wv, k, vacant_k: 0.5
        est = fpw_set(data, strata, ATE_CFG, pool_weights=uniform)
        default = fpw_set(data, strata, ATE_CFG)
        # Default stratum-size weights are 3/5 and 2/5; uniform differs.
        assert est.per_w[1].lo != pytest.approx(default.per_w[1].lo)

    def test_invalid_pool_weights_rejected(self):
        data, strata = _make([1.0, 1.0, 8.0, 2.0], [0, 0, 1, 0], [1, 1, 2, 2])
        bad = lambda w, k, vacant_k: 0.2
        with pytest.raises(ConfigError):
            fpw_set(data, strata, ATE_CFG, pool_weights=bad)

    def test_permutation_invariance_within_stratum(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=6)
        w = [1, 0, 0, 1, 0, 1]
        x = [1, 1, 1, 2, 2, 2]
        data, strata = _make(y, w, x)
        perm = [2, 0, 1, 5, 4, 3]
        data2, strata2 = _make(y[perm], [w[i] for i in perm], [x[i] for i in perm])
        est = fpw_set(data, strata, ATE_CFG)
        est2 = fpw_set(data2, strata2, ATE_CFG)
        assert est.interval.lo == pytest.approx(est2.interval.lo, abs=1e-12)
        assert est.interval.hi == pytest.approx(est2.interval.hi, abs=1e-12)
        for fn in (wmd_estimate, ipw_fs_estimate):
            assert fn(data, strata, ATE_CFG) == pytest.approx(
                fn(data2, strata2, ATE_CFG), abs=1e-12
            )
        assert scaled_ate(data, strata, 1, 0) == pytest.approx(
            scaled_ate(data2, strata2, 1, 0), abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        sizes=st.lists(st.integers(2, 5), min_size=1, max_size=4),
    )
    def test_matches_per_unit_transcription(self, seed, sizes):
        # Independent oracle: literal per-unit loop over the defining
        # formula, including the single-stratum special case.
        rng = np.random.default_rng(seed)
        x = [k for k, n_k in enumerate(sizes) for _ in range(n_k)]
        n = len(x)
        w = rng.integers(0, 2, n)
        y = rng.normal(0, 3, n)
        data, strata = _make(y, w, x)
        cfg = FsConfig.binary_ate(-5.0, 5.0, -4.0, 6.0)
        est = fpw_set(data, strata, cfg)

        def oracle_endpoint(wv, t):
            total = 0.0
            for i in range(n):
                k = x[i]
                members = [j for j in range(n) if x[j] == k]
                n_k = len(members)
                peers = sum(1 for j in members if j != i and w[j] == wv)
                r_hat = n_k / (1 + peers)
                value = r_hat * (1.0 if w[i] == wv else 0.0) * y[i]
                if all(w[j] != wv for j in members):
                    if len(sizes) == 1:
                        value += t
                    else:
                        acc = 0.0
                        for k2 in range(len(sizes)):
                            if k2 == k:
                                continue
                            m2 = [j for j in range(n) if x[j] == k2]
                            count = sum(1 for j in m2 if w[j] == wv)
                            sub = sum(y[j] for j in m2 if w[j] == wv) / max(1, count)
                            vac = 1.0 if count == 0 else 0.0
                            acc += len(m2) / (n - n_k) * (sub + t * vac)
                        value += acc
                total += value
            return total / n

        for wv in (0, 1):
            lo_t, hi_t = cfg.bound_for(wv)
            assert est.per_w[wv].lo == pytest.approx(oracle_endpoint(wv, lo_t), abs=1e-10)
            assert est.per_w[wv].hi == pytest.approx(oracle_endpoint(wv, hi_t), abs=1e-10)

    def test_enumeration_unbiasedness_two_strata(self):
        # 2 strata of 3 with different assignment probabilities.
        x = [1, 1, 1, 2, 2, 2]
        mu0, mu1 = 2.0, 9.0
        pot = np.column_stack([np.full(6, mu0), np.full(6, mu1)])
        model = AssignmentModel.binary([0.1, 0.5])
        data0, strata = _make([0.0] * 6, [0] * 6, x)
        cfg = FsConfig.binary_ate(0.0, 10.0, 0.0, 10.0)

        def stat(w_vec, y_vec):
            d = Dataset.from_arrays(y_vec, w_vec, x, treatments=(0, 1))
            est = fpw_set(d, build_strata(d), cfg)
            return (est.interval.lo, est.interval.hi)

        lo, hi = enumerate_expectation(stat, pot, model, strata)
        theta = mu1 - mu0
        assert lo <= theta + 1e-12
        assert hi >= theta - 1e-12


class TestWmdIpw:
    def test_wmd_hand_example(self):
        data, strata = _make([5.0, 3.0], [1, 0], [1, 1])
        assert wmd_estimate(data, strata, ATE_CFG) == pytest.approx(2.0, abs=1e-12)

    def test_wmd_all_control_stratum_contributes_zero_treated_term(self):
        data, strata = _make([5.0, 3.0], [0, 0], [1, 1])
        assert wmd_estimate(data, strata, ATE_CFG) == pytest.approx(-4.0, abs=1e-12)

    def test_ipw_clamp_hand_example(self):
        data, strata = _make([5.0, 3.0], [1, 0], [1, 1])
        # Leave-one-out propensities are 0, clamped to 1/(2N-2) = 0.5.
        assert ipw_fs_estimate(data, strata, ATE_CFG) == pytest.approx(2.0, abs=1e-12)

    def test_ipw_biased_in_enumeration(self):
        data, strata = _make([0.0, 0.0, 0.0], [0, 0, 0], [1, 1, 1])
        mu0, mu1 = 1.0, 4.0
        pot = np.column_stack([np.full(3, mu0), np.full(3, mu1)])
        model = AssignmentModel.binary([0.3])

        def stat(w_vec, y_vec):
            d = Dataset.from_arrays(y_vec, w_vec, [1] * 3, treatments=(0, 1))
            return ipw_fs_estimate(d, build_strata(d), ATE_CFG)

        value = enumerate_expectation(stat, pot, model, strata)
        assert abs(value - (mu1 - mu0)) > 0.05

    def test_ipw_balanced_large_stratum_close_to_subsample_mean(self):
        rng = np.random.default_rng(8)
        n = 60
        w = np.array([1, 0] * (n // 2))
        y = rng.normal(5.0, 1.0, n)
        data, strata = _make(y, w, [1] * n)
        ipw = ipw_fs_estimate(data, strata, ATE_CFG)
        sub = y[w == 1].mean() - y[w == 0].mean()
        assert ipw == pytest.approx(sub, rel=0.05)


class TestScaledAte:
    def test_zero_outcomes(self):
        data, strata = _make([0.0, 0.0], [1, 0], [1, 1])
        assert scaled_ate(data, strata, 1, 0) == 0.0

    def test_hand_example(self):
        data, strata = _make([5.0, 3.0], [1, 0], [1, 1])
        assert scaled_ate(data, strata, 1, 0) == pytest.approx(1.0, abs=1e-14)

    def test_identical_treatments_rejected(self):
        data, strata = _make([5.0, 3.0], [1, 0], [1, 1])
        with pytest.raises(ConfigError):
            scaled_ate(data, strata, 1, 1)

    def test_enumeration_matches_scaled_moment(self):
        # N = 3, lambda1 = 0.3, constant potential outcomes 4 and 1:
        # E[T] = lambda1 lambda0 (mu1 - mu0) = 0.3 * 0.7 * 3 = 0.63.
        data, strata = _make([0.0] * 3, [0] * 3, [1] * 3)
        pot = np.column_stack([np.ones(3), np.full(3, 4.0)])
        model = AssignmentModel.binary([0.3])

        def stat(w_vec, y_vec):
            d = Dataset.from_arrays(y_vec, w_vec, [1] * 3, treatments=(0, 1))
            return scaled_ate(d, build_strata(d), 1, 0)

        value = enumerate_expectation(stat, pot, model, strata)
        assert value == pytest.approx(0.63, abs=1e-12)


class TestEnumerateExpectation:
    def test_total_probability(self):
        data, strata = _make([0.0] * 4, [0] * 4, [1, 1, 2, 2])
        model = AssignmentModel.binary([0.2, 0.7])
        value = enumerate_expectation(
            lambda w, y: 1.0, np.zeros((4, 2)), model, strata
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_vacancy_probability(self):
        # P{no treated in a stratum of size N} = (1 - lambda)^N.
        data, strata = _make([0.0] * 3, [0] * 3, [1] * 3)
        model = AssignmentModel.binary([0.4])
        value = enumerate_expectation(
            lambda w, y: float(np.all(w != 1)), np.zeros((3, 2)), model, strata
        )
        assert value == pytest.approx(0.6**3, abs=1e-12)

    def test_guard(self):
        n = 30
        data, strata = _make([0.0] * n, [0] * n, [1] * n)
        model = AssignmentModel.binary([0.5])
        with pytest.raises(EnumerationTooLarge):
            enumerate_expectation(lambda w, y: 1.0, np.zeros((n, 2)), model, strata)

    def test_probabilities_off_one_rejected(self):
        # Each row is within the model's own 1e-12 check, but the product
        # over 12 units totals (1 + 9e-13)^12, about 1 + 1.08e-11.
        _, strata = _make([0.0] * 12, [0] * 12, [1] * 12)
        model = AssignmentModel(lam=[[0.3, 0.7 + 9e-13]])
        with pytest.raises(ConfigError, match="assignment probabilities sum to"):
            enumerate_expectation(lambda w, y: 1.0, np.zeros((12, 2)), model, strata)

    @pytest.mark.parametrize("offset", [8e-14, -8e-14], ids=["above", "below"])
    def test_probabilities_near_one_accepted(self, offset):
        # The total is (1 + offset)^12, about 9.6e-13 off 1: inside the guard.
        _, strata = _make([0.0] * 12, [0] * 12, [1] * 12)
        model = AssignmentModel(lam=[[0.3, 0.7 + offset]])
        value = enumerate_expectation(lambda w, y: 1.0, np.zeros((12, 2)), model, strata)
        assert abs(value - 1.0) < 1e-12

    def test_heterogeneous_outcomes_enter_via_assignment(self):
        data, strata = _make([0.0, 0.0], [0, 0], [1, 1])
        pot = np.array([[1.0, 10.0], [2.0, 20.0]])
        model = AssignmentModel.binary([0.5])
        # E[sum of realized outcomes] = sum_i E[Y_i] = (1.5 + 11) ... per unit:
        # unit 1: 0.5*1 + 0.5*10 = 5.5; unit 2: 0.5*2 + 0.5*20 = 11.
        value = enumerate_expectation(lambda w, y: float(np.sum(y)), pot, model, strata)
        assert value == pytest.approx(16.5, abs=1e-12)

    @pytest.mark.parametrize("rows", [4, 8], ids=["fewer", "more"])
    def test_outcome_rows_must_match_units(self, rows):
        data, strata = _make([0.0] * 6, [0] * 6, [1, 1, 1, 2, 2, 2])
        model = AssignmentModel.binary([0.3, 0.6])
        with pytest.raises(ConfigError, match="potential outcomes"):
            enumerate_expectation(lambda w, y: float(np.sum(y)), np.ones((rows, 2)), model, strata)

    @pytest.mark.parametrize("lam1", [[0.3], [0.3, 0.6, 0.5]], ids=["fewer", "more"])
    def test_model_strata_must_match_design(self, lam1):
        data, strata = _make([0.0] * 4, [0] * 4, [1, 1, 2, 2])
        model = AssignmentModel.binary(lam1)
        with pytest.raises(ConfigError, match="strata"):
            enumerate_expectation(lambda w, y: 1.0, np.zeros((4, 2)), model, strata)

    def test_statistic_width_must_not_change(self):
        data, strata = _make([0.0] * 2, [0] * 2, [1, 1])
        widths = iter([2, 3, 3, 3])
        with pytest.raises(ConfigError, match="returned 3 values after returning 2"):
            enumerate_expectation(
                lambda w, y: np.ones(next(widths)),
                np.zeros((2, 2)),
                AssignmentModel.binary([0.5]),
                strata,
            )

    @pytest.mark.parametrize(
        "outputs, before",
        [
            ([(1.0, 2.0), 3.0], "2 values"),
            ([1.0, (1.0, 2.0)], "a scalar"),
            ([1.0, np.array([5.0])], "a scalar"),
        ],
        ids=["vector-then-scalar", "scalar-then-tuple", "scalar-then-array"],
    )
    def test_statistic_must_not_switch_scalar_and_vector(self, outputs, before):
        _, strata = _make([0.0] * 2, [0] * 2, [1, 1])
        values = iter(outputs + [outputs[-1]] * 2)
        with pytest.raises(ConfigError, match=f"after returning {before}"):
            enumerate_expectation(
                lambda w, y: next(values),
                np.zeros((2, 2)),
                AssignmentModel.binary([0.5]),
                strata,
            )


class TestSetEstimate:
    def test_ordering_enforced(self):
        with pytest.raises(ConfigError):
            SetEstimate(2.0, 1.0)

    def test_midpoint(self):
        assert SetEstimate(1.0, 3.0).midpoint == 2.0


class TestDatasetMustMatchStrata:
    ESTIMATORS = {
        "shrinkage_mean": lambda d, s: shrinkage_mean(d, s, 1, 0),
        "scaled_ate": lambda d, s: scaled_ate(d, s, 1, 0),
        "fpw_set": lambda d, s: fpw_set(d, s, ATE_CFG),
        "wmd_estimate": lambda d, s: wmd_estimate(d, s, ATE_CFG),
        "ipw_fs_estimate": lambda d, s: ipw_fs_estimate(d, s, ATE_CFG),
    }

    @pytest.mark.parametrize("n", [5, 7], ids=["shorter", "longer"])
    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_other_number_of_units_rejected(self, name, n):
        _, strata = _make([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0, 1, 0, 1, 0, 1], [0, 0, 0, 1, 1, 1])
        other, _ = _make(np.arange(float(n)), np.arange(n) // 2 % 2, np.arange(n) % 2)
        with pytest.raises(ConfigError, match=f"dataset has {n} units, the strata index 6"):
            self.ESTIMATORS[name](other, strata)


# ---------------------------------------------------------------------------
# Loop reference: the per-unit implementations that the vectorised
# finite-sample layer replaced. Every float must match them exactly.
# ---------------------------------------------------------------------------


def _ref_treated_counts(data, strata, w):
    hits = (data.w == w).astype(np.int64)
    return np.bincount(strata.labels, weights=hits, minlength=strata.n_strata).astype(np.int64)


def _ref_stratum_counts(w2d, strata):
    counts = np.empty((w2d.shape[0], strata.n_strata))
    for k, idx in enumerate(strata.members):
        counts[:, k] = w2d[:, idx].sum(axis=1)
    return counts


def _ref_shrinkage_mean(data, strata, w, k):
    idx = strata.members[k]
    n_k = strata.counts[k]
    m_w = int(np.sum(data.w[idx] == w))
    total = 0.0
    for i in idx:
        if data.w[i] == w:
            r_hat = n_k / (1.0 + (m_w - 1))
            total += r_hat * data.y[i]
    return total / n_k


def _ref_pooled_mean_endpoint(data, strata, w, t, pool_weights):
    n = data.n
    k_n = strata.n_strata
    counts = strata.counts
    m_w = _ref_treated_counts(data, strata, w)
    mu_tilde = np.array([_ref_shrinkage_mean(data, strata, w, k) for k in range(k_n)])
    vacant = (m_w == 0).astype(float)
    mu_hat = mu_tilde + t * vacant
    is_w = data.w == w
    r_hat = counts[strata.labels] / (1.0 + m_w[strata.labels] - is_w)
    base = r_hat * is_w * data.y
    if k_n == 1:
        imputed = t * vacant[strata.labels]
    else:
        imputed = np.zeros(n)
        for k in range(k_n):
            if not vacant[k]:
                continue
            others = [j for j in range(k_n) if j != k]
            if pool_weights is None:
                weights = counts[others] / (n - counts[k])
            else:
                weights = np.array([pool_weights(w, j, k) for j in others], dtype=float)
            imputed[strata.members[k]] = float(weights @ mu_hat[others])
    return float(np.mean(base + imputed))


def _ref_fpw_interval(data, strata, cfg, per_w):
    lo_terms, hi_terms = [], []
    for w, (lo, hi) in per_w.items():
        kap = cfg.kappa[w]
        lo_terms.append(kap * (lo if kap > 0 else hi))
        hi_terms.append(kap * (hi if kap > 0 else lo))
    return math.fsum(lo_terms), math.fsum(hi_terms)


def _ref_wmd_estimate(data, strata, cfg):
    terms = []
    for w, kap in cfg.kappa.items():
        if kap == 0.0:
            continue
        for k in range(strata.n_strata):
            mu = _ref_shrinkage_mean(data, strata, w, k)
            terms.append(kap * strata.counts[k] / data.n * mu)
    return math.fsum(terms)


def _ref_ipw_fs_estimate(data, strata, cfg):
    counts = strata.counts
    terms = []
    for w, kap in cfg.kappa.items():
        if kap == 0.0:
            continue
        m_w = _ref_treated_counts(data, strata, w)
        for k in range(strata.n_strata):
            n_k = counts[k]
            floor = 1.0 / (2.0 * n_k - 2.0)
            acc = 0.0
            for i in strata.members[k]:
                if data.w[i] != w:
                    continue
                p_hat = (m_w[k] - 1) / (n_k - 1)
                acc += data.y[i] / max(p_hat, floor)
            terms.append(kap * (n_k / data.n) * acc / n_k)
    return math.fsum(terms)


def _ref_scaled_ate(data, strata, a, b):
    labels = strata.labels
    m_a = _ref_treated_counts(data, strata, a)
    m_b = _ref_treated_counts(data, strata, b)
    denom = strata.counts[labels] - 1.0
    p_a = (m_a[labels] - (data.w == a)) / denom
    p_b = (m_b[labels] - (data.w == b)) / denom
    return float(np.mean((p_b * (data.w == a) - p_a * (data.w == b)) * data.y))


def _ref_statistic_weights(name, w2d, strata):
    labels = strata.labels
    n_k = strata.counts[labels].astype(float)
    m1 = _ref_stratum_counts(w2d, strata)[:, labels]
    m0 = n_k[None, :] - m1
    treated = w2d == 1
    control = ~treated
    p1 = (m1 - treated) / (n_k - 1.0)
    p0 = (m0 - control) / (n_k - 1.0)
    if name == "t_hat":
        return p0 * treated - p1 * control
    if name == "wmd":
        return n_k * (treated / np.maximum(1.0, m1) - control / np.maximum(1.0, m0))
    floor = 1.0 / (2.0 * n_k - 2.0)
    return treated / np.maximum(p1, floor) - control / np.maximum(p0, floor)


def _dirichlet_pool(rng, k_n, treatments):
    table = {}
    for w in treatments:
        for k in range(k_n):
            share = rng.dirichlet(np.ones(k_n - 1))
            others = [j for j in range(k_n) if j != k]
            table.update({(w, j, k): float(s) for j, s in zip(others, share)})
    return lambda w, j, k: table[(w, j, k)]


def _random_design(rng):
    k_n = int(rng.integers(1, 5))
    sizes = rng.integers(2, 7, k_n)
    x = np.repeat(np.arange(k_n), sizes)
    rng.shuffle(x)
    lam1 = rng.choice([0.05, 0.2, 0.5, 0.8, 0.95], k_n)
    w = (rng.random(x.size) < lam1[x]).astype(np.int64)
    y = rng.normal(0.0, 10.0, x.size) * rng.choice([1e-3, 1.0, 1e3], x.size)
    lo0, lo1 = rng.normal(0.0, 5.0, 2)
    cfg = FsConfig.binary_ate(lo0, lo0 + rng.uniform(0, 20), lo1, lo1 + rng.uniform(0, 20))
    pool = _dirichlet_pool(rng, k_n, (0, 1)) if k_n > 1 and rng.random() < 0.5 else None
    return (y, w, x), cfg, pool


def _edge_case(rng, kind, y, w, x):
    """Turn a random design's (y, w, x) into one of four edge cases:
    all-negative outcomes, outcomes with signed zeros (every one -0.0 at
    times), a single stratum, or both arms in every stratum (nothing
    vacant). Every row of a block (R, n) is changed alike."""
    y, w, x = y.copy(), w.copy(), x.copy()
    if kind == 0:
        y = -np.abs(y)
    elif kind == 1:
        y[rng.random(y.shape) < (1.0 if rng.random() < 0.3 else 0.5)] = -0.0
    elif kind == 2:
        x[:] = 0
        y[rng.random(y.shape) < 0.5] = -0.0
    else:
        for k in np.unique(x):
            first, second = np.flatnonzero(x == k)[:2]
            w[..., first], w[..., second] = 0, 1
    return y, w, x


def _designs():
    dgp = FiniteSampleDgp(n=50, lam1=0.02)
    for seed in range(10):
        data = dgp.generate(RngHandle(seed).generator())
        yield f"dgp{seed}", data, dgp.fs_config(), None
    rng = np.random.default_rng(20260)
    for i in range(300):
        (y, w, x), cfg, pool = _random_design(rng)
        yield f"random{i}", Dataset.from_arrays(y, w, x, treatments=(0, 1)), cfg, pool
    for i in range(200):
        (y, w, x), cfg, pool = _random_design(rng)
        y, w, x = _edge_case(rng, i % 4, y, w, x)
        if np.unique(x).size == 1:
            pool = None
        yield f"edge{i}", Dataset.from_arrays(y, w, x, treatments=(0, 1)), cfg, pool
    yield from _two_strata_vacancies(rng)


def _two_strata_vacancies(rng):
    """K = 2 designs in which stratum k is vacant in the arm, for every
    (arm, k): with default pooling and with one custom weight a little off
    1.0 (within the 1e-9 tolerance), so the imputed value is a true
    multiply; with all-negative, mixed and positive bounds."""
    configs = [
        FsConfig.binary_ate(-7.5, -1.25, -30.0, -2.0),
        FsConfig.binary_ate(-3.0, 4.0, -0.5, 2.5),
        FsConfig.binary_ate(6.0, 14.0, 13.0, 27.0),
    ]
    pools = [None, lambda arm, j, k: 1.0 - 4e-10, lambda arm, j, k: 1.0 + 4e-10]
    for arm, k, (c, cfg), (p, pool) in itertools.product(
        (0, 1), (0, 1), enumerate(configs), enumerate(pools)
    ):
        x = np.repeat([0, 1], [3, 4])
        w = np.array([0, 1, 1, 0, 1, 0, 1])
        w[x == k] = 1 - arm
        y = rng.normal(0.0, 10.0, x.size) * rng.choice([1e-3, 1.0, 1e3])
        y[rng.random(x.size) < 0.3] = -0.0
        data = Dataset.from_arrays(y, w, x, treatments=(0, 1))
        yield f"vacant{arm}{k}_{c}{p}", data, cfg, pool


def _bits(*values):
    """The bytes of each float: unlike ``==``, tells -0.0 from +0.0."""
    return [np.float64(v).tobytes() for v in values]


class TestCollapseMatchesLoopReference:
    """The vectorised finite-sample layer against the loops it replaced."""

    def test_designs_cover_two_strata_vacancies(self):
        # The K = 2 imputation has its own one-pass form; the designs must
        # leave each stratum vacant in each arm, under negative bounds and
        # under custom weights other than 1.0.
        seen = set()
        for name, data, cfg, pool in _designs():
            strata = build_strata(data)
            if strata.n_strata != 2:
                continue
            custom = pool is not None and pool(0, 1, 0) != 1.0
            for arm in (0, 1):
                negative = min(cfg.bound_for(arm)) < 0
                for k in np.flatnonzero(strata.count(data.w == arm) == 0).tolist():
                    seen.add((arm, k, negative, custom))
        assert seen == set(itertools.product((0, 1), (0, 1), (False, True), (False, True)))

    def test_every_float_equals_the_loop_reference(self):
        for name, data, cfg, pool in _designs():
            strata = build_strata(data)
            k_n = strata.n_strata
            for w in (0, 1):
                m_w = _ref_treated_counts(data, strata, w)
                assert np.array_equal(strata.count(data.w == w), m_w), name
                for k in range(-k_n, k_n):
                    ref = _ref_shrinkage_mean(data, strata, w, k)
                    assert _bits(shrinkage_mean(data, strata, w, k)) == _bits(ref), (name, k)
            est = fpw_set(data, strata, cfg, pool_weights=pool)
            ref_per_w = {
                w: tuple(
                    _ref_pooled_mean_endpoint(data, strata, w, t, pool) for t in cfg.bound_for(w)
                )
                for w in (0, 1)
            }
            for w in (0, 1):
                assert _bits(est.per_w[w].lo, est.per_w[w].hi) == _bits(*ref_per_w[w]), name
            ref = _ref_fpw_interval(data, strata, cfg, ref_per_w)
            assert _bits(est.interval.lo, est.interval.hi) == _bits(*ref), name
            for got, ref in [
                (wmd_estimate(data, strata, cfg), _ref_wmd_estimate(data, strata, cfg)),
                (ipw_fs_estimate(data, strata, cfg), _ref_ipw_fs_estimate(data, strata, cfg)),
                (scaled_ate(data, strata, 1, 0), _ref_scaled_ate(data, strata, 1, 0)),
            ]:
                assert _bits(got) == _bits(ref), name

    def test_batched_counts_and_statistic_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            (y, w, x), _, _ = _random_design(rng)
            data = Dataset.from_arrays(y, w, x, treatments=(0, 1))
            strata = build_strata(data)
            batch = rng.integers(0, 2, (int(rng.integers(1, 40)), data.n))
            ref = _ref_stratum_counts(batch, strata)
            got = strata.count(batch == 1)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)
            for row, ref_row in zip(batch, ref):  # one assignment: the bincount path
                one = strata.count(row == 1)
                assert one.dtype == np.int64 and np.array_equal(one, ref_row)
            for stat in STATISTICS:
                q = statistic_weights(stat, batch, strata)
                assert q.tobytes() == _ref_statistic_weights(stat, batch, strata).tobytes()


# ---------------------------------------------------------------------------
# Loop reference: the per-assignment enumeration that the chunked one
# replaced. Every result, and every call to the statistic, must match it.
# ---------------------------------------------------------------------------


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


def _ref_enumerate_expectation(statistic, potential_outcomes, model, strata):
    pot = np.asarray(potential_outcomes, dtype=float)
    n = pot.shape[0]
    lam_per_unit = model.lam[strata.labels, :]
    treat_values = np.asarray(model.treatments)
    rows = np.arange(n)
    prob_acc = _Accumulator()
    stat_acc = None
    scalar_out = True
    for assign in itertools.product(range(len(model.treatments)), repeat=n):
        idx = np.asarray(assign)
        p = float(np.prod(lam_per_unit[rows, idx]))
        value = statistic(treat_values[idx], pot[rows, idx])
        if stat_acc is None:
            scalar_out = np.isscalar(value) or np.ndim(value) == 0
            stat_acc = [_Accumulator() for _ in range(1 if scalar_out else len(value))]
        if scalar_out:
            stat_acc[0].add(p * float(value))
        else:
            for acc, v in zip(stat_acc, value):
                acc.add(p * float(v))
        prob_acc.add(p)
    if scalar_out:
        return stat_acc[0].value()
    return np.array([acc.value() for acc in stat_acc])


def _random_enumeration(rng):
    """A random design, multivalued model and potential outcomes."""
    arms = int(rng.choice([2, 3]))
    n = int(rng.integers(1, 11 if arms == 2 else 9))
    k_n = int(rng.integers(1, min(3, n) + 1))
    labels = np.concatenate([np.arange(k_n), rng.integers(0, k_n, n - k_n)])
    rng.shuffle(labels)
    members = tuple(np.flatnonzero(labels == k) for k in range(k_n))
    strata = StrataIndex(members, np.array([m.size for m in members]), labels)
    lam = rng.uniform(0.02, 1.0, (k_n, arms))
    lam /= lam.sum(axis=1, keepdims=True)
    treatments = tuple(sorted(rng.choice(6, arms, replace=False).tolist()))
    pot = rng.normal(0.0, 10.0, (n, arms)) * rng.choice([1e-3, 1.0, 1e3], (n, arms))
    return pot, AssignmentModel(lam, treatments), strata


def _recording(stat, log):
    """``stat``, logging the dtypes and bytes of every (w, y) it receives."""

    def wrapped(w, y):
        log.append((w.dtype, w.tobytes(), y.dtype, y.tobytes()))
        return stat(w, y)

    return wrapped


class TestChunkedEnumerationMatchesLoopReference:
    """The chunked enumeration against the per-assignment loop it replaced."""

    STATISTICS = {
        "scalar": lambda w, y: float(np.dot(w, y) - y.sum() / w.size),
        "tuple": lambda w, y: (float(y.max()), float(np.mean(y * (w == w[0])))),
        "ndarray": lambda w, y: np.cumsum(y * w)[-3:],
    }

    def test_results_and_statistic_calls_equal_the_loop(self):
        rng = np.random.default_rng(20261)
        for case in range(60):
            pot, model, strata = _random_enumeration(rng)
            for kind, stat in self.STATISTICS.items():
                calls, ref_calls = [], []
                got = enumerate_expectation(_recording(stat, calls), pot, model, strata)
                ref = _ref_enumerate_expectation(_recording(stat, ref_calls), pot, model, strata)
                assert calls == ref_calls, (case, kind)
                assert type(got) is type(ref), (case, kind)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (case, kind)


# ---------------------------------------------------------------------------
# Block forms: each private kernel on a block of replications (R, n) that
# share one StrataIndex must give, row for row, the bytes of the public
# wrapper on that row's assignment.
# ---------------------------------------------------------------------------


class TestBlockKernelsMatchOneAssignment:
    def test_every_row_equals_the_wrapper(self):
        rng = np.random.default_rng(20262)
        for case in range(120):
            (y, w, x), cfg, pool = _random_design(rng)
            rows = int(rng.integers(1, 30))
            lam1 = rng.choice([0.05, 0.5, 0.95], x.size)
            w_block = (rng.random((rows, x.size)) < lam1).astype(np.int64)
            y_block = rng.normal(0.0, 10.0, (rows, x.size)) * rng.choice([1e-3, 1.0, 1e3])
            if case >= 60:
                y_block, w_block, x = _edge_case(rng, case % 4, y_block, w_block, x)
                if np.unique(x).size == 1:
                    pool = None
            strata = build_strata(Dataset.from_arrays(y_block[0], w_block[0], x, treatments=(0, 1)))
            lo, hi, per_w = _fpw_ends(y_block, w_block, strata, cfg, pool)
            wmd = _wmd(y_block, w_block, strata, cfg)
            ipw = _ipw_fs(y_block, w_block, strata, cfg)
            scaled = _scaled(y_block, w_block, strata, 1, 0)
            means = {arm: _shrinkage_means(y_block, w_block, strata, arm) for arm in (0, 1)}
            for r in range(rows):
                one = Dataset.from_arrays(y_block[r], w_block[r], x, treatments=(0, 1))
                where = (case, r)
                est = fpw_set(one, strata, cfg, pool_weights=pool)
                assert _bits(lo[r], hi[r]) == _bits(est.interval.lo, est.interval.hi), where
                for arm, (arm_lo, arm_hi) in per_w.items():
                    ends = _bits(est.per_w[arm].lo, est.per_w[arm].hi)
                    assert _bits(arm_lo[r], arm_hi[r]) == ends, where
                    for k in range(-strata.n_strata, strata.n_strata):
                        mean = shrinkage_mean(one, strata, arm, k)
                        assert _bits(means[arm][r, k]) == _bits(mean), (where, k)
                assert _bits(wmd[r]) == _bits(wmd_estimate(one, strata, cfg)), where
                assert _bits(ipw[r]) == _bits(ipw_fs_estimate(one, strata, cfg)), where
                assert _bits(scaled[r]) == _bits(scaled_ate(one, strata, 1, 0)), where

    def test_two_strata_pooling_equals_the_wrapper(self):
        # Rows that leave either stratum, both or neither vacant in an arm,
        # pooled with a custom weight other than 1.0 as well as by default.
        rng = np.random.default_rng(20264)
        x = np.repeat([0, 1], [4, 3])
        cfg = FsConfig.binary_ate(-7.5, -1.25, -3.0, 2.0)
        for pool in (None, lambda arm, j, k: 1.0 - 4e-10, lambda arm, j, k: 1.0 + 4e-10):
            lam1 = rng.choice([0.02, 0.5, 0.98], (200, 2))[:, x]
            w_block = (rng.random(lam1.shape) < lam1).astype(np.int64)
            y_block = rng.normal(0.0, 10.0, w_block.shape)
            strata = build_strata(Dataset.from_arrays(y_block[0], w_block[0], x, treatments=(0, 1)))
            lo, hi, per_w = _fpw_ends(y_block, w_block, strata, cfg, pool)
            for r in range(len(w_block)):
                one = Dataset.from_arrays(y_block[r], w_block[r], x, treatments=(0, 1))
                est = fpw_set(one, strata, cfg, pool_weights=pool)
                assert _bits(lo[r], hi[r]) == _bits(est.interval.lo, est.interval.hi), r
                for arm, (arm_lo, arm_hi) in per_w.items():
                    ends = _bits(est.per_w[arm].lo, est.per_w[arm].hi)
                    assert _bits(arm_lo[r], arm_hi[r]) == ends, (arm, r)
