"""Tests for the data-generating processes and the replication runner."""

import numpy as np
import pytest

import dataclasses
import math

from spw import simulate
from spw.data import Dataset, RngHandle, build_strata
from spw.errors import ConfigError, DegenerateSamples, SpwError, TooFewSamples
from spw.finite_sample import _wmd, fpw_set
from spw.simulate import (
    REPS_LIMIT,
    SAMPLE_LIMIT,
    FiniteSampleDgp,
    LargeSampleDgp,
    density_summary,
    run_study,
)


def _estimators(dgp, *names):
    table = dgp.study_estimators()
    return {name: table[name][0] for name in names or table}


class TestLargeSampleDgp:
    def test_propensity_column_is_x_fourth(self):
        data = LargeSampleDgp(n=500).generate(RngHandle(1).generator())
        np.testing.assert_array_equal(data.propensity, np.asarray(data.x) ** 4)

    def test_treated_share_matches_moment(self):
        # E[W] = E[X^4] = 1/5.
        data = LargeSampleDgp(n=20000).generate(RngHandle(2).generator())
        se = float(np.std(data.w)) / np.sqrt(data.n)
        assert abs(float(np.mean(data.w)) - 0.2) < 3 * se + 1e-3

    def test_average_effect_is_two(self):
        data = LargeSampleDgp(n=20000).generate(RngHandle(3).generator())
        tau = 3.0 - 2.0 * np.asarray(data.x)
        assert float(np.mean(tau)) == pytest.approx(2.0, abs=0.02)

    def test_passes_validation(self):
        data = LargeSampleDgp(n=100).generate(RngHandle(4).generator())
        assert data.mode == "large" and data.treatments == (0, 1)

    @pytest.mark.parametrize("beta", [(math.nan, 0.0), (math.inf, 0.0), (1e308, 1e308), (1.0,)])
    def test_beta_must_be_two_finite_numbers(self, beta):
        # generate does not validate its outcomes, so a beta that could
        # make them non-finite is refused up front.
        with pytest.raises(ConfigError, match="beta"):
            LargeSampleDgp(n=50, beta=beta)


def _assert_same_dataset(got, ref):
    """Every field of two Datasets: values, dtypes and read-only flags."""
    assert (got.treatments, got.mode) == (ref.treatments, ref.mode)
    for field in ("y", "w", "x", "x_labels", "propensity"):
        a, b = getattr(got, field), getattr(ref, field)
        if b is None:
            assert a is None, field
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
        assert a.flags.writeable is b.flags.writeable is False, field


class TestGenerateBuildsValidDatasets:
    """Both DGPs build their Dataset without ``from_arrays``; it must be the
    one ``from_arrays`` would build from the same arrays."""

    @pytest.mark.parametrize(
        "dgp",
        [FiniteSampleDgp(n=10, lam1=0.3), FiniteSampleDgp(n=50), FiniteSampleDgp(n=500, lam1=0.9)]
        + [LargeSampleDgp(n=n) for n in (3, 50, 2000)]
        + [LargeSampleDgp(n=40, beta=(1.0, 1.0))],
        ids=repr,
    )
    def test_equals_from_arrays(self, dgp):
        for seed in range(6):
            data = dgp.generate(RngHandle(seed).child(1).generator())
            x = data.x if data.mode == "large" else data.x_labels[data.x]
            ref = Dataset.from_arrays(
                data.y,
                data.w,
                x,
                mode=data.mode,
                treatments=(0, 1) if data.mode == "finite" else None,
                propensity=data.propensity,
            )
            _assert_same_dataset(data, ref)

    def test_one_armed_large_draws_declare_the_observed_label(self):
        # At n = 3 a draw is all-control with probability about 0.8^3.
        dgp = LargeSampleDgp(n=3)
        found = {}
        for seed in range(2000):
            data = dgp.generate(RngHandle(seed).generator())
            found.setdefault(data.treatments, data)
            if {(0,), (1,)} <= set(found):
                break
        assert {(0,), (1,), (0, 1)} <= set(found)
        for treatments, data in found.items():
            ref = Dataset.from_arrays(
                data.y, data.w, data.x, mode="large", propensity=data.propensity
            )
            assert ref.treatments == treatments
            _assert_same_dataset(data, ref)

    def test_finite_replications_share_one_read_only_x(self):
        dgp = FiniteSampleDgp(n=50)
        a, b = (dgp.generate(RngHandle(3).child(r).generator()) for r in range(2))
        assert a.x is b.x and a.x_labels is b.x_labels
        assert a.y is not b.y and a.w is not b.w
        with pytest.raises(ValueError):
            a.x[0] = 1


class TestFiniteSampleDgp:
    def test_stratum_sizes(self):
        data = FiniteSampleDgp(n=50).generate(RngHandle(5).generator())
        strata = build_strata(data)
        np.testing.assert_array_equal(np.sort(strata.counts), [10, 40])

    def test_control_mean_is_ten(self):
        dgp = FiniteSampleDgp(n=5000, lam1=0.5)
        data = dgp.generate(RngHandle(6).generator())
        controls = data.y[data.w == 0]
        assert float(np.mean(controls)) == pytest.approx(10.0, abs=0.15)

    def test_n_must_split_evenly(self):
        with pytest.raises(SpwError):
            FiniteSampleDgp(n=52)

    @pytest.mark.parametrize("dgp", [LargeSampleDgp, FiniteSampleDgp])
    def test_sample_size_over_limit_rejected(self, dgp):
        # SAMPLE_LIMIT is a multiple of 10, so +5 keeps the finite 80/20 split.
        with pytest.raises(ConfigError, match="is above the limit"):
            dgp(n=SAMPLE_LIMIT + 5)
        assert dgp(n=SAMPLE_LIMIT).n == SAMPLE_LIMIT

    def test_bounds_cover_outcomes(self):
        dgp = FiniteSampleDgp(n=500, lam1=0.3)
        data = dgp.generate(RngHandle(7).generator())
        b = dgp.response_bounds()
        y0 = data.y[data.w == 0]
        y1 = data.y[data.w == 1]
        assert y0.min() >= b[0][0] and y0.max() <= b[0][1]
        assert y1.min() >= b[1][0] and y1.max() <= b[1][1]


class TestStudyTable:
    @pytest.mark.parametrize(
        "dgp", [LargeSampleDgp(n=300), FiniteSampleDgp(n=50, lam1=0.1)], ids=["large", "finite"]
    )
    def test_truths_name_columns(self, dgp):
        # A truth whose key is not a column would silently drop its bias.
        data = dgp.generate(RngHandle(11).generator())
        for name, (est, truth) in dgp.study_estimators().items():
            columns = est(data).keys()
            assert set(truth) <= set(columns), name

    def test_tables_name_the_paper_estimators(self):
        assert list(LargeSampleDgp().study_estimators()) == ["npw", "ipw"]
        assert list(FiniteSampleDgp().study_estimators()) == ["fpw", "wmd", "ipw_fs", "scaled"]

    def test_large_truths(self):
        table = LargeSampleDgp().study_estimators()
        for name in ("npw", "ipw"):
            assert table[name][1] == {"b0": 3.0, "b1": -2.0, "ate": 2.0}

    def test_large_ate_truth_follows_beta(self):
        # E[beta0 + beta1 X] with X ~ U(0, 1).
        table = LargeSampleDgp(beta=(1.0, 1.0)).study_estimators()
        for name in ("npw", "ipw"):
            assert table[name][1] == {"b0": 1.0, "b1": 1.0, "ate": 1.5}


def _counting(outcomes):
    """An estimator that fails on the calls whose outcome is None and
    returns {"est": outcome} otherwise; ``calls`` collects the data of
    each call."""
    calls = []

    def est(data):
        outcome = outcomes[len(calls)]
        calls.append(data)
        if outcome is None:
            raise DegenerateSamples()
        return {"est": outcome}

    return est, calls


class TestRunStudy:
    def test_seed_determinism(self):
        dgp = FiniteSampleDgp(n=50, lam1=0.1)
        estimators = _estimators(dgp)
        a = run_study(dgp, estimators, reps=20, seed=42)
        b = run_study(dgp, estimators, reps=20, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.columns == b.columns

    def test_reps_over_limit_rejected_before_any_replication(self):
        est, calls = _counting([1.0])
        with pytest.raises(ConfigError, match=f"{REPS_LIMIT + 1} replications requested"):
            run_study(FiniteSampleDgp(n=50), {"est": est}, reps=REPS_LIMIT + 1, seed=0)
        assert calls == []

    def test_summary_bias_fields(self):
        dgp = FiniteSampleDgp(n=50, lam1=0.5)
        result = run_study(dgp, _estimators(dgp, "scaled"), reps=50, seed=3)
        summary = result.summary({"scaled.est": 2.5})
        assert "bias" in summary["scaled.est"]
        assert summary["scaled.est"]["n_ok"] == 50

    def test_estimator_errors_recorded_not_fatal(self):
        dgp = FiniteSampleDgp(n=50, lam1=0.5)
        flaky, calls = _counting([1.0, None, None, None, None])
        result = run_study(dgp, {"flaky": flaky}, reps=5, seed=1)
        assert len(calls) == 5
        assert result.error_counts["flaky"] == 4
        assert result.columns == ("flaky.est",)
        assert result.matrix[0, 0] == 1.0
        assert np.all(np.isnan(result.matrix[1:]))

    def test_first_replication_failure_keeps_later_rows(self):
        dgp = FiniteSampleDgp(n=50, lam1=0.5)
        flaky, calls = _counting([None, 2.0, 3.0, 4.0])
        result = run_study(dgp, {"flaky": flaky}, reps=4, seed=1)
        assert len(calls) == 4
        assert result.error_counts["flaky"] == 1
        assert result.columns == ("flaky.est",)
        np.testing.assert_array_equal(result.column("flaky.est"), [np.nan, 2.0, 3.0, 4.0])

    def test_never_succeeding_estimator_has_no_columns(self):
        dgp = FiniteSampleDgp(n=50, lam1=0.5)
        broken, broken_calls = _counting([None] * 3)
        steady, steady_calls = _counting([5.0, 6.0, 7.0])
        result = run_study(dgp, {"broken": broken, "steady": steady}, reps=3, seed=1)
        assert len(broken_calls) == len(steady_calls) == 3
        assert result.error_counts == {"broken": 3, "steady": 0}
        assert result.columns == ("steady.est",)
        assert result.matrix.shape == (3, 1) and result.reps == 3
        np.testing.assert_array_equal(result.column("steady.est"), [5.0, 6.0, 7.0])

    def test_each_replication_generated_once(self):
        dgp = FiniteSampleDgp(n=50, lam1=0.5)
        est, calls = _counting([1.0, 2.0])
        run_study(dgp, {"est": est}, reps=2, seed=4)
        for r, data in enumerate(calls):
            again = dgp.generate(RngHandle(4).child(r).generator())
            np.testing.assert_array_equal(data.y, again.y)

    def test_gpw_estimator_wrapper_coverage_columns(self):
        dgp = LargeSampleDgp(n=300)
        result = run_study(dgp, _estimators(dgp, "npw", "ipw"), reps=5, seed=9)
        assert "npw.cover_b0" in result.columns
        assert not any(c.startswith("ipw.cover") for c in result.columns)
        cover = result.column("npw.cover_b0")
        assert set(np.unique(cover)) <= {0.0, 1.0}


def _looped(estimators):
    """The same estimators without their block forms: run_study then
    loops over replications one at a time."""
    return {name: (lambda data, est=est: est(data)) for name, est in estimators.items()}


def _assert_same_study(got, ref):
    assert got.columns == ref.columns
    assert got.matrix.tobytes() == ref.matrix.tobytes()
    assert got.error_counts == ref.error_counts


@dataclasses.dataclass(frozen=True)
class _ReversedOddReps(FiniteSampleDgp):
    """Replications 1, 3, ... list their units in reverse, so their strata
    differ from replication 0's. Replication r's stream has spawn key
    (0, r), so r is the key's last entry."""

    def generate(self, rng):
        data = super().generate(rng)
        if rng.bit_generator.seed_seq.spawn_key[-1] % 2 == 0:
            return data
        return Dataset.from_arrays(data.y[::-1], data.w[::-1], data.x[::-1], treatments=(0, 1))


def _odd_w_sum(y, w, strata):
    """wmd, failing on every replication whose number of treated units is odd."""
    if np.any(np.add.reduce(w, -1) % 2 == 1):
        raise DegenerateSamples()
    return {"est": _wmd(y, w, strata, FiniteSampleDgp().fs_config())}


class TestBlockRoute:
    """run_study's block route against its per-replication loop."""

    def test_random_designs_and_subsets_equal_the_loop(self):
        rng = np.random.default_rng(20263)
        names = ["fpw", "wmd", "ipw_fs", "scaled"]
        for case in range(12):
            n = 5 * int(rng.integers(2, 41))  # 10 ... 200: 1638 ... 81 replications a block
            dgp = FiniteSampleDgp(n=n, lam1=float(rng.uniform(0.01, 0.99)))
            subset = [name for name in names if rng.random() < 0.6] or ["fpw"]
            reps = int(rng.integers(2, 3 * max(1, 2**14 // n)))
            seed = int(rng.integers(2**32))
            estimators = _estimators(dgp, *subset)
            got = run_study(dgp, estimators, reps=reps, seed=seed)
            ref = run_study(dgp, _looped(estimators), reps=reps, seed=seed)
            _assert_same_study(got, ref)

    def test_workload_settings_equal_the_loop(self):
        dgp = FiniteSampleDgp(n=50, lam1=0.02)
        estimators = _estimators(dgp)
        got = run_study(dgp, estimators, reps=700, seed=1)
        _assert_same_study(got, run_study(dgp, _looped(estimators), reps=700, seed=1))

    def test_raising_block_is_replayed_per_replication(self):
        dgp = FiniteSampleDgp(n=50, lam1=0.5)
        estimators = {"odd": simulate._BlockEstimator(_odd_w_sum), **_estimators(dgp, "scaled")}
        got = run_study(dgp, estimators, reps=800, seed=2)
        ref = run_study(dgp, _looped(estimators), reps=800, seed=2)
        _assert_same_study(got, ref)
        failed = np.isnan(got.column("odd.est"))
        assert 0 < got.error_counts["odd"] == failed.sum() < 800
        assert not np.isnan(got.column("scaled.est")).any()

    def test_replication_with_other_strata_runs_alone(self):
        dgp = _ReversedOddReps(n=50, lam1=0.3)
        estimators = _estimators(dgp)
        got = run_study(dgp, estimators, reps=40, seed=3)
        _assert_same_study(got, run_study(dgp, _looped(estimators), reps=40, seed=3))

    def test_one_strata_index_per_study(self, monkeypatch):
        calls = []

        def counting(data):
            calls.append(data)
            return build_strata(data)

        monkeypatch.setattr(simulate, "build_strata", counting)
        dgp = FiniteSampleDgp(n=50, lam1=0.02)
        run_study(dgp, _estimators(dgp), reps=2000, seed=0)
        assert len(calls) == 1


class TestFpwIntervalFraction:
    def test_rarely_set_valued_under_strong_overlap(self):
        # lambda = 0.5, n = 500: both strata occupied essentially always.
        dgp = FiniteSampleDgp(n=500, lam1=0.5)
        cfg = dgp.fs_config()
        intervals = 0
        reps = 200
        for r in range(reps):
            data = dgp.generate(RngHandle(77).child(r).generator())
            if not fpw_set(data, build_strata(data), cfg).is_point:
                intervals += 1
        assert intervals == 0


class TestDensitySummary:
    def test_standard_normal_density_at_zero(self):
        rng = RngHandle(8).generator()
        samples = rng.standard_normal(20000)
        dens = density_summary(samples)
        at_zero = dens.density[np.argmin(np.abs(dens.grid))]
        assert at_zero == pytest.approx(0.3989, abs=0.02)

    def test_integrates_to_one(self):
        rng = RngHandle(9).generator()
        samples = rng.normal(3.0, 2.0, 5000)
        dens = density_summary(samples)
        integral = float(
            np.sum(0.5 * (dens.density[1:] + dens.density[:-1]) * np.diff(dens.grid))
        )
        assert integral == pytest.approx(1.0, abs=0.01)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            density_summary(np.arange(10.0))

    def test_degenerate_samples(self):
        with pytest.raises(DegenerateSamples):
            density_summary(np.full(100, 2.0))

    def test_blocks_equal_one_matrix(self):
        s = RngHandle(12).generator().standard_normal(2000) * 3.0 + 1.0
        dens = density_summary(s)
        bw, grid = dens.bandwidth, dens.grid
        z = (grid[:, None] - s[None, :]) / bw
        whole = np.exp(-0.5 * z**2).sum(axis=1) / (s.size * bw * math.sqrt(2.0 * math.pi))
        assert dens.density.tobytes() == whole.tobytes()

    def test_bandwidth_recorded(self):
        rng = RngHandle(10).generator()
        dens = density_summary(rng.standard_normal(1000))
        assert dens.bandwidth > 0
