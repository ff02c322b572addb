"""Tests for the Monte-Carlo p-value bounds and their building blocks."""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spw
from spw import inference
from spw.data import Dataset, RngHandle, build_strata
from spw.errors import ConfigError, StatisticNotLinear
from spw.finite_sample import _CHUNK_CELLS, AssignmentModel, _scaled_weights, scaled_ate
from spw.inference import (
    STATISTICS,
    HetBounds,
    ModelClass,
    NullGrid,
    PValueBounds,
    _exceedance_counts,
    confidence_set,
    draw_omegas,
    observed_statistic,
    omega_parts,
    pvalue_bounds,
    statistic_weights,
)


def _pair_dataset(y=(5.0, 3.0), w=(1, 0)):
    data = Dataset.from_arrays(list(y), list(w), [1, 1], treatments=(0, 1))
    return data, build_strata(data)


def _bigger_dataset(seed=0, n=30):
    rng = np.random.default_rng(seed)
    x = np.where(np.arange(n) < 0.8 * n, 1, 2)
    lam = np.where(x == 1, 0.3, 0.7)
    w = (rng.random(n) < lam).astype(int)
    y = rng.normal(2.0, 1.0, n) + 3.0 * w
    data = Dataset.from_arrays(y, w, x, treatments=(0, 1))
    return data, build_strata(data)


class TestStatisticWeights:
    def test_t_hat_weights_match_scaled_ate(self):
        data, strata = _bigger_dataset(3)
        q = statistic_weights("t_hat", data.w, strata)
        assert float(np.mean(q * data.y)) == pytest.approx(
            scaled_ate(data, strata, 1, 0), abs=1e-14
        )

    def test_unknown_statistic_rejected(self):
        data, strata = _pair_dataset()
        with pytest.raises(StatisticNotLinear):
            statistic_weights("hodges_lehmann", data.w, strata)

    @pytest.mark.parametrize("name", ["t_hat", "wmd", "ipw"])
    def test_weights_linear_reproduce_estimators(self, name):
        from spw.finite_sample import FsConfig, ipw_fs_estimate, wmd_estimate

        cfg = FsConfig.binary_ate(-10, 10, -10, 10)
        data, strata = _bigger_dataset(9)
        value = observed_statistic(data, strata, name)
        if name == "t_hat":
            assert value == scaled_ate(data, strata, 1, 0)
        elif name == "wmd":
            assert value == pytest.approx(wmd_estimate(data, strata, cfg), abs=1e-12)
        elif name == "ipw":
            assert value == pytest.approx(ipw_fs_estimate(data, strata, cfg), abs=1e-12)


class TestOmegaParts:
    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_fixed_point_draw(self, statistic):
        data, strata = _bigger_dataset(5)
        om = omega_parts(data, strata, data.w, statistic)[0]
        assert om[0] == observed_statistic(data, strata, statistic)
        assert om[1] == 0.0

    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_fixed_point_at_any_row_of_a_batch(self, statistic):
        rng = np.random.default_rng(41)
        for _ in range(20):
            data, strata = _bigger_dataset(int(rng.integers(1000)), int(rng.integers(20, 200)))
            batch = (rng.random((int(rng.integers(2, 300)), data.n)) < 0.5).astype(np.int64)
            row = int(rng.integers(batch.shape[0]))
            batch[row] = data.w
            om = omega_parts(data, strata, batch, statistic)
            assert om[row, 0] == observed_statistic(data, strata, statistic)
            assert np.all(om[row, 1:] == 0.0)

    def test_positive_negative_split(self):
        # The slope is its own positive part; its negative part is +0.0.
        data, strata = _bigger_dataset(7)
        rng = np.random.default_rng(0)
        w_sim = (rng.random((50, data.n)) < 0.5).astype(int)
        om = omega_parts(data, strata, w_sim, "t_hat")
        ref = _where_omegas(data, strata, w_sim, "t_hat")
        assert om.shape == (50, 2) and np.all(om[:, 1] >= 0)
        assert om[:, 1].tobytes() == ref[:, 2].tobytes()
        assert np.all(ref[:, 3] == 0.0) and not np.any(np.signbit(ref[:, 3]))

    def test_exhaustive_two_unit_stratum(self):
        # All four assignment vectors, hand-evaluated T-hat weights.
        y1, y2 = 5.0, 3.0
        data, strata = _pair_dataset((y1, y2), (1, 0))
        cases = {
            (1, 0): (0.5 * (y1 - y2), 0.0),
            (0, 1): (0.5 * (y2 - y1), 1.0),
            (1, 1): (0.0, 0.0),
            (0, 0): (0.0, 0.0),
        }
        for sim, expected in cases.items():
            om = omega_parts(data, strata, np.array(sim), "t_hat")[0]
            np.testing.assert_allclose(om, expected, atol=1e-14)

    def test_draw_shape_and_determinism(self):
        data, strata = _bigger_dataset(1)
        model = AssignmentModel.binary([0.3, 0.7])
        a = draw_omegas(data, strata, model, "t_hat", 40, RngHandle(3).generator())
        b = draw_omegas(data, strata, model, "t_hat", 40, RngHandle(3).generator())
        assert a.shape == (40, 2)
        np.testing.assert_array_equal(a, b)


def _design(rng, n, tied):
    """n units in 1-4 strata of at least two units each, with continuous or
    integer (tied) outcomes."""
    k_n = int(rng.integers(1, 5))
    x = np.concatenate([np.arange(k_n).repeat(2), rng.integers(0, k_n, n - 2 * k_n)])
    rng.shuffle(x)
    w = (rng.random(n) < 0.4).astype(np.int64)
    y = rng.normal(1.0, 3.0, n) + 2.0 * w
    if tied:
        y = np.round(y)
    data = Dataset.from_arrays(y, w, x, treatments=(0, 1))
    strata = build_strata(data)
    return data, strata, AssignmentModel.binary(rng.uniform(0.1, 0.9, k_n))


class TestBlockedDraws:
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_blocks_bytes_equal_one_batch(self, statistic, tied):
        rng = np.random.default_rng(17)
        for n in (200, 37, 11):  # 81, 442 and 1489 rows per block
            rows = max(1, inference._BLOCK_CELLS // n)
            data, strata, model = _design(rng, n, tied)
            lam1 = model.lam[strata.labels, 1]
            for draws in sorted({1, 7, rows - 1, rows, rows + 1, 4001}):
                seed = int(rng.integers(2**32))
                om = draw_omegas(data, strata, model, statistic, draws, RngHandle(seed).generator())
                sim = RngHandle(seed).generator().random((draws, n)) < lam1
                ref = omega_parts(data, strata, sim.astype(np.int64), statistic)
                assert om.shape == (draws, 2)
                assert om.tobytes() == ref.tobytes(), (n, draws)

    def test_same_bytes_for_any_blas_thread_count(self):
        code = (
            "import hashlib; import numpy as np; from spw.data import Dataset, RngHandle, "
            "build_strata; from spw.finite_sample import AssignmentModel; "
            "from spw.inference import draw_omegas\n"
            "rng = np.random.default_rng(5); x = np.arange(200) % 3; "
            "w = (rng.random(200) < 0.4).astype(int); y = rng.normal(size=200)\n"
            "data = Dataset.from_arrays(y, w, x, treatments=(0, 1)); strata = build_strata(data)\n"
            "om = draw_omegas(data, strata, AssignmentModel.binary([0.2, 0.5, 0.8]), 't_hat', "
            "4001, RngHandle(9).generator())\n"
            "print(hashlib.sha256(om.tobytes()).hexdigest())"
        )
        src = str(Path(spw.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            digests.add(done.stdout.strip())
        assert len(digests) == 1


def _where_weights(name, w, strata):
    """The statistics' weights in their per-unit form, on 0/1 integers:
    ``t_hat`` is ``scaled_ate``'s own weight function, ``ipw`` and ``wmd``
    pick a gathered treated or control weight with ``np.where``."""
    if name == "t_hat":
        return _scaled_weights(w, strata, 1, 0)
    treated = w == 1
    n_k = strata.counts.astype(float)
    m1 = strata.count(treated)
    m0 = n_k - m1
    if name == "ipw":
        loo_size = n_k - 1.0
        floor = 1.0 / (2.0 * loo_size)
        q1 = 1.0 / np.maximum((m1 - 1.0) / loo_size, floor)
        q0 = 0.0 - 1.0 / np.maximum((m0 - 1.0) / loo_size, floor)
    else:
        q1 = n_k * (1.0 / np.maximum(1.0, m1))
        q0 = n_k * (0.0 - 1.0 / np.maximum(1.0, m0))
    labels = strata.labels
    return np.where(treated, q1.take(labels, axis=-1), q0.take(labels, axis=-1))


def _where_omegas(data, strata, w_sim, name):
    """All four omega columns summed separately, the slope's positive and
    negative parts through ``np.where``."""
    q = _where_weights(name, w_sim, strata)
    u = q * (w_sim - data.w[None, :]) / data.n
    return np.column_stack([
        (q * data.y).sum(axis=1) / data.n,
        u.sum(axis=1),
        np.where(u >= 0, u, 0.0).sum(axis=1),
        np.where(u < 0, u, 0.0).sum(axis=1),
    ])


def _many_strata_design(rng):
    """Up to 50 strata of at least two units, with all units at one of
    lambda = 0.02, 0.5, 0.98 or each stratum at its own uniform lambda."""
    k_n = int(rng.integers(1, 51))
    n = int(rng.integers(2 * k_n + 1, 2 * k_n + 250))
    x = np.concatenate([np.arange(k_n).repeat(2), rng.integers(0, k_n, n - 2 * k_n)])
    rng.shuffle(x)
    lams = np.vstack([np.full((3, k_n), [[0.02], [0.5], [0.98]]), rng.uniform(0.02, 0.98, k_n)])
    lam = lams[rng.integers(4)]
    w = (rng.random(n) < lam[x]).astype(np.int64)
    y = np.round(rng.normal(1.0, 3.0, n) + 2.0 * w, int(rng.integers(0, 3)))
    data = Dataset.from_arrays(y, w, x, treatments=(0, 1))
    return data, build_strata(data), lam


class TestWeightTable:
    """The weight table's gather against the per-unit np.where forms."""

    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_weights_bytes_equal_where_form(self, statistic):
        rng = np.random.default_rng(23)
        for _ in range(60):
            data, strata, lam = _many_strata_design(rng)
            block = rng.random((int(rng.integers(1, 120)), data.n)) < lam[data.x]
            for w in (data.w, block[0], block):
                ref = _where_weights(statistic, w.astype(np.int64), strata)
                for given in (w.astype(bool), w.astype(np.int64)):
                    q = statistic_weights(statistic, given, strata)
                    assert q.flags.c_contiguous
                    assert q.shape == ref.shape and q.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_balanced_draws_bytes_equal_where_form(self, statistic):
        rng = np.random.default_rng(29)
        for _ in range(6):
            data, strata, _ = _many_strata_design(rng)
            model = AssignmentModel.binary(np.full(strata.n_strata, 0.5))
            draws = int(rng.integers(1, 1500))
            seed = int(rng.integers(2**32))
            om = draw_omegas(data, strata, model, statistic, draws, RngHandle(seed).generator())
            sim = RngHandle(seed).generator().random((draws, data.n)) < 0.5
            ref = _where_omegas(data, strata, sim.astype(np.int64), statistic)
            assert om.tobytes() == ref[:, :2].tobytes()

    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_slope_is_its_positive_part(self, statistic):
        # u = Q (W_sim - W) / n is never negative, -0.0 included, so the
        # positive part is the slope and the negative part is +0.0.
        rng = np.random.default_rng(31)
        for _ in range(40):
            data, strata, lam = _many_strata_design(rng)
            block = rng.random((int(rng.integers(1, 200)), data.n)) < lam[data.x]
            q = statistic_weights(statistic, block, strata)
            assert not np.any(q * (block - data.w) / data.n < 0)
            om = omega_parts(data, strata, block, statistic)
            ref = _where_omegas(data, strata, block.astype(np.int64), statistic)
            assert om[:, 1].tobytes() == ref[:, 1].tobytes() == ref[:, 2].tobytes()
            assert np.all(ref[:, 3] == 0.0) and not np.any(np.signbit(ref[:, 3]))

    @pytest.mark.parametrize("w", [[1, 2, 0, 1], [0, -1, 1, 0]])
    def test_non_binary_assignment_rejected(self, w):
        data = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 0, 0, 1], [0, 0, 1, 1])
        with pytest.raises(ConfigError, match="binary assignments only"):
            statistic_weights("t_hat", np.array(w), build_strata(data))


class TestPvalueBounds:
    def _run(self, c1=0.0, models=None, seed=11, draws=400, statistic="t_hat"):
        data, strata = _bigger_dataset(2)
        if models is None:
            models = ModelClass.single(AssignmentModel.binary([0.3, 0.7]))
        grid = NullGrid.from_range(-2.0, 8.0, 0.5)
        return data, strata, pvalue_bounds(
            data,
            strata,
            statistic,
            grid,
            models,
            HetBounds(c1=c1),
            draws,
            RngHandle(seed),
        )

    def test_degenerate_bounds_coincide(self):
        _, _, pvb = self._run(c1=0.0)
        np.testing.assert_array_equal(pvb.p_lo, pvb.p_hi)

    def test_ordering_and_range(self):
        models = ModelClass(
            (
                AssignmentModel.binary([0.25, 0.7]),
                AssignmentModel.binary([0.35, 0.6]),
            )
        )
        _, _, pvb = self._run(c1=0.4, models=models)
        assert np.all(pvb.p_lo <= pvb.p_hi)
        assert np.all((0.0 <= pvb.p_lo) & (pvb.p_hi <= 1.0))

    def test_values_are_multiples_of_one_over_b(self):
        _, _, pvb = self._run(draws=400)
        np.testing.assert_allclose(
            np.round(pvb.p_hi * 400), pvb.p_hi * 400, atol=1e-9
        )

    def test_seed_determinism(self):
        _, _, a = self._run(seed=21)
        _, _, b = self._run(seed=21)
        np.testing.assert_array_equal(a.p_lo, b.p_lo)
        np.testing.assert_array_equal(a.p_hi, b.p_hi)

    def test_tail_identity(self):
        # p at a huge hypothesized value equals the share of draws with a
        # positive slope (or zero slope but exceeding observed part).
        data, strata = _bigger_dataset(2)
        model = AssignmentModel.binary([0.3, 0.7])
        draws = 300
        om = draw_omegas(
            data, strata, model, "t_hat", draws, RngHandle(13).child(0).generator()
        )
        t_obs = observed_statistic(data, strata, "t_hat")
        big = 1e12
        expected = np.mean(om[:, 0] + om[:, 1] * big >= t_obs)
        pvb = pvalue_bounds(
            data,
            strata,
            "t_hat",
            NullGrid(np.array([big])),
            ModelClass.single(model),
            HetBounds(0.0),
            draws,
            RngHandle(13),
        )
        assert pvb.p_hi[0] == pytest.approx(expected, abs=1e-12)

    def test_piecewise_constant_between_breakpoints(self):
        # Two grid points with no exceedance breakpoint between them give
        # identical Monte-Carlo p-values.
        data, strata = _bigger_dataset(2)
        model = AssignmentModel.binary([0.3, 0.7])
        draws = 100
        om = draw_omegas(
            data, strata, model, "t_hat", draws, RngHandle(4).child(0).generator()
        )
        t_obs = observed_statistic(data, strata, "t_hat")
        slopes = om[:, 1]
        nz = np.abs(slopes) > 1e-12
        breaks = np.sort((t_obs - om[nz, 0]) / slopes[nz])
        mid = 0.5 * (breaks[3] + breaks[4])
        step = 0.4 * (breaks[4] - breaks[3])
        if step <= 0:
            pytest.skip("coincident breakpoints in this draw")
        grid = NullGrid(np.array([mid - 0.5 * step, mid + 0.5 * step]))
        pvb = pvalue_bounds(
            data, strata, "t_hat", grid, ModelClass.single(model),
            HetBounds(0.0), draws, RngHandle(4),
        )
        assert pvb.p_hi[0] == pvb.p_hi[1]

    def test_all_draws_tie_gives_one(self):
        # Zero outcomes: every simulated statistic equals the observed 0.
        data, strata = _pair_dataset((0.0, 0.0), (1, 0))
        pvb = pvalue_bounds(
            data,
            strata,
            "t_hat",
            NullGrid(np.array([0.0])),
            ModelClass.single(AssignmentModel.binary([0.5])),
            HetBounds(0.0),
            200,
            RngHandle(0),
        )
        assert pvb.p_hi[0] == 1.0

    def test_curves_are_counts_over_draws(self):
        _, _, pvb = self._run(c1=0.4, draws=400)
        assert pvb.k_lo.dtype.kind == pvb.k_hi.dtype.kind == "i"
        assert (pvb.k_lo / 400).tobytes() == pvb.p_lo.tobytes()
        assert (pvb.k_hi / 400).tobytes() == pvb.p_hi.tobytes()
        se_lo, se_hi = pvb.mc_standard_errors()
        np.testing.assert_array_equal(se_hi, np.sqrt(pvb.p_hi * (1 - pvb.p_hi) / 400))
        np.testing.assert_array_equal(se_lo, np.sqrt(pvb.p_lo * (1 - pvb.p_lo) / 400))

    def test_crossed_counts_rejected_exactly(self):
        _, _, pvb = self._run(c1=0.4, draws=400)
        names = ("grid", "draws", "statistic", "n_models", "c1", "observed")
        fields = {name: getattr(pvb, name) for name in names}
        PValueBounds(k_lo=pvb.k_hi, k_hi=pvb.k_hi, **fields)
        crossed = pvb.k_hi.copy()
        crossed[0] += 1
        with pytest.raises(ConfigError, match="crossed"):
            PValueBounds(k_lo=crossed, k_hi=pvb.k_hi, **fields)

    @pytest.mark.parametrize("n_strata", [2, 4])
    def test_model_with_wrong_number_of_strata_rejected(self, n_strata):
        data = Dataset.from_arrays(
            np.arange(9.0), [1, 0, 1, 0, 1, 0, 1, 0, 1], [0, 0, 0, 1, 1, 1, 2, 2, 2],
            treatments=(0, 1),
        )
        strata = build_strata(data)
        model = AssignmentModel.binary(np.linspace(0.2, 0.8, n_strata))
        message = f"assignment model has {n_strata} strata, the design 3"
        with pytest.raises(ConfigError, match=message):
            draw_omegas(data, strata, model, "t_hat", 10, RngHandle(0).generator())
        with pytest.raises(ConfigError, match=message):
            pvalue_bounds(
                data, strata, "t_hat", NullGrid(np.array([0.0])),
                ModelClass.single(model), HetBounds(0.0), 10, RngHandle(0),
            )

    @pytest.mark.parametrize(
        "model",
        [
            AssignmentModel(np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]), treatments=(0, 1, 2)),
            AssignmentModel(np.array([[0.7, 0.3], [0.4, 0.6]]), treatments=(1, 0)),
        ],
        ids=["three_arms", "reversed"],
    )
    def test_model_not_of_treatments_zero_one_rejected(self, model):
        # Column 1 of lam is read as the treated probability.
        data = Dataset.from_arrays(
            np.arange(8.0), [1, 0, 1, 0, 1, 0, 1, 0], [0, 0, 0, 0, 1, 1, 1, 1], treatments=(0, 1)
        )
        strata = build_strata(data)
        with pytest.raises(ConfigError, match=r"treatments \(0, 1\)"):
            draw_omegas(data, strata, model, "t_hat", 10, RngHandle(0).generator())
        with pytest.raises(ConfigError, match=r"treatments \(0, 1\)"):
            pvalue_bounds(
                data, strata, "t_hat", NullGrid(np.array([0.0])),
                ModelClass.single(model), HetBounds(0.0), 10, RngHandle(0),
            )

    def test_statistic_validation(self):
        data, strata = _bigger_dataset(2)
        with pytest.raises(StatisticNotLinear):
            pvalue_bounds(
                data,
                strata,
                "quantile",
                NullGrid(np.array([0.0])),
                ModelClass.single(AssignmentModel.binary([0.3, 0.7])),
                HetBounds(0.0),
                10,
                RngHandle(0),
            )


def _dense_pvalues(om0, om1, c, tbar, t_obs):
    """The dense (B, G) exceedance frequencies the bisection replaces."""
    base = om0[:, None] + np.outer(om1, tbar)
    return np.mean(base + c[:, None] >= t_obs, axis=0)


def _dense_bounds(data, strata, statistic, grid, models, het, draws, rng):
    """Reference p-value curves: the dense per-model loop over the four
    heterogeneity corners (eps3, eps4) of the slope's positive part
    (omega2 itself) and negative part (+0.0)."""
    t_obs = observed_statistic(data, strata, statistic)
    tbar = grid.values
    p_lo = np.full(tbar.shape, np.inf)
    p_hi = np.full(tbar.shape, -np.inf)
    corners = list(itertools.product((-het.c1, het.c1), repeat=2)) if het.c1 else [(0.0, 0.0)]
    for l_index, model in enumerate(models.models):
        gen = rng.child(l_index).generator()
        om = draw_omegas(data, strata, model, statistic, draws, gen)
        om = np.column_stack([om, om[:, 1], np.zeros(draws)])
        for eps3, eps4 in corners:
            c = eps3 * om[:, 2] + eps4 * om[:, 3]
            p = _dense_pvalues(om[:, 0], om[:, 1], c, tbar, t_obs)
            p_lo = np.minimum(p_lo, p)
            p_hi = np.maximum(p_hi, p)
    return p_lo, p_hi


def _adversarial_case(rng):
    """Random omegas with nonnegative slopes, zero and -0.0 among them,
    integer values (ties at t_obs), and t_obs often one draw's own
    statistic."""
    draws = int(rng.choice([1, 2, 5, 40, 257]))
    size = int(rng.choice([1, 2, 3, 17, 101]))
    if rng.random() < 0.5:
        om = rng.integers(-3, 4, (draws, 4)).astype(float)
        tbar = np.unique(rng.integers(-5, 6, size).astype(float))
    else:
        om = rng.normal(size=(draws, 4)) * 10.0 ** rng.uniform(-3, 3)
        tbar = np.unique(rng.normal(size=size) * 10.0 ** rng.uniform(-2, 2))
    om[:, 1] = np.abs(om[:, 1])
    om[rng.random(draws) < 0.2, 1] = 0.0
    om[rng.random(draws) < 0.2, 1] = -0.0
    eps3, eps4 = rng.choice([-0.5, 0.0, 0.5], 2)
    c = eps3 * om[:, 2] + eps4 * om[:, 3]
    if rng.random() < 0.7:
        b, g = rng.integers(draws), rng.integers(tbar.size)
        t_obs = float((om[b, 0] + om[b, 1] * tbar[g]) + c[b])
    else:
        t_obs = float(rng.normal())
    return om[:, 0], om[:, 1], c, tbar, t_obs


class TestExceedanceCountsMatchDense:
    @pytest.mark.parametrize("seed", range(6))
    def test_adversarial_cases_bytes_equal(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            om0, om1, c, tbar, t_obs = _adversarial_case(rng)
            counts = _exceedance_counts(om0, om1, c, tbar, t_obs)
            assert counts.dtype.kind == "i"
            assert (counts / om0.size).tobytes() == _dense_pvalues(
                om0, om1, c, tbar, t_obs
            ).tobytes()

    def test_zero_and_signed_zero_slopes(self):
        om0 = np.array([1.0, 1.0, -1.0, 0.0, -0.0, -2.0])
        om1 = np.array([0.0, -0.0, -0.0, 1.0, -0.0, 1.0])
        c = np.zeros(6)
        tbar = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        counts = _exceedance_counts(om0, om1, c, tbar, 0.0)
        # always, always, never, t >= 0, always (-0.0 >= 0), t >= 2
        np.testing.assert_array_equal(counts, [3, 3, 4, 4, 5])
        assert (counts / 6).tobytes() == _dense_pvalues(om0, om1, c, tbar, 0.0).tobytes()

    @pytest.mark.parametrize("draws,size", [(1, 1), (1, 7), (9, 1)])
    def test_single_draw_or_grid_point(self, draws, size):
        rng = np.random.default_rng(draws * 10 + size)
        for _ in range(50):
            om = rng.integers(-2, 3, (draws, 3)).astype(float)
            om[:, 1] = np.abs(om[:, 1])
            tbar = np.unique(rng.integers(-3, 4, size).astype(float))
            t_obs = float(rng.integers(-2, 3))
            got = _exceedance_counts(om[:, 0], om[:, 1], om[:, 2], tbar, t_obs) / draws
            want = _dense_pvalues(om[:, 0], om[:, 1], om[:, 2], tbar, t_obs)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("statistic", ["t_hat", "wmd", "ipw"])
    @pytest.mark.parametrize("c1", [0.0, 0.5])
    @pytest.mark.parametrize("tied", [False, True])
    def test_pvalue_curves_bytes_equal(self, statistic, c1, tied):
        if tied:
            # Eight units with small integer outcomes: many simulated
            # statistics equal t_obs exactly, others miss it by an ulp.
            data = Dataset.from_arrays(
                [1.0, 2.0, 2.0, 0.0, 1.0, 3.0, 1.0, 1.0],
                [1, 0, 1, 0, 0, 1, 1, 0],
                [1, 1, 1, 1, 2, 2, 2, 2],
                treatments=(0, 1),
            )
            strata = build_strata(data)
        else:
            data, strata = _bigger_dataset(4, n=40)
        models = ModelClass(
            (AssignmentModel.binary([0.3, 0.7]), AssignmentModel.binary([0.5, 0.5]))
        )
        grid = NullGrid.from_range(-4.0, 10.0, 0.25)
        args = (data, strata, statistic, grid, models, HetBounds(c1), 300, RngHandle(8))
        pvb = pvalue_bounds(*args)
        p_lo, p_hi = _dense_bounds(*args)
        assert pvb.p_lo.tobytes() == p_lo.tobytes()
        assert pvb.p_hi.tobytes() == p_hi.tobytes()


def _enumerated_pvalues(data, strata, model, statistic, eps, tbar, t_obs):
    """Exact p-values over all 2^n assignments, each weighted by its
    product of lambda or 1 - lambda, with ``_exceedance_counts``' test."""
    n = data.n
    lam1 = model.lam[strata.labels, 1]
    codes = np.arange(2**n)
    rows = _CHUNK_CELLS // n
    p = np.zeros(tbar.size)
    for start in range(0, codes.size, rows):
        block = (codes[start : start + rows, None] >> np.arange(n) & 1).astype(bool)
        prob = np.where(block, lam1, 1.0 - lam1).prod(axis=1)
        om = omega_parts(data, strata, block, statistic)
        p += prob @ ((om[:, :1] + om[:, 1:] * tbar) + eps * om[:, 1:] >= t_obs)
    return np.clip(p, 0.0, 1.0)


class TestEnumerationOracle:
    def test_curves_are_binomial_around_exact_pvalues(self):
        # Each curve of a single model is a Binomial(B, p(T)) count, with
        # p(T) enumerated exactly at eps = -c1 (lower) and +c1 (upper).
        # The same check against lambda + 0.05 must fail somewhere.
        rng = np.random.default_rng(0)
        draws = 4000
        tbar = NullGrid.from_range(-8.0, 12.0, 0.5).values
        shifted_excess = -np.inf
        designs = [(6, 1, False), (9, 2, True), (12, 3, False), (10, 3, True), (12, 2, True)]
        for n, k_n, tied in designs:
            x = np.concatenate([np.arange(k_n).repeat(2), rng.integers(0, k_n, n - 2 * k_n)])
            rng.shuffle(x)
            w = (rng.random(n) < 0.5).astype(np.int64)
            y = rng.normal(1.0, 3.0, n) + 2.0 * w
            data = Dataset.from_arrays(np.round(y) if tied else y, w, x, treatments=(0, 1))
            strata = build_strata(data)
            lam = rng.uniform(0.15, 0.8, k_n)
            model = AssignmentModel.binary(lam)
            for statistic in STATISTICS:
                t_obs = observed_statistic(data, strata, statistic)
                for c1 in (0.0, 0.5):
                    pvb = pvalue_bounds(
                        data, strata, statistic, NullGrid(tbar), ModelClass.single(model),
                        HetBounds(c1), draws, RngHandle(int(rng.integers(2**32))),
                    )
                    for k, eps in ((pvb.k_lo, -c1), (pvb.k_hi, c1)):
                        for lam_model, exact in ((lam, True), (lam + 0.05, False)):
                            p = _enumerated_pvalues(
                                data, strata, AssignmentModel.binary(lam_model),
                                statistic, eps, tbar, t_obs,
                            )
                            excess = np.abs(k - draws * p) - (
                                5.0 * np.sqrt(draws * p * (1.0 - p)) + 1.0
                            )
                            if exact:
                                assert np.all(excess <= 0), (n, statistic, c1, eps)
                            else:
                                shifted_excess = max(shifted_excess, excess.max())
        assert shifted_excess > 0


class TestSamplingProperties:
    def test_one_draw_flip_moves_p_by_at_most_one_over_b(self):
        # Empirical frequencies are 1/B-Lipschitz in a single draw swap.
        data, strata = _bigger_dataset(2)
        draws = 120
        rng = RngHandle(31).generator()
        lam1 = np.where(strata.labels == 0, 0.3, 0.7)
        w_sim = (rng.random((draws, data.n)) < lam1[None, :]).astype(int)
        t_obs = observed_statistic(data, strata, "t_hat")
        tbar = np.linspace(-2, 8, 21)

        def pvals(sim):
            om = omega_parts(data, strata, sim, "t_hat")
            return np.mean(om[:, 0][:, None] + np.outer(om[:, 1], tbar) >= t_obs, axis=0)

        base = pvals(w_sim)
        flipped = w_sim.copy()
        flipped[0] = 1 - flipped[0]
        moved = pvals(flipped)
        assert np.max(np.abs(moved - base)) <= 1.0 / draws + 1e-12

    def test_super_uniformity_of_p_at_truth(self):
        # With the true single model and c1 = 0, the p-value at the true
        # effect is stochastically no smaller than uniform (up to MC error):
        # ECDF(alpha) <= alpha + 2 sqrt(alpha (1 - alpha) / R).
        runs, draws, effect = 200, 400, 3.0
        lam1 = [0.25, 0.75]
        model = ModelClass.single(AssignmentModel.binary(lam1))
        handle = RngHandle(99)
        pvals = np.empty(runs)
        for r in range(runs):
            gen = handle.child(r).generator()
            x = np.repeat([1, 2], [16, 4])
            lam = np.where(x == 1, lam1[0], lam1[1])
            w = (gen.random(20) < lam).astype(int)
            y = gen.normal(0.0, 1.0, 20) + effect * w
            data = Dataset.from_arrays(y, w, x, treatments=(0, 1))
            strata = build_strata(data)
            pvb = pvalue_bounds(
                data,
                strata,
                "t_hat",
                NullGrid(np.array([effect])),
                model,
                HetBounds(0.0),
                draws,
                handle.child(runs + r),
            )
            pvals[r] = pvb.p_hi[0]
        for alpha in (0.05, 0.1, 0.25, 0.5):
            ecdf = float(np.mean(pvals <= alpha))
            assert ecdf <= alpha + 2.0 * np.sqrt(alpha * (1 - alpha) / runs)


class TestConfidenceSet:
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("c1", [0.0, 0.5])
    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_curves_rise_and_set_is_a_ray(self, statistic, c1, tied):
        rng = np.random.default_rng(61)
        for _ in range(5):
            data, strata, _ = _design(rng, int(rng.integers(8, 60)), tied)
            models = ModelClass(
                tuple(
                    AssignmentModel.binary(rng.uniform(0.1, 0.9, strata.n_strata))
                    for _ in range(3)
                )
            )
            grid = NullGrid.from_range(-10.0, 14.0, 0.25)
            pvb = pvalue_bounds(
                data, strata, statistic, grid, models, HetBounds(c1), 300,
                RngHandle(int(rng.integers(2**32))),
            )
            assert np.all(np.diff(pvb.k_lo) >= 0) and np.all(np.diff(pvb.k_hi) >= 0)
            for alpha in (0.01, 0.05, 0.2, 0.5):
                kept = confidence_set(pvb, alpha)
                assert np.array_equal(kept, grid.values[grid.values.size - kept.size :])

    def test_everything_retained_when_p_is_one(self):
        data, strata = _pair_dataset((0.0, 0.0), (1, 0))
        grid = NullGrid.from_range(-1.0, 1.0, 0.5)
        pvb = pvalue_bounds(
            data, strata, "t_hat", grid,
            ModelClass.single(AssignmentModel.binary([0.5])),
            HetBounds(0.0), 100, RngHandle(0),
        )
        np.testing.assert_array_equal(confidence_set(pvb, 0.05), grid.values)

    def test_nested_in_alpha(self):
        data, strata = _bigger_dataset(6)
        grid = NullGrid.from_range(-3.0, 9.0, 0.25)
        pvb = pvalue_bounds(
            data, strata, "t_hat", grid,
            ModelClass.single(AssignmentModel.binary([0.3, 0.7])),
            HetBounds(0.2), 500, RngHandle(5),
        )
        loose = set(confidence_set(pvb, 0.5))
        tight = set(confidence_set(pvb, 0.05))
        assert loose <= tight

    def test_alpha_domain(self):
        data, strata = _bigger_dataset(6)
        pvb = pvalue_bounds(
            data, strata, "t_hat", NullGrid(np.array([0.0])),
            ModelClass.single(AssignmentModel.binary([0.3, 0.7])),
            HetBounds(0.0), 10, RngHandle(5),
        )
        with pytest.raises(ConfigError):
            confidence_set(pvb, 0.0)


class TestModelClass:
    def test_lambda_box_grid(self):
        models = ModelClass.from_lambda_boxes(
            {0: (0.1, 0.3), 1: (0.5, 0.5)}, n_strata=2, resolution=5
        )
        assert len(models.models) == 5
        lam_first = models.models[0].lam
        assert lam_first[0, 1] == pytest.approx(0.1)
        assert lam_first[1, 1] == pytest.approx(0.5)

    def test_guard_on_size(self):
        boxes = {k: (0.1, 0.9) for k in range(8)}
        with pytest.raises(ConfigError):
            ModelClass.from_lambda_boxes(boxes, n_strata=8, resolution=10)

    def test_all_strata_required(self):
        with pytest.raises(ConfigError):
            ModelClass.from_lambda_boxes({0: (0.1, 0.2)}, n_strata=2)


class TestHetAndGrid:
    def test_negative_bound_rejected(self):
        with pytest.raises(ConfigError):
            HetBounds(-0.1)

    @pytest.mark.parametrize("c1", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_rejected(self, c1):
        with pytest.raises(ConfigError, match="finite"):
            HetBounds(c1)

    @pytest.mark.parametrize(
        "lo,hi,step",
        [
            (np.nan, 2.0, 1.0),
            (0.0, np.nan, 1.0),
            (0.0, 2.0, np.nan),
            (-np.inf, 2.0, 1.0),
            (0.0, np.inf, 1.0),
            (0.0, 2.0, np.inf),
            (-1e308, 1e308, 1.0),
            (0.0, 1.0, 5e-324),
        ],
    )
    def test_grid_from_non_finite_range_rejected(self, lo, hi, step):
        with pytest.raises(ConfigError, match="grid"):
            NullGrid.from_range(lo, hi, step)

    @pytest.mark.parametrize("hi,points", [(1e20, 10**20 + 1), (1e6, 10**6 + 1)])
    def test_grid_over_point_limit_rejected(self, hi, points):
        with pytest.raises(ConfigError, match=re.escape(f"grid 0.0:{hi}:1.0 has {points} points")):
            NullGrid.from_range(0.0, hi, 1.0)

    def test_grid_at_point_limit_accepted(self):
        assert NullGrid.from_range(1.0, 1e6, 1.0).values.size == 10**6

    def test_corners(self):
        assert HetBounds(0.0).epsilon_corners() == (0.0,)
        assert HetBounds(1.0).epsilon_corners() == (-1.0, 1.0)

    def test_grid_sorted_dedup(self):
        grid = NullGrid(np.array([3.0, 1.0, 1.0, 2.0]))
        np.testing.assert_array_equal(grid.values, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0],
            [-0.0, 0.0],
            [2.0, -0.0, 1.0, 0.0, -0.0, 2.0],
            [[1.0, 0.0], [-0.0, 1.0]],
            np.round(np.random.default_rng(4).normal(size=500), 1) * np.repeat([1.0, -1.0], 250),
        ],
        ids=["zero-first", "negative-zero-first", "mixed", "two-d", "drawn"],
    )
    def test_grid_dedup_matches_np_unique(self, values):
        # The grid is deduplicated without np.unique; the values it keeps,
        # and the sign of each zero, must still be np.unique's.
        got = NullGrid(np.array(values)).values
        assert got.tobytes() == np.unique(np.array(values, dtype=float)).tobytes()

    def test_grid_from_range_inclusive(self):
        grid = NullGrid.from_range(0.0, 1.0, 0.25)
        np.testing.assert_allclose(grid.values, [0.0, 0.25, 0.5, 0.75, 1.0])
