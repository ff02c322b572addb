"""Tests for dataset ingestion, strata indexing, and RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spw import data as spw_data
from spw.data import Dataset, RngHandle, build_strata, load_csv, write_csv
from spw.errors import (
    SpwError,
    EmptyDataset,
    FlavorMismatch,
    MissingColumn,
    NonFiniteValue,
    StratumTooSmall,
    UnknownTreatmentLabel,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = _write(tmp_path, "y,w,x\n5.0,1,1\n3.0,0,1\n2.0,0,2\n")
        data = load_csv(path)
        assert data.n == 3
        assert data.treatments == (0, 1)
        assert data.n_strata == 2
        np.testing.assert_allclose(data.y, [5.0, 3.0, 2.0])
        np.testing.assert_array_equal(data.w, [1, 0, 0])
        np.testing.assert_array_equal(data.x_labels[data.x], [1, 1, 2])

    def test_nan_outcome_reports_row(self, tmp_path):
        path = _write(tmp_path, "y,w,x\n5.0,1,1\nNaN,0,1\n2.0,0,2\n")
        with pytest.raises(NonFiniteValue) as err:
            load_csv(path)
        assert err.value.row == 2

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "y,w,x\n")
        with pytest.raises(EmptyDataset):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "y,w\n1.0,0\n")
        with pytest.raises(MissingColumn):
            load_csv(path)

    def test_undeclared_treatment_rejected(self, tmp_path):
        path = _write(tmp_path, "y,w,x\n1.0,2,1\n2.0,0,1\n")
        with pytest.raises(UnknownTreatmentLabel):
            load_csv(path, treatments=(0, 1))

    def test_custom_schema_and_propensity(self, tmp_path):
        path = _write(tmp_path, "out,arm,cov,e\n1.5,1,0.2,0.3\n2.5,0,0.9,0.8\n")
        data = load_csv(
            path, schema=("out", "arm", "cov"), mode="large", propensity_col="e"
        )
        np.testing.assert_allclose(data.propensity, [0.3, 0.8])
        np.testing.assert_allclose(data.x, [0.2, 0.9])

    def test_row_order_preserved(self, tmp_path):
        path = _write(tmp_path, "y,w,x\n1,0,2\n2,1,1\n3,0,2\n")
        data = load_csv(path)
        np.testing.assert_allclose(data.y, [1.0, 2.0, 3.0])


class TestRoundTrip:
    def test_finite_round_trip(self, tmp_path):
        data = Dataset.from_arrays(
            [0.1 + 1 / 3, -2.75, 5e-13], [1, 0, 1], [7, 7, 9], treatments=(0, 1, 2)
        )
        path = tmp_path / "out.csv"
        write_csv(data, path)
        again = load_csv(path, treatments=(0, 1, 2))
        np.testing.assert_array_equal(again.y, data.y)
        np.testing.assert_array_equal(again.w, data.w)
        np.testing.assert_array_equal(again.x_labels[again.x], data.x_labels[data.x])

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_large_mode_outcomes_bit_exact(self, tmp_path_factory, ys):
        tmp = tmp_path_factory.mktemp("roundtrip")
        data = Dataset.from_arrays(
            ys, [0] * len(ys), [0.5] * len(ys), mode="large"
        )
        path = tmp / "rt.csv"
        write_csv(data, path)
        again = load_csv(path, mode="large")
        np.testing.assert_array_equal(again.y, data.y)


class TestStrata:
    def test_grouping(self):
        data = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 0, 0, 0], [1, 1, 2, 2])
        strata = build_strata(data)
        assert strata.n_strata == 2
        np.testing.assert_array_equal(strata.members[0], [0, 1])
        np.testing.assert_array_equal(strata.members[1], [2, 3])
        np.testing.assert_array_equal(strata.counts, [2, 2])

    def test_single_stratum(self):
        data = Dataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 1], [1, 1, 1])
        strata = build_strata(data)
        assert strata.n_strata == 1
        np.testing.assert_array_equal(strata.counts, [3])

    def test_small_stratum_rejected(self):
        data = Dataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 0], [1, 2, 2])
        with pytest.raises(StratumTooSmall) as err:
            build_strata(data)
        assert err.value.stratum == 1

    def test_large_mode_rejected(self):
        data = Dataset.from_arrays([1.0, 2.0], [1, 0], [0.5, 0.7], mode="large")
        with pytest.raises(FlavorMismatch):
            build_strata(data)


class TestOccupancy:
    def setup_method(self):
        self.data = Dataset.from_arrays(
            [1.0, 2.0, 3.0, 4.0], [1, 0, 0, 0], [1, 1, 2, 2], treatments=(0, 1, 2)
        )
        self.strata = build_strata(self.data)

    def test_treated_counts(self):
        np.testing.assert_array_equal(self.strata.count(self.data.w == 1), [1, 0])

    def test_control_counts(self):
        np.testing.assert_array_equal(self.strata.count(self.data.w == 0), [1, 2])

    def test_absent_declared_label(self):
        np.testing.assert_array_equal(self.strata.count(self.data.w == 2), [0, 0])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=30),
        st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=30),
    )
    def test_occupancy_sums_to_counts(self, ws, xs):
        n = min(len(ws), len(xs))
        xs = [x for x in xs[:n]]
        # Duplicate labels to guarantee N_k >= 2.
        xs = xs + xs
        ws = ws[:n] + ws[:n]
        data = Dataset.from_arrays(
            np.arange(len(xs), dtype=float), ws, xs, treatments=(0, 1, 2)
        )
        strata = build_strata(data)
        total = sum(strata.count(data.w == w) for w in data.treatments)
        np.testing.assert_array_equal(total, strata.counts)

    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_batch_counts_many_strata(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.permutation(np.arange(600) // 2)  # 300 matched pairs
        data = Dataset.from_arrays(np.zeros(600), np.tile([0, 1], 300), x, treatments=(0, 1))
        strata = build_strata(data)
        batch = rng.random((rows, data.n)) < 0.5
        got = strata.count(batch)
        assert got.shape == (rows, 300) and got.dtype == np.int64
        for row, counts in zip(batch, got):
            np.testing.assert_array_equal(counts, strata.count(row))
            np.testing.assert_array_equal(counts, [row[idx].sum() for idx in strata.members])


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngHandle(42, 3).generator().random(8)
        b = RngHandle(42, 3).generator().random(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngHandle(42, 0).generator().random(8)
        b = RngHandle(42, 1).generator().random(8)
        assert not np.allclose(a, b)

    def test_child_streams_reproducible(self):
        a = RngHandle(7).child(5).generator().random(4)
        b = RngHandle(7).child(5).generator().random(4)
        np.testing.assert_array_equal(a, b)
        c = RngHandle(7).child(6).generator().random(4)
        assert not np.allclose(a, c)

    def test_restrict_prefilter(self):
        data = Dataset.from_arrays(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1, 0, 0, 1, 1, 0], [1, 1, 2, 2, 3, 3]
        )
        sub = data.restrict([1, 3])
        assert sub.n == 4
        assert set(sub.x_labels) == {1, 3}


class TestMisc:
    def test_vector_covariates_round_trip(self, tmp_path):
        data = Dataset.from_arrays(
            [1.0, 2.0],
            [1, 0],
            [[0.1, 0.9], [0.4, 0.6]],
            mode="large",
        )
        path = tmp_path / "vec.csv"
        write_csv(data, path, schema=("y", "w", ("x1", "x2")))
        again = load_csv(path, schema=("y", "w", ("x1", "x2")), mode="large")
        np.testing.assert_array_equal(again.x, data.x)

    def test_propensity_round_trip(self, tmp_path):
        data = Dataset.from_arrays(
            [1.0, 2.0], [1, 0], [0.3, 0.8], mode="large", propensity=[1 / 3, 2 / 7]
        )
        path = tmp_path / "p.csv"
        write_csv(data, path)
        again = load_csv(path, mode="large", propensity_col="e")
        np.testing.assert_array_equal(again.propensity, data.propensity)

    def test_fractional_stratum_label_message(self):
        with pytest.raises(SpwError, match="not an integer"):
            Dataset.from_arrays([1.0, 2.0], [1, 0], [1.0, 1.5])

    def test_float_typed_treatment_column(self):
        data = Dataset.from_arrays([1.0, 2.0], [1.0, 0.0], [1, 1])
        assert data.treatments == (0, 1)

    def test_float_typed_treatment_column_rejects_bad_rows(self):
        with pytest.raises(UnknownTreatmentLabel) as err:
            Dataset.from_arrays([1.0, 2.0, 3.0], [1.0, 0.5, 1.5], [1, 1, 1])
        assert (err.value.label, err.value.row) == (0.5, 2)
        with pytest.raises(NonFiniteValue) as err:
            Dataset.from_arrays([1.0, 2.0, 3.0], [1.0, 0.5, np.nan], [1, 1, 1])
        assert (err.value.row, err.value.column) == (3, "w")


    @pytest.mark.parametrize("w", [[1, 0, -3], [1.0, 0.0, -3.0]], ids=["int", "float"])
    def test_negative_treatment_label_rejected(self, w):
        with pytest.raises(UnknownTreatmentLabel) as err:
            Dataset.from_arrays([1.0, 2.0, 3.0], w, [1, 1, 1])
        assert (err.value.label, err.value.row) == (-3, 3)


def _random_doubles(seed, n=200):
    rng = np.random.default_rng(seed)
    mant = rng.uniform(-1.0, 1.0, n)
    expo = rng.integers(-300, 300, n)
    values = np.ldexp(mant, expo)
    values[:4] = (5e-324, -2.2250738585072011e-308, 1.7976931348623157e308, -0.0)
    return values


def _random_doubles_csv():
    v = _random_doubles(11)
    lines = ["y,w,x,e"]
    for i in range(v.size):
        x = format(v[(i + 1) % v.size], ".17g") if i % 2 else format(v[i], ".6e")
        lines.append(f"{float(v[i])!r},{i % 3},{x},0.{i + 1:04d}")
    return "\n".join(lines) + "\n"


# (file text, columns, whether the columnar loadtxt pass is expected to
# carry the load without falling back to the row-wise reference).
LOADER_CASES = {
    "crlf": ("y,w,x\r\n1.5,1,2\r\n-0.0,0,3e-5\r\n", "ywx", True),
    "quoted": ('"y","w",x\n"1.5",1,"2"\n"-3",0,"4.25"\n', "ywx", True),
    "extra_trailing_fields": ("y,w,x\n1.5,1,2,9,note\n2,0,1\n", "ywx", True),
    "blank_lines": ("y,w,x\n\n1.5,1,2\n\n\n2,0,1\n", "ywx", True),
    "whitespace_line": ("y,w,x\n1.5,1,2\n \n2,0,1\n", "ywx", False),
    "hash_value": ("y,w,x\n1,1,2\n#3,0,1\n", "ywx", False),
    "hash_unused_field": ("y,w,x\n1,1,2,# note\n3,0,1\n", "ywx", True),
    "underscore": ("y,w,x\n1_000,1,2\n2,0,1\n", "ywx", False),
    "padded": ("y,w,x\n 1.5 ,1,\t2\n2, 0 ,1\n", "ywx", True),
    "short_row": ("y,w,x\n1.5,1,2\n2.5,0\n", "ywx", False),
    "empty_field": ("y,w,x\n1.5,1,2\n,0,1\n", "ywx", False),
    "multi_column_x": (
        "y,w,x1,x2,e\n1,1,0.5,-2,0.25\n2,0,1.5,3e2,0.75\n",
        ["y", "w", "x1", "x2", "e"],
        True,
    ),
    "duplicate_header": ("y,w,x,x\n1,1,2,3\n4,0,5,6\n", "ywx", True),
    "random_doubles": (_random_doubles_csv(), "ywxe", True),
    "header_only": ("y,w,x\n", "ywx", False),
    "header_and_blank_lines": ("y,w,x\n\n\n", "ywx", False),
    "empty_file": ("", "ywx", False),
    "missing_column": ("y,w\n1,0\n", "ywx", False),
    # float() rejects the ASCII separators \x1c-\x1f that loadtxt strips.
    "file_separator_led_y": ("y,w,x\n\x1c1.5,1,2\n2,0,1\n", "ywx", False),
    "unit_separator_trailing_x": ("y,w,x\n1.5,1,2\x1f\n2,0,1\n", "ywx", False),
    "group_separator_unused_field": ("y,w,x,note\n1.5,1,2,\x1d\n2,0,1,\n", "ywx", False),
}
for _col, _name in enumerate("ywxe"):
    for _bad in ("nan", "inf", "-Infinity"):
        _row = ["1.5", "1", "2", "0.5"]
        _row[_col] = _bad
        LOADER_CASES[f"{_bad}_in_{_name}"] = (
            "y,w,x,e\n0,0,1,0.5\n" + ",".join(_row) + "\n", "ywxe", False
        )


def _outcome(fn, path, columns):
    try:
        return ("ok", fn(path, list(columns)))
    except SpwError as err:
        return ("err", type(err), getattr(err, "row", None), getattr(err, "column", None))


class TestColumnarLoader:
    """The columnar parse against the row-wise reference it replaced."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(LOADER_CASES))
    def test_matches_row_wise_reference(self, case, tmp_path, monkeypatch):
        text, columns, fast = LOADER_CASES[case]
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        reference = spw_data._read_rows
        expected = _outcome(reference, path, columns)
        fallbacks = []

        def counted(*args):
            fallbacks.append(args)
            return reference(*args)

        monkeypatch.setattr(spw_data, "_read_rows", counted)
        got = _outcome(spw_data._read_columns, path, columns)
        if expected[0] == "ok":
            assert got[0] == "ok"
            assert got[1].dtype == expected[1].dtype == np.float64
            assert got[1].shape == expected[1].shape
            assert got[1].tobytes() == expected[1].tobytes()  # bit-equal, -0.0 included
        else:
            assert got == expected
        if expected[0] == "ok" or fallbacks:
            assert (not fallbacks) == fast


class TestFromArraysOwnsItsArrays:
    def test_caller_writes_do_not_reach_dataset(self):
        y = np.array([1.0, 2.0, 3.0])
        w = np.array([1, 0, 1])
        x = np.array([0.1, 0.2, 0.3])
        e = np.array([0.4, 0.5, 0.6])
        data = Dataset.from_arrays(y, w, x, mode="large", propensity=e)
        y[1] = np.nan
        w[0] = 7
        x[2] = np.inf
        e[0] = 2.0
        np.testing.assert_array_equal(data.y, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(data.w, [1, 0, 1])
        np.testing.assert_array_equal(data.x, [0.1, 0.2, 0.3])
        np.testing.assert_array_equal(data.propensity, [0.4, 0.5, 0.6])

    @pytest.mark.parametrize("mode", ["finite", "large"])
    def test_stored_arrays_are_read_only(self, mode):
        data = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], [1, 1, 2, 2], mode=mode)
        arrays = [data.y, data.w, data.x]
        if mode == "finite":
            arrays.append(data.x_labels)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
