"""Property test of the command line: no flag or --config value crashes it.

Each example runs ``cli.main`` in-process on a small fixed CSV. Each
option of the subcommand is left out or given a value, and each value
goes either on the command line or into a --config file. A tame run
draws only usual values on well-formed CSVs, so that most runs reach
the estimators and write their outputs. A wild run also draws wrong
values, odd ones (NaN, infinities, -0.0, 1e308, text, booleans, null,
lists), foreign config keys and malformed CSVs. The property: ``main``
returns 0, 2, 3 or 4, or argparse exits with status 2; nothing else
escapes.

Sizes stay small: at most 200 draws, 5 replications, n = 60 and 50
grid points. Integers past a checked limit go only to options that
have one: --draws, --resolution, --seed, --n, --reps, the grid's point
count and the degree of --basis poly:K.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spw.cli import main
from spw.data import RngHandle, write_csv
from spw.gpw import DEGREE_LIMIT
from spw.inference import DRAW_LIMIT, GRID_LIMIT, MODEL_LIMIT
from spw.simulate import REPS_LIMIT, SAMPLE_LIMIT, FiniteSampleDgp, LargeSampleDgp

ODD = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e308, -1e308, 0, -1]),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=3)), max_size=3),
)
# Past every checked limit: draws, grid points, any resolution's model
# count, sample size, replications and polynomial degree.
HUGE = st.integers(
    max(DRAW_LIMIT, GRID_LIMIT, MODEL_LIMIT, SAMPLE_LIMIT, REPS_LIMIT, DEGREE_LIMIT) + 1, 10**30
)


def _column(name):
    return st.just(name), st.sampled_from(["x" if name != "x" else "y", "nope"])


def _spans(name, usual, labels, ends):
    """NAME=KEY:LO,HI lists: the usual ones, and any of labels and ends."""
    end = st.sampled_from(ends)
    span = st.builds(lambda k, lo, hi: f"{name}={k}:{lo},{hi}", st.sampled_from(labels), end, end)
    return st.sampled_from(usual), st.lists(span, min_size=1, max_size=3)


def _grids():
    lo, step = st.sampled_from([-5, 0, 2.5]), st.sampled_from([0.5, 1, 2])
    usual = st.builds(lambda a, s, k: f"{a}:{a + s * k}:{s}", lo, step, st.integers(0, 49))
    other = st.sampled_from(["", "0:1", "1:0:1", "0:5:0", "0:5:-1", "a:b:c", "0:-0.0:1"])
    return usual, st.one_of(other, HUGE.map(lambda h: f"0:{h}:1"))


KINDS = (
    st.lists(
        st.sampled_from([
            '{"kind": "gnpw", "nu1": 1, "theta": [1, 0, -2, 1]}',
            '{"kind": "robinson"}',
            '{"kind": "stabilized_aipw", "bound": 0.5}',
            '{"kind": "multivalued_cqr", "v": 0.5, "w": 1}',
            '{"kind": "multivalued_cac", "treatments": [0, 1], "kappa": [-1, 1]}',
        ]),
        min_size=1,
        max_size=2,
    ),
    st.lists(
        st.sampled_from([
            '{"kind": "gnpw", "nu1": "abc"}', '{"kind": 3}', "{}", "[]", "null", "true",
            "1e999", '"gnpw"', "{not json",
        ]),
        min_size=1,
        max_size=2,
    ),
)
SEEDS = st.integers(0, 10), st.one_of(st.just(-1), HUGE)
DATA_COLUMNS = {"y_col": _column("y"), "w_col": _column("w"), "x_col": _column("x")}

# Each subcommand's options (config keys), each with a strategy for
# usual values and one for wrong values.
GRAMMAR = {
    "estimate": {
        **DATA_COLUMNS,
        "propensity_col": _column("e"),
        "nu": (st.floats(-3, 3), st.just(0)),
        "basis": (
            st.sampled_from(["const", "linear", "poly:2", "1"]),
            st.one_of(
                st.sampled_from(["poly:-1", "poly:x", "cubic", ""]),
                HUGE.map(lambda h: f"poly:{h}"),
            ),
        ),
        "level": (st.floats(0.01, 0.99), st.sampled_from([0, 1, 1.5])),
    },
    "fpw": {
        **DATA_COLUMNS,
        "bounds": _spans(
            "w",
            [["w=0:6,14", "w=1:13,27"], ["w=0:0,20", "w=1:0,30"], ["w=1:0,1", "w=0:-1,1"]],
            [0, 1, 2],
            [0, 6, 14, 27, -1, "nan", "inf", 1e308],
        ),
        "kappa": (
            st.lists(st.floats(-3, 3), min_size=2, max_size=2).map(
                lambda v: ",".join(map(str, v))
            ),
            st.sampled_from(["0,0", "1", "1,2,3", "a,b", ","]),
        ),
    },
    "test": {
        **DATA_COLUMNS,
        "grid": _grids(),
        "c1": (st.floats(0, 2), st.just(-1)),
        "lambda_box": _spans(
            "k",
            [["k=0:0.1,0.3", "k=1:0.7,0.9"], ["k=0:0.2,0.2", "k=1:0.8,0.8"]],
            [0, 1, 2],
            [0.1, 0.3, 0.5, 0.7, 0.9, 0, 1, "nan", -0.5],
        ),
        "resolution": (st.integers(1, 3), st.one_of(st.just(0), HUGE)),
        "draws": (st.integers(1, 200), st.one_of(st.integers(-1, 0), HUGE)),
        "statistic": (st.sampled_from(["t_hat", "wmd", "ipw"]), st.just("bogus")),
        "alpha": (st.floats(0.01, 0.99), st.sampled_from([0, 1])),
        "seed": SEEDS,
    },
    "simulate": {
        "dgp": (st.sampled_from(["large", "finite"]), st.just("medium")),
        "n": (st.sampled_from([10, 20, 25, 50, 60]), st.one_of(st.integers(-2, 60), HUGE)),
        "reps": (st.integers(2, 5), st.one_of(st.integers(-1, 1), HUGE)),
        "lam": (st.floats(0.01, 0.99), st.sampled_from([0, 1, -0.5])),
        "estimators": (
            st.sampled_from(["ipw", "npw,ipw", "fpw,wmd,ipw_fs,scaled", "ipw,fpw"]),
            st.lists(st.sampled_from(["npw", "fpw", "banana", "", " "]), max_size=3).map(
                ",".join
            ),
        ),
        "seed": SEEDS,
    },
    "check": {"kind": KINDS},
}
# Given in every run: the required options and those with a costly
# default. A bound caps the integer that an odd value may parse to.
ALWAYS = {
    "fpw": {"bounds": None},
    "test": {"grid": None, "lambda_box": None, "draws": 200, "resolution": 3},
    "simulate": {"dgp": None, "n": 60, "reps": 5, "estimators": None},
}


def _text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _within(value, bound) -> bool:
    if bound is None:
        return True
    items = value if isinstance(value, list) else [value]
    for item in items:
        try:
            if abs(int(_text(item))) > bound:
                return False
        except ValueError:
            pass
    return value is not None and value != []


@st.composite
def _runs(draw, command, wild):
    """(flags, config: a dict, another JSON value or None) for one run."""
    always = ALWAYS.get(command, {})
    flags, config = [], {}
    for key, (usual, other) in GRAMMAR[command].items():
        if key not in always and draw(st.booleans()):
            continue
        if wild:
            odd = ODD.filter(lambda v, b=always.get(key): _within(v, b))
            value = draw(st.one_of(usual, other, odd))
        else:
            value = draw(usual)
        if draw(st.booleans()):
            config[key] = value
        elif value is not None:
            items = value if isinstance(value, list) else [value]
            flag = "--" + key.replace("_", "-")
            flags += [f"{flag}={_text(item)}" for item in items]
    extras = ["", "same"] + (["other", "unknown", "not an object"] if wild else [])
    extra = draw(st.sampled_from(extras))
    if extra == "same":
        config["command"] = command
    elif extra == "other":
        config["command"] = "fpw" if command != "fpw" else "test"
    elif extra == "unknown":
        config["threads"] = 1
    elif extra == "not an object":
        config = list(config.items())
    return flags, config or None


def _rows(header, *columns):
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in zip(*columns))


@pytest.fixture(scope="module")
def csvs(tmp_path_factory):
    """Per data mode, the well-formed CSVs and the malformed ones."""
    root = tmp_path_factory.mktemp("fuzz_csv")
    write_csv(LargeSampleDgp(n=60).generate(RngHandle(1).generator()), root / "large.csv")
    write_csv(FiniteSampleDgp(n=30, lam1=0.2).generate(RngHandle(2).generator()), root / "finite.csv")
    text = {
        # Stratum 1 has no control unit.
        "vacant.csv": _rows("y,w,x", [1, 2, 3, 4, 5, 6], [0, 1, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1]),
        # No treated unit.
        "one_arm.csv": _rows("y,w,x,e", range(1, 8), [0] * 7, [i / 10 for i in range(7)], [0.5] * 7),
        "large_nan.csv": _rows(
            "y,w,x,e", [1, "nan", 3, 4], [0, 1, 1, 0], [0.1, 0.2, 0.3, 0.4], [0.5] * 4
        ),
        # Stratum 2 holds one unit.
        "singleton.csv": _rows("y,w,x", range(1, 8), [0, 1, 0, 1, 1, 0, 0], [0, 0, 0, 1, 1, 1, 2]),
        "finite_inf.csv": _rows("y,w,x", [1, "inf", 3, 4], [0, 1, 0, 1], [0, 0, 1, 1]),
    }
    for name, body in text.items():
        (root / name).write_text(body)
    return {
        "large": ([root / "large.csv"], [root / n for n in ("one_arm.csv", "large_nan.csv")]),
        "finite": (
            [root / "finite.csv", root / "vacant.csv"],
            [root / n for n in ("singleton.csv", "finite_inf.csv")],
        ),
    }


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return 2


@pytest.mark.parametrize("wild", [False, True], ids=["tame", "wild"])
@pytest.mark.parametrize("command", sorted(GRAMMAR))
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_cli_exits_with_a_documented_code(csvs, command, wild, data):
    flags, config = data.draw(_runs(command, wild))
    with tempfile.TemporaryDirectory() as work:
        argv = [command, *flags, "--out", str(Path(work) / "out")]
        if command in ("estimate", "fpw", "test"):
            good, bad = csvs["large" if command == "estimate" else "finite"]
            argv += ["--data", str(data.draw(st.sampled_from(good + bad if wild else good)))]
        if config is not None:
            path = Path(work) / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert _exit_code(argv) in (0, 2, 3, 4), argv
