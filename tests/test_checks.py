"""Tests for the built-in verification suite and the residual JSON form."""

import math

import pytest

from spw.checks import check_kinds, check_suite
from spw.errors import ConfigError
from spw.residuals import (
    Gnpw,
    GnpwSpec,
    MultivaluedCac,
    MultivaluedCqr,
    OneSidedControl,
    SrpCustom,
    SrpNoPropensity,
    StabilizedAipw,
    WeightedAipw,
    residual_from_json,
    residual_to_json,
)


class TestCheckSuite:
    def test_all_rows_match_expectations(self):
        report = check_suite()
        assert report.all_ok
        bad = [r for r in report.rows if not r.ok]
        assert bad == []

    def test_documented_failures_present(self):
        report = check_suite()
        by_key = {(r.kind, r.prop): r for r in report.rows}
        robinson_bdr = by_key[("robinson", "bdr")]
        assert not robinson_bdr.passed and not robinson_bdr.expected_pass
        stab_gdr = by_key[("stabilized_aipw", "gdr")]
        assert stab_gdr.passed and stab_gdr.expected_pass
        aipw_orth = by_key[("weighted_aipw", "orthogonality")]
        assert aipw_orth.passed

    def test_extra_kind_probed_informationally(self):
        extra = {"npw2": Gnpw(GnpwSpec(nu1=2.0, theta=(0.0, 1.0, 0.0, -1.0)))}
        report = check_suite(extra_kinds=extra)
        rows = [r for r in report.rows if r.kind == "user:npw2"]
        assert len(rows) == 4
        assert report.all_ok  # informational rows never break the suite

    def test_extra_cac_kind(self):
        extra = {"diff": MultivaluedCac(treatments=(0, 1), kappa=(-2.0, 2.0))}
        report = check_suite(extra_kinds=extra)
        assert any(r.kind == "user:diff" for r in report.rows)

    def test_quantile_kind_rejected(self):
        with pytest.raises(ConfigError):
            check_suite(extra_kinds={"q": MultivaluedCqr(v=0.5, w=1)})

    def test_nan_magnitudes_fail(self):
        # max() keeps or drops a NaN by its place in the list; every row of
        # a kind whose residual is NaN at one support point must fail.
        nan_at_2 = SrpCustom(
            psi1=lambda x, w: w,
            psi2=lambda x, w: 1.0,
            psi3=lambda x, w: math.nan if x == 2 else 0.0,
        )
        report = check_suite(extra_kinds={"nan": nan_at_2})
        rows = [r for r in report.rows if r.kind == "user:nan"]
        assert [r.prop for r in rows] == ["moment_zero", "orthogonality", "bdr", "gdr"]
        for r in rows:
            assert math.isnan(r.magnitude) and not r.passed, r

    # Expected pass of moment_zero, orthogonality, bdr and gdr, in row order.
    EXPECTED = {
        "gnpw(npw)": "PPPF",
        "gnpw(robinson-dr)": "PPPF",
        "gnpw(one-sided)": "PPPF",
        "gnpw(half)": "PPPF",
        "one_sided_control": "PPPP",
        "one_sided_treated": "PPPP",
        "weighted_aipw": "PPPF",
        "stabilized_aipw": "PPPP",
        "hybrid_region": "PPPP",
        "robinson": "PPFF",
        "srp_no_propensity": "PFFF",
    }
    PROPS = ("moment_zero", "orthogonality", "bdr", "gdr")

    def test_rows_pinned(self):
        expected = [
            (kind, prop, flag == "P")
            for kind, flags in self.EXPECTED.items()
            for prop, flag in zip(self.PROPS, flags)
        ] + [("multivalued_cac", "moment_zero", True)]
        got = [(r.kind, r.prop, r.expected_pass) for r in check_suite().rows]
        assert got == expected

    def test_user_rows_placed_by_kind(self):
        # Binary user kinds follow the built-in binary kinds in the order
        # given; contrast user kinds come last, after multivalued_cac.
        extra = {
            "c": MultivaluedCac(treatments=(0, 1), kappa=(-2.0, 2.0)),
            "g": Gnpw(GnpwSpec(nu1=2.0, theta=(0.0, 1.0, 0.0, -1.0))),
            "nan": SrpCustom(
                psi1=lambda x, w: w,
                psi2=lambda x, w: 1.0,
                psi3=lambda x, w: math.nan if x == 2 else 0.0,
            ),
        }
        got = [(r.kind, r.prop) for r in check_suite(extra_kinds=extra).rows]
        builtin = [(kind, prop) for kind in check_kinds() for prop in self.PROPS]
        user = [(f"user:{kind}", prop) for kind in ("g", "nan") for prop in self.PROPS]
        assert got == builtin + user + [
            ("multivalued_cac", "moment_zero"),
            ("user:c", "moment_zero"),
        ]

    def test_user_kinds_validated_before_probing(self):
        # The bound is broken at every support point, so probing this kind
        # raises StabilizerBoundViolated; the contrast on (0, 2) is refused
        # first, before any probe runs.
        extra = {
            "tight": StabilizedAipw(bound=1e-9),
            "wide": MultivaluedCac(treatments=(0, 2), kappa=(-1.0, 1.0)),
        }
        with pytest.raises(ConfigError, match="contrast must use"):
            check_suite(extra_kinds=extra)

    def test_render_contains_rows(self):
        text = check_suite().render()
        assert "gnpw(npw)" in text and "moment_zero" in text


class TestResidualJson:
    CASES = {
        "gnpw0": {"kind": "gnpw", "nu1": 0, "nu2": 0, "theta": [1, 0, -2, 1]},
        "gnpw1": {"kind": "gnpw", "nu1": 1.5, "nu2": 0.5, "theta": [0, 1, 0, -1]},
        "one_sided_control": {"kind": "one_sided_control"},
        "one_sided_treated": {"kind": "one_sided_treated"},
        "weighted_aipw": {"kind": "weighted_aipw"},
        "stabilized_aipw": {"kind": "stabilized_aipw", "bound": 8.0},
        "stabilized_aipw-no-bound": {"kind": "stabilized_aipw"},
        "hybrid_region": {"kind": "hybrid_region"},
        "robinson": {"kind": "robinson"},
        "srp_no_propensity": {"kind": "srp_no_propensity", "theta1": 1, "theta2": 0.5},
        "multivalued_cac": {"kind": "multivalued_cac", "treatments": [0, 1, 2], "kappa": [1, -2, 1]},
        "multivalued_cac-bound": {
            "kind": "multivalued_cac",
            "treatments": [0, 1],
            "kappa": [-1, 1],
            "bound": 4.0,
        },
        "multivalued_cqr": {"kind": "multivalued_cqr", "v": 0.25, "w": 1},
    }

    @pytest.mark.parametrize("spec", CASES.values(), ids=CASES.keys())
    def test_round_trip(self, spec):
        kind = residual_from_json(spec)
        assert residual_to_json(kind) == spec
        again = residual_from_json(residual_to_json(kind))
        assert again == kind

    def test_function_members_have_no_json_form(self):
        triple = SrpCustom(lambda x, w: w, lambda x, w: 1.0, lambda x, w: 0.0)
        with pytest.raises(ConfigError, match="SrpCustom"):
            residual_to_json(triple)
        custom = MultivaluedCac(treatments=(0, 1), kappa=(-1.0, 1.0), stabilizer=lambda x: 0.2)
        with pytest.raises(ConfigError, match="stabilizer"):
            residual_to_json(custom)

    def test_documented_gnpw_form(self):
        kind = residual_from_json(
            {"kind": "gnpw", "nu1": 0, "nu2": 0, "theta": [1, 0, -2, 1]}
        )
        assert isinstance(kind, Gnpw)
        assert kind.spec.theta == (1.0, 0.0, -2.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            residual_from_json({"kind": "mystery"})

    def test_missing_kind_field(self):
        with pytest.raises(ConfigError):
            residual_from_json({"nu1": 0})

    def test_invalid_theta_rejected_via_json(self):
        with pytest.raises(ConfigError):
            residual_from_json({"kind": "gnpw", "theta": [1, 1, 0, -1]})
