"""Exact tests of the generalized residual calculus on discrete designs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spw.errors import (
    ConfigError,
    MissingNuisance,
    NonLinearInOutcome,
    NuisanceOutOfRange,
    PerturbationLeavesDomain,
    StabilizerBoundViolated,
)
from spw.residuals import (
    CacNuisances,
    CqrNuisances,
    DiscreteDesign,
    Gnpw,
    GnpwSpec,
    HybridRegion,
    MultivaluedCac,
    MultivaluedCqr,
    NuisanceSet,
    OneSidedControl,
    OneSidedTreated,
    Perturbation,
    RobinsonClassic,
    SrpNoPropensity,
    StabilizedAipw,
    WeightedAipw,
    conditional_mean,
    dr_probe,
    gateaux_derivative,
)

MOMENT_TOL = 1e-12


def _mean_kinds(design):
    """All CATE residual kinds with per-design region/stabilizer choices."""
    region = lambda x: 1.0 if design.e(x) < 0.5 else 0.0
    half = lambda x: 0.5
    return [
        (Gnpw(GnpwSpec(theta=(0.0, 1.0, 0.0, -1.0))), None),
        (Gnpw(GnpwSpec(theta=(1.0, 0.0, -2.0, 1.0))), None),
        (Gnpw(GnpwSpec(nu1=1.0, nu2=0.5, theta=(0.5, 0.5, -1.0, 0.0))), None),
        (OneSidedControl(), None),
        (OneSidedTreated(), None),
        (WeightedAipw(), None),
        (StabilizedAipw(), half),
        (HybridRegion(), region),
        (RobinsonClassic(), None),
        (SrpNoPropensity(1.0, 0.0), None),
        (SrpNoPropensity(0.3, 0.7), None),
    ]


class TestEvalResidual:
    def test_gnpw_hand_value(self):
        # nu = 0, theta = (1, 0, -2, 1), obs (Y=2, W=1), e=0.5, mu=0, tau=4:
        # (1 - 0.5)^2 * 4 - 0.5 * 2 = 0
        kind = Gnpw(GnpwSpec(theta=(1.0, 0.0, -2.0, 1.0)))
        nuis = NuisanceSet(e=lambda x: 0.5, mu0=lambda x: 0.0, mu1=lambda x: 0.0)
        value = kind.value(2.0, 1, "a", 4.0, nuis)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_weighted_aipw_vanishes_at_truth_no_noise(self):
        nuis = NuisanceSet(e=lambda x: 0.3, mu0=lambda x: 1.0, mu1=lambda x: 4.0)
        value = WeightedAipw().value(4.0, 1, "a", 3.0, nuis)  # Y = mu1
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_robinson_degenerate_weight(self):
        # Hypothetical W = e(x) zeroes both terms.
        nuis = NuisanceSet(e=lambda x: 0.4, eta=lambda x: 1.0)
        value = RobinsonClassic().value(5.0, 0.4, "a", 7.0, nuis)
        assert value == 0.0

    def test_gnpw_theta_constraints(self):
        with pytest.raises(ConfigError):
            GnpwSpec(theta=(0.5, 0.5 + 1e-9, 0.0, -1.0))
        with pytest.raises(ConfigError):
            GnpwSpec(theta=(1.0, 0.0, -2.0, 0.5))
        with pytest.raises(ConfigError):
            GnpwSpec(nu1=-0.1)
        # NaN compares false, so it would pass the sum and sign checks.
        for bad in (
            dict(theta=(float("nan"), 1.0, 0.0, -1.0)),
            dict(theta=(1.0, 0.0, float("inf"), -1.0)),
            dict(nu1=float("nan")),
            dict(nu2=float("inf")),
        ):
            with pytest.raises(ConfigError):
                GnpwSpec(**bad)

    def test_srp_parameter_domain(self):
        with pytest.raises(ConfigError):
            SrpNoPropensity(0.0, 0.0)
        with pytest.raises(ConfigError):
            SrpNoPropensity(-1.0, 2.0)
        with pytest.raises(ConfigError):
            SrpNoPropensity(float("inf"), 0.0)
        with pytest.raises(ConfigError):
            SrpNoPropensity(1.0, float("nan"))

    def test_non_finite_bounds_and_contrasts(self):
        with pytest.raises(ConfigError):
            StabilizedAipw(bound=float("nan"))
        with pytest.raises(ConfigError):
            MultivaluedCac(treatments=(0, 1), kappa=(float("nan"), 1.0))
        with pytest.raises(ConfigError):
            MultivaluedCac(treatments=(0, 1), kappa=(-1.0, 1.0), bound=float("nan"))

    def test_propensity_out_of_range(self):
        nuis = NuisanceSet(e=lambda x: 1.0, mu0=lambda x: 0.0, mu1=lambda x: 0.0)
        with pytest.raises(NuisanceOutOfRange):
            WeightedAipw().value(1.0, 1, "a", 0.0, nuis)

    def test_missing_nuisance(self):
        nuis = NuisanceSet(e=lambda x: 0.5)
        with pytest.raises(MissingNuisance, match="'eta'"):
            RobinsonClassic().value(1.0, 1, "a", 0.0, nuis)
        # Nuisances are read in the kind's order, the propensity's range first.
        with pytest.raises(MissingNuisance, match="'e'"):
            WeightedAipw().value(1.0, 1, "a", 0.0, NuisanceSet())
        with pytest.raises(NuisanceOutOfRange):
            WeightedAipw().value(1.0, 1, "a", 0.0, NuisanceSet(e=lambda x: 0.0))
        nuis = NuisanceSet(e=lambda x: 0.5, mu0=lambda x: 0.0, mu1=lambda x: 0.0)
        with pytest.raises(MissingNuisance, match="'r'"):
            HybridRegion().value(1.0, 1, "a", 0.0, nuis)
        # StabilizedAipw alone falls back to r = 0.5.
        assert StabilizedAipw().value(1.0, 1, "a", 0.0, nuis) == StabilizedAipw().value(
            1.0, 1, "a", 0.0, nuis.replace(r=lambda x: 0.5)
        )

    def test_hybrid_requires_binary_region(self):
        nuis = NuisanceSet(
            e=lambda x: 0.5, mu0=lambda x: 0.0, mu1=lambda x: 0.0, r=lambda x: 0.4
        )
        with pytest.raises(NuisanceOutOfRange):
            HybridRegion().value(1.0, 1, "a", 0.0, nuis)

    @settings(max_examples=50, deadline=None)
    @given(
        y=st.floats(-5, 5),
        w=st.integers(0, 1),
        tau=st.floats(-3, 3),
        e=st.floats(0.05, 0.95),
        m0=st.floats(-2, 2),
        m1=st.floats(-2, 2),
    )
    def test_gnpw_robinson_identity(self, y, w, tau, e, m0, m1):
        # theta = (1, 0, -2, 1) with eta = e mu1 + (1-e) mu0 reproduces the
        # classic Robinson residual pointwise.
        gnpw = Gnpw(GnpwSpec(theta=(1.0, 0.0, -2.0, 1.0)))
        nuis = NuisanceSet(
            e=lambda x: e,
            mu0=lambda x: m0,
            mu1=lambda x: m1,
            eta=lambda x: e * m1 + (1 - e) * m0,
        )
        lhs = gnpw.value(y, w, "a", tau, nuis)
        rhs = RobinsonClassic().value(y, w, "a", tau, nuis)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestConditionalMean:
    def test_zero_at_truth_all_kinds_all_designs(
        self, design_moderate, design_extreme, design_grid
    ):
        for design in (design_moderate, design_extreme, design_grid):
            for kind, region in _mean_kinds(design):
                nuis = design.true_nuisances(r=region)
                for x in design.points:
                    value = conditional_mean(kind, x, design.tau(x), nuis, design)
                    assert abs(value) <= MOMENT_TOL, (type(kind).__name__, x)

    def test_robinson_misspecified_e_instance(self):
        # Design point with e = 0.3, tau = 2; etilde = 0.5 at the true eta
        # leaves exactly (e - etilde)^2 tau = 0.08.
        design = _single_point_design(e=0.3, mu0=1.0, mu1=3.0)
        nuis = design.true_nuisances().replace(e=lambda x: 0.5)
        value = conditional_mean(RobinsonClassic(), 0, 2.0, nuis, design)
        assert value == pytest.approx(0.08, abs=1e-12)

    def test_gnpw_true_e_wrong_mu_zero(self, design_moderate):
        kind = Gnpw(GnpwSpec(theta=(0.0, 1.0, 0.0, -1.0)))
        nuis = design_moderate.true_nuisances().replace(
            mu0=lambda x: design_moderate.mu0(x) + 2.0,
            mu1=lambda x: design_moderate.mu1(x) - 1.0,
        )
        for x in design_moderate.points:
            value = conditional_mean(kind, x, design_moderate.tau(x), nuis, design_moderate)
            assert abs(value) <= MOMENT_TOL

    def test_kind_without_closed_form_rejected(self, design_moderate):
        nuis = design_moderate.true_nuisances()
        with pytest.raises(NonLinearInOutcome, match="object"):
            conditional_mean(object(), 1, 0.0, nuis, design_moderate)


def _single_point_design(e, mu0, mu1):
    return DiscreteDesign.binary(
        points=(0,), masses=(1.0,), e=(e,), mu0=(mu0,), mu1=(mu1,)
    )


class TestDiscreteDesign:
    @staticmethod
    def _binary(**changes):
        args = dict(points=(1, 2), masses=(0.5, 0.5), e=(0.3, 0.6), mu0=(1.0, 2.0), mu1=(3.0, 4.0))
        return DiscreteDesign.binary(**(args | changes))

    def test_valid_design_accepted(self):
        assert self._binary().eta(2) == pytest.approx(0.4 * 2.0 + 0.6 * 4.0)

    def test_nan_mass_rejected(self):
        # NaN compares false, so it used to pass the sum check.
        with pytest.raises(ConfigError, match="finite"):
            self._binary(masses=(float("nan"), 0.5))

    def test_negative_mass_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            self._binary(masses=(1.5, -0.5))

    def test_non_finite_response_mean_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            self._binary(mu0=(float("inf"), 2.0))
        with pytest.raises(ConfigError, match="finite"):
            self._binary(mu1=(3.0, float("nan")))

    @pytest.mark.parametrize(
        "changes",
        [
            dict(e=(0.3,)),
            dict(mu0=(1.0,), mu1=(3.0,)),
            dict(masses=(1.0,)),
            dict(points=(1, 2, 3), masses=(0.5, 0.3, 0.2)),
        ],
        ids=["short-lam", "short-mu", "short-masses", "extra-point"],
    )
    def test_one_row_per_point(self, changes):
        # Each of these used to be accepted; the short tables failed later
        # with a bare IndexError, or never if the missing row was not read.
        with pytest.raises(ConfigError, match="one row per point"):
            self._binary(**changes)

    @pytest.mark.parametrize(
        "lam, mu",
        [
            (((0.2, 0.3, 0.5), (0.4, 0.6)), ((1.0, 2.0), (3.0, 4.0))),
            (((0.4, 0.6), (0.4, 0.6)), ((1.0, 2.0), (3.0,))),
        ],
        ids=["long-lam-row", "short-mu-row"],
    )
    def test_one_entry_per_treatment(self, lam, mu):
        # The long lam row sums to 1, and the probes used to read
        # P(W=0) = 0.2 and P(W=1) = 0.3 from it.
        with pytest.raises(ConfigError, match="one entry per treatment"):
            DiscreteDesign((1, 2), (0.5, 0.5), (0, 1), lam, mu)

    @pytest.mark.parametrize(
        "points, treatments", [((1, 1), (0, 1)), ((1, 2), (1, 1))], ids=["point", "treatment"]
    )
    def test_repeated_labels_rejected(self, points, treatments):
        # A repeated point's second row was never read.
        lam = ((0.4, 0.6), (0.3, 0.7))
        with pytest.raises(ConfigError, match="distinct"):
            DiscreteDesign(points, (0.5, 0.5), treatments, lam, ((1.0, 2.0), (3.0, 4.0)))

    def test_cdf_needs_outcome_distributions(self):
        with pytest.raises(ConfigError, match="no outcome distributions"):
            self._binary().cdf(0.0, 1, 1)

    @pytest.mark.parametrize(
        "lookup, args, match",
        [
            ("lam_at", (3, 1), "no point 3"),
            ("mu_at", ("a", 0), "no point 'a'"),
            ("lam_at", (1, 2), "no treatment 2"),
            ("mu_at", (2, -1), "no treatment -1"),
            ("eta", (7,), "no point 7"),
        ],
    )
    def test_unknown_point_or_treatment_named(self, lookup, args, match):
        with pytest.raises(ConfigError, match=match):
            getattr(self._binary(), lookup)(*args)

    def test_quantile_kind_of_undeclared_arm(self, design_atoms):
        # Its phi is lam_at(x, 2), which used to raise a bare ValueError.
        kind = MultivaluedCqr(v=0.5, w=2)
        truth = design_atoms.true_cqr_nuisances()
        with pytest.raises(ConfigError, match="no treatment 2"):
            conditional_mean(kind, 1, 0.0, truth, design_atoms)


class TestGateaux:
    ORTH = [
        (Gnpw(GnpwSpec(theta=(0.0, 1.0, 0.0, -1.0))), None),
        (Gnpw(GnpwSpec(theta=(1.0, 0.0, -2.0, 1.0))), None),
        (Gnpw(GnpwSpec(theta=(1.0, 0.0, -1.0, 0.0))), None),
        (Gnpw(GnpwSpec(theta=(0.5, 0.5, -1.0, 0.0))), None),
        (WeightedAipw(), None),
        (StabilizedAipw(), lambda x: 0.5),
        (OneSidedControl(), None),
        (OneSidedTreated(), None),
    ]

    def test_orthogonal_kinds_small_derivative(self, design_moderate):
        direction = Perturbation(h_e=0.1, h_mu0=0.05, h_mu1=-0.08, h_eta=0.03)
        for kind, region in self.ORTH:
            nuis = design_moderate.true_nuisances(r=region)
            for x in design_moderate.points:
                d = gateaux_derivative(kind, x, nuis, direction, design_moderate, h=1e-4)
                assert abs(d) <= 1e-6, type(kind).__name__

    def test_srp_derivative_not_small(self, design_moderate):
        kind = SrpNoPropensity(1.0, 0.0)
        nuis = design_moderate.true_nuisances()
        direction = Perturbation(h_mu0=1.0)
        d = gateaux_derivative(kind, 1, nuis, direction, design_moderate, h=1e-4)
        assert abs(d) > 1e-3

    def test_quadratic_convergence_ratio(self, design_moderate):
        # Central differences of the (orthogonal) moment scale as h^2, so
        # halving h shrinks the estimate by roughly 4.
        direction = Perturbation(h_e=0.1, h_mu0=0.08, h_mu1=-0.05)
        nuis = design_moderate.true_nuisances()
        kind = WeightedAipw()
        d_h = gateaux_derivative(kind, 1, nuis, direction, design_moderate, h=1e-3)
        d_half = gateaux_derivative(kind, 1, nuis, direction, design_moderate, h=5e-4)
        assert abs(d_h) > 1e-13 and abs(d_half) > 1e-13
        assert abs(d_h) / abs(d_half) >= 3.5

    def test_perturbation_domain_guard(self, design_extreme):
        nuis = design_extreme.true_nuisances()
        direction = Perturbation(h_e=100.0)
        with pytest.raises(PerturbationLeavesDomain):
            gateaux_derivative(
                WeightedAipw(), 1, nuis, direction, design_extreme, h=1e-4
            )

    def test_step_size_domain(self, design_moderate):
        with pytest.raises(ConfigError):
            gateaux_derivative(
                WeightedAipw(),
                1,
                design_moderate.true_nuisances(),
                Perturbation(h_e=0.1),
                design_moderate,
                h=0.5,
            )


def _wrong_e(design):
    return lambda x: min(0.9, design.e(x) * 0.6 + 0.25)


def _wrong_mu(design):
    return (lambda x: design.mu0(x) + 0.7, lambda x: design.mu1(x) - 1.3)


class TestDrProbe:
    def test_gnpw_closed_forms(self, design_moderate):
        # Hand-derived misspecification moments:
        #   E[true e, wrong mu] = e(1-e)(tau_tilde - tau)
        #   E[wrong e, true mu] = (t1 e + t2 et + t3 e et + t4 et^2)(tau_tilde - tau)
        theta = (0.3, 0.7, -0.4, -0.6)
        kind = Gnpw(GnpwSpec(theta=theta))
        shift = 1.7
        probe = dr_probe(
            kind,
            design_moderate,
            lambda x: design_moderate.tau(x) + shift,
            _wrong_e(design_moderate),
            _wrong_mu(design_moderate),
        )
        for j, x in enumerate(probe.points):
            e = design_moderate.e(x)
            et = _wrong_e(design_moderate)(x)
            t1, t2, t3, t4 = theta
            assert probe.true_e_wrong_mu[j] == pytest.approx(e * (1 - e) * shift, abs=1e-12)
            expected = (t1 * e + t2 * et + t3 * e * et + t4 * et**2) * shift
            assert probe.wrong_e_true_mu[j] == pytest.approx(expected, abs=1e-12)

    def test_gnpw_with_powers_scales_by_prefactor(self, design_moderate):
        nu1, nu2 = 1.0, 2.0
        kind = Gnpw(GnpwSpec(nu1=nu1, nu2=nu2, theta=(0.0, 1.0, 0.0, -1.0)))
        shift = -0.9
        probe = dr_probe(
            kind,
            design_moderate,
            lambda x: design_moderate.tau(x) + shift,
            _wrong_e(design_moderate),
            _wrong_mu(design_moderate),
        )
        for j, x in enumerate(probe.points):
            e = design_moderate.e(x)
            expected = e**nu1 * (1 - e) ** nu2 * e * (1 - e) * shift
            assert probe.true_e_wrong_mu[j] == pytest.approx(expected, abs=1e-12)

    def test_bdr_vanishes_at_true_target(self, design_moderate):
        for kind in (
            Gnpw(GnpwSpec(theta=(0.0, 1.0, 0.0, -1.0))),
            WeightedAipw(),
            OneSidedControl(),
            OneSidedTreated(),
        ):
            probe = dr_probe(
                kind,
                design_moderate,
                design_moderate.tau,
                _wrong_e(design_moderate),
                _wrong_mu(design_moderate),
            )
            assert np.max(np.abs(probe.true_e_wrong_mu)) <= MOMENT_TOL
            assert np.max(np.abs(probe.wrong_e_true_mu)) <= MOMENT_TOL

    def test_stabilized_aipw_moments_are_r_scaled_shift(self, design_moderate):
        # Both single-nuisance moments equal r(1-r)(tau_tilde - tau).
        kind = StabilizedAipw()
        probe = dr_probe(
            kind,
            design_moderate,
            lambda x: design_moderate.tau(x) + 1.0,
            _wrong_e(design_moderate),
            _wrong_mu(design_moderate),
            r=lambda x: 0.5,
        )
        expected = 0.25
        np.testing.assert_allclose(probe.true_e_wrong_mu, expected, atol=1e-12)
        np.testing.assert_allclose(probe.wrong_e_true_mu, expected, atol=1e-12)
        np.testing.assert_allclose(probe.reference, expected, atol=1e-12)

    def test_gdr_kinds_identical_curves(self, design_moderate):
        region = lambda x: 1.0 if design_moderate.e(x) < 0.5 else 0.0
        gdr_kinds = [
            (OneSidedControl(), None),
            (OneSidedTreated(), None),
            (StabilizedAipw(), lambda x: 0.5),
            (HybridRegion(), region),
        ]
        for kind, r in gdr_kinds:
            for shift in (-2.0, 0.0, 0.5, 3.0):
                probe = dr_probe(
                    kind,
                    design_moderate,
                    lambda x, s=shift: design_moderate.tau(x) + s,
                    _wrong_e(design_moderate),
                    _wrong_mu(design_moderate),
                    r=r,
                )
                np.testing.assert_allclose(
                    probe.true_e_wrong_mu, probe.reference, atol=1e-12
                )
                np.testing.assert_allclose(
                    probe.wrong_e_true_mu, probe.reference, atol=1e-12
                )

    def test_robinson_not_robust(self, design_moderate):
        probe = dr_probe(
            RobinsonClassic(),
            design_moderate,
            design_moderate.tau,
            _wrong_e(design_moderate),
            _wrong_mu(design_moderate),
        )
        for j, x in enumerate(probe.points):
            e = design_moderate.e(x)
            et = _wrong_e(design_moderate)(x)
            expected = (e - et) ** 2 * design_moderate.tau(x)
            assert probe.wrong_e_true_mu[j] == pytest.approx(expected, abs=1e-12)
        assert np.max(np.abs(probe.wrong_e_true_mu)) > 1e-3


class TestCacResidual:
    def test_truth_gives_zero_mean_binary(self, design_moderate):
        kind = MultivaluedCac(treatments=(0, 1), kappa=(-1.0, 1.0))
        nuis = design_moderate.true_cac_nuisances()
        for x in design_moderate.points:
            theta = design_moderate.theta(x, kind.treatments, kind.kappa)
            assert abs(conditional_mean(kind, x, theta, nuis, design_moderate)) <= MOMENT_TOL

    def test_three_arm_contrast_zero_mean(self, design_three_arm):
        kind = MultivaluedCac(treatments=(0, 1, 2), kappa=(1.0, -2.0, 1.0))
        nuis = design_three_arm.true_cac_nuisances()
        for x in design_three_arm.points:
            theta = design_three_arm.theta(x, kind.treatments, kind.kappa)
            assert abs(conditional_mean(kind, x, theta, nuis, design_three_arm)) <= MOMENT_TOL

    def test_dr_in_phi_or_gamma(self, design_three_arm):
        kind = MultivaluedCac(treatments=(0, 1, 2), kappa=(1.0, -2.0, 1.0))
        truth = design_three_arm.true_cac_nuisances()
        wrong_gamma = CacNuisances(phi=truth.phi, gamma=lambda w, x: truth.gamma(w, x) + 0.4)
        wrong_phi = CacNuisances(
            phi=lambda w, x: 0.5 * truth.phi(w, x) + 0.15, gamma=truth.gamma
        )
        for x in design_three_arm.points:
            theta = design_three_arm.theta(x, kind.treatments, kind.kappa)
            assert abs(conditional_mean(kind, x, theta, wrong_gamma, design_three_arm)) <= MOMENT_TOL
            assert abs(conditional_mean(kind, x, theta, wrong_phi, design_three_arm)) <= MOMENT_TOL

    @settings(max_examples=40, deadline=None)
    @given(
        y=st.floats(-4, 4),
        w=st.integers(0, 1),
        theta=st.floats(-3, 3),
        e=st.floats(0.05, 0.95),
    )
    def test_gamma_zero_matches_plain_weighting(self, y, w, theta, e):
        # gamma = 0 with phi = p reduces to the non-augmented residual
        # stab * (sum_w kappa_w I{W=w} Y / p(w, x) - theta).
        kind = MultivaluedCac(treatments=(0, 1), kappa=(-1.0, 1.0))
        phi = {0: 1 - e, 1: e}
        nuis = CacNuisances(phi=lambda wt, x: phi[wt], gamma=lambda wt, x: 0.0)
        value = kind.value(y, w, "a", theta, nuis)
        stab = (1 - e) * e
        plain = stab * ((1.0 if w == 1 else 0.0) * y / e - (1.0 if w == 0 else 0.0) * y / (1 - e) - theta)
        assert value == pytest.approx(plain, abs=1e-12)

    def test_stabilizer_bound_enforced(self):
        kind = MultivaluedCac(
            treatments=(0, 1),
            kappa=(-1.0, 1.0),
            stabilizer=lambda x: 0.9,
            bound=1.0,
        )
        nuis = CacNuisances(phi=lambda w, x: 0.5, gamma=lambda w, x: 0.0)
        with pytest.raises(StabilizerBoundViolated):
            kind.value(1.0, 1, "a", 0.0, nuis)

    def test_phi_out_of_range(self):
        kind = MultivaluedCac(treatments=(0, 1), kappa=(-1.0, 1.0))
        nuis = CacNuisances(phi=lambda w, x: 1.2, gamma=lambda w, x: 0.0)
        with pytest.raises(NuisanceOutOfRange):
            kind.value(1.0, 1, "a", 0.0, nuis)


class TestCqrResidual:
    def test_true_gamma_zero_mean_any_phi(self, design_atoms):
        truth = design_atoms.true_cqr_nuisances()
        bent = CqrNuisances(phi=lambda w, x: 0.31, gamma=truth.gamma)
        for x in design_atoms.points:
            for w in (0, 1):
                for v in (0.25, 0.5, 0.75):
                    q = design_atoms.quantile(v, w, x)
                    rho = design_atoms.cdf(q, w, x)
                    if not (0.0 < rho < 1.0):
                        continue
                    kind = MultivaluedCqr(v=rho, w=w)
                    value = conditional_mean(kind, x, q, bent, design_atoms)
                    assert abs(value) <= MOMENT_TOL

    def test_true_phi_gamma_zero_mean_at_true_quantile(self, design_atoms):
        # phi = p with gamma = 0: conditional mean is p(w,x)[rho(q) - v],
        # zero exactly when rho(q) = v.
        truth = design_atoms.true_cqr_nuisances()
        flat = CqrNuisances(phi=truth.phi, gamma=lambda u, w, x: 0.0)
        x, w = 1, 1
        v = design_atoms.cdf(1.0, w, x)  # attained CDF value
        kind = MultivaluedCqr(v=v, w=w)
        assert abs(conditional_mean(kind, x, 1.0, flat, design_atoms)) <= MOMENT_TOL

    def test_median_of_symmetric_two_point(self, design_atoms):
        # Point x=2, w=0 has outcomes {-1, +1} with equal mass: the 0.5
        # quantile is -1 and the residual mean vanishes at the truth.
        kind = MultivaluedCqr(v=0.5, w=0)
        truth = design_atoms.true_cqr_nuisances()
        q = design_atoms.quantile(0.5, 0, 2)
        assert q == -1.0
        assert abs(conditional_mean(kind, 2, q, truth, design_atoms)) <= MOMENT_TOL

    def test_gamma_out_of_range(self):
        kind = MultivaluedCqr(v=0.5, w=1)
        nuis = CqrNuisances(phi=lambda w, x: 0.5, gamma=lambda u, w, x: 1.5)
        with pytest.raises(NuisanceOutOfRange):
            kind.value(1.0, 1, "a", 0.0, nuis)

    def test_phi_out_of_range(self):
        kind = MultivaluedCqr(v=0.5, w=1)
        nuis = CqrNuisances(phi=lambda w, x: 1.2, gamma=lambda u, w, x: 0.5)
        with pytest.raises(NuisanceOutOfRange):
            kind.value(1.0, 1, "a", 0.0, nuis)

    def test_level_domain(self):
        with pytest.raises(ConfigError):
            MultivaluedCqr(v=0.0, w=1)

    def test_value_integrates_to_the_closed_form(self, design_atoms):
        # conditional_mean has its own closed form for this kind; the
        # residual itself, summed over every arm's outcome atoms, must
        # give the same expectation.
        truth = design_atoms.true_cqr_nuisances()
        bent = CqrNuisances(phi=lambda w, x: 0.31, gamma=lambda u, w, x: 0.4)
        for nuis in (truth, bent):
            for x in design_atoms.points:
                for arm in design_atoms.treatments:
                    for q in (-2.0, -1.0, 0.5, 1.0, 2.5, 3.0, 5.0):
                        if not 0.0 <= nuis.gamma(q, arm, x) <= 1.0:
                            continue
                        kind = MultivaluedCqr(v=0.3, w=arm)
                        integral = math.fsum(
                            design_atoms.lam_at(x, w) * p * kind.value(y, w, x, q, nuis)
                            for w in design_atoms.treatments
                            for y, p in zip(*design_atoms.outcome_dists[(w, x)])
                        )
                        closed = conditional_mean(kind, x, q, nuis, design_atoms)
                        assert abs(integral - closed) <= 1e-15, (x, arm, q)


class TestSrpCustom:
    def test_valid_triple_passes_conditions_and_moment(self, design_moderate):
        from spw.residuals import SrpCustom, srp_conditions

        # psi1 = W, psi2 = 1, psi3 = -mu0 reproduces the no-propensity
        # residual W tau - (Y - mu0).
        kind = SrpCustom(
            psi1=lambda x, w: w,
            psi2=lambda x, w: 1.0,
            psi3=lambda x, w: -design_moderate.mu0(x),
        )
        for x in design_moderate.points:
            e_psi1, defect = srp_conditions(kind, x, design_moderate)
            assert e_psi1 == pytest.approx(design_moderate.e(x))
            assert defect == pytest.approx(0.0, abs=1e-12)
            value = conditional_mean(
                kind, x, design_moderate.tau(x), NuisanceSet(), design_moderate
            )
            assert abs(value) <= 1e-12

    def test_invalid_triple_reports_nonzero_defect(self, design_moderate):
        from spw.residuals import SrpCustom, srp_conditions

        kind = SrpCustom(
            psi1=lambda x, w: w,
            psi2=lambda x, w: 1.0,
            psi3=lambda x, w: 0.0,  # missing the -mu0 correction
        )
        defects = [abs(srp_conditions(kind, x, design_moderate)[1]) for x in design_moderate.points]
        assert max(defects) > 1e-3
