import numpy as np
import pytest

from mfgclab.conditions import (
    ConditionError,
    QuadraticFormSample,
    affine_feedback,
    anti_theta1,
    check_anti_assumption,
    check_disp_condition,
    check_disp_sufficient,
    check_f_monotone,
    check_ll_condition,
    check_matrix1,
    ll_form,
    make_condition_samples,
    matrix1_assemble,
)
from mfgclab.config import preset_model
from mfgclab.models import MeanPoly2, Model
from mfgclab.monotonicity import LambdaVec


def ll_form_value(model, sample):
    return ll_form(sample.table(model), sample.eta, sample.gamma, sample.zeta)


def ll_example_model(c1, c2, c3, b1=None):
    return Model(b0=(1, 0, 0), f0=(0, 0, 0, c1), B=b1 if b1 is not None else MeanPoly2.zero(),
                 q1=c2, q2=c3)


def disp_example_model(c, b1, f1_x, q1=0.0):
    return Model(b0=(1, 0, 0), f0=(0, 0, 0, c), B=b1, f1_x=f1_x, q1=q1)


def schur_oracle(c1, c2, c3, db1_dm1, db1_dm2):
    """Independent PSD test by pivoting on the leading 2x2 block."""
    m = matrix1_assemble(c1, c2, c3, db1_dm1, db1_dm2)
    d1, d2 = m[0, 0], m[1, 1]
    if d1 < 0 or d2 < 0:
        return False, None
    if d1 == 0 or d2 == 0:
        # degenerate: PSD iff the corresponding off-diagonals vanish
        ok = (d1 > 0 or m[0, 2] == 0) and (d2 > 0 or m[1, 2] == 0)
        schur = m[2, 2] - (m[0, 2] ** 2 / d1 if d1 > 0 else 0.0) \
            - (m[1, 2] ** 2 / d2 if d2 > 0 else 0.0)
        return ok and schur >= 0, schur
    schur = m[2, 2] - m[0, 2] ** 2 / d1 - m[1, 2] ** 2 / d2
    return schur >= 0, schur


PASSING = dict(c1=0.5, c2=0.05, c3=0.1, db1_dm1=0.0, db1_dm2=0.75)
FAILING = dict(c1=0.5, c2=0.03, c3=0.1, db1_dm1=0.0, db1_dm2=0.75)


class TestMatrix1:
    def test_passing_pair_matches_schur_oracle(self):
        ok, schur = schur_oracle(**PASSING)
        assert ok and schur == pytest.approx(0.01)
        report = check_matrix1(**PASSING)
        assert report.passed
        assert np.allclose(
            report.details["matrix"],
            [[0.5, 0.0, 0.1], [0.0, 0.5, 0.1], [0.1, 0.1, 0.05]],
        )

    def test_failing_pair_matches_schur_oracle(self):
        ok, schur = schur_oracle(**FAILING)
        assert not ok and schur == pytest.approx(-0.01)
        report = check_matrix1(**FAILING)
        assert not report.passed
        assert report.witness["eigenvalue"] < 0

    def test_diagonal_reduction(self):
        # db1_dm2 = c1 kills the momentum coupling; c3 = 0 leaves diag(1, 0, c2).
        report = check_matrix1(c1=0.5, c2=0.2, c3=0.0, db1_dm1=0.0, db1_dm2=0.5)
        assert np.allclose(report.details["matrix"], np.diag([1.0, 0.0, 0.2]))
        assert report.passed
        assert not check_matrix1(c1=0.5, c2=-0.2, c3=0.0, db1_dm1=0.0, db1_dm2=0.5).passed

    def test_c1_outside_open_interval_rejected(self):
        for c1 in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ConditionError):
                check_matrix1(c1, 0.05, 0.1, 0.0, 0.75)


class TestLLCondition:
    def test_passing_parameters(self):
        model = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        report = check_ll_condition(model, make_condition_samples(40, 16, seed=1))
        assert report.passed

    def test_failing_parameters_produce_mean_directed_witness(self):
        model = ll_example_model(c1=0.5, c2=0.03, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        report = check_ll_condition(model, make_condition_samples(40, 16, seed=1))
        assert not report.passed
        eta = np.asarray(report.witness["eta"])
        assert np.allclose(eta, eta[0])  # all mass on the mean direction

    def test_zero_variables_trivially_pass(self):
        model = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        zero = np.zeros(8)
        sample = QuadraticFormSample(np.linspace(-1, 1, 8), zero, zero, zero,
                                     affine_feedback(0.0, 1.0))
        assert ll_form_value(model, sample) == 0.0

    def test_matrix_pass_implies_form_pass_over_500_samples(self):
        model = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        assert check_matrix1(**PASSING).passed
        samples = make_condition_samples(500, 16, seed=77)
        report = check_ll_condition(model, samples)
        assert report.passed
        # Converse (form failure when the matrix fails) is empirical; record it.
        model_bad = ll_example_model(c1=0.5, c2=0.03, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        report_bad = check_ll_condition(model_bad, samples)
        assert not check_matrix1(**FAILING).passed
        assert not report_bad.passed  # the rank-one search reproduces it here

    def test_exchangeability_under_atom_relabeling(self):
        model = ll_example_model(c1=0.4, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.5))
        rng = np.random.default_rng(3)
        sample = make_condition_samples(1, 12, seed=9)[0]
        value = ll_form_value(model, sample)
        perm = rng.permutation(12)
        shuffled = QuadraticFormSample(sample.xi[perm], sample.eta[perm],
                                       sample.gamma[perm], sample.zeta[perm],
                                       sample.phi_map)
        assert ll_form_value(model, shuffled) == pytest.approx(value, abs=1e-14)


class TestDispCondition:
    def test_quadratic_cost_passes(self):
        model = disp_example_model(c=0.5, b1=MeanPoly2.linear(m2=0.6), f1_x=(0, 0, 0.25))
        report = check_disp_condition(model, 0.0, make_condition_samples(40, 16, seed=2))
        assert report.passed

    def test_strong_negative_state_coupling_fails(self):
        # f1 = (kappa/2) x^2 - K x E[xi] with K > kappa: the mean direction wins.
        model = disp_example_model(c=0.5, b1=MeanPoly2.linear(m2=0.6),
                                   f1_x=(0, 0, 0.25), q1=-0.8)
        report = check_disp_condition(model, 0.0, make_condition_samples(40, 16, seed=2))
        assert not report.passed
        assert report.witness["value"] > 0


class TestDispSufficient:
    def make_model(self, kappa=0.5, q1=0.0):
        return disp_example_model(c=0.5, b1=MeanPoly2.linear(m2=0.6),
                                  f1_x=(0, 0, kappa / 2), q1=q1)

    def test_passes_with_matching_c0(self):
        # c0 = |cbar * 0.6 - chat| = |1.2 - 1| = 0.2; all couplings vanish so
        # the scalar inequality reads kappa >= 0.
        report = check_disp_sufficient(self.make_model(), 0.0, 0.2,
                                       make_condition_samples(30, 16, seed=4))
        assert report.passed
        scalar = report.details["scalar_inequality"]
        assert scalar["holds"] and scalar["rhs"] == pytest.approx(0.0)

    def test_zero_direction_on_form(self):
        model = self.make_model()
        zero = np.zeros(8)
        sample = QuadraticFormSample(np.linspace(-1, 1, 8), zero, zero, zero,
                                     affine_feedback(0.1, 0.5))
        report = check_disp_sufficient(model, 0.0, 0.2, [sample])
        assert report.passed

    def test_state_coupling_beyond_curvature_fails_scalar_inequality(self):
        report = check_disp_sufficient(self.make_model(q1=0.8), 0.0, 0.2,
                                       make_condition_samples(30, 16, seed=4))
        scalar = report.details["scalar_inequality"]
        assert not scalar["holds"]
        assert not report.passed

    def test_undersized_c0_is_hypothesis_violation(self):
        report = check_disp_sufficient(self.make_model(), 0.0, 0.05,
                                       make_condition_samples(10, 16, seed=4))
        assert not report.passed
        assert report.failure_kind == "hypothesis"


class TestAntiAssumption:
    LV = LambdaVec(1.0, 1.0, 1.0, 8.0)

    def make_model(self, l0=15.0):
        return preset_model({"family": "anti_example", "c": "0.5", "gamma": "1.0",
                             "l0": str(l0)})

    def test_theta1_reference_value(self):
        # gamma_lo = gamma/2 = 0.5, gamma_hi = gamma + 1 = 2, Lu = 1:
        # theta1 = 2 * 2 / sqrt(4 * (0.5 + 16)) = 4 / sqrt(66).
        theta = anti_theta1(self.LV, 0.5, 2.0, 1.0)
        assert theta == pytest.approx(4.0 / np.sqrt(66.0), abs=1e-12)
        assert theta == pytest.approx(0.4924, abs=1e-4)

    def test_zero_l3_fails_at_theta_stage(self):
        report = check_anti_assumption(self.make_model(), LambdaVec(1, 1, 1, 0),
                                       l0=15.0, gamma_lo=0.5, gamma_hi=2.0,
                                       l_bar=1.0, lu_xx=1.0)
        assert not report.passed
        assert report.failure_kind == "theta"
        assert report.details["theta1"] == pytest.approx(4.0 / np.sqrt(2.0))

    def test_theta1_monotone_in_l3_exactly(self):
        thetas = [anti_theta1(LambdaVec(1, 1, 1, l3), 0.5, 2.0, 1.0)
                  for l3 in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b < a for a, b in zip(thetas, thetas[1:]))
        # passing theta1 < 1 at some l3 stays passing for any larger l3
        assert thetas[-1] < thetas[0]

    def test_full_pass_with_large_mean_reversion(self):
        report = check_anti_assumption(self.make_model(l0=15.0), self.LV,
                                       l0=15.0, gamma_lo=0.5, gamma_hi=2.0,
                                       l_bar=1.0, lu_xx=1.0)
        assert report.passed, report.witness
        assert report.details["gain_margin"] > 0

    def test_cross_derivative_bound_is_exact_equality(self):
        # -Hhat_xp = l0 meets the bound with zero margin and must pass.
        report = check_anti_assumption(self.make_model(l0=15.0), self.LV,
                                       l0=15.0, gamma_lo=0.5, gamma_hi=2.0,
                                       l_bar=1.0, lu_xx=1.0)
        assert report.details["bounds_margin"] == pytest.approx(0.0, abs=1e-9)

    def test_insufficient_mean_reversion_fails_gain_stage(self):
        report = check_anti_assumption(self.make_model(l0=5.0), self.LV,
                                       l0=5.0, gamma_lo=0.5, gamma_hi=2.0,
                                       l_bar=1.0, lu_xx=1.0)
        assert not report.passed
        assert report.failure_kind == "gain"


class TestFMonotone:
    @staticmethod
    def identity_drift_model(sign=1.0):
        """separable: b = a, f = a^2/2 + sign x E[xi]."""
        return Model(b0=(-1, 0, 0), q1=sign)

    @staticmethod
    def coupled_pairs(seed=0, n_pairs=10, n=12):
        rng = np.random.default_rng(seed)
        return [((rng.normal(size=n), rng.normal(size=n)),
                 (rng.normal(size=n), rng.normal(size=n))) for _ in range(n_pairs)]

    def test_mean_coupling_passes_with_exact_square(self):
        model = self.identity_drift_model(+1.0)
        pairs = self.coupled_pairs()
        report = check_f_monotone(model, pairs)
        assert report.passed
        (xi1, _), (xi2, _) = pairs[0]
        expected = (xi1.mean() - xi2.mean()) ** 2
        value = float(np.mean(model.cost(xi1, xi1 * 0, xi1.mean(), 0.0)))  # smoke: finite eval
        assert np.isfinite(value)
        assert expected >= 0

    def test_identical_pairs_give_zero(self):
        model = self.identity_drift_model(+1.0)
        rng = np.random.default_rng(5)
        xi = rng.normal(size=8)
        al = rng.normal(size=8)
        report = check_f_monotone(model, [((xi, al), (xi, al))])
        assert report.passed
        assert report.worst_margin == pytest.approx(1e-10)

    def test_negated_coupling_fails_with_witness(self):
        model = self.identity_drift_model(-1.0)
        report = check_f_monotone(model, self.coupled_pairs(seed=2))
        assert not report.passed
        assert report.witness is not None and report.witness["value"] < 0

    def test_non_identity_drift_is_hypothesis_violation(self):
        model = ll_example_model(c1=0.3, c2=0.1, c3=0.1)  # b = -a + ...
        report = check_f_monotone(model, self.coupled_pairs(seed=3))
        assert not report.passed
        assert report.failure_kind == "hypothesis"
