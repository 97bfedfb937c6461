import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_forms import disp_form, dx2_form, ibar_form, ll_form
from test_calculus import coefficient, random_models

from mfgclab import conditions
from mfgclab.conditions import (
    ANTI_BOUNDS,
    ConditionError,
    anti_theta1,
    check_anti_assumption,
    check_disp_condition,
    check_disp_sufficient,
    check_f_monotone,
    check_ll_condition,
    check_matrix1,
    form_matrices,
    make_condition_samples,
    matrix1_assemble,
    sufficient_matrix,
)
from mfgclab.config import ExperimentConfig, preset_model
from mfgclab.models import MeanPoly2, Model, hat_derivative_table
from mfgclab.monotonicity import LambdaVec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCE_FORMS = (ll_form, ibar_form, dx2_form)


def quadratic(matrix, v):
    return float(v @ matrix @ v)


def law_tables(model, xi, p):
    """The hat table of each law (xi[k], p[k]), each from its own call."""
    return [hat_derivative_table(model, x, q) for x, q in zip(xi, p)]


def reference_gap(table, rng, n_directions=8):
    """Largest relative gap between v . M v for the three form matrices and
    the reference forms, over random directions v = (eta, gamma, zeta)."""
    matrices = form_matrices(table)
    gap = 0.0
    for _ in range(n_directions):
        v = rng.normal(size=3 * table.h_pp.shape[0])
        for matrix, form in zip(matrices, REFERENCE_FORMS):
            want = form(table, *np.split(v, 3))
            gap = max(gap, abs(quadratic(matrix, v) - want) / max(1.0, abs(want)))
    return gap


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


def concave_quadratic_max(form, n):
    """Maximum of a concave quadratic form on R^n, rebuilt by polarisation."""
    zero = np.zeros(n)
    basis = np.eye(n)
    c = form(zero)
    plus = np.array([form(e) for e in basis])
    minus = np.array([form(-e) for e in basis])
    b = 0.5 * (plus - minus)
    a = np.diag(0.5 * (plus + minus) - c)
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = a[j, i] = 0.5 * (form(basis[i] + basis[j]) - plus[i] - plus[j] + c)
    return form(-0.5 * np.linalg.solve(a, b))


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


class TestConditionSamples:
    def test_each_law_draws_its_feedback_then_its_states(self):
        # Even laws take an affine feedback, odd laws a clipped cubic, from
        # one generator in law order.
        xi, p = make_condition_samples(4, 6, seed=5)
        assert xi.shape == p.shape == (4, 6)
        rng = np.random.default_rng(5)
        for k in range(4):
            if k % 2 == 0:
                intercept, slope = rng.normal(0, 0.5), rng.normal(0, 1.0)
                x = rng.normal(0.0, 1.0, 6)
                want = intercept + slope * x
            else:
                coeffs = rng.normal(0, 0.5, size=4)
                x = rng.normal(0.0, 1.0, 6)
                want = np.clip(np.polynomial.polynomial.polyval(x, coeffs), -3.0, 3.0)
            assert np.array_equal(xi[k], x) and np.array_equal(p[k], want), k


class TestFormMatrices:
    def test_agree_with_reference_forms_on_chain_model(self):
        # Every table entry is nonzero there, and b0x != 0 makes the measure
        # tables depend on the support atom.
        model = ExperimentConfig.from_ini(CONFIGS / "chain.ini").model()
        rng = np.random.default_rng(8)
        for table in law_tables(model, *make_condition_samples(6, 16, seed=3)):
            assert all(np.all(getattr(table, name) != 0.0)
                       for name in ("h_pp", "h_xx", "h_xp", "h_xrho1", "h_xrho2",
                                    "h_prho1", "h_prho2"))
            assert np.ptp(table.h_xrho1[0]) > 0 and np.ptp(table.h_prho2[0]) > 0
            assert reference_gap(table, rng) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**32 - 1))
    def test_agree_with_reference_forms_on_random_models(self, model, seed):
        rng = np.random.default_rng(seed)
        table = hat_derivative_table(model, *rng.normal(size=(2, 9)))
        assert reference_gap(table, rng) <= 1e-12

    def test_matrices_are_symmetric(self):
        model = ExperimentConfig.from_ini(CONFIGS / "chain.ini").model()
        (table,) = law_tables(model, *make_condition_samples(1, 12, seed=4))
        matrices = form_matrices(table)
        assert matrices.shape == (3, 36, 36)
        assert np.array_equal(matrices, matrices.swapaxes(-1, -2))

    def test_stacked_laws_equal_each_law(self):
        # One call over a stack of laws, as the gates make it: each law's
        # matrices are bit-identical to its own call's.
        model = ExperimentConfig.from_ini(CONFIGS / "chain.ini").model()
        xi, p = make_condition_samples(6, 12, seed=8)
        stacked = form_matrices(hat_derivative_table(model, xi, p))
        assert stacked.shape == (6, 3, 36, 36)
        for k, table in enumerate(law_tables(model, xi, p)):
            assert np.array_equal(stacked[k], form_matrices(table)), k

    def test_gate_over_chunks_of_laws_equals_each_law(self):
        # 40 laws of 16 atoms take three form_matrices calls in a gate; the
        # largest value is the one each law's own matrix gives.
        model = ExperimentConfig.from_ini(CONFIGS / "chain.ini").model()
        xi, p = make_condition_samples(40, 16, seed=2)
        report = check_disp_condition(model, 0.5, xi, p, tol=1e9)
        values = []
        for table in law_tables(model, xi, p):
            ll, ibar, dx2 = form_matrices(table)
            values.append(16 * np.linalg.eigvalsh(ll + ibar + 0.5 * dx2)[-1])
        assert report.details["max_value"] == max(values)

    def test_gates_peak_memory_on_40_laws(self):
        # One hat table over all laws, and the forms in chunks of laws,
        # assembled and symmetrised in place with temporaries of one block
        # or one matrix: the gates peak below the 2.97 MB of the 40 per-law
        # calls they replace.
        model = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        xi, p = make_condition_samples(40, 16, seed=1)
        check_ll_condition(model, xi, p)
        for gate in (lambda: check_ll_condition(model, xi, p),
                     lambda: check_disp_condition(model, 0.5, xi, p)):
            tracemalloc.start()
            try:
                gate()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3_000_000

    def test_permuting_atoms_permutes_blocks(self):
        model = ExperimentConfig.from_ini(CONFIGS / "chain.ini").model()
        rng = np.random.default_rng(5)
        x, p = rng.normal(size=(2, 10))
        perm = rng.permutation(10)
        index = np.concatenate([perm, perm + 10, perm + 20])
        matrices = form_matrices(hat_derivative_table(model, x, p))
        permuted = form_matrices(hat_derivative_table(model, x[perm], p[perm]))
        assert np.allclose(permuted, matrices[:, index][:, :, index], rtol=0, atol=1e-15)


class TestLLCondition:
    def test_passing_parameters(self):
        model = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        report = check_ll_condition(model, *make_condition_samples(40, 16, seed=1))
        assert report.passed

    def test_failing_parameters_produce_mean_directed_witness(self):
        model = ll_example_model(c1=0.5, c2=0.03, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        report = check_ll_condition(model, *make_condition_samples(40, 16, seed=1))
        assert not report.passed
        eta = np.asarray(report.witness["eta"])
        assert np.allclose(eta, eta[0])  # all mass on the mean direction

    def test_zero_variables_trivially_pass(self):
        model = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        xi = np.linspace(-1, 1, 8)[None, :]
        table = hat_derivative_table(model, xi[0], xi[0])
        zero = np.zeros(8)
        assert ll_form(table, zero, zero, zero) == 0.0
        assert quadratic(form_matrices(table)[0], np.zeros(24)) == 0.0
        assert check_ll_condition(model, xi, xi).passed

    def test_matrix_pass_implies_form_pass_over_500_samples(self):
        model = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        assert check_matrix1(**PASSING).passed
        samples = make_condition_samples(500, 16, seed=77)
        report = check_ll_condition(model, *samples)
        assert report.passed
        # Converse (form failure when the matrix fails) is empirical; record it.
        model_bad = ll_example_model(c1=0.5, c2=0.03, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        report_bad = check_ll_condition(model_bad, *samples)
        assert not check_matrix1(**FAILING).passed
        assert not report_bad.passed

    def test_exchangeability_under_atom_relabeling(self):
        model = ll_example_model(c1=0.4, c2=0.05, c3=0.1, b1=MeanPoly2.linear(m2=0.5))
        rng = np.random.default_rng(3)
        (xi,), (p,) = make_condition_samples(1, 12, seed=9)
        eta, gamma, zeta = rng.normal(size=(3, 12))
        value = ll_form(hat_derivative_table(model, xi, p), eta, gamma, zeta)
        perm = rng.permutation(12)
        shuffled = hat_derivative_table(model, xi[perm], p[perm])
        assert ll_form(shuffled, eta[perm], gamma[perm],
                       zeta[perm]) == pytest.approx(value, abs=1e-14)

    def test_witness_attains_reported_value(self):
        model = ll_example_model(c1=0.5, c2=0.03, c3=0.1, b1=MeanPoly2.linear(m2=0.75))
        xi, p = make_condition_samples(40, 16, seed=1)
        report = check_ll_condition(model, xi, p)
        witness = report.witness
        eta, gamma, zeta = (np.asarray(witness[k]) for k in ("eta", "gamma", "zeta"))
        assert np.mean(eta**2 + gamma**2 + zeta**2) == pytest.approx(1.0, rel=1e-12)
        table = hat_derivative_table(model, xi[witness["sample"]], p[witness["sample"]])
        assert ll_form(table, eta, gamma, zeta) == pytest.approx(witness["value"], rel=1e-10)
        value = witness["value"]
        assert report.worst_margin == pytest.approx(
            report.tolerance * max(1.0, abs(value)) - value, abs=1e-15)


@pytest.mark.parametrize("gate", [check_ll_condition,
                                  lambda model, xi, p: check_disp_condition(model, 0.5, xi, p)],
                         ids=["ll", "disp"])
def test_non_finite_forms_fail_the_gate_on_their_law(gate):
    # B0 = 1 + x overflows Hhat_pp at an atom of 1e200 on law 3: its forms
    # are not finite, so that law is the witness, with a NaN value and margin.
    model = Model(b0=(1.0, 1.0, 0.0), f0=(0.0, 0.0, 0.0, 0.5))
    xi, p = make_condition_samples(6, 8, seed=4)
    xi[3, 2] = 1e200
    report = gate(model, xi, p)
    assert not report.passed and report.failure_kind is None
    assert np.isnan(report.worst_margin) and np.isnan(report.details["max_value"])
    assert list(report.witness) == ["sample", "value"]
    assert report.witness["sample"] == 3 and np.isnan(report.witness["value"])


class TestDispCondition:
    def test_quadratic_cost_passes(self):
        model = disp_example_model(c=0.5, b1=MeanPoly2.linear(m2=0.6), f1_x=(0, 0, 0.25))
        report = check_disp_condition(model, 0.0, *make_condition_samples(40, 16, seed=2))
        assert report.passed

    def test_strong_negative_state_coupling_fails(self):
        # f1 = (kappa/2) x^2 - K x E[xi] with K > kappa: the mean direction wins.
        model = disp_example_model(c=0.5, b1=MeanPoly2.linear(m2=0.6),
                                   f1_x=(0, 0, 0.25), q1=-0.8)
        report = check_disp_condition(model, 0.0, *make_condition_samples(40, 16, seed=2))
        assert not report.passed
        assert report.witness["value"] > 0

    @pytest.mark.parametrize("lam,passed", [(0.75, True), (1.0, True), (1.05, False)])
    def test_semi_monotone_gate_ends_at_lambda_one(self, lam, passed):
        # The semi-monotone model: its exact maximum is 0 up to lambda = 1
        # and +6.7e-2 on every law at lambda = 1.05.
        model = disp_example_model(c=0.5, b1=MeanPoly2.linear(m2=0.6), f1_x=(0, 0, 0.5))
        xi, p = make_condition_samples(40, 16, seed=11)
        report = check_disp_condition(model, lam, xi, p)
        assert report.passed is passed
        if not passed:
            witness = report.witness
            assert witness["value"] == pytest.approx(6.7e-2, abs=1e-3)
            eta, gamma, zeta = (np.asarray(witness[k]) for k in ("eta", "gamma", "zeta"))
            table = hat_derivative_table(model, xi[witness["sample"]], p[witness["sample"]])
            assert disp_form(table, eta, gamma, zeta, lam) == pytest.approx(
                witness["value"], rel=1e-10)


class TestDispSufficient:
    def make_model(self, kappa=0.5, q1=0.0):
        return disp_example_model(c=0.5, b1=MeanPoly2.linear(m2=0.6),
                                  f1_x=(0, 0, kappa / 2), q1=q1)

    def test_passes_with_matching_c0(self):
        # c0 = |cbar * 0.6 - chat| = |1.2 - 1| = 0.2; all couplings vanish so
        # the scalar inequality reads kappa >= 0.
        report = check_disp_sufficient(self.make_model(), 0.0, 0.2,
                                       *make_condition_samples(30, 16, seed=4))
        assert report.passed
        scalar = report.details["scalar_inequality"]
        assert scalar["holds"] and scalar["rhs"] == pytest.approx(0.0)

    def test_zero_direction_on_form(self):
        model = self.make_model()
        xi = np.linspace(-1, 1, 8)[None, :]
        p = 0.1 + 0.5 * xi
        table = hat_derivative_table(model, xi[0], p[0])
        assert quadratic(sufficient_matrix(table, 0.0, 0.2), np.zeros(8)) == 0.0
        report = check_disp_sufficient(model, 0.0, 0.2, xi, p)
        assert report.passed

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**32 - 1), laws=st.integers(1, 6),
           atoms=st.integers(1, 10), lam=st.sampled_from([0.0, 0.5]),
           c0=st.sampled_from([0.0, 0.3]))
    def test_stacked_matrices_match_one_law_at_a_time(self, model, seed, laws, atoms, lam,
                                                      c0):
        xi, p = np.random.default_rng(seed).normal(size=(2, laws, atoms))
        with np.errstate(all="ignore"):  # -h_pp - c0 may vanish
            stacked = sufficient_matrix(hat_derivative_table(model, xi, p), lam, c0)
            one = [sufficient_matrix(t, lam, c0) for t in law_tables(model, xi, p)]
        assert stacked.shape == (laws, atoms, atoms)
        for k in range(laws):
            assert np.array_equal(stacked[k], one[k], equal_nan=True)

    def test_state_coupling_beyond_curvature_fails_scalar_inequality(self):
        report = check_disp_sufficient(self.make_model(q1=0.8), 0.0, 0.2,
                                       *make_condition_samples(30, 16, seed=4))
        scalar = report.details["scalar_inequality"]
        assert not scalar["holds"]
        assert not report.passed

    def test_undersized_c0_is_hypothesis_violation(self):
        report = check_disp_sufficient(self.make_model(), 0.0, 0.05,
                                       *make_condition_samples(10, 16, seed=4))
        assert not report.passed
        assert report.failure_kind == "hypothesis"

    @pytest.mark.parametrize("c0,bound", [(0.05, "h_prho2"), (1.0, "h_pp")])
    def test_hypothesis_witness_is_the_first_failing_law(self, c0, bound):
        # Against each law's own table, h_prho2 checked before h_pp.
        model = self.make_model()
        xi, p = make_condition_samples(10, 16, seed=4)
        report = check_disp_sufficient(model, 0.0, c0, xi, p)
        for k, t in enumerate(law_tables(model, xi, p)):
            if np.max(np.abs(t.h_prho2)) > c0 + 1e-9:
                want = {"sample": k, "bound": "h_prho2", "value": np.max(np.abs(t.h_prho2))}
                break
            if np.max(t.h_pp) >= -c0 - 1e-12:
                want = {"sample": k, "bound": "h_pp", "value": np.max(t.h_pp)}
                break
        assert want["bound"] == bound
        assert report.witness == {**want, "c0": c0}

    def test_value_bounds_the_displacement_form(self):
        # The sufficient condition's form v(eta) bounds the displacement form
        # from above: max over gamma + zeta of (ll + ibar + lam dx2) <= -v(eta),
        # and the report's value is the minimum of v over unit-RMS eta.
        # q2 = 0.3 makes h_xrho2 nonzero.
        model = preset_model({"family": "disp_example", "c": "0.5",
                              "b1_mean": "0 -0.1 0.75", "f1_x": "0 0 0.25", "q2": "0.3"})
        rng = np.random.default_rng(6)
        n = 16
        for lam in (0.0, 0.5):
            for xi, p in zip(*make_condition_samples(10, n, seed=4)):
                report = check_disp_sufficient(model, lam, 0.5, xi[None], p[None], tol=0.0)
                assert report.failure_kind is None
                table = hat_derivative_table(model, xi, p)
                matrix = sufficient_matrix(table, lam, 0.5)
                eigvals, eigvecs = np.linalg.eigh(matrix)
                value = report.worst_margin  # tol = 0: the margin is the value
                assert value == pytest.approx(n * eigvals[0], rel=1e-12)
                zero = np.zeros(n)
                for eta in [np.sqrt(n) * eigvecs[:, 0], *rng.normal(size=(3, n))]:

                    def form(gz):
                        return (ll_form(table, eta, gz, zero) + ibar_form(table, eta, gz, zero)
                                + lam * dx2_form(table, eta, gz, zero))

                    bound = -quadratic(matrix, eta)
                    assert concave_quadratic_max(form, n) <= bound + 1e-12
                    assert bound <= -value * np.mean(eta**2) + 1e-12


class TestAntiAssumption:
    LV = LambdaVec(1.0, 1.0, 1.0, 8.0)
    XI, P = make_condition_samples(40, 16, seed=0)

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
                                       l_bar=1.0, lu_xx=1.0, xi=self.XI, p=self.P)
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
                                       l_bar=1.0, lu_xx=1.0, xi=self.XI, p=self.P)
        assert report.passed, report.witness
        assert report.details["gain_margin"] > 0

    def test_cross_derivative_bound_is_exact_equality(self):
        # -Hhat_xp = l0 meets the bound with zero margin and must pass.
        report = check_anti_assumption(self.make_model(l0=15.0), self.LV,
                                       l0=15.0, gamma_lo=0.5, gamma_hi=2.0,
                                       l_bar=1.0, lu_xx=1.0, xi=self.XI, p=self.P)
        assert report.details["bounds_margin"] == pytest.approx(0.0, abs=1e-9)

    def test_nan_derivative_fails_its_bound(self, monkeypatch):
        # A NaN entry of law 2's Hhat_xx fails that law's |h_xx| bound, where
        # every law passes without it.
        def table_with_nan(model, xi, p):
            table = hat_derivative_table(model, xi, p)
            table.h_xx[2, 5] = np.nan
            return table

        monkeypatch.setattr(conditions, "hat_derivative_table", table_with_nan)
        report = check_anti_assumption(self.make_model(l0=15.0), self.LV,
                                       l0=15.0, gamma_lo=0.5, gamma_hi=2.0,
                                       l_bar=1.0, lu_xx=1.0, xi=self.XI, p=self.P)
        assert not report.passed and report.failure_kind == "derivative_bounds"
        assert report.witness["sample"] == 2
        assert report.witness["bound"] == "abs_h_xx<=gamma_hi*l0"
        assert np.isnan(report.witness["margin"]) and np.isnan(report.worst_margin)

    @pytest.mark.parametrize("l0,l_bar", [(1.0, 0.1), (15.0, 0.1), (20.0, 5.0), (5.0, 1.0)])
    def test_bounds_witness_is_the_first_failure_by_law_then_bound(self, l0, l_bar):
        # Against each law's own table, its nine margins in ANTI_BOUNDS order.
        model = self.make_model(l0=15.0)
        report = check_anti_assumption(model, self.LV, l0=l0, gamma_lo=0.5, gamma_hi=2.0,
                                       l_bar=l_bar, lu_xx=1.0, xi=self.XI, p=self.P)
        rows = []
        for t in law_tables(model, self.XI, self.P):
            rows.append([2.0 * l0 - np.max(np.abs(t.h_xp)), 2.0 * l0 - np.max(np.abs(t.h_xx)),
                         *(l_bar - np.max(np.abs(getattr(t, name))) for name in
                           ("h_pp", "h_xrho1", "h_xrho2", "h_prho1", "h_prho2")),
                         np.min(-t.h_xp) - l0, np.min(-t.h_xx) - 0.5 * l0])
        failures = [(k, j) for k, row in enumerate(rows) for j, m in enumerate(row) if m < -1e-9]
        assert failures, "the case must fail a bound"
        k, j = failures[0]
        assert report.failure_kind == "derivative_bounds"
        assert report.witness == {"sample": k, "bound": ANTI_BOUNDS[j], "margin": rows[k][j]}
        assert report.worst_margin == min(map(min, rows))

    def test_insufficient_mean_reversion_fails_gain_stage(self):
        report = check_anti_assumption(self.make_model(l0=5.0), self.LV,
                                       l0=5.0, gamma_lo=0.5, gamma_hi=2.0,
                                       l_bar=1.0, lu_xx=1.0, xi=self.XI, p=self.P)
        assert not report.passed
        assert report.failure_kind == "gain"


def cross_differences(model, xi1, a1, xi2, a2):
    """The cross difference of each pair, one pair at a time with its laws'
    means as Python floats."""
    values = []
    for x1, b1, x2, b2 in zip(xi1, a1, xi2, a2):
        law1 = (float(np.mean(x1)), float(np.mean(b1)))
        law2 = (float(np.mean(x2)), float(np.mean(b2)))
        values.append(float(
            np.mean(model.cost(x1, b1, *law1)) + np.mean(model.cost(x2, b2, *law2))
            - np.mean(model.cost(x1, b1, *law2)) - np.mean(model.cost(x2, b2, *law1))))
    return np.array(values)


class TestFMonotone:
    @staticmethod
    def identity_drift_model(sign=1.0):
        """separable: b = a, f = a^2/2 + sign x E[xi]."""
        return Model(b0=(-1, 0, 0), q1=sign)

    @staticmethod
    def coupled_pairs(seed=0, n_pairs=10, n=12):
        """(xi1, a1, xi2, a2), each (n_pairs, n): pair k is one (4, n) draw."""
        return np.random.default_rng(seed).normal(size=(n_pairs, 4, n)).transpose(1, 0, 2)

    def test_mean_coupling_passes_with_exact_square(self):
        model = self.identity_drift_model(+1.0)
        pairs = self.coupled_pairs()
        report = check_f_monotone(model, *pairs)
        assert report.passed
        xi1, _, xi2, _ = pairs[:, 0]
        expected = (xi1.mean() - xi2.mean()) ** 2
        value = float(np.mean(model.cost(xi1, xi1 * 0, xi1.mean(), 0.0)))  # smoke: finite eval
        assert np.isfinite(value)
        assert expected >= 0

    def test_identical_pairs_give_zero(self):
        model = self.identity_drift_model(+1.0)
        rng = np.random.default_rng(5)
        xi = rng.normal(size=8)
        al = rng.normal(size=8)
        report = check_f_monotone(model, xi[None], al[None], xi[None], al[None])
        assert report.passed
        assert report.worst_margin == pytest.approx(1e-10)

    def test_negated_coupling_fails_with_witness(self):
        model = self.identity_drift_model(-1.0)
        report = check_f_monotone(model, *self.coupled_pairs(seed=2))
        assert not report.passed
        assert report.witness is not None and report.witness["value"] < 0

    def test_non_identity_drift_is_hypothesis_violation(self):
        model = ll_example_model(c1=0.3, c2=0.1, c3=0.1)  # b = -a + ...
        report = check_f_monotone(model, *self.coupled_pairs(seed=3))
        assert not report.passed
        assert report.failure_kind == "hypothesis"

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(f0=st.tuples(coefficient, coefficient, coefficient, st.floats(-1.0, 0.9)),
           f1_x=st.lists(coefficient, min_size=1, max_size=4), q1=coefficient, q2=coefficient,
           seed=st.integers(0, 2**32 - 1), n_pairs=st.integers(1, 8), n=st.integers(1, 12))
    def test_matches_the_pair_loop(self, f0, f1_x, q1, q2, seed, n_pairs, n):
        # The worst margin and witness bit for bit against one pair at a time.
        model = Model(b0=(-1, 0, 0), f0=f0, f1_x=f1_x, q1=q1, q2=q2)
        pairs = self.coupled_pairs(seed, n_pairs, n)
        values = cross_differences(model, *pairs)
        report = check_f_monotone(model, *pairs, tol=0.0)
        worst = int(np.argmin(values))
        assert report.worst_margin == values[worst] + 0.0
        assert report.witness == (None if values[worst] >= 0.0
                                  else {"pair": worst, "value": values[worst]})

    def test_non_finite_pair_is_the_witness(self):
        # A NaN cross difference fails the check even after a negative one.
        model = self.identity_drift_model(-1.0)
        xi1, a1, xi2, a2 = self.coupled_pairs(seed=2)
        assert cross_differences(model, xi1, a1, xi2, a2)[0] < 0.0
        xi1[4, 3] = np.inf
        report = check_f_monotone(model, xi1, a1, xi2, a2)
        assert not report.passed and np.isnan(report.worst_margin)
        assert report.witness["pair"] == 4 and np.isnan(report.witness["value"])
