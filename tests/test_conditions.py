import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_forms import (
    disp_form,
    dx2_form,
    every_law_gate,
    every_law_sufficient,
    ibar_form,
    ll_example_matrix,
    ll_form,
)
from test_calculus import coefficient, random_models

from mfgclab import conditions
from mfgclab.conditions import (
    ANTI_BOUNDS,
    PASS_SLACK,
    REL_TOL,
    ConditionError,
    _distinct_laws,
    anti_theta1,
    check_anti_assumption,
    check_disp_condition,
    check_disp_sufficient,
    check_f_monotone,
    check_ll_condition,
    forcings,
    form_matrices,
    form_rows,
    make_condition_samples,
    sufficient_matrix,
)
from mfgclab.config import ExperimentConfig, preset_model
from mfgclab.models import MeanPoly2, Model, hat_derivative_table
from mfgclab.monotonicity import LambdaVec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LL_WEIGHTS, DISP_WEIGHTS = (1.0, 0.0, 0.0), (1.0, 1.0, 0.5)
# The weights of form_matrices that give each reference form.
REFERENCE_FORMS = ((LL_WEIGHTS, ll_form), ((0.0, 1.0, 0.0), ibar_form),
                   ((0.0, 0.0, 1.0), dx2_form),
                   (DISP_WEIGHTS, lambda table, *v: disp_form(table, *v, lam=0.5)))


def quadratic(matrix, v):
    return float(v @ matrix @ v)


def law_tables(model, xi, p):
    """The hat table of each law (xi[k], p[k]), each from its own call."""
    return [hat_derivative_table(model, x, q) for x, q in zip(xi, p)]


def reference_gap(table, rng, n_directions=8):
    """Largest relative gap between v . M v for the form matrices of
    ``REFERENCE_FORMS`` and their reference forms, over random directions
    v = (eta, gamma, zeta)."""
    matrices = [(form_matrices(table, weights), form) for weights, form in REFERENCE_FORMS]
    gap = 0.0
    for _ in range(n_directions):
        v = rng.normal(size=3 * table.h_pp.shape[0])
        for matrix, form in matrices:
            want = form(table, *np.split(v, 3))
            gap = max(gap, abs(quadratic(matrix, v) - want) / max(1.0, abs(want)))
    return gap


def ll_example_model(c1, c2, c3, b1=None, f1_x=(0.0,)):
    return Model(b0=(1, 0, 0), f0=(0, 0, 0, c1), B=b1 if b1 is not None else MeanPoly2.zero(),
                 f1_x=f1_x, q1=c2, q2=c3)


def disp_example_model(c, b1, f1_x, q1=0.0):
    return Model(b0=(1, 0, 0), f0=(0, 0, 0, c), B=b1, f1_x=f1_x, q1=q1)


def schur_oracle(c1, c2, c3, db1_dm1, db1_dm2):
    """Independent PSD test of ``ll_example_matrix`` by pivoting on its
    leading 2x2 block."""
    m = ll_example_matrix(c1, c2, c3, db1_dm1, db1_dm2)
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
# The laws of the ll gate on the ll_example family, whose hat tables are law-free.
ORACLE_LAWS = make_condition_samples(4, 8, seed=3)


def ll_example_gate(c1, c2, c3, db1_dm1, db1_dm2, f1_x=(0.0,), b1_const=0.0):
    """The ll gate's report on the ll_example model of these parameters."""
    model = ll_example_model(c1, c2, c3, MeanPoly2((b1_const, db1_dm1, db1_dm2)), f1_x)
    return check_ll_condition(model, *ORACLE_LAWS)


class TestLLClosedForm:
    """The ll gate on the ll_example family against its 3x3 closed form
    (``reference_forms.ll_example_matrix``): the gate's value is
    max(-lambda_min, 0), so the gate fails exactly where the matrix is not
    positive semidefinite beyond the gate's tolerance."""

    def test_passing_pair_matches_schur_oracle(self):
        ok, schur = schur_oracle(**PASSING)
        assert ok and schur == pytest.approx(0.01)
        assert np.allclose(ll_example_matrix(**PASSING),
                           [[0.5, 0.0, 0.1], [0.0, 0.5, 0.1], [0.1, 0.1, 0.05]])
        assert ll_example_gate(**PASSING).passed

    def test_failing_pair_matches_schur_oracle(self):
        ok, schur = schur_oracle(**FAILING)
        assert not ok and schur == pytest.approx(-0.01)
        report = ll_example_gate(**FAILING)
        assert not report.passed
        smallest = np.linalg.eigvalsh(ll_example_matrix(**FAILING))[0]
        assert report.witness["value"] == pytest.approx(-smallest, rel=1e-12)

    def test_diagonal_reduction(self):
        # db1_dm2 = c1 kills the momentum coupling; c3 = 0 leaves diag(1, 0, c2).
        reduced = dict(c1=0.5, c3=0.0, db1_dm1=0.0, db1_dm2=0.5)
        assert np.allclose(ll_example_matrix(c2=0.2, **reduced), np.diag([1.0, 0.0, 0.2]))
        assert ll_example_gate(c2=0.2, **reduced).passed
        report = ll_example_gate(c2=-0.2, **reduced)
        assert not report.passed and report.witness["value"] == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("quartic", [False, True], ids=["quadratic", "quartic"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(c1=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           c2=st.floats(-2.0, 2.0), c3=st.floats(-2.0, 2.0),
           b1=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
           f1=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.01, 1.0)))
    def test_gate_is_the_closed_form(self, quartic, c1, c2, c3, b1, f1):
        # Over linear mean couplings, half of the models with a quartic
        # running cost f1_x, which the ll form does not read.
        b1_const, db1_dm1, db1_dm2 = b1
        report = ll_example_gate(c1, c2, c3, db1_dm1, db1_dm2,
                                 f1_x=(0.0, 0.0, *f1) if quartic else (0.0,),
                                 b1_const=b1_const)
        want = max(-np.linalg.eigvalsh(ll_example_matrix(c1, c2, c3, db1_dm1, db1_dm2))[0],
                   0.0)
        # The gate's own rule, applied to the closed form's value.
        assert report.passed == (REL_TOL * max(1.0, want) - want >= -PASS_SLACK)
        if not report.passed:
            assert abs(report.details["max_value"] - want) <= 1e-12 * want


class TestConditionSamples:
    @pytest.mark.parametrize("laws, atoms", [(0, 16), (40, 0)], ids=["no_laws", "no_atoms"])
    def test_empty_sample_set_rejected(self, laws, atoms):
        # The gates would crash untyped on it: eigvalsh of no matrices, or a
        # mean over no atoms.
        with pytest.raises(ConditionError, match=f"got {laws} laws of {atoms} atoms"):
            make_condition_samples(laws, atoms)

    @pytest.mark.parametrize("shape", [(0, 16), (3, 0)], ids=["no_laws", "no_atoms"])
    @pytest.mark.parametrize("checker", [
        lambda model, xi, p: check_ll_condition(model, xi, p),
        lambda model, xi, p: check_disp_condition(model, 0.5, xi, p),
        lambda model, xi, p: check_disp_sufficient(model, 0.5, 0.2, xi, p),
        lambda model, xi, p: check_anti_assumption(model, LambdaVec(1, 1, 1, 8), 15.0,
                                                   0.5, 2.0, 1.0, 1.0, xi, p),
        lambda model, xi, p: check_f_monotone(model, xi, p, xi, p),
    ], ids=["ll", "disp", "disp_sufficient", "anti", "f_monotone"])
    def test_checker_rejects_empty_laws(self, checker, shape):
        # Handed directly, an empty stack would crash untyped: a reshape or
        # an argmin of no laws, a mean over no atoms.  The model's drift is
        # the control, so that check_f_monotone reaches its laws too.
        model = Model(b0=(-1, 0, 0), q1=1.0)
        with pytest.raises(ConditionError, match=rf"laws of shape \({shape[0]}, {shape[1]}\)"):
            checker(model, np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("laws, atoms", [(4, 6), (5, 6), (1, 6), (4, 1), (41, 16)],
                             ids=["even", "odd", "one_law", "one_atom", "odd_shipped"])
    def test_each_law_draws_its_feedback_then_its_states(self, laws, atoms):
        # Even laws take an affine feedback, odd laws a clipped cubic, from
        # one generator in law order, each law drawn by its own calls: the
        # one-draw sampler is bit-identical to it.
        xi, p = make_condition_samples(laws, atoms, seed=5)
        assert xi.shape == p.shape == (laws, atoms)
        rng = np.random.default_rng(5)
        for k in range(laws):
            if k % 2 == 0:
                intercept, slope = rng.normal(0, 0.5), rng.normal(0, 1.0)
                x = rng.normal(0.0, 1.0, atoms)
                want = intercept + slope * x
            else:
                coeffs = rng.normal(0, 0.5, size=4)
                x = rng.normal(0.0, 1.0, atoms)
                want = np.clip(np.polynomial.polynomial.polyval(x, coeffs), -3.0, 3.0)
            assert np.array_equal(xi[k], x) and np.array_equal(p[k], want), k


def polar_gap(table, weights, form, v, w):
    """Relative gap between the symmetric bilinear form of ``form_rows``,
    (sum w . K(v) + sum v . K(w)) / 2, and the polarised reference form
    (ref(v + w) - ref(v - w)) / 4."""
    def rows(u):
        return form_rows(table, weights, *u, *forcings(table, u[0], u[1] + u[2]))

    got = 0.5 * sum(float(np.sum(a * k)) for x, y in ((w, v), (v, w)) for a, k in zip(x, rows(y)))
    want = (form(table, *(v + w)) - form(table, *(v - w))) / 4.0
    return abs(got - want) / max(1.0, abs(want))


class TestFormRows:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(model=random_models(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10))
    def test_polarised_reference_forms_on_random_models(self, model, seed, n):
        # The rows' bilinear form at random v and w against the reference
        # form of each REFERENCE_FORMS weight: L, Ibar, DX2 and displacement.
        rng = np.random.default_rng(seed)
        table = hat_derivative_table(model, *rng.normal(size=(2, n)))
        v, w = rng.normal(size=(2, 3, n))
        for weights, form in REFERENCE_FORMS:
            assert polar_gap(table, weights, form, v, w) <= 1e-12, weights

    def test_zero_weights_skip_their_terms(self):
        # A row with no term of nonzero weight is 0.0, and a zero-weight term
        # reads nothing: a NaN table entry that only such terms read leaves
        # the rows finite.
        rng = np.random.default_rng(1)
        table = hat_derivative_table(ExperimentConfig.from_ini(CONFIGS / "chain.ini").model(),
                                     *rng.normal(size=(2, 6)))
        v = rng.normal(size=(3, 6))
        pi, chi = forcings(table, v[0], v[1] + v[2])
        assert form_rows(table, (0.0, 0.0, 0.0), *v, pi, chi) == (0.0, 0.0, 0.0)
        dx2 = form_rows(replace(table, h_xx=np.full(6, np.nan)), (0.0, 0.0, 1.0), *v,
                        pi, chi * np.nan)
        assert np.isfinite(dx2[0]).all() and dx2[1:] == (0.0, 0.0)


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
        for weights, _ in REFERENCE_FORMS:
            matrix = form_matrices(table, weights)
            assert matrix.shape == (36, 36)
            assert np.array_equal(matrix, matrix.T), weights

    @pytest.mark.parametrize("weights", [LL_WEIGHTS, DISP_WEIGHTS], ids=["ll", "disp"])
    def test_stacked_laws_equal_each_law(self, weights):
        # One call over a stack of laws, as the gates make it: each law's
        # matrix is bit-identical to its own call's.
        model = ExperimentConfig.from_ini(CONFIGS / "chain.ini").model()
        xi, p = make_condition_samples(6, 12, seed=8)
        stacked = form_matrices(hat_derivative_table(model, xi, p), weights)
        assert stacked.shape == (6, 36, 36)
        for k, table in enumerate(law_tables(model, xi, p)):
            assert np.array_equal(stacked[k], form_matrices(table, weights)), k

    def test_disp_gate_over_40_laws_equals_each_law(self):
        # The displacement gate's one form over 40 laws of 16 atoms: each
        # law's matrix is bit-identical to its own call's, so the largest
        # value is the one each law's own matrix gives; the sum of the three
        # separate forms, and the reference form, agree at round-off.
        model = ExperimentConfig.from_ini(CONFIGS / "chain.ini").model()
        xi, p = make_condition_samples(40, 16, seed=2)
        report = check_disp_condition(model, 0.5, xi, p, tol=1e9)
        stacked = form_matrices(hat_derivative_table(model, xi, p), DISP_WEIGHTS)
        rng = np.random.default_rng(2)
        values, summed = [], []
        for k, table in enumerate(law_tables(model, xi, p)):
            matrix = form_matrices(table, DISP_WEIGHTS)
            assert np.array_equal(stacked[k], matrix), k
            values.append(16 * np.linalg.eigvalsh(matrix)[-1])
            ll, ibar, dx2 = (form_matrices(table, weights) for weights, _ in REFERENCE_FORMS[:3])
            summed.append(16 * np.linalg.eigvalsh(ll + ibar + 0.5 * dx2)[-1])
            assert reference_gap(table, rng, n_directions=2) <= 1e-12
        assert report.details["max_value"] == max(values)
        assert np.allclose(values, summed, rtol=1e-13, atol=1e-14)

    def test_gates_peak_memory_on_40_laws(self):
        # One hat table over all laws, and only the gate's one form, filled
        # one block of unit vectors at a time and symmetrised in place.  On
        # chain.ini's law-dependent model that is 737 KB of matrices and
        # their symmetrising copy: each gate peaks at 1.98 MB (numpy 2.4;
        # 2.05 MB with the blocks written by hand), and the bound leaves
        # 16 % headroom, below the 2.53 MB of building all three forms.
        # ll_example's table is law-free, so the gates
        # build one law's form: each peaks at 520 KB, the table itself,
        # and the bound leaves 15 % headroom, far below the every-law build.
        chain = ExperimentConfig.from_ini(CONFIGS / "chain.ini").model()
        law_free = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2((0, 0, 0.75)))
        xi, p = make_condition_samples(40, 16, seed=1)
        check_ll_condition(law_free, xi, p)
        for model, bound in ((chain, 2_300_000), (law_free, 600_000)):
            for gate in (lambda: check_ll_condition(model, xi, p),
                         lambda: check_disp_condition(model, 0.5, xi, p)):
                tracemalloc.start()
                try:
                    gate()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= bound

    def test_permuting_atoms_permutes_blocks(self):
        model = ExperimentConfig.from_ini(CONFIGS / "chain.ini").model()
        rng = np.random.default_rng(5)
        x, p = rng.normal(size=(2, 10))
        perm = rng.permutation(10)
        index = np.concatenate([perm, perm + 10, perm + 20])
        for weights, _ in REFERENCE_FORMS:
            matrix = form_matrices(hat_derivative_table(model, x, p), weights)
            permuted = form_matrices(hat_derivative_table(model, x[perm], p[perm]), weights)
            assert np.allclose(permuted, matrix[index][:, index], rtol=0, atol=1e-15), weights


class TestLLCondition:
    def test_passing_parameters(self):
        model = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2((0, 0, 0.75)))
        report = check_ll_condition(model, *make_condition_samples(40, 16, seed=1))
        assert report.passed

    def test_failing_parameters_produce_mean_directed_witness(self):
        model = ll_example_model(c1=0.5, c2=0.03, c3=0.1, b1=MeanPoly2((0, 0, 0.75)))
        report = check_ll_condition(model, *make_condition_samples(40, 16, seed=1))
        assert not report.passed
        eta = np.asarray(report.witness["eta"])
        assert np.allclose(eta, eta[0])  # all mass on the mean direction

    def test_zero_variables_trivially_pass(self):
        model = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2((0, 0, 0.75)))
        xi = np.linspace(-1, 1, 8)[None, :]
        table = hat_derivative_table(model, xi[0], xi[0])
        zero = np.zeros(8)
        assert ll_form(table, zero, zero, zero) == 0.0
        assert quadratic(form_matrices(table, LL_WEIGHTS), np.zeros(24)) == 0.0
        assert check_ll_condition(model, xi, xi).passed

    def test_matrix_pass_implies_form_pass_over_500_samples(self):
        model = ll_example_model(c1=0.5, c2=0.05, c3=0.1, b1=MeanPoly2((0, 0, 0.75)))
        assert np.linalg.eigvalsh(ll_example_matrix(**PASSING))[0] > 0
        samples = make_condition_samples(500, 16, seed=77)
        report = check_ll_condition(model, *samples)
        assert report.passed
        # The form fails where the closed form fails.
        model_bad = ll_example_model(c1=0.5, c2=0.03, c3=0.1, b1=MeanPoly2((0, 0, 0.75)))
        report_bad = check_ll_condition(model_bad, *samples)
        assert np.linalg.eigvalsh(ll_example_matrix(**FAILING))[0] < 0
        assert not report_bad.passed

    def test_exchangeability_under_atom_relabeling(self):
        model = ll_example_model(c1=0.4, c2=0.05, c3=0.1, b1=MeanPoly2((0, 0, 0.5)))
        rng = np.random.default_rng(3)
        (xi,), (p,) = make_condition_samples(1, 12, seed=9)
        eta, gamma, zeta = rng.normal(size=(3, 12))
        value = ll_form(hat_derivative_table(model, xi, p), eta, gamma, zeta)
        perm = rng.permutation(12)
        shuffled = hat_derivative_table(model, xi[perm], p[perm])
        assert ll_form(shuffled, eta[perm], gamma[perm],
                       zeta[perm]) == pytest.approx(value, abs=1e-14)

    def test_witness_attains_reported_value(self):
        model = ll_example_model(c1=0.5, c2=0.03, c3=0.1, b1=MeanPoly2((0, 0, 0.75)))
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


def non_finite_laws():
    """Laws whose atom 2 sits at 1e200 on every law."""
    xi, p = make_condition_samples(40, 16, seed=1)
    xi[:, 2] = 1e200
    return xi, p


class TestDistinctLaws:
    """A law-free hat table is judged on law 0 alone, and gives the report
    of judging every law (``reference_forms.every_law_*``)."""

    # name: (model, lam, c0, laws, law_free)
    CASES = {
        "law_free_pass": (disp_example_model(c=0.5, b1=MeanPoly2((0, 0, 0.6)),
                                             f1_x=(0, 0, 0.25)), 0.5, 0.2, None, True),
        "law_free_fail": (ll_example_model(c1=0.5, c2=0.03, c3=0.1,
                                           b1=MeanPoly2((0, 0, 0.75))), 0.5, 0.6, None, True),
        "chain": (ExperimentConfig.from_ini(CONFIGS / "chain.ini").model(), 0.5, 0.6, None,
                  False),
        "meanfield_1d": (Model(b0=(1, 0.3, 0), f0=(0, 0, 0, 0.5)), 0.5, 0.6, None, False),
        # Only h_xx, through the quartic f1_x, depends on the law.
        "quartic": (disp_example_model(c=0.5, b1=MeanPoly2((0, 0, 0.6)),
                                       f1_x=(0, 0, 0.25, 0, 0.05)), 0.5, 0.2, None, False),
        # Within the sufficient condition's hypotheses: its eigenvalue
        # stage fails on law 37 alone.
        "x_dependent": (Model(b0=(1.0, 0.05, 0.0), f0=(0.0, 0.1, 0.0, 0.5),
                              B=MeanPoly2((0.0, -0.1, 0.5)), f1_x=(0.0, 0.0, 0.25), q2=0.3),
                        0.5, 0.3, None, False),
        # -inf in h_pp and h_prho2 on every law, bitwise alike.
        "non_finite_law_free": (Model(b0=(1e200, 0, 0), f0=(0, 0, 0, 0.5)), 0.5, 0.6, None,
                                True),
        "non_finite": (Model(b0=(1.0, 1.0, 0.0), f0=(0.0, 0.0, 0.0, 0.5)), 0.5, 0.6,
                       non_finite_laws(), False),
    }
    GATES = {
        "ll": (lambda model, lam, c0, xi, p: check_ll_condition(model, xi, p),
               lambda model, lam, c0, table: every_law_gate(
                   "lasry_lions_hamiltonian", table, (1.0, 0.0, 0.0))),
        "disp": (lambda model, lam, c0, xi, p: check_disp_condition(model, lam, xi, p),
                 lambda model, lam, c0, table: every_law_gate(
                     "displacement_hamiltonian", table, (1.0, 1.0, lam))),
        "disp_sufficient": (check_disp_sufficient, every_law_sufficient),
    }

    @staticmethod
    def assert_same_report(got, want):
        # The bytes of report.json: a float equal by value but not by bits,
        # a signed zero say, differs in its repr.
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    @pytest.mark.parametrize("gate", sorted(GATES))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_equals_every_law_judge(self, case, gate):
        model, lam, c0, laws, law_free = self.CASES[case]
        xi, p = laws if laws is not None else make_condition_samples(40, 16, seed=1)
        with np.errstate(all="ignore"):
            table = hat_derivative_table(model, xi, p)
        assert len(_distinct_laws(table).h_pp) == (1 if law_free else 40)
        judge, reference = self.GATES[gate]
        report = judge(model, lam, c0, xi, p)
        self.assert_same_report(report, reference(model, lam, c0, table))
        assert report.n_samples == 40
        if case == "law_free_pass":
            assert report.passed
        elif case == "law_free_fail":
            assert not report.passed and report.failure_kind is None
            assert report.witness["sample"] == 0 and "eta" in report.witness
        elif case == "x_dependent" and gate != "ll":
            assert report.witness["sample"] == 37 and report.failure_kind is None

    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_signed_zero_takes_the_every_law_path(self, gate, monkeypatch):
        # Law 5's h_xp, zero on every law, is -0.0 at one atom: equal by
        # value, not by bits, so every law is judged.
        model, lam, c0, _, _ = self.CASES["law_free_fail"]
        xi, p = make_condition_samples(40, 16, seed=1)
        table = hat_derivative_table(model, xi, p)
        assert np.all(table.h_xp == 0.0) and not np.signbit(table.h_xp[5, 3])
        table.h_xp[5, 3] = -0.0
        assert len(_distinct_laws(table).h_pp) == 40
        monkeypatch.setattr(conditions, "hat_derivative_table", lambda model, xi, p: table)
        judged, eigenvalues = [], conditions._eigenvalues
        monkeypatch.setattr(conditions, "_eigenvalues",
                            lambda matrices: judged.append(len(matrices)) or eigenvalues(matrices))
        judge, reference = self.GATES[gate]
        self.assert_same_report(judge(model, lam, c0, xi, p),
                                reference(model, lam, c0, table))
        assert judged == [40]

    def test_every_shipped_gate_is_law_free_but_chain(self):
        # The families that qualify: on every shipped config, whose families
        # are ll_example, disp_example, anti_example and separable, one law
        # stands for all; on chain.ini's meanfield_1d model (b0x != 0, a
        # cubic f1_x and a quadratic mean coupling) no law does.
        for path in sorted(CONFIGS.glob("*.ini")):
            cfg = ExperimentConfig.from_ini(path)
            laws, atoms = cfg.check_sizes()
            table = hat_derivative_table(cfg.model(),
                                         *make_condition_samples(laws, atoms, cfg.seed))
            want = laws if path.name == "chain.ini" else 1
            assert len(_distinct_laws(table).h_pp) == want, path.name


class TestDispCondition:
    def test_quadratic_cost_passes(self):
        model = disp_example_model(c=0.5, b1=MeanPoly2((0, 0, 0.6)), f1_x=(0, 0, 0.25))
        report = check_disp_condition(model, 0.0, *make_condition_samples(40, 16, seed=2))
        assert report.passed

    def test_strong_negative_state_coupling_fails(self):
        # f1 = (kappa/2) x^2 - K x E[xi] with K > kappa: the mean direction wins.
        model = disp_example_model(c=0.5, b1=MeanPoly2((0, 0, 0.6)),
                                   f1_x=(0, 0, 0.25), q1=-0.8)
        report = check_disp_condition(model, 0.0, *make_condition_samples(40, 16, seed=2))
        assert not report.passed
        assert report.witness["value"] > 0

    @pytest.mark.parametrize("lam,passed", [(0.75, True), (1.0, True), (1.05, False)])
    def test_semi_monotone_gate_ends_at_lambda_one(self, lam, passed):
        # The semi-monotone model: its exact maximum is 0 up to lambda = 1
        # and +6.7e-2 on every law at lambda = 1.05.
        model = disp_example_model(c=0.5, b1=MeanPoly2((0, 0, 0.6)), f1_x=(0, 0, 0.5))
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
        return disp_example_model(c=0.5, b1=MeanPoly2((0, 0, 0.6)),
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
        assert not report.passed and report.failure_kind is None
        # The eigenvalue stage passes, so the inequality is the witness, and
        # its margin kappa - rhs = 0.5 - 0.8 the report's.
        assert report.worst_margin == scalar["kappa"] - scalar["rhs"] < 0.0
        assert report.worst_margin == pytest.approx(-0.3, rel=1e-12)
        assert report.witness == {"inequality": "scalar_inequality",
                                  "kappa": scalar["kappa"], "rhs": scalar["rhs"]}

    @pytest.mark.parametrize("f1_x,kappa", [
        ((0, 0, 0.25), 0.5),
        ((0, 0, 0.25, 0.1, 0.05), 0.35),      # f1_x'' = 0.5 + 0.6 x + 0.6 x^2, least at -1/2
        ((0, 0, 0.25, 0, -0.001), -np.inf),   # negative leading coefficient
        ((0, 0, 0.25, 0.02), -np.inf),        # odd degree
        ((0, 1), 0.0),
    ], ids=["quadratic", "quartic", "quartic_down", "cubic", "linear"])
    def test_kappa_is_the_infimum_over_the_line(self, f1_x, kappa):
        model = disp_example_model(c=0.5, b1=MeanPoly2((0, 0, 0.6)), f1_x=f1_x)
        scalar = conditions._scalar_disp_inequality(model, 0.2)
        assert scalar["kappa"] == pytest.approx(kappa, rel=1e-14)
        assert scalar["holds"] is (kappa >= 0.0)

    @pytest.mark.parametrize("b1,d1", [
        ((0, -0.3, 0.6), 0.3),
        ((0, -0.3, 0.6, 0, 0, 0.2), 0.3),     # an m2^2 term leaves dB/dm1 alone
        ((0, -0.3, 0.6, 0.2), np.inf),
        ((0, -0.3, 0.6, 0, 0.2), np.inf),
    ], ids=["linear", "m2_squared", "m1_squared", "m1_m2"])
    def test_d1_is_the_supremum_over_all_means(self, b1, d1):
        # With q1 = q2 = 0 and c0 = 0, rhs = d1^2 / 4: unbounded for a B
        # whose m1 slope grows with the means.
        model = disp_example_model(c=0.5, b1=MeanPoly2(b1), f1_x=(0, 0, 0.25))
        scalar = conditions._scalar_disp_inequality(model, 0.0)
        assert scalar["rhs"] == pytest.approx(d1**2 / 4.0)
        assert scalar["holds"] is (d1 < np.inf)

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

    # q2 = 0.3 makes h_xrho2 nonzero.  In the preset it is the same for
    # every atom pair; b0x and f0x make it vary over the atoms, unequal to
    # its transpose, within the hypotheses at c0 = 0.3.
    BOUND_MODELS = {
        "preset": (preset_model({"family": "disp_example", "c": "0.5",
                                 "b1_mean": "0 -0.1 0.75", "f1_x": "0 0 0.25",
                                 "q2": "0.3"}), 0.5),
        "x_dependent": (Model(b0=(1.0, 0.05, 0.0), f0=(0.0, 0.1, 0.0, 0.5),
                              B=MeanPoly2((0.0, -0.1, 0.5)), f1_x=(0.0, 0.0, 0.25), q2=0.3),
                        0.3),
    }

    @pytest.mark.parametrize("case", sorted(BOUND_MODELS))
    def test_value_bounds_the_displacement_form(self, case):
        # The sufficient condition's form v(eta) bounds the displacement form
        # from above: max over gamma + zeta of (ll + ibar + lam dx2) <= -v(eta),
        # and the report's value is the minimum of v over unit-RMS eta.
        model, c0 = self.BOUND_MODELS[case]
        rng = np.random.default_rng(6)
        n = 16
        for lam in (0.0, 0.5):
            for xi, p in zip(*make_condition_samples(10, n, seed=4)):
                report = check_disp_sufficient(model, lam, c0, xi[None], p[None], tol=0.0)
                assert report.failure_kind is None
                table = hat_derivative_table(model, xi, p)
                if case == "x_dependent":
                    assert not np.allclose(table.h_xrho2, table.h_xrho2.T)
                matrix = sufficient_matrix(table, lam, c0)
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
