"""Checkers for the sufficient conditions on the reduced Hamiltonian.

Each condition is a quadratic-form inequality that must hold for every test
triple v = (eta, gamma, zeta) of atom values, on random laws of (state,
momentum) atoms: a set of laws is a pair of (laws, N) arrays (xi, p), row k
holding law k's states and the momenta that a Lipschitz feedback freezes at
them.  Independent copies are realised as full double sums over atom pairs,
self-pairs included: the continuum formulas integrate over a measure-zero
diagonal, and at n >= 16 atoms the O(1/n) diagonal bias is dominated by the
configured tolerance.

On one law of N atoms each form is v . M v for a symmetric (3N, 3N) matrix M
assembled in closed form from the hat table (``form_matrices``), so its
maximum over unit-RMS v is N times the largest eigenvalue of M.  Every gate
reads one hat table over all its laws, and the gates and the propagation
traces build the forms of a stacked table in chunks (``form_chunks``).  The
gates judge the eigenvalue on each random law, and a failing gate reports
the eigenvector that attains it.

Every checker turns one margin per law (or pair, or matrix) into its verdict
by one rule, ``ConditionReport.judge``: the worst sample is the first
minimum, a NaN margin before any number, so a non-finite sample fails; the
check passes when that margin is >= -slack; and the witness is built only
on failure.  The hypothesis stages of ``check_disp_sufficient`` and
``check_anti_assumption`` report their first failing law instead.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .models import HatTable, Model, hat_derivative_table
from .monotonicity import LambdaVec
from .reports import ConditionReport

PASS_SLACK = 1e-12
# Relative slack of the eigenvalue tests; the hat derivatives are exact.
REL_TOL = 1e-8
# Bytes of the forms of one form_matrices call of ``form_chunks``: 18 laws
# (or flow levels) of 16 atoms.  A larger buffer saves little time, and once freed it raises glibc's
# dynamic mmap threshold, after which the process keeps more heap resident:
# one call over 40 such laws (2.2 MB) raised the propagate benchmark's
# peak_rss_mb by 1.2 MB.
FORMS_BYTES = 1 << 20


class ConditionError(ValueError):
    pass


def make_condition_samples(n_samples: int, n_atoms: int = 16, seed: int = 0) -> tuple:
    """(xi, p): the (n_samples, n_atoms) states and momenta of Gaussian laws
    whose momenta come from alternating affine and clipped-polynomial
    feedbacks p = phi(xi), polynomial momenta clipped to [-3, 3]."""
    rng = np.random.default_rng(seed)
    xi = np.empty((n_samples, n_atoms))
    p = np.empty((n_samples, n_atoms))
    for k in range(n_samples):
        if k % 2 == 0:
            intercept, slope = float(rng.normal(0, 0.5)), float(rng.normal(0, 1.0))
            xi[k] = rng.normal(0.0, 1.0, n_atoms)
            p[k] = intercept + slope * xi[k]
        else:
            coeffs = rng.normal(0, 0.5, size=4)
            xi[k] = rng.normal(0.0, 1.0, n_atoms)
            p[k] = np.clip(np.polynomial.polynomial.polyval(xi[k], coeffs), -3.0, 3.0)
    return xi, p


def form_matrices(table: HatTable) -> np.ndarray:
    """The symmetric matrices L, Ibar and DX2, stacked as (3, 3N, 3N), of the
    quadratic forms over v = (eta, gamma, zeta) on one law of N atoms; a
    table of a stack of laws gives a (..., 3, 3N, 3N) stack, each law's
    matrices bit-identical to its own.

    v . L v is the left-hand side of the Lasry-Lions propagation condition;
    v . Ibar v and v . DX2 v are the time derivatives of the curvature pairing
    Ibar = E[G dX] and of the second moment E[dX^2] along the first-variation
    system at (dX, G, U) = (eta, gamma, zeta).  The displacement lambda form
    is L + Ibar + lam DX2.  Point terms enter as diagonals over N, and the
    double sums over atom pairs as the measure tables over N^2, whose [i, j]
    entry pairs atom i of the row variable (the base point) with atom j of
    the column variable (the support atom).
    """
    n = table.h_pp.shape[-1]
    lead = table.h_pp.shape[:-1]
    # forms[..., f, r, :, c, :] is the (r, c) block of form f over (eta |
    # gamma | zeta), before symmetrising.  The laws lead, so that the
    # reshapes below are views, and every block is written in place.
    forms = np.zeros((*lead, 3, 3, n, 3, n))
    ll, ibar, dx2 = (forms[..., f, :, :, :, :] for f in range(3))
    flat = forms.reshape(*lead, -1)

    def diagonal(f: int, r: int, c: int) -> np.ndarray:
        """The diagonal of block (r, c) of form f, as a view."""
        start = (9 * f + 3 * r) * n * n + c * n
        return flat[..., start:start + (3 * n + 1) * n:3 * n + 1]

    # L's zeta row is (p1 | p2 | p2) plus pp on its diagonal, its gamma row
    # is minus that row, and Ibar's gamma row is twice it; gamma and zeta
    # share every column except the h_pp terms.
    row = ll[..., 2, :, :, :]
    np.divide(table.h_prho1, n**2, out=row[..., 0, :])
    np.divide(table.h_prho2[..., None, :], n**2, out=row[..., 1:, :])
    np.negative(row, out=ll[..., 1, :, :, :])
    np.multiply(row, 2.0, out=ibar[..., 1, :, :, :])
    dx2[..., 0, :, :, :] = row
    np.divide(table.h_xrho1, -n**2, out=ll[..., 0, :, 0, :])
    np.divide(table.h_xrho2[..., None, :], -n**2, out=ll[..., 0, :, 1:, :])
    pp = table.h_pp / n
    for f, r, c, term in ((0, 2, 2, pp), (1, 1, 1, pp), (1, 1, 2, 2.0 * pp),
                          (2, 0, 0, table.h_xp / n), (2, 0, 1, pp), (2, 0, 2, pp)):
        view = diagonal(f, r, c)
        view += term
    dx2[..., 0, :, :, :] *= 2.0
    diagonal(1, 0, 0)[...] = -(table.h_xx / n)
    matrices = forms.reshape(*forms.shape[:-4], 3 * n, 3 * n)
    # M <- (M + M^T) / 2 in place, one form at a time: numpy copies the
    # transpose that a form's stack overlaps, a third of the forms.
    for f in range(3):
        form = matrices[..., f, :, :]
        form += np.swapaxes(form, -1, -2)
    matrices *= 0.5
    return matrices


def _eigenvalues(matrices: np.ndarray) -> tuple:
    """(eigenvalues, finite): the ascending eigenvalues of each symmetric
    matrix of the stack, a row of NaN for a non-finite one, and which are
    finite.  The stack's non-finite matrices are zeroed: eigvalsh does not
    converge on them."""
    finite = np.isfinite(matrices).all(axis=(-2, -1))
    matrices[~finite] = 0.0
    return np.where(finite[:, None], np.linalg.eigvalsh(matrices), np.nan), finite


def _eigen_report(condition: str, matrices: np.ndarray, tol: float | None,
                  sign: int = 1, blocks: tuple = ("eta", "gamma", "zeta"),
                  details: dict | None = None) -> ConditionReport:
    """Judge value = N lambda of each law's (len(blocks) N, len(blocks) N)
    form matrix against tol (default REL_TOL max(1, |value|)): with sign = 1
    lambda is the largest eigenvalue, the form's maximum over unit-RMS v,
    and the margin is tol - value; with sign = -1 it is the smallest, the
    form's minimum, and the margin is value + tol.  A failing report's
    witness is that unit-RMS eigenvector, split into blocks.  A non-finite
    matrix has a NaN value and margin, so the first one is the witness of a
    failing report; the stack's non-finite matrices are zeroed.  details
    default to the largest value."""
    n = matrices.shape[-1] // len(blocks)
    column = -1 if sign > 0 else 0
    eigenvalues, finite = _eigenvalues(matrices)
    values = n * eigenvalues[:, column]
    threshold = tol if tol is not None else REL_TOL * np.maximum(1.0, np.abs(values))

    def witness(worst: int) -> dict:
        found = {"sample": worst, "value": float(values[worst])}
        if finite[worst]:
            vector = np.sqrt(n) * np.linalg.eigh(matrices[worst])[1][:, column]
            found.update((name, part.tolist())
                         for name, part in zip(blocks, np.split(vector, len(blocks))))
        return found

    return ConditionReport.judge(
        condition, threshold - sign * values, tol if tol is not None else REL_TOL,
        witness, PASS_SLACK,
        {"max_value": float(np.max(values))} if details is None else details)


def form_chunks(table: HatTable, reduce: Callable, out: np.ndarray) -> np.ndarray:
    """out, with out[chunk] = reduce(forms, chunk) for each chunk of the laws
    of a stacked table: ``forms`` are the ``form_matrices`` of the laws at
    the slice ``chunk`` of the table's leading axis, at most FORMS_BYTES of
    them, and each is freed before the next chunk's are built."""
    laws, n = table.h_pp.shape
    step = max(1, FORMS_BYTES // (27 * n * n * 8))
    for start in range(0, laws, step):
        chunk = slice(start, start + step)
        out[chunk] = reduce(form_matrices(table[chunk]), chunk)
    return out


def _gate_matrices(model: Model, xi: np.ndarray, p: np.ndarray,
                   combine: Callable) -> np.ndarray:
    """The (laws, 3N, 3N) stack of combine(forms) over the laws (xi, p), from
    one hat table over all laws, built without floating-point warnings: an
    overflow gives non-finite forms, which ``_eigen_report`` fails."""
    n = xi.shape[-1]
    with np.errstate(all="ignore"):
        return form_chunks(hat_derivative_table(model, xi, p),
                           lambda forms, chunk: combine(forms),
                           np.empty((len(xi), 3 * n, 3 * n)))


def check_ll_condition(model: Model, xi: np.ndarray, p: np.ndarray,
                       tol: float | None = None) -> ConditionReport:
    """Exact test of the Lasry-Lions quadratic-form condition on each law
    (xi, p): the form's maximum over unit-RMS (eta, gamma, zeta) is <= tol."""
    return _eigen_report("lasry_lions_hamiltonian",
                         _gate_matrices(model, xi, p, lambda forms: forms[:, 0]), tol)


def check_disp_condition(model: Model, lam: float, xi: np.ndarray, p: np.ndarray,
                         tol: float | None = None) -> ConditionReport:
    """Exact test of the displacement lambda quadratic-form condition on each
    law (xi, p): the maximum of L + Ibar + lam DX2 over unit-RMS
    (eta, gamma, zeta) is <= tol."""
    if lam < 0:
        raise ConditionError("lambda must be nonnegative")

    def combine(forms):
        # L + Ibar + lam DX2 in place, in that order, in the buffer of the forms.
        ll, ibar, dx2 = np.moveaxis(forms, 1, 0)
        dx2 *= lam
        ll += ibar
        ll += dx2
        return ll

    return _eigen_report("displacement_hamiltonian", _gate_matrices(model, xi, p, combine),
                         tol)


def matrix1_assemble(c1: float, c2: float, c3: float, db1_dm1: float,
                     db1_dm2: float) -> np.ndarray:
    if not 0.0 < c1 < 1.0:
        raise ConditionError(f"c1 must lie in (0, 1), got {c1}")
    chat1 = c1 / (1.0 - c1)
    cbar1 = 1.0 / (1.0 - c1)
    chat3 = c3 / (1.0 - c1)
    h_prho2 = cbar1 * db1_dm2 - chat1
    return np.array([
        [1.0 - h_prho2, 0.0, 0.5 * (chat3 - db1_dm1)],
        [0.0, h_prho2, 0.5 * (chat3 + db1_dm1)],
        [0.5 * (chat3 - db1_dm1), 0.5 * (chat3 + db1_dm1), c2],
    ])


def check_matrix1(c1: float, c2: float, c3: float, db1_dm1: float,
                  db1_dm2: float) -> ConditionReport:
    """Exact PSD test of the 3x3 coefficient matrix of the mean-coupled family."""
    matrix = matrix1_assemble(c1, c2, c3, db1_dm1, db1_dm2)
    eigenvalues = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    smallest = float(eigenvalues[0])
    return ConditionReport.judge(
        "coefficient_matrix_psd", [smallest + PASS_SLACK], PASS_SLACK,
        lambda worst: {"eigenvalue": smallest, "matrix": matrix.tolist()},
        details={"eigenvalues": eigenvalues.tolist(), "matrix": matrix.tolist()})


def control_coupling(model: Model) -> float | None:
    """c when the model has the control-coupled form b0 = (1, 0, 0),
    f0 = (0, 0, 0, c) of the ll/disp/anti presets, else None."""
    if model.b0 == (1.0, 0.0, 0.0) and model.f0[:3] == (0.0, 0.0, 0.0):
        return model.f0[3]
    return None


def _diag(values: np.ndarray) -> np.ndarray:
    """The diagonal matrices of the last axis of values, stacked."""
    n = values.shape[-1]
    out = np.zeros((*values.shape, n))
    out[..., np.arange(n), np.arange(n)] = values
    return out


def sufficient_matrix(table: HatTable, lam: float, c0: float) -> np.ndarray:
    """The symmetric (N, N) matrix S of the (xi, eta)-only sufficient
    condition on one law: eta . S eta is the curvature terms
    E[eta (h_xx - 2 lam h_xp) eta] and E[eta (h_xrho1 - 2 lam h_prho1) eta']
    less a quarter of the mean square of the mixed gz-eta coefficient,
    normalised by sqrt(-h_pp - c0).  A table of a stack of laws gives the
    stack of their matrices, each bit-identical to its own."""
    n = table.h_pp.shape[-1]

    def transpose(a):
        return np.swapaxes(a, -1, -2)

    # [i, j] coefficient of gz_i eta_j in the displacement form, atom sums over N
    mixed = ((table.h_prho1 - transpose(table.h_xrho2) + 2.0 * lam * transpose(table.h_prho2))
             / n + 2.0 * lam * _diag(table.h_pp))
    s = (_diag(table.h_xx - 2.0 * lam * table.h_xp) / n
         + (table.h_xrho1 - 2.0 * lam * table.h_prho1) / n**2
         - 0.25 / n * transpose(mixed) @ (mixed / (-table.h_pp - c0)[..., None]))
    return 0.5 * (s + transpose(s))


def check_disp_sufficient(model: Model, lam: float, c0: float, xi: np.ndarray,
                          p: np.ndarray, tol: float | None = None) -> ConditionReport:
    """Single-variable sufficient condition for the displacement form.

    Hypotheses checked first on every law (xi, p): |Hhat_{p rho2}| <= c0
    and Hhat_pp < -c0; the first law that breaks one, or has a NaN bound, is
    the witness, h_prho2 before h_pp.  Then the minimum of the (xi, eta)-only
    form of ``sufficient_matrix`` over unit-RMS eta, N times its smallest
    eigenvalue, must be >= -tol (default REL_TOL max(1, |value|)), judged by
    ``_eigen_report``.  For a control-coupled model the scalar parameter
    inequality is evaluated exactly and reported alongside, and it must
    hold too.
    """
    if c0 < 0:
        raise ConditionError("c0 must be nonnegative")
    details: dict = {}
    laws = len(xi)
    # An overflowing model gives non-finite entries: a NaN bound fails its
    # hypothesis and a non-finite matrix its eigenvalue test, without
    # floating-point warnings.
    with np.errstate(all="ignore"):
        if control_coupling(model) is not None:
            details["scalar_inequality"] = _scalar_disp_inequality(model, c0)
        table = hat_derivative_table(model, xi, p)
        prho2 = np.abs(table.h_prho2).reshape(laws, -1).max(axis=1)
        pp = table.h_pp.max(axis=1)
        over = ~(prho2 <= c0 + 1e-9)
        bad = np.flatnonzero(over | ~(pp < -c0 - 1e-12))
    if bad.size:
        idx = int(bad[0])
        bound, value = ("h_prho2", prho2[idx]) if over[idx] else ("h_pp", pp[idx])
        return ConditionReport(
            condition="displacement_sufficient",
            n_samples=laws,
            worst_margin=-np.inf,
            passed=False,
            tolerance=tol if tol is not None else REL_TOL,
            witness={"sample": idx, "bound": bound, "value": float(value), "c0": c0},
            failure_kind="hypothesis",
            details=details,
        )
    with np.errstate(all="ignore"):
        matrices = sufficient_matrix(table, lam, c0)
    report = _eigen_report("displacement_sufficient", matrices, tol, sign=-1,
                           blocks=("eta",), details=details)
    report.passed = report.passed and details.get("scalar_inequality", {}).get("holds", True)
    return report


def _scalar_disp_inequality(model: Model, c0: float) -> dict:
    """Exact parameter form of the sufficient condition for a control-coupled
    model: curvature of the x-cost must dominate the state coupling plus the
    normalised square of the momentum couplings."""
    c = control_coupling(model)
    chat = c / (1.0 - c)
    q1, q2 = model.q1, model.q2
    bmean = np.asarray(model.B.coeffs)
    if np.any(bmean[3:] != 0.0):
        # nonlinear mean coupling: derivative sup over a sampled box
        grid = np.linspace(-3.0, 3.0, 25)
        m1g, m2g = np.meshgrid(grid, grid)
        d1 = np.abs(bmean[1] + 2 * bmean[3] * m1g + bmean[4] * m2g).max()
    else:
        d1 = abs(bmean[1])
    xs = np.linspace(-6.0, 6.0, 121)
    poly = np.polynomial.polynomial
    kappa = float(np.min(poly.polyval(xs, poly.polyder(model.f1_x, 2))))
    rhs = abs(q1) + (d1 + (1.0 + chat) * abs(q2)) ** 2 / (4.0 * (1.0 - c0)) \
        if c0 < 1.0 else np.inf
    return {
        "kappa": kappa,
        "rhs": float(rhs),
        "holds": bool(kappa >= rhs - 1e-12),
        "c0": c0,
    }


def anti_coefficient_matrices(lvec: LambdaVec, theta1: float,
                              gamma_lo: float, lu_xx: float):
    """The diagonal gain matrix and the loss matrix of the anti-monotone
    propagation estimate."""
    l0_, l1_, l2_, l3_ = lvec.l0, lvec.l1, lvec.l2, lvec.l3
    a1 = np.diag([
        4.0 * (1.0 - theta1),
        2.0 * l2_,
        (1.0 - theta1) * (l0_ * gamma_lo + 2.0 * l3_),
    ])
    b1 = np.array([
        [2.0, 2.0 + l2_, 1.0],
        [2.0 + l2_, 4.0 * l2_, l2_],
        [1.0, l2_, 0.0],
    ])
    b2 = np.array([
        [l0_ + 2.0 * abs(l0_ - l1_),
         l0_ + abs(l0_ - 0.5 * l1_) + 0.5 * abs(l1_) + l2_,
         abs(l0_ - 0.5 * l1_) + 0.5 * abs(l1_) + 2.0 * l3_],
        [l0_ + abs(l0_ - 0.5 * l1_) + 0.5 * abs(l1_) + l2_,
         2.0 * abs(l1_) + 2.0 * l2_,
         abs(l1_) + l2_ + 2.0 * l3_],
        [abs(l0_ - 0.5 * l1_) + 0.5 * abs(l1_) + 2.0 * l3_,
         abs(l1_) + l2_ + 2.0 * l3_,
         abs(l1_) + 2.0 * l3_],
    ])
    a2 = b1 * lu_xx + b2
    return a1, a2


def anti_theta1(lvec: LambdaVec, gamma_lo: float, gamma_hi: float,
                lu_xx: float) -> float:
    return float(gamma_hi * (1.0 + lu_xx) / np.sqrt(4.0 * (gamma_lo * lvec.l0 + 2.0 * lvec.l3)))


# The derivative bounds of the anti-monotone assumption, in the order that
# ``check_anti_assumption`` reports the first failure.
ANTI_BOUNDS = ("abs_h_xp<=gamma_hi*l0", "abs_h_xx<=gamma_hi*l0", "abs_h_pp<=l_bar",
               "abs_h_xrho1<=l_bar", "abs_h_xrho2<=l_bar", "abs_h_prho1<=l_bar",
               "abs_h_prho2<=l_bar", "-h_xp>=l0", "-h_xx>=gamma_lo*l0")


def check_anti_assumption(model: Model, lvec: LambdaVec, l0: float,
                          gamma_lo: float, gamma_hi: float, l_bar: float,
                          lu_xx: float, xi: np.ndarray, p: np.ndarray) -> ConditionReport:
    """Staged verification of the anti-monotone propagation hypotheses.

    (i) the ``ANTI_BOUNDS`` derivative bounds on every law (xi, p), the first
    failure in (law, bound) order the witness; (ii) the contraction number
    theta1 < 1 (reported first when it fails: the gain matrix would be
    singular); (iii)/(iv) the assembled gain/loss matrices must satisfy
    l_bar * sup-eigenvalue(A1^{-1} A2) <= l0.
    """
    if not gamma_hi > gamma_lo > 0:
        raise ConditionError("need gamma_hi > gamma_lo > 0")
    slack = 1e-9
    n_samples = len(xi)

    def peak(entry: np.ndarray) -> np.ndarray:
        """The largest |entry| of each law."""
        return np.abs(entry).reshape(n_samples, -1).max(axis=1)

    # (laws, 9) margins, in the order of ANTI_BOUNDS; a NaN one fails.
    with np.errstate(all="ignore"):
        table = hat_derivative_table(model, xi, p)
        margins = np.stack([
            gamma_hi * l0 - peak(table.h_xp),
            gamma_hi * l0 - peak(table.h_xx),
            *(l_bar - peak(getattr(table, name)) for name in
              ("h_pp", "h_xrho1", "h_xrho2", "h_prho1", "h_prho2")),
            (-table.h_xp).min(axis=1) - l0,
            (-table.h_xx).min(axis=1) - gamma_lo * l0,
        ], axis=1)
    bounds_margin = float(np.min(margins))
    failing = np.argwhere(~(margins >= -slack))
    if failing.size:
        idx, bound = failing[0]
        return ConditionReport(
            condition="anti_monotone_assumption", n_samples=n_samples,
            worst_margin=bounds_margin, passed=False, tolerance=slack,
            witness={"sample": int(idx), "bound": ANTI_BOUNDS[bound],
                     "margin": float(margins[idx, bound])},
            failure_kind="derivative_bounds",
            details={"stage": "bounds"},
        )

    theta1 = anti_theta1(lvec, gamma_lo, gamma_hi, lu_xx)
    details = {"theta1": theta1, "bounds_margin": bounds_margin}
    if not theta1 < 1.0:
        return ConditionReport(
            condition="anti_monotone_assumption", n_samples=n_samples,
            worst_margin=1.0 - theta1, passed=False, tolerance=0.0,
            witness={"theta1": theta1}, failure_kind="theta",
            details=details | {"stage": "theta"},
        )

    a1, a2 = anti_coefficient_matrices(lvec, theta1, gamma_lo, lu_xx)
    product = np.linalg.solve(a1, a2)
    kappa_bar = float(np.linalg.eigvalsh(0.5 * (product + product.T))[-1])
    gain_margin = l0 - l_bar * kappa_bar
    details.update({
        "kappa_bar": kappa_bar,
        "a1": a1.tolist(),
        "a2": a2.tolist(),
        "gain_margin": gain_margin,
    })
    passed = gain_margin >= -slack
    return ConditionReport(
        condition="anti_monotone_assumption", n_samples=n_samples,
        worst_margin=float(min(bounds_margin, 1.0 - theta1, gain_margin)),
        passed=bool(passed), tolerance=slack,
        witness=None if passed else {"kappa_bar": kappa_bar, "l_bar": l_bar, "l0": l0},
        failure_kind=None if passed else "gain",
        details=details,
    )


def check_f_monotone(model: Model, xi1: np.ndarray, a1: np.ndarray, xi2: np.ndarray,
                     a2: np.ndarray, tol: float = 1e-10) -> ConditionReport:
    """Four-term cross-difference monotonicity of the running cost in the
    joint law, under the hypothesis b(x, a, nu) = a.

    Row k of the (pairs, N) arrays xi1, a1, xi2 and a2 is pair k: the
    coupled (state, control) atoms of its two laws.  A pair whose cross
    difference is not finite fails the check.
    """
    if (model.b0, model.b1_x, model.B.coeffs) != ((-1.0, 0.0, 0.0), (0.0,), (0.0,) * 6):
        return ConditionReport(
            condition="cost_cross_monotonicity", n_samples=len(xi1),
            worst_margin=-np.inf, passed=False, tolerance=tol,
            witness={"b0": list(model.b0), "b1_x": list(model.b1_x),
                     "b1_mean": list(model.B.coeffs)},
            failure_kind="hypothesis",
            details={"reason": "drift is not the identity in the control"},
        )

    def mean_cost(xi, a, law):
        return np.mean(model.cost(xi, a, *law), axis=-1)

    with np.errstate(all="ignore"):
        law1 = (np.mean(xi1, axis=-1, keepdims=True), np.mean(a1, axis=-1, keepdims=True))
        law2 = (np.mean(xi2, axis=-1, keepdims=True), np.mean(a2, axis=-1, keepdims=True))
        values = (mean_cost(xi1, a1, law1) + mean_cost(xi2, a2, law2)
                  - mean_cost(xi1, a1, law2) - mean_cost(xi2, a2, law1))
    return ConditionReport.judge("cost_cross_monotonicity", values + tol, tol,
                                 lambda k: {"pair": k, "value": float(values[k])})
