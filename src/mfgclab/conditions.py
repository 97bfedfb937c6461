"""Checkers for the sufficient conditions on the reduced Hamiltonian.

Each condition is a quadratic-form inequality that must hold for every test
triple v = (eta, gamma, zeta) of atom values, on the law of (xi, phi(xi))
for states xi and a Lipschitz feedback phi freezing the momentum variable.
Independent copies are realised as full double sums over atom pairs,
self-pairs included: the continuum formulas integrate over a measure-zero
diagonal, and at n >= 16 atoms the O(1/n) diagonal bias is dominated by the
configured tolerance.

On one law of N atoms each form is v . M v for a symmetric (3N, 3N) matrix M
assembled in closed form from the hat table (``form_matrices``), so its
maximum over unit-RMS v is N times the largest eigenvalue of M.  The gates
judge that eigenvalue on each random law, and a failing gate reports the
eigenvector that attains it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import HatTable, Model, hat_derivative_table
from .monotonicity import LambdaVec
from .reports import ConditionReport

PASS_SLACK = 1e-12
# Relative slack of the eigenvalue tests; the hat derivatives are exact.
REL_TOL = 1e-8


class ConditionError(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticFormSample:
    """One random law: the atom states xi and the feedback giving their momenta."""

    xi: np.ndarray
    phi_map: Callable

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float).reshape(-1)
        if not np.all(np.isfinite(xi)):
            raise ConditionError("sample states have non-finite entries")
        if xi.shape[0] < 2:
            raise ConditionError("samples need at least two atoms")
        object.__setattr__(self, "xi", xi)

    def table(self, model: Model):
        """Hat derivatives over the frozen law of (xi, phi(xi))."""
        momenta = np.asarray(self.phi_map(self.xi), dtype=float).reshape(-1)
        return hat_derivative_table(model, self.xi, momenta)


def affine_feedback(intercept: float, slope: float) -> Callable:
    return lambda x: intercept + slope * np.asarray(x, dtype=float)


def clipped_poly_feedback(coeffs, bound: float = 3.0) -> Callable:
    c = np.asarray(coeffs, dtype=float)

    def phi(x):
        return np.clip(np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c),
                       -bound, bound)

    return phi


def make_condition_samples(n_samples: int, n_atoms: int = 16, seed: int = 0) -> list:
    """Gaussian laws of n_atoms states with alternating affine and
    clipped-polynomial feedbacks."""
    rng = np.random.default_rng(seed)
    samples = []
    for k in range(n_samples):
        if k % 2 == 0:
            phi = affine_feedback(float(rng.normal(0, 0.5)), float(rng.normal(0, 1.0)))
        else:
            phi = clipped_poly_feedback(rng.normal(0, 0.5, size=4))
        samples.append(QuadraticFormSample(rng.normal(0.0, 1.0, n_atoms), phi))
    return samples


def form_matrices(table: HatTable) -> np.ndarray:
    """The symmetric matrices L, Ibar and DX2, stacked as (3, 3N, 3N), of the
    quadratic forms over v = (eta, gamma, zeta) on one law of N atoms.

    v . L v is the left-hand side of the Lasry-Lions propagation condition;
    v . Ibar v and v . DX2 v are the time derivatives of the curvature pairing
    Ibar = E[G dX] and of the second moment E[dX^2] along the first-variation
    system at (dX, G, U) = (eta, gamma, zeta).  The displacement lambda form
    is L + Ibar + lam DX2.  Point terms enter as diagonals over N, and the
    double sums over atom pairs as the measure tables over N^2, whose [i, j]
    entry pairs atom i of the row variable (the base point) with atom j of
    the column variable (the support atom).
    """
    n = table.h_pp.shape[0]
    pp, xx, xp = (np.diag(h) / n for h in (table.h_pp, table.h_xx, table.h_xp))
    x1, x2, p1, p2 = (h / n**2 for h in (table.h_xrho1, table.h_xrho2,
                                         table.h_prho1, table.h_prho2))
    # forms[f, r, :, c] is the (r, c) block of form f over (eta | gamma | zeta),
    # before symmetrising; gamma and zeta share every column except the
    # h_pp terms.
    forms = np.zeros((3, 3, n, 3, n))
    ll, ibar, dx2 = forms
    ll[0, :, 0], ll[0, :, 1:] = -x1, -x2[:, None]
    ll[1, :, 0], ll[1, :, 1:] = -p1, -p2[:, None]
    ll[2, :, 0], ll[2, :, 1:] = p1, p2[:, None]
    ll[2, :, 2] += pp
    ibar[0, :, 0] = -xx
    ibar[1, :, 0], ibar[1, :, 1:] = 2.0 * p1, 2.0 * p2[:, None]
    ibar[1, :, 1] += pp
    ibar[1, :, 2] += 2.0 * pp
    dx2[0, :, 0], dx2[0, :, 1:] = 2.0 * (xp + p1), 2.0 * (pp + p2)[:, None]
    forms = forms.reshape(3, 3 * n, 3 * n)
    return 0.5 * (forms + forms.swapaxes(-1, -2))


def dx_velocity(table: HatTable, eta: np.ndarray, gz: np.ndarray) -> np.ndarray:
    """Velocity of the first-variation state dX = eta with gz = G + U: the
    point terms plus the mean-field forcing (h_prho1 eta + h_prho2 gz) @ w.
    Leading axes of eta and gz are independent directions."""
    w = np.full(eta.shape[-1], 1.0 / eta.shape[-1])
    return (table.h_xp * eta + table.h_pp * gz
            + (table.h_prho1 * eta[..., None, :] + table.h_prho2 * gz[..., None, :]) @ w)


def _eigen_report(condition: str, matrices: list, tol: float | None) -> ConditionReport:
    """Judge value = N lambda_max of each law's (3N, 3N) form matrix, the
    form's maximum over unit-RMS v, against tol (default REL_TOL max(1, |value|));
    a failing report's witness is that unit-RMS eigenvector."""
    matrices = np.stack(matrices)
    n = matrices.shape[-1] // 3
    values = n * np.linalg.eigvalsh(matrices)[:, -1]
    threshold = tol if tol is not None else REL_TOL * np.maximum(1.0, np.abs(values))
    margins = threshold - values
    worst = int(np.argmin(margins))
    passed = margins[worst] >= -PASS_SLACK
    witness = None
    if not passed:
        vector = np.linalg.eigh(matrices[worst])[1][:, -1]
        eta, gamma, zeta = np.split(np.sqrt(n) * vector, 3)
        witness = {"sample": worst, "value": float(values[worst]), "eta": eta.tolist(),
                   "gamma": gamma.tolist(), "zeta": zeta.tolist()}
    return ConditionReport(
        condition=condition,
        n_samples=len(matrices),
        worst_margin=float(margins[worst]),
        passed=bool(passed),
        tolerance=tol if tol is not None else REL_TOL,
        witness=witness,
        details={"max_value": float(np.max(values))},
    )


def check_ll_condition(model: Model, samples: list,
                       tol: float | None = None) -> ConditionReport:
    """Exact test of the Lasry-Lions quadratic-form condition on each law of
    samples: the form's maximum over unit-RMS (eta, gamma, zeta) is <= tol."""
    return _eigen_report("lasry_lions_hamiltonian",
                         [form_matrices(s.table(model))[0] for s in samples], tol)


def check_disp_condition(model: Model, lam: float, samples: list,
                         tol: float | None = None) -> ConditionReport:
    """Exact test of the displacement lambda quadratic-form condition on each
    law of samples: the maximum of L + Ibar + lam DX2 over unit-RMS
    (eta, gamma, zeta) is <= tol."""
    if lam < 0:
        raise ConditionError("lambda must be nonnegative")
    matrices = []
    for sample in samples:
        ll, ibar, dx2 = form_matrices(sample.table(model))
        matrices.append(ll + ibar + lam * dx2)
    return _eigen_report("displacement_hamiltonian", matrices, tol)


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
    passed = smallest >= -PASS_SLACK
    return ConditionReport(
        condition="coefficient_matrix_psd",
        n_samples=1,
        worst_margin=smallest + PASS_SLACK,
        passed=bool(passed),
        tolerance=PASS_SLACK,
        witness=None if passed else {"eigenvalue": smallest,
                                     "matrix": matrix.tolist()},
        details={"eigenvalues": eigenvalues.tolist(), "matrix": matrix.tolist()},
    )


def control_coupling(model: Model) -> float | None:
    """c when the model has the control-coupled form b0 = (1, 0, 0),
    f0 = (0, 0, 0, c) of the ll/disp/anti presets, else None."""
    if model.b0 == (1.0, 0.0, 0.0) and model.f0[:3] == (0.0, 0.0, 0.0):
        return model.f0[3]
    return None


def sufficient_matrix(table: HatTable, lam: float, c0: float) -> np.ndarray:
    """The symmetric (N, N) matrix S of the (xi, eta)-only sufficient
    condition on one law: eta . S eta is the curvature terms
    E[eta (h_xx - 2 lam h_xp) eta] and E[eta (h_xrho1 - 2 lam h_prho1) eta']
    less a quarter of the mean square of the mixed gz-eta coefficient,
    normalised by sqrt(-h_pp - c0)."""
    n = table.h_pp.shape[0]
    # [i, j] coefficient of gz_i eta_j in the displacement form, atom sums over N
    mixed = ((table.h_prho1 - table.h_xrho2.T + 2.0 * lam * table.h_prho2.T) / n
             + 2.0 * lam * np.diag(table.h_pp))
    s = (np.diag(table.h_xx - 2.0 * lam * table.h_xp) / n
         + (table.h_xrho1 - 2.0 * lam * table.h_prho1) / n**2
         - 0.25 / n * mixed.T @ (mixed / (-table.h_pp - c0)[:, None]))
    return 0.5 * (s + s.T)


def check_disp_sufficient(model: Model, lam: float, c0: float, samples: list,
                          tol: float | None = None) -> ConditionReport:
    """Single-variable sufficient condition for the displacement form.

    Hypotheses checked first on every law of samples: |Hhat_{p rho2}| <= c0
    and Hhat_pp < -c0.  Then the minimum of the (xi, eta)-only form of
    ``sufficient_matrix`` over unit-RMS eta, N times its smallest eigenvalue,
    must be >= -tol (default REL_TOL max(1, |value|)).  For a
    control-coupled model the scalar parameter inequality is evaluated
    exactly and reported alongside.
    """
    if c0 < 0:
        raise ConditionError("c0 must be nonnegative")
    details: dict = {}
    if control_coupling(model) is not None:
        details["scalar_inequality"] = _scalar_disp_inequality(model, c0)
    tables = [sample.table(model) for sample in samples]
    hypothesis_fail = None
    for idx, table in enumerate(tables):
        if np.max(np.abs(table.h_prho2)) > c0 + 1e-9:
            hypothesis_fail = {"sample": idx, "bound": "h_prho2",
                               "value": float(np.max(np.abs(table.h_prho2))), "c0": c0}
            break
        if np.max(table.h_pp) >= -c0 - 1e-12:
            hypothesis_fail = {"sample": idx, "bound": "h_pp",
                               "value": float(np.max(table.h_pp)), "c0": c0}
            break
    if hypothesis_fail is not None:
        return ConditionReport(
            condition="displacement_sufficient",
            n_samples=len(samples),
            worst_margin=-np.inf,
            passed=False,
            tolerance=tol if tol is not None else REL_TOL,
            witness=hypothesis_fail,
            failure_kind="hypothesis",
            details=details,
        )
    matrices = np.stack([sufficient_matrix(t, lam, c0) for t in tables])
    n = matrices.shape[-1]
    values = n * np.linalg.eigvalsh(matrices)[:, 0]
    threshold = tol if tol is not None else REL_TOL * np.maximum(1.0, np.abs(values))
    margins = values + threshold
    worst = int(np.argmin(margins))
    passed = margins[worst] >= -PASS_SLACK
    return ConditionReport(
        condition="displacement_sufficient",
        n_samples=len(samples),
        worst_margin=float(margins[worst]),
        passed=bool(passed and details.get("scalar_inequality", {}).get("holds", True)),
        tolerance=tol if tol is not None else REL_TOL,
        witness=None if passed else {
            "sample": worst, "value": float(values[worst]),
            "eta": (np.sqrt(n) * np.linalg.eigh(matrices[worst])[1][:, 0]).tolist()},
        details=details,
    )


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


def check_anti_assumption(model: Model, lvec: LambdaVec, l0: float,
                          gamma_lo: float, gamma_hi: float, l_bar: float,
                          lu_xx: float, samples: list) -> ConditionReport:
    """Staged verification of the anti-monotone propagation hypotheses.

    (i) derivative bounds on every law of samples; (ii) the contraction
    number theta1 < 1 (reported first when it fails: the gain matrix would be
    singular); (iii)/(iv) the assembled gain/loss matrices must satisfy
    l_bar * sup-eigenvalue(A1^{-1} A2) <= l0.
    """
    if not gamma_hi > gamma_lo > 0:
        raise ConditionError("need gamma_hi > gamma_lo > 0")
    slack = 1e-9
    n_samples = len(samples)
    bound_margins = []
    witness = None
    for idx, sample in enumerate(samples):
        table = sample.table(model)
        checks = {
            "abs_h_xp<=gamma_hi*l0": gamma_hi * l0 - float(np.max(np.abs(table.h_xp))),
            "abs_h_xx<=gamma_hi*l0": gamma_hi * l0 - float(np.max(np.abs(table.h_xx))),
            "abs_h_pp<=l_bar": l_bar - float(np.max(np.abs(table.h_pp))),
            "abs_h_xrho1<=l_bar": l_bar - float(np.max(np.abs(table.h_xrho1))),
            "abs_h_xrho2<=l_bar": l_bar - float(np.max(np.abs(table.h_xrho2))),
            "abs_h_prho1<=l_bar": l_bar - float(np.max(np.abs(table.h_prho1))),
            "abs_h_prho2<=l_bar": l_bar - float(np.max(np.abs(table.h_prho2))),
            "-h_xp>=l0": float(np.min(-table.h_xp)) - l0,
            "-h_xx>=gamma_lo*l0": float(np.min(-table.h_xx)) - gamma_lo * l0,
        }
        for name, margin in checks.items():
            bound_margins.append(margin)
            if margin < -slack and witness is None:
                witness = {"sample": idx, "bound": name, "margin": margin}
    bounds_margin = float(np.min(bound_margins))
    if witness is not None:
        return ConditionReport(
            condition="anti_monotone_assumption", n_samples=n_samples,
            worst_margin=bounds_margin, passed=False, tolerance=slack,
            witness=witness, failure_kind="derivative_bounds",
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


def check_f_monotone(model: Model, pairs: list,
                     tol: float = 1e-10) -> ConditionReport:
    """Four-term cross-difference monotonicity of the running cost in the
    joint law, under the hypothesis b(x, a, nu) = a.

    ``pairs`` is a list of ((xi1, alpha1), (xi2, alpha2)) coupled atom arrays.
    """
    if (model.b0, model.b1_x, model.B.coeffs) != ((-1.0, 0.0, 0.0), (0.0,), (0.0,) * 6):
        return ConditionReport(
            condition="cost_cross_monotonicity", n_samples=len(pairs),
            worst_margin=-np.inf, passed=False, tolerance=tol,
            witness={"b0": list(model.b0), "b1_x": list(model.b1_x),
                     "b1_mean": list(model.B.coeffs)},
            failure_kind="hypothesis",
            details={"reason": "drift is not the identity in the control"},
        )
    worst_margin = np.inf
    witness = None
    for idx, ((xi1, a1), (xi2, a2)) in enumerate(pairs):
        xi1 = np.asarray(xi1, dtype=float).reshape(-1)
        a1 = np.asarray(a1, dtype=float).reshape(-1)
        xi2 = np.asarray(xi2, dtype=float).reshape(-1)
        a2 = np.asarray(a2, dtype=float).reshape(-1)
        law1 = (float(np.mean(xi1)), float(np.mean(a1)))
        law2 = (float(np.mean(xi2)), float(np.mean(a2)))
        value = float(
            np.mean(model.cost(xi1, a1, *law1)) + np.mean(model.cost(xi2, a2, *law2))
            - np.mean(model.cost(xi1, a1, *law2)) - np.mean(model.cost(xi2, a2, *law1))
        )
        margin = value + tol
        if margin < worst_margin:
            worst_margin = margin
            witness = {"pair": idx, "value": value}
    passed = worst_margin >= 0.0
    return ConditionReport(
        condition="cost_cross_monotonicity", n_samples=len(pairs),
        worst_margin=float(worst_margin), passed=bool(passed), tolerance=tol,
        witness=None if passed else witness, details={},
    )
